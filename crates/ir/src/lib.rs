//! # snowflake-ir
//!
//! The platform-agnostic middle end of the Snowflake micro-compiler (§IV).
//!
//! The paper's JIT hands each backend a narrow, fully-resolved description
//! of the work: which cells to visit (resolved strided regions), what to
//! compute at each (a flattened arithmetic program over grid reads), and
//! which stencils may run concurrently (barrier phases from the Diophantine
//! analysis). This crate produces that description:
//!
//! * [`bytecode`] — lowers an [`snowflake_core::Expr`] into a postfix
//!   program whose reads are *cursor-class + constant-delta* addresses, so
//!   inner loops advance a handful of linear cursors instead of
//!   re-linearizing indices.
//! * [`kernel`] — a lowered stencil: output access, regions, program,
//!   parallel-safety verdict and point count.
//! * [`lower`] — lowers a whole [`snowflake_core::StencilGroup`] against
//!   concrete shapes: validation, optional dead-stencil elimination,
//!   barrier phases.
//! * [`tile`] — region tiling and region∩box intersection, the substrate
//!   for the OpenMP backend's arbitrary-dimension blocking and multicolor
//!   reordering and the OpenCL backend's tall-skinny blocking.
//! * [`spec`] — closed forms (structure-of-arrays linear records, and
//!   register tapes of the source tree for everything else) built from a
//!   kernel's program, the arithmetic every executor and code generator
//!   runs.

pub mod bytecode;
pub mod kernel;
pub mod lower;
pub mod spec;
pub mod tile;

pub use bytecode::{Op, Program};
pub use kernel::{AccessClass, LoweredKernel};
pub use lower::{lower_group, LowerOptions, Lowered};
pub use spec::{SpecForm, SpecKernel, SpecLinear, SpecTape};
pub use tile::{intersect_box, tile_region};
