//! # snowflake-ir
//!
//! The platform-agnostic middle end of the Snowflake micro-compiler (§IV).
//!
//! The paper's JIT hands each backend a narrow, fully-resolved description
//! of the work: which cells to visit (resolved strided regions), what to
//! compute at each (one closed-form arithmetic record over grid reads), and
//! which stencils may run concurrently (barrier phases from the Diophantine
//! analysis). This crate produces that description:
//!
//! * [`lower`] — lowers a whole [`snowflake_core::StencilGroup`] against
//!   concrete shapes: validation, optional dead-stencil elimination,
//!   barrier phases, and each stencil's [`snowflake_core::Expr`] to a
//!   register tape whose reads are *cursor-class + constant-delta*
//!   addresses, so inner loops advance a handful of linear cursors instead
//!   of re-linearizing indices.
//! * [`kernel`] — a lowered stencil: output access, regions, closed form,
//!   parallel-safety verdict and point count.
//! * [`tile`] — region tiling and region∩box intersection, the substrate
//!   for the OpenMP backend's arbitrary-dimension blocking and multicolor
//!   reordering and the OpenCL backend's tall-skinny blocking.
//! * [`spec`] — the closed forms: register tapes of the source tree, and
//!   the structure-of-arrays linear records a tape linearizes to — the one
//!   arithmetic IR every executor and code generator runs.

pub mod kernel;
pub mod lower;
pub mod spec;
pub mod tile;

pub use kernel::{AccessClass, LoweredKernel};
pub use lower::{lower_group, LowerOptions, Lowered};
pub use spec::{SpecForm, SpecLinear, SpecTape};
pub use tile::{intersect_box, tile_region};
