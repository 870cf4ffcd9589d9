//! # hpgmg
//!
//! A from-scratch reproduction of the High-Performance Geometric Multigrid
//! benchmark (HPGMG-FV, 2nd order) used as the evaluation driver in the
//! Snowflake paper (§V), in two complete implementations:
//!
//! * [`hand`] — the *hand-optimized baseline*, playing the role of the
//!   reference HPGMG C code: fused, direct loops over raw storage,
//!   parallelized with rayon. This is the comparator every figure measures
//!   Snowflake against.
//! * [`snow`] — the *Snowflake-driven solver*: every operator (GSRB
//!   smoother with interleaved Dirichlet boundaries, residual, restriction,
//!   piecewise-constant interpolation, grid zeroing) is a
//!   [`snowflake_core::StencilGroup`] compiled by an arbitrary backend.
//!   The single source runs unchanged on the interpreter, sequential,
//!   OpenMP-like, OpenCL and C-JIT backends — the paper's
//!   performance-portability claim.
//!
//! Both run the same algorithm because it is written once: [`cycle`] holds
//! the V-cycle and the solve loop as sequences of [`cycle::Step`]s, and
//! each solver only executes steps. The `snowlint` binary lints the
//! Snowflake solver's own V-cycle: its operator groups
//! ([`snow::operator_list`]) in the order [`cycle::vcycle`] dispatches them.
//!
//! The solver is cell-centered geometric multigrid on `[0,1]³` for
//! `a·αu − b·∇·(β∇u) = f` with homogeneous Dirichlet boundaries enforced
//! through ghost cells (`ghost = −inside`), V-cycles with GSRB pre/post
//! smoothing, 8-cell-average restriction and piecewise-constant
//! interpolation, and a smoother-based bottom solve — the configuration the
//! paper benchmarks (2nd order, 2 pre/post GSRB smooths, 10 V-cycles), and
//! the only one either solver runs.
//!
//! [`stencils`] holds the reusable stencil-group builders (also used by the
//! benchmark harness for the standalone Figure 7 kernels) and [`problem`]
//! the analytic test problem with an exactly-known discrete solution.

pub mod cycle;
pub mod hand;
pub mod problem;
pub mod snow;
pub mod stencils;

pub use hand::HandSolver;
pub use problem::{LevelData, Problem};
pub use snow::SnowSolver;

/// Smallest level size (interior cells per side) at which the V-cycle
/// bottoms out and switches to the smoother-based coarse solve.
pub const COARSEST_N: usize = 4;

/// Number of GSRB smooths (red+black pairs) applied pre- and
/// post-smoothing, matching the paper's "two GSRB smooths (4 stencil
/// sweeps)".
pub const SMOOTHS_PER_LEG: usize = 2;

/// GSRB sweeps used for the bottom solve at the coarsest level.
pub const BOTTOM_SMOOTHS: usize = 24;
