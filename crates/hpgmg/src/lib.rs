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
//! the V-cycle, the F-cycle and the solve loop as sequences of
//! [`cycle::Step`]s, and each solver only executes steps. The `snowlint`
//! binary lints the Snowflake solver's own V-cycle: its operator groups
//! ([`snow::operator_list`]) in the order [`cycle::vcycle`] dispatches them.
//!
//! The solver is cell-centered geometric multigrid on `[0,1]³` for
//! `a·αu − b·∇·(β∇u) = f` with homogeneous Dirichlet boundaries enforced
//! through ghost cells (`ghost = −inside`), V-cycles with GSRB pre/post
//! smoothing, 8-cell-average restriction and piecewise-constant
//! interpolation, and a smoother-based bottom solve — the configuration the
//! paper benchmarks (2nd order, 2 pre/post GSRB smooths, 10 V-cycles).
//!
//! [`stencils`] holds the reusable stencil-group builders (also used by the
//! benchmark harness for the standalone Figure 7 kernels) and [`problem`]
//! the analytic test problem with an exactly-known discrete solution.

pub mod cheby;
pub mod cycle;
pub mod hand;
pub mod problem;
pub mod snow;
pub mod stencils;

pub use hand::HandSolver;
pub use problem::{LevelData, Problem};
pub use snow::SnowSolver;

/// Options for one solver invocation (both [`HandSolver::solve`] and
/// [`SnowSolver::solve`] take `impl Into<SolveOptions>`, so a bare cycle
/// count still works: `solver.solve(10)`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveOptions {
    /// Maximum V-cycles to run.
    pub cycles: usize,
    /// Start with a full-multigrid F-cycle (HPGMG's default cycle type)
    /// instead of a zero-guess V-cycle.
    pub fmg: bool,
    /// Stop early once the residual norm has dropped below `rtol` times
    /// the initial norm (`None` always runs all `cycles`).
    pub rtol: Option<f64>,
}

impl Default for SolveOptions {
    /// The paper's configuration: 10 V-cycles, no F-cycle start, no
    /// early exit.
    fn default() -> Self {
        SolveOptions {
            cycles: 10,
            fmg: false,
            rtol: None,
        }
    }
}

impl SolveOptions {
    /// Run `cycles` V-cycles (builder entry point).
    pub fn cycles(cycles: usize) -> Self {
        SolveOptions {
            cycles,
            ..Self::default()
        }
    }

    /// Start with an F-cycle (builder style).
    pub fn with_fmg(mut self, on: bool) -> Self {
        self.fmg = on;
        self
    }

    /// Stop early at this relative residual tolerance (builder style).
    pub fn with_rtol(mut self, rtol: f64) -> Self {
        self.rtol = Some(rtol);
        self
    }

    /// Has the residual history already met the tolerance?
    fn converged(&self, norms: &[f64]) -> bool {
        match (self.rtol, norms.first(), norms.last()) {
            (Some(rtol), Some(&first), Some(&last)) => last <= rtol * first,
            _ => false,
        }
    }
}

impl From<usize> for SolveOptions {
    fn from(cycles: usize) -> Self {
        SolveOptions::cycles(cycles)
    }
}

/// Which smoother the V-/F-cycles use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Smoother {
    /// Gauss-Seidel red-black (the paper's and HPGMG's default).
    #[default]
    GsRb,
    /// Degree-4 Chebyshev polynomial smoothing (see [`cheby`]).
    Chebyshev,
}

/// Smallest level size (interior cells per side) at which the V-cycle
/// bottoms out and switches to the smoother-based coarse solve.
pub const COARSEST_N: usize = 4;

/// Number of GSRB smooths (red+black pairs) applied pre- and
/// post-smoothing, matching the paper's "two GSRB smooths (4 stencil
/// sweeps)".
pub const SMOOTHS_PER_LEG: usize = 2;

/// GSRB sweeps used for the bottom solve at the coarsest level.
pub const BOTTOM_SMOOTHS: usize = 24;
