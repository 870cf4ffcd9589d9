//! The Snowflake-driven multigrid solver.
//!
//! Identical algorithm to [`crate::hand::HandSolver`] — both run the step
//! sequences of [`crate::cycle`] — but every operator is a
//! [`StencilGroup`] compiled by a pluggable backend. Swapping
//! `Box<dyn Backend>` is the paper's entire porting story: the solver
//! source does not change.
//!
//! Execution is *plan-once-run-many*: construction assembles the full
//! ordered operator list ([`operator_list`]: smooths, residuals, transfers
//! — every group a V-cycle dispatches, and no other) and compiles it into
//! one [`SolverPlan`]; the V-cycle hot path then dispatches by stable
//! index, performing **zero** hashing or locking per call. With metrics
//! on, the plan books every dispatch to its op's row of the report.

use snowflake_backends::{Backend, PlanError, RunReport, SolverPlan};
use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::{Grid, GridSet};

use crate::cycle::{self, Step};
use crate::hand::HandSolver;
use crate::problem::{interior_diff_max, interior_norm_max, Problem};
use crate::stencils::{
    gsrb_smooth_group, interpolate_group, residual_group, restrict_group, Coeff, Names,
};

/// Geometric multigrid with Snowflake-compiled operators.
pub struct SnowSolver {
    /// Problem configuration.
    pub problem: Problem,
    /// Interior size per level, finest first.
    pub sizes: Vec<usize>,
    /// All levels' grids, names suffixed by level.
    pub grids: GridSet,
    /// Exact discrete solution on the finest level.
    pub x_true: Grid,
    /// The compiled operator schedule; all dispatch is by index into it.
    plan: SolverPlan,
    /// Execution profile, populated while metrics collection is enabled.
    report: Option<RunReport>,
    /// Plan index of each operator, per level.
    ops: PlanOps,
}

/// Plan index of every operator a cycle dispatches, per level.
#[derive(Default)]
pub struct PlanOps {
    smooth: Vec<usize>,
    residual: Vec<usize>,
    restrict: Vec<usize>,
    interpolate: Vec<usize>,
}

impl PlanOps {
    /// The one plan op that executes `step`; `None` for the host step
    /// clear-x.
    pub fn op(&self, step: Step) -> Option<usize> {
        match step {
            Step::Smooth(l) => Some(self.smooth[l]),
            Step::Residual(l) => Some(self.residual[l]),
            Step::Restrict(l) => Some(self.restrict[l]),
            Step::Prolong(l) => Some(self.interpolate[l]),
            Step::ClearX(_) => None,
        }
    }
}

/// The solver's full ordered operator list for `problem`: every group a
/// V-cycle dispatches, and no other, each with the shapes of the whole
/// grid hierarchy, plus the plan index of each. [`SnowSolver`] compiles
/// exactly this list; `snowlint` lints it in V-cycle order.
pub fn operator_list(problem: &Problem) -> (Vec<(StencilGroup, ShapeMap)>, PlanOps) {
    let sizes = problem.level_sizes();
    let (a, b) = (problem.a, problem.b);
    let coeff = if problem.variable_coeff {
        Coeff::Variable
    } else {
        Coeff::Constant
    };
    let shapes: ShapeMap = sizes
        .iter()
        .enumerate()
        .flat_map(|(l, &n)| Names::level(l).all().map(|g| (g, vec![n + 2; 3])))
        .collect();
    let mut list = Vec::new();
    let mut push = |group: StencilGroup| {
        list.push((group, shapes.clone()));
        list.len() - 1
    };
    let mut ops = PlanOps::default();
    for (l, &n) in sizes.iter().enumerate() {
        let names = Names::level(l);
        let h2inv = (n * n) as f64;
        ops.smooth
            .push(push(gsrb_smooth_group(&names, coeff, a, b, h2inv)));
        // The coarsest level only smooths, so its residual is compiled
        // only when it is also the finest (the solve loop's norm).
        if l == 0 || l + 1 < sizes.len() {
            ops.residual
                .push(push(residual_group(&names, coeff, a, b, h2inv)));
        }
        if l + 1 < sizes.len() {
            let coarse = Names::level(l + 1);
            ops.restrict.push(push(restrict_group(&names, &coarse)));
            ops.interpolate
                .push(push(interpolate_group(&coarse, &names)));
        }
    }
    (list, ops)
}

impl SnowSolver {
    /// Build the hierarchy (the data of [`HandSolver::new`])
    /// and pre-compile every operator group on `backend`.
    pub fn new(problem: Problem, backend: Box<dyn Backend>) -> Result<Self> {
        Ok(Self::build(problem, backend, false)?)
    }

    /// As [`SnowSolver::new`], building the plan checked when
    /// `verify` is set: the plan check (verifier and linter as one
    /// analysis) runs once over the whole operator list before any
    /// compile, a deny-level finding refuses the solver, and the
    /// certificate's counters land in every report the solver stamps.
    pub fn build(
        problem: Problem,
        backend: Box<dyn Backend>,
        verify: bool,
    ) -> std::result::Result<Self, PlanError> {
        // The hand solver's hierarchy, manufactured rhs included, moved
        // into named grids.
        let HandSolver { levels, x_true, .. } = HandSolver::new(problem);
        let sizes: Vec<usize> = levels.iter().map(|lvl| lvl.n).collect();
        let mut grids = GridSet::new();
        for (l, lvl) in levels.into_iter().enumerate() {
            let names = Names::level(l);
            grids.insert(&names.x, lvl.x);
            grids.insert(&names.rhs, lvl.rhs);
            grids.insert(&names.res, lvl.res);
            grids.insert(&names.dinv, lvl.dinv);
            grids.insert(&names.alpha, lvl.alpha);
            grids.insert(&names.beta_x, lvl.beta_x);
            grids.insert(&names.beta_y, lvl.beta_y);
            grids.insert(&names.beta_z, lvl.beta_z);
        }

        let (list, ops) = operator_list(&problem);
        debug_assert_eq!(
            list.first().map(|(_, shapes)| shapes),
            Some(&grids.shapes())
        );
        // Plan build doubles as the paper's untimed warm-up: every
        // operator is compiled here, so solve timings exclude compilation.
        let plan = if verify {
            SolverPlan::build_checked(backend, &list)?
        } else {
            SolverPlan::build(backend, &list)?
        };
        Ok(SnowSolver {
            problem,
            sizes,
            grids,
            x_true,
            plan,
            report: None,
            ops,
        })
    }

    /// Start collecting an execution profile. Every subsequent stencil
    /// dispatch (smooths, residuals, transfers) accumulates into one
    /// [`RunReport`], as a call of its plan op's row; drain it with
    /// [`SnowSolver::take_metrics`].
    ///
    /// The fresh report is pre-stamped with the plan facts: the one-time
    /// plan build lands in `compile_seconds`, `plan_ops` counts operator
    /// slots, and the cache counters carry the build-time (including
    /// on-disk) compile reuse.
    pub fn enable_metrics(&mut self) {
        if self.report.is_none() {
            let mut report = RunReport::new();
            report.compile_seconds += self.plan.build_seconds();
            self.plan.stamp(&mut report);
            self.report = Some(report);
        }
    }

    /// Take the collected profile, restarting collection from empty (or
    /// `None` if metrics were never enabled). The successor report keeps
    /// the plan stamp but not the build time (already reported once).
    pub fn take_metrics(&mut self) -> Option<RunReport> {
        let taken = self.report.take();
        if taken.is_some() {
            let mut fresh = RunReport::new();
            self.plan.stamp(&mut fresh);
            self.report = Some(fresh);
        }
        taken
    }

    /// Dispatch one plan operator by index, profiling when metrics
    /// collection is on. No cache lookup, no lock: one bounds-checked
    /// index into the plan table.
    fn run_op(&mut self, op: usize) -> Result<()> {
        match self.report.as_mut() {
            Some(r) => self.plan.run_with_report(op, &mut self.grids, r),
            None => self.plan.run(op, &mut self.grids),
        }
    }

    /// Name of the compiling backend.
    pub fn backend_name(&self) -> &'static str {
        self.plan.backend_name()
    }

    /// One V-cycle from level `l` down (the step sequence of
    /// [`cycle::vcycle`]).
    pub fn vcycle(&mut self, l: usize) -> Result<()> {
        let steps = cycle::vcycle(l, self.sizes.len());
        cycle::run(self, steps)
    }

    /// Residual max-norm on the finest level.
    pub fn residual_norm(&mut self) -> Result<f64> {
        self.run_op(self.ops.residual[0])?;
        let res = self.grids.get(&Names::level(0).res).expect("res grid");
        Ok(interior_norm_max(res, self.sizes[0]))
    }

    /// Solve from a zero guess with `cycles` V-cycles; returns residual
    /// norms (initial first).
    pub fn solve(&mut self, cycles: usize) -> Result<Vec<f64>> {
        cycle::solve(self, cycles)
    }

    /// Max-norm error against the exact discrete solution.
    pub fn error_norm(&self) -> f64 {
        let x = self.grids.get(&Names::level(0).x).expect("x grid");
        interior_diff_max(x, &self.x_true, self.sizes[0])
    }

    /// Total degrees of freedom on the finest level.
    pub fn dof(&self) -> u64 {
        let n = self.sizes[0] as u64;
        n * n * n
    }

    /// Operator slots in the compiled plan.
    pub fn plan_ops(&self) -> usize {
        self.plan.len()
    }

    /// The compiled plan itself: its build counters
    /// ([`SolverPlan::cache_stats`]) and the descriptors the plan check
    /// (`snowflake_backends::verify_ops`) analyzes.
    pub fn plan(&self) -> &SolverPlan {
        &self.plan
    }
}

impl cycle::Executor for SnowSolver {
    type Error = CoreError;

    fn hierarchy(&self) -> usize {
        self.sizes.len()
    }

    /// Stencil steps dispatch their plan op; the host step clear-x zeroes
    /// `x` here.
    fn run(&mut self, step: Step) -> Result<()> {
        match step {
            Step::ClearX(l) => {
                let x = &Names::level(l).x;
                self.grids.get_mut(x).expect("x grid").fill(0.0);
                Ok(())
            }
            _ => self.run_op(self.ops.op(step).expect("a stencil step's plan op")),
        }
    }

    fn finest_residual_norm(&mut self) -> Result<f64> {
        self.residual_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_backends::{OmpBackend, SequentialBackend};

    #[test]
    fn snow_seq_converges_cc() {
        let mut s =
            SnowSolver::new(Problem::poisson_cc(8), Box::new(SequentialBackend::new())).unwrap();
        let norms = s.solve(5).unwrap();
        assert!(
            norms[5] / norms[0] < 1e-4,
            "CC multigrid should contract: {norms:?}"
        );
        assert!(s.error_norm() < 1e-3);
    }

    #[test]
    fn snow_omp_converges_vc() {
        let mut s = SnowSolver::new(Problem::poisson_vc(8), Box::new(OmpBackend::new())).unwrap();
        let norms = s.solve(5).unwrap();
        assert!(
            norms[5] / norms[0] < 1e-3,
            "VC multigrid should contract: {norms:?}"
        );
    }

    #[test]
    fn snow_matches_hand_exactly_per_vcycle() {
        // Same algorithm, same data, same arithmetic order per point — the
        // two solvers should agree to near machine precision after a cycle.
        let p = Problem::poisson_vc(8);
        let mut hand_solver = crate::HandSolver::new(p);
        let mut snow_solver = SnowSolver::new(p, Box::new(SequentialBackend::new())).unwrap();
        hand_solver.levels[0].x.fill(0.0);
        hand_solver.vcycle(0);
        snow_solver.vcycle(0).unwrap();
        let hx = &hand_solver.levels[0].x;
        let sx = snow_solver.grids.get("x_0").unwrap();
        let diff = interior_diff_max(hx, sx, 8);
        assert!(diff < 1e-11, "hand vs snowflake diverged: {diff}");
    }

    #[test]
    fn plan_compiles_each_group_once() {
        let s =
            SnowSolver::new(Problem::poisson_cc(8), Box::new(SequentialBackend::new())).unwrap();
        // 2 smooths + 1 × (residual + restrict + interp) = 5 ops, all
        // distinct.
        assert_eq!(s.plan_ops(), 5);
        let built = s.plan().cache_stats();
        assert_eq!(built.misses, 5, "one compile per distinct group");
        assert_eq!(built.hits, 0, "no duplicate ops in this configuration");
    }
}
