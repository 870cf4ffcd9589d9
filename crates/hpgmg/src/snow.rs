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
//! — every group any cycle will ever dispatch) and compiles it into one
//! [`SolverPlan`]; the V-/F-cycle hot path then dispatches by stable
//! index, performing **zero** hashing or locking per call. With metrics
//! on, the plan books every dispatch to its op's row of the report.

use snowflake_backends::{Backend, Gates, PlanError, RunReport, SolverPlan};
use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::{Grid, GridSet};

use crate::cycle::{self, Step};
use crate::hand::HandSolver;
use crate::problem::{interior_diff_max, interior_norm_max, LevelData, Problem};
use crate::stencils::{
    chebyshev_step_group, gsrb_smooth_group, interpolate_group, interpolate_linear_group,
    residual_group, restrict_group, restrict_rhs_group, Coeff, Names,
};
use crate::{BottomSolve, InterpKind, Smoother, SolveOptions};

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
    /// Smoother used by the cycles.
    pub smoother: Smoother,
    /// Coarse-grid solver.
    pub bottom: BottomSolve,
    /// Prolongation operator.
    pub interp: InterpKind,
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
    /// Chebyshev per-step plan indices (empty unless Chebyshev).
    cheby_steps: Vec<Vec<usize>>,
    residual: Vec<usize>,
    restrict: Vec<usize>,
    restrict_rhs: Vec<usize>,
    interpolate: Vec<usize>,
    interpolate_linear: Vec<usize>,
}

impl PlanOps {
    /// The one plan op that executes `step` with the GSRB smoother and
    /// `interp` prolongation; `None` for the host steps (clear-x and the
    /// Krylov bottom solve).
    pub fn op(&self, step: Step, interp: InterpKind) -> Option<usize> {
        Some(match step {
            Step::Smooth(l) => self.smooth[l],
            Step::Residual(l) => self.residual[l],
            Step::Restrict(l) => self.restrict[l],
            Step::RestrictRhs(l) => self.restrict_rhs[l],
            Step::Prolong(l) => match interp {
                InterpKind::Constant => self.interpolate[l],
                InterpKind::Linear => self.interpolate_linear[l],
            },
            Step::ClearX(_) | Step::Krylov(_) => return None,
        })
    }
}

/// The solver's full ordered operator list for `problem`: every group any
/// cycle dispatches, each with the shapes of the whole grid hierarchy,
/// plus the plan index of each. [`SnowSolver`] compiles exactly this list;
/// `snowlint` lints it in V-cycle order.
pub fn operator_list(
    problem: &Problem,
    smoother: Smoother,
) -> (Vec<(StencilGroup, ShapeMap)>, PlanOps) {
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
    let cheby_coeffs = crate::cheby::coefficients(crate::cheby::DEGREE, crate::cheby::EIG_MAX);
    for (l, &n) in sizes.iter().enumerate() {
        let names = Names::level(l);
        let h2inv = (n * n) as f64;
        ops.smooth
            .push(push(gsrb_smooth_group(&names, coeff, a, b, h2inv)));
        ops.cheby_steps.push(if smoother == Smoother::Chebyshev {
            cheby_coeffs
                .iter()
                .map(|&(c1, c2)| push(chebyshev_step_group(&names, coeff, a, b, h2inv, c1, c2)))
                .collect()
        } else {
            Vec::new()
        });
        ops.residual
            .push(push(residual_group(&names, coeff, a, b, h2inv)));
        if l + 1 < sizes.len() {
            let coarse = Names::level(l + 1);
            ops.restrict.push(push(restrict_group(&names, &coarse)));
            ops.restrict_rhs
                .push(push(restrict_rhs_group(&names, &coarse)));
            ops.interpolate
                .push(push(interpolate_group(&coarse, &names)));
            ops.interpolate_linear
                .push(push(interpolate_linear_group(&coarse, &names)));
        }
    }
    (list, ops)
}

impl SnowSolver {
    /// Build the hierarchy (the data of [`HandSolver::new`])
    /// and pre-compile every operator group on `backend`.
    pub fn new(problem: Problem, backend: Box<dyn Backend>) -> Result<Self> {
        Self::with_smoother(problem, backend, Smoother::default())
    }

    /// As [`SnowSolver::new`], selecting the smoother.
    pub fn with_smoother(
        problem: Problem,
        backend: Box<dyn Backend>,
        smoother: Smoother,
    ) -> Result<Self> {
        Ok(Self::with_gates(
            problem,
            backend,
            smoother,
            Gates::default(),
        )?)
    }

    /// As [`SnowSolver::with_smoother`], building the plan behind `gates`:
    /// the verifier and the linter each run once over the whole operator
    /// list before any compile, a finding refuses the solver, and the
    /// counters land in every report the solver stamps.
    pub fn with_gates(
        problem: Problem,
        backend: Box<dyn Backend>,
        smoother: Smoother,
        gates: Gates,
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
            grids.insert(&names.tmp, lvl.tmp);
            grids.insert(&names.dinv, lvl.dinv);
            grids.insert(&names.alpha, lvl.alpha);
            grids.insert(&names.beta_x, lvl.beta_x);
            grids.insert(&names.beta_y, lvl.beta_y);
            grids.insert(&names.beta_z, lvl.beta_z);
        }

        let (list, ops) = operator_list(&problem, smoother);
        debug_assert_eq!(
            list.first().map(|(_, shapes)| shapes),
            Some(&grids.shapes())
        );
        // Plan build doubles as the paper's untimed warm-up: every
        // operator is compiled here, so solve timings exclude compilation.
        let plan = SolverPlan::build_gated(backend, &list, gates)?;
        Ok(SnowSolver {
            problem,
            sizes,
            grids,
            x_true,
            smoother,
            bottom: BottomSolve::default(),
            interp: InterpKind::default(),
            plan,
            report: None,
            ops,
        })
    }

    /// Select the coarse-grid solver (builder style).
    pub fn with_bottom(mut self, bottom: BottomSolve) -> Self {
        self.bottom = bottom;
        self
    }

    /// Select the prolongation operator (builder style).
    pub fn with_interp(mut self, interp: InterpKind) -> Self {
        self.interp = interp;
        self
    }

    /// Start collecting an execution profile. Every subsequent stencil
    /// dispatch (smooths, residuals, transfers) accumulates into one
    /// [`RunReport`], as a call of its plan op's row; read it with [`SnowSolver::metrics`] or drain it
    /// with [`SnowSolver::take_metrics`].
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

    /// The profile collected since [`SnowSolver::enable_metrics`], if any.
    pub fn metrics(&self) -> Option<&RunReport> {
        self.report.as_ref()
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
        let steps = cycle::vcycle(l, self.sizes.len(), self.bottom);
        cycle::run(self, steps)
    }

    /// One full-multigrid F-cycle (the step sequence of
    /// [`cycle::fcycle`]).
    pub fn fcycle(&mut self) -> Result<()> {
        let steps = cycle::fcycle(self.sizes.len(), self.bottom);
        cycle::run(self, steps)
    }

    /// Residual max-norm on the finest level.
    pub fn residual_norm(&mut self) -> Result<f64> {
        self.run_op(self.ops.residual[0])?;
        let res = self.grids.get(&Names::level(0).res).expect("res grid");
        Ok(interior_norm_max(res, self.sizes[0]))
    }

    /// Solve from a zero guess; returns residual norms (initial first).
    ///
    /// Accepts either a bare cycle count (`solver.solve(10)`) or a full
    /// [`SolveOptions`] (F-cycle start, early-exit tolerance):
    ///
    /// ```ignore
    /// solver.solve(SolveOptions::cycles(10).with_fmg(true).with_rtol(1e-8))
    /// ```
    pub fn solve(&mut self, opts: impl Into<SolveOptions>) -> Result<Vec<f64>> {
        cycle::solve(self, opts.into())
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
    /// ([`SolverPlan::cache_stats`]) and the descriptors the gates and
    /// `snowflake_backends::verify_plan` analyze.
    pub fn plan(&self) -> &SolverPlan {
        &self.plan
    }

    /// Seconds the one-time plan build spent compiling.
    pub fn plan_build_seconds(&self) -> f64 {
        self.plan.build_seconds()
    }
}

impl cycle::Executor for SnowSolver {
    type Error = CoreError;

    fn hierarchy(&self) -> (usize, BottomSolve) {
        (self.sizes.len(), self.bottom)
    }

    /// Stencil steps dispatch their plan op. Host steps run here: a
    /// Chebyshev smooth ping-pongs `x` and `tmp` between its plan ops, and
    /// BiCGStab extracts the coarsest level into a scratch [`LevelData`]
    /// for the host-side Krylov loop around hand operator applications —
    /// reductions live in the host language, exactly as the paper's Python
    /// host computed norms around compiled stencils. The coarsest grid is
    /// a few hundred cells, so the copies are free.
    fn run(&mut self, step: Step) -> Result<()> {
        match (step, self.ops.op(step, self.interp)) {
            (Step::Smooth(l), _) if self.smoother == Smoother::Chebyshev => {
                let names = Names::level(l);
                for i in 0..self.ops.cheby_steps[l].len() {
                    self.run_op(self.ops.cheby_steps[l][i])?;
                    self.grids.swap_data(&names.x, &names.tmp)?;
                }
                Ok(())
            }
            (_, Some(op)) => self.run_op(op),
            (Step::Krylov(l), None) => {
                let names = Names::level(l);
                let mut lvl = LevelData::build(&self.problem, self.sizes[l]);
                lvl.x = self.grids.get(&names.x).expect("x").clone();
                lvl.rhs = self.grids.get(&names.rhs).expect("rhs").clone();
                crate::bottom::solve_bottom(&mut lvl, self.problem.a, self.problem.b);
                *self.grids.get_mut(&names.x).expect("x") = lvl.x;
                Ok(())
            }
            // The remaining host step: clear-x.
            (_, None) => {
                let x = &Names::level(step.level()).x;
                self.grids.get_mut(x).expect("x grid").fill(0.0);
                Ok(())
            }
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
    fn snow_chebyshev_matches_hand_chebyshev() {
        let p = Problem::poisson_vc(8);
        let mut hand_solver = crate::HandSolver::new(p).with_smoother(crate::Smoother::Chebyshev);
        let mut snow_solver = SnowSolver::with_smoother(
            p,
            Box::new(SequentialBackend::new()),
            crate::Smoother::Chebyshev,
        )
        .unwrap();
        hand_solver.levels[0].x.fill(0.0);
        hand_solver.vcycle(0);
        snow_solver.vcycle(0).unwrap();
        let diff = interior_diff_max(
            &hand_solver.levels[0].x,
            snow_solver.grids.get("x_0").unwrap(),
            8,
        );
        assert!(diff < 1e-10, "Chebyshev hand vs snowflake diverged: {diff}");
    }

    #[test]
    fn snow_fcycle_matches_hand_fcycle() {
        let p = Problem::poisson_vc(8);
        let mut hand_solver = crate::HandSolver::new(p);
        let mut snow_solver = SnowSolver::new(p, Box::new(SequentialBackend::new())).unwrap();
        hand_solver.fcycle();
        snow_solver.fcycle().unwrap();
        let diff = interior_diff_max(
            &hand_solver.levels[0].x,
            snow_solver.grids.get("x_0").unwrap(),
            8,
        );
        assert!(diff < 1e-10, "F-cycle hand vs snowflake diverged: {diff}");
    }

    #[test]
    fn snow_chebyshev_converges() {
        let mut s = SnowSolver::with_smoother(
            Problem::poisson_cc(8),
            Box::new(OmpBackend::new()),
            crate::Smoother::Chebyshev,
        )
        .unwrap();
        let norms = s.solve(5).unwrap();
        assert!(norms[5] / norms[0] < 1e-3, "{norms:?}");
    }

    #[test]
    fn snow_linear_interp_matches_hand() {
        let p = Problem::poisson_vc(8);
        let mut hand_solver = crate::HandSolver::new(p).with_interp(crate::InterpKind::Linear);
        let hn = hand_solver.solve(2);
        let mut snow_solver = SnowSolver::new(p, Box::new(SequentialBackend::new()))
            .unwrap()
            .with_interp(crate::InterpKind::Linear);
        let sn = snow_solver.solve(2).unwrap();
        for (a, b) in hn.iter().zip(&sn) {
            assert!(((a - b) / a.abs().max(1e-300)).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn bicgstab_bottom_matches_or_beats_smooth_bottom() {
        let p = Problem::poisson_vc(8);
        let mut smooths = SnowSolver::new(p, Box::new(SequentialBackend::new())).unwrap();
        let ns = smooths.solve(3).unwrap();
        let mut krylov = SnowSolver::new(p, Box::new(SequentialBackend::new()))
            .unwrap()
            .with_bottom(crate::BottomSolve::BiCgStab);
        let nk = krylov.solve(3).unwrap();
        // An (essentially) exact bottom solve can only help convergence.
        assert!(
            nk[3] <= ns[3] * 1.5,
            "BiCGStab bottom must not hurt: {nk:?} vs {ns:?}"
        );
        assert!(nk[3] / nk[0] < 1e-3);
    }

    #[test]
    fn snow_and_hand_agree_with_bicgstab_bottom() {
        let p = Problem::poisson_vc(8);
        let mut hand_solver = crate::HandSolver::new(p).with_bottom(crate::BottomSolve::BiCgStab);
        let hn = hand_solver.solve(2);
        let mut snow_solver = SnowSolver::new(p, Box::new(SequentialBackend::new()))
            .unwrap()
            .with_bottom(crate::BottomSolve::BiCgStab);
        let sn = snow_solver.solve(2).unwrap();
        for (a, b) in hn.iter().zip(&sn) {
            assert!(((a - b) / a.abs().max(1e-300)).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn plan_compiles_each_group_once() {
        let s =
            SnowSolver::new(Problem::poisson_cc(8), Box::new(SequentialBackend::new())).unwrap();
        // 2 levels × (smooth + residual) + 1 × (restrict + restrict_rhs +
        // interp_pc + interp_linear) = 8 ops, all distinct.
        assert_eq!(s.plan_ops(), 8);
        let built = s.plan().cache_stats();
        assert_eq!(built.misses, 8, "one compile per distinct group");
        assert_eq!(built.hits, 0, "no duplicate ops in this configuration");
    }

    #[test]
    fn solve_options_early_exit_truncates_the_norm_history() {
        let p = Problem::poisson_cc(8);
        let mut full = SnowSolver::new(p, Box::new(SequentialBackend::new())).unwrap();
        let full_norms = full.solve(8).unwrap();
        assert_eq!(full_norms.len(), 9);
        let mut early = SnowSolver::new(p, Box::new(SequentialBackend::new())).unwrap();
        let early_norms = early
            .solve(SolveOptions::cycles(8).with_rtol(1e-4))
            .unwrap();
        assert!(
            early_norms.len() < full_norms.len(),
            "rtol must stop early: {early_norms:?}"
        );
        let last = early_norms.last().unwrap();
        assert!(last / early_norms[0] <= 1e-4);
        // The prefix matches the unbounded run bitwise.
        for (a, b) in early_norms.iter().zip(&full_norms) {
            assert_eq!(a, b);
        }
    }
}
