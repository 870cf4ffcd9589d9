//! The Snowflake-driven multigrid solver.
//!
//! Identical algorithm to [`crate::hand::HandSolver`], but every operator
//! is a [`StencilGroup`] compiled by a pluggable backend. Swapping
//! `Box<dyn Backend>` is the paper's entire porting story: the solver
//! source does not change.
//!
//! Execution is *plan-once-run-many*: construction assembles the full
//! ordered operator list (smooths, residuals, transfers — every group any
//! cycle will ever dispatch) and compiles it into one
//! [`SolverPlan`]; the V-/F-cycle hot path then dispatches by stable
//! index, performing **zero** hashing or locking per call. With metrics
//! on, the plan books every dispatch to its op's row of the report.

use snowflake_backends::{Backend, Gates, PlanError, RunReport, SolverPlan};
use snowflake_core::{Result, ShapeMap, StencilGroup};
use snowflake_grid::{Grid, GridSet};

use crate::hand;
use crate::problem::{u_exact, LevelData, Problem};
use crate::stencils::{
    chebyshev_step_group, gsrb_smooth_group, interpolate_group, interpolate_linear_group,
    residual_group, restrict_group, restrict_rhs_group, Coeff, Names,
};
use crate::{BottomSolve, InterpKind, Smoother, SolveOptions, BOTTOM_SMOOTHS, SMOOTHS_PER_LEG};

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
    /// Plan indices, per level.
    smooth: Vec<usize>,
    /// Chebyshev per-step plan indices (empty unless Chebyshev).
    cheby_steps: Vec<Vec<usize>>,
    residual: Vec<usize>,
    restrict: Vec<usize>,
    restrict_rhs: Vec<usize>,
    interpolate: Vec<usize>,
    interpolate_linear: Vec<usize>,
}

/// Accumulates the ordered `(group, shapes)` operator list during solver
/// construction, handing out the stable plan index of each push.
struct OpList {
    ops: Vec<(StencilGroup, ShapeMap)>,
    shapes: ShapeMap,
}

impl OpList {
    fn push(&mut self, group: StencilGroup) -> usize {
        self.ops.push((group, self.shapes.clone()));
        self.ops.len() - 1
    }
}

impl SnowSolver {
    /// Build the hierarchy (identical data to [`hand::HandSolver::new`])
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
        let sizes = problem.level_sizes();
        let coeff = if problem.variable_coeff {
            Coeff::Variable
        } else {
            Coeff::Constant
        };

        let mut grids = GridSet::new();
        let mut x_true = Grid::new(&[1]);
        for (l, &n) in sizes.iter().enumerate() {
            let mut lvl = LevelData::build(&problem, n);
            if l == 0 {
                // Manufacture the finest rhs exactly as the hand solver.
                let mut xt = Grid::new(lvl.x.shape());
                lvl.fill_interior(&mut xt, u_exact);
                hand::apply_boundary(&mut xt, n);
                let mut rhs = Grid::new(lvl.x.shape());
                hand::apply_op(&mut rhs, &xt, &lvl, problem.a, problem.b);
                lvl.rhs = rhs;
                x_true = xt;
            }
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

        // Assemble the full ordered operator list. Indices handed out here
        // are the plan indices every cycle dispatches through.
        let mut ops = OpList {
            ops: Vec::new(),
            shapes: grids.shapes(),
        };
        let mut smooth = Vec::new();
        let mut cheby_steps = Vec::new();
        let mut residual_g = Vec::new();
        let mut restrict_g = Vec::new();
        let mut restrict_rhs_g = Vec::new();
        let mut interp_g = Vec::new();
        let mut interp_lin_g = Vec::new();
        let cheby_coeffs = crate::cheby::coefficients(crate::cheby::DEGREE, crate::cheby::EIG_MAX);
        for (l, &n) in sizes.iter().enumerate() {
            let names = Names::level(l);
            let h2inv = (n * n) as f64;
            smooth.push(ops.push(gsrb_smooth_group(
                &names, coeff, problem.a, problem.b, h2inv,
            )));
            if smoother == Smoother::Chebyshev {
                cheby_steps.push(
                    cheby_coeffs
                        .iter()
                        .map(|&(c1, c2)| {
                            ops.push(chebyshev_step_group(
                                &names, coeff, problem.a, problem.b, h2inv, c1, c2,
                            ))
                        })
                        .collect(),
                );
            } else {
                cheby_steps.push(Vec::new());
            }
            residual_g.push(ops.push(residual_group(&names, coeff, problem.a, problem.b, h2inv)));
            if l + 1 < sizes.len() {
                restrict_g.push(ops.push(restrict_group(&names, &Names::level(l + 1))));
                restrict_rhs_g.push(ops.push(restrict_rhs_group(&names, &Names::level(l + 1))));
                interp_g.push(ops.push(interpolate_group(&Names::level(l + 1), &names)));
                interp_lin_g.push(ops.push(interpolate_linear_group(&Names::level(l + 1), &names)));
            }
        }

        // Plan build doubles as the paper's untimed warm-up: every
        // operator is compiled here, so solve timings exclude compilation.
        let plan = SolverPlan::build_gated(backend, &ops.ops, gates)?;
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
            smooth,
            cheby_steps,
            residual: residual_g,
            restrict: restrict_g,
            restrict_rhs: restrict_rhs_g,
            interpolate: interp_g,
            interpolate_linear: interp_lin_g,
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
    /// collection is on (free function over disjoint fields so call sites
    /// can pass `self.smooth[l]` alongside `&mut self.grids`). No cache
    /// lookup, no lock: one bounds-checked index into the plan table.
    fn run_op(
        plan: &SolverPlan,
        grids: &mut GridSet,
        report: Option<&mut RunReport>,
        op: usize,
    ) -> Result<()> {
        match report {
            Some(r) => plan.run_with_report(op, grids, r),
            None => plan.run(op, grids),
        }
    }

    fn prolong(&mut self, l: usize) -> Result<()> {
        let op = match self.interp {
            InterpKind::Constant => self.interpolate[l],
            InterpKind::Linear => self.interpolate_linear[l],
        };
        Self::run_op(&self.plan, &mut self.grids, self.report.as_mut(), op)
    }

    /// Run the coarse-grid solve at level `l`.
    ///
    /// BiCGStab extracts the coarsest level into a scratch [`LevelData`]
    /// and runs the host-side Krylov loop around hand operator
    /// applications — reductions live in the host language, exactly as the
    /// paper's Python host computed norms around compiled stencils. The
    /// coarsest grid is a few hundred cells, so the copies are free.
    fn bottom_solve(&mut self, l: usize) -> Result<()> {
        match self.bottom {
            BottomSolve::Smooths => {
                for _ in 0..BOTTOM_SMOOTHS {
                    self.smooth_level(l)?;
                }
                Ok(())
            }
            BottomSolve::BiCgStab => {
                let names = Names::level(l);
                let mut lvl = LevelData::build(&self.problem, self.sizes[l]);
                lvl.x = self.grids.get(&names.x).expect("x").clone();
                lvl.rhs = self.grids.get(&names.rhs).expect("rhs").clone();
                crate::bottom::bicgstab(&mut lvl, self.problem.a, self.problem.b, 50, 1e-9);
                *self.grids.get_mut(&names.x).expect("x") = lvl.x;
                Ok(())
            }
        }
    }

    /// Name of the compiling backend.
    pub fn backend_name(&self) -> &'static str {
        self.plan.backend_name()
    }

    /// Apply one smooth at level `l` using the configured smoother.
    pub fn smooth_level(&mut self, l: usize) -> Result<()> {
        match self.smoother {
            Smoother::GsRb => Self::run_op(
                &self.plan,
                &mut self.grids,
                self.report.as_mut(),
                self.smooth[l],
            ),
            Smoother::Chebyshev => {
                let names = Names::level(l);
                for step in 0..self.cheby_steps[l].len() {
                    let op = self.cheby_steps[l][step];
                    Self::run_op(&self.plan, &mut self.grids, self.report.as_mut(), op)?;
                    self.grids.swap_data(&names.x, &names.tmp)?;
                }
                Ok(())
            }
        }
    }

    /// One V-cycle from level `l` down.
    pub fn vcycle(&mut self, l: usize) -> Result<()> {
        let last = self.sizes.len() - 1;
        if l == last {
            self.bottom_solve(l)?;
            return Ok(());
        }
        for _ in 0..SMOOTHS_PER_LEG {
            self.smooth_level(l)?;
        }
        Self::run_op(
            &self.plan,
            &mut self.grids,
            self.report.as_mut(),
            self.residual[l],
        )?;
        Self::run_op(
            &self.plan,
            &mut self.grids,
            self.report.as_mut(),
            self.restrict[l],
        )?;
        self.vcycle(l + 1)?;
        self.prolong(l)?;
        for _ in 0..SMOOTHS_PER_LEG {
            self.smooth_level(l)?;
        }
        Ok(())
    }

    /// One full-multigrid F-cycle (HPGMG's default cycle type).
    pub fn fcycle(&mut self) -> Result<()> {
        let last = self.sizes.len() - 1;
        for l in 0..last {
            Self::run_op(
                &self.plan,
                &mut self.grids,
                self.report.as_mut(),
                self.restrict_rhs[l],
            )?;
        }
        for l in 0..=last {
            self.grids
                .get_mut(&Names::level(l).x)
                .expect("x grid")
                .fill(0.0);
        }
        self.bottom_solve(last)?;
        for l in (0..last).rev() {
            self.prolong(l)?;
            self.vcycle(l)?;
        }
        Ok(())
    }

    /// Residual max-norm on the finest level.
    pub fn residual_norm(&mut self) -> Result<f64> {
        Self::run_op(
            &self.plan,
            &mut self.grids,
            self.report.as_mut(),
            self.residual[0],
        )?;
        let n = self.sizes[0];
        let res = self.grids.get(&Names::level(0).res).expect("res grid");
        Ok(interior_norm_max(res, n))
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
        let opts = opts.into();
        self.grids
            .get_mut(&Names::level(0).x)
            .expect("x grid")
            .fill(0.0);
        let mut norms = vec![self.residual_norm()?];
        for c in 0..opts.cycles {
            if opts.fmg && c == 0 {
                self.fcycle()?;
            } else {
                self.vcycle(0)?;
            }
            norms.push(self.residual_norm()?);
            if opts.converged(&norms) {
                break;
            }
        }
        Ok(norms)
    }

    /// Former two-argument form of [`SnowSolver::solve`].
    #[deprecated(note = "use solve(SolveOptions::cycles(n).with_fmg(fmg))")]
    pub fn solve_opts(&mut self, cycles: usize, fmg: bool) -> Result<Vec<f64>> {
        self.solve(SolveOptions::cycles(cycles).with_fmg(fmg))
    }

    /// Max-norm error against the exact discrete solution.
    pub fn error_norm(&self) -> f64 {
        let n = self.sizes[0];
        let x = self.grids.get(&Names::level(0).x).expect("x grid");
        let mut m = 0.0f64;
        for i in 1..=n {
            for j in 1..=n {
                for k in 1..=n {
                    m = m.max((x.get(&[i, j, k]) - self.x_true.get(&[i, j, k])).abs());
                }
            }
        }
        m
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

/// Max-norm over the `n³` interior of an `(n+2)³` grid.
pub fn interior_norm_max(grid: &Grid, n: usize) -> f64 {
    let mut m = 0.0f64;
    for i in 1..=n {
        for j in 1..=n {
            for k in 1..=n {
                m = m.max(grid.get(&[i, j, k]).abs());
            }
        }
    }
    m
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
        let diff = hand_solver.levels[0].interior_diff_max(hx, sx);
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
        let diff = hand_solver.levels[0].interior_diff_max(
            &hand_solver.levels[0].x,
            snow_solver.grids.get("x_0").unwrap(),
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
        let diff = hand_solver.levels[0].interior_diff_max(
            &hand_solver.levels[0].x,
            snow_solver.grids.get("x_0").unwrap(),
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
