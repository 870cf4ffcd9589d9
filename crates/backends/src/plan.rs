//! Plan-once-run-many execution: a [`SolverPlan`] compiles a fixed,
//! ordered list of stencil operators up front and dispatches them by
//! **index** forever after. It is the one place that compiles, dispatches
//! and measures.
//!
//! The paper's porting story is "compile each stencil group to a cached
//! callable and re-run it". Devito-style operator planning separates the
//! one-time *plan* step (compile every operator the solver will ever run)
//! from the many-times *apply* step (index into a flat table):
//!
//! 1. **Build**: hand [`SolverPlan::build`] the ordered slice of
//!    `(StencilGroup, ShapeMap)` pairs. Structurally identical pairs share
//!    one executable (the build's `hits`; every other op is a `miss` and
//!    compiles), and each op is stored at its slice position with its
//!    executable's static [`Executable::work`].
//! 2. **Run**: `plan.run(op, &mut grids)` is a bounds-checked `Vec` index
//!    followed by the executable — no hashing, no locking, no allocation.
//!    [`SolverPlan::run_with_report`] adds one clock read around the call
//!    and books it to the op's row of the [`RunReport`].
//!
//! A *gated* build ([`SolverPlan::build_gated`]) first runs the static
//! verifier and the linter, each once, over the whole operator list. A
//! finding refuses the plan with a typed [`PlanError`] before any compile;
//! otherwise the gates' counters are stored and [`SolverPlan::stamp`]
//! writes them into `RunReport.verify` / `RunReport.lint`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use snowflake_analysis::{lint_program, Diagnostic, Lint, LintConfig, Severity};
use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::GridSet;

use crate::lint::lint_stats;
use crate::metrics::{CacheStats, KernelCounters, LintStats, RunReport, VerifyStats};
use crate::verify::verify_ops;
use crate::{Backend, Executable};

/// The analyses a gated plan build runs over its operator list before
/// compiling anything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gates {
    /// Statically verify every operator (bounds, schedule, generated C);
    /// any diagnostic refuses the plan.
    pub verify: bool,
    /// Semantically lint the operator list (inventory mode); deny-level
    /// findings refuse the plan, the rest are counted.
    pub lint: bool,
}

/// Why a plan build failed.
#[derive(Clone, Debug)]
pub enum PlanError {
    /// The verify gate refused the plan.
    Unverified(Vec<Diagnostic>),
    /// The lint gate refused the plan (the deny-level findings).
    Denied(Vec<Lint>),
    /// Lowering, compilation or stencil resolution failed.
    Core(CoreError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Unverified(diags) => {
                write!(
                    f,
                    "plan verification failed with {} diagnostic(s):",
                    diags.len()
                )?;
                diags.iter().try_for_each(|d| write!(f, "\n  {d}"))
            }
            PlanError::Denied(lints) => {
                write!(f, "lint failed with {} finding(s):", lints.len())?;
                lints.iter().try_for_each(|l| write!(f, "\n  {l}"))
            }
            PlanError::Core(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<CoreError> for PlanError {
    fn from(e: CoreError) -> Self {
        PlanError::Core(e)
    }
}

impl From<PlanError> for CoreError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::Core(e) => e,
            refused => CoreError::Backend(refused.to_string()),
        }
    }
}

/// A compiled operator schedule: `ops[i]` is the executable (and its
/// per-run work) for the i-th `(group, shapes)` pair handed to
/// [`SolverPlan::build`].
pub struct SolverPlan {
    backend: Box<dyn Backend>,
    ops: Vec<(Arc<dyn Executable>, KernelCounters)>,
    descs: Vec<(StencilGroup, ShapeMap)>,
    build_seconds: f64,
    reuse: CacheStats,
    verify: VerifyStats,
    lint: LintStats,
}

impl SolverPlan {
    /// Compile every operator on `backend`, in order; a structural
    /// duplicate of an earlier op shares its executable instead of
    /// compiling again. Indices into the returned plan are stable: op `i`
    /// is `ops[i]`.
    pub fn build(backend: Box<dyn Backend>, ops: &[(StencilGroup, ShapeMap)]) -> Result<Self> {
        let t0 = Instant::now();
        let mut built: HashMap<String, Arc<dyn Executable>> = HashMap::new();
        let mut reuse = CacheStats::default();
        let mut compiled = Vec::with_capacity(ops.len());
        for (group, shapes) in ops {
            let key = cache_key(group, shapes);
            let exe = match built.get(&key) {
                Some(exe) => {
                    reuse.hits += 1;
                    exe.clone()
                }
                None => {
                    reuse.misses += 1;
                    let exe: Arc<dyn Executable> = Arc::from(backend.compile(group, shapes)?);
                    built.insert(key, exe.clone());
                    exe
                }
            };
            let work = exe.work();
            compiled.push((exe, work));
        }
        Ok(SolverPlan {
            backend,
            ops: compiled,
            descs: ops.to_vec(),
            build_seconds: t0.elapsed().as_secs_f64(),
            reuse,
            verify: VerifyStats::default(),
            lint: LintStats::default(),
        })
    }

    /// As [`SolverPlan::build`], behind `gates`: the verifier (with the
    /// backend's lowering options) and the linter each run once over
    /// `ops`, and refuse the plan before any compile.
    pub fn build_gated(
        backend: Box<dyn Backend>,
        ops: &[(StencilGroup, ShapeMap)],
        gates: Gates,
    ) -> std::result::Result<Self, PlanError> {
        let mut verify = VerifyStats::default();
        if gates.verify {
            let cert = verify_ops(ops, &backend.lower_options()).map_err(PlanError::Unverified)?;
            verify = cert.stats();
        }
        let mut lint = LintStats::default();
        if gates.lint {
            let report = lint_program(ops, &LintConfig::default())?;
            let denied: Vec<Lint> = report
                .lints
                .iter()
                .filter(|l| l.severity == Severity::Deny)
                .cloned()
                .collect();
            if !denied.is_empty() {
                return Err(PlanError::Denied(denied));
            }
            lint = lint_stats(&report, 0);
        }
        let mut plan = Self::build(backend, ops)?;
        plan.verify = verify;
        plan.lint = lint;
        Ok(plan)
    }

    /// The `(group, shapes)` descriptors the plan was built from, in op
    /// order — the input the gates and `crate::verify::verify_plan`
    /// analyze.
    pub fn descriptors(&self) -> &[(StencilGroup, ShapeMap)] {
        &self.descs
    }

    /// Lowering options of the compiling backend (what the verifier must
    /// replay to certify the exact schedule the backend executes).
    pub fn lower_options(&self) -> snowflake_ir::LowerOptions {
        self.backend.lower_options()
    }

    /// Number of operator slots (`plan_ops`). Structurally identical
    /// operators occupy distinct slots but share one executable.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Name of the compiling backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Wall-clock seconds the build step spent compiling (reported into
    /// `compile_seconds` by plan-driven solvers).
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// Build-time reuse counters plus the backend's on-disk artifact
    /// counters. Steady-state dispatch never changes these.
    pub fn cache_stats(&self) -> CacheStats {
        let backend = self.backend.stats();
        CacheStats {
            disk_hits: backend.disk_hits,
            disk_misses: backend.disk_misses,
            ..self.reuse
        }
    }

    fn op(&self, op: usize) -> Result<&(Arc<dyn Executable>, KernelCounters)> {
        self.ops.get(op).ok_or_else(|| {
            CoreError::Backend(format!(
                "plan op index {op} out of range (plan has {} ops)",
                self.ops.len()
            ))
        })
    }

    /// Execute operator `op` once: one `Vec` index, then the executable.
    pub fn run(&self, op: usize, grids: &mut GridSet) -> Result<()> {
        self.op(op)?.0.run(grids)
    }

    /// As [`SolverPlan::run`], timing the call into `report`: one clock
    /// read around the executable, booked to row `op` with the op's work.
    /// Observes only, so the grids are bitwise those of `run`.
    pub fn run_with_report(
        &self,
        op: usize,
        grids: &mut GridSet,
        report: &mut RunReport,
    ) -> Result<()> {
        let (exe, work) = self.op(op)?;
        report.set_backend(self.backend_name());
        let t0 = Instant::now();
        exe.run(grids)?;
        report.record_op(op, t0.elapsed().as_secs_f64(), *work);
        Ok(())
    }

    /// Stamp plan-level facts into a report: `plan_ops`, the build-time
    /// cache snapshot (with disk counters), the tuner counters, the gate
    /// counters and the backend name. Build time is *not* added here so
    /// callers can report it exactly once.
    pub fn stamp(&self, report: &mut RunReport) {
        report.plan_ops = self.ops.len() as u64;
        report.cache = self.cache_stats();
        report.tune = self.backend.stats().tune;
        report.verify = self.verify;
        report.lint = self.lint;
        report.set_backend(self.backend_name());
    }
}

/// Structural op key: the debug rendering of the group plus the sorted
/// shape bindings. Expressions, domains and maps all derive `Debug`
/// deterministically, so equal programs produce equal keys.
fn cache_key(group: &StencilGroup, shapes: &ShapeMap) -> String {
    let mut entries: Vec<(&String, &Vec<usize>)> = shapes.iter().collect();
    entries.sort();
    format!("{group:?}|{entries:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialBackend;
    use snowflake_core::{Expr, RectDomain, Stencil};
    use snowflake_grid::Grid;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scale_group(factor: f64) -> StencilGroup {
        StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]) * factor,
            "y",
            RectDomain::interior(2),
        ))
    }

    fn grid_set(n: usize) -> GridSet {
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[n, n]);
        x.fill_random(7, -1.0, 1.0);
        gs.insert("x", x);
        gs.insert("y", Grid::new(&[n, n]));
        gs
    }

    /// A sequential backend that counts its compiles.
    struct Counting(Arc<AtomicU64>);

    impl Backend for Counting {
        fn name(&self) -> &'static str {
            "seq"
        }
        fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
            self.0.fetch_add(1, Ordering::SeqCst);
            SequentialBackend::new().compile(group, shapes)
        }
    }

    fn counted_build(ops: &[(StencilGroup, ShapeMap)]) -> (SolverPlan, Arc<AtomicU64>) {
        let compiles = Arc::new(AtomicU64::new(0));
        let plan = SolverPlan::build(Box::new(Counting(compiles.clone())), ops).unwrap();
        (plan, compiles)
    }

    #[test]
    fn one_group_at_two_shapes_compiles_twice() {
        let ops = vec![
            (scale_group(2.0), grid_set(8).shapes()),
            (scale_group(2.0), grid_set(16).shapes()),
        ];
        let (plan, compiles) = counted_build(&ops);
        assert_eq!(compiles.load(Ordering::SeqCst), 2);
        assert_eq!((plan.cache_stats().hits, plan.cache_stats().misses), (0, 2));
        assert!(!Arc::ptr_eq(&plan.ops[0].0, &plan.ops[1].0));
    }

    #[test]
    fn two_groups_compile_twice() {
        let shapes = grid_set(8).shapes();
        let ops = vec![
            (scale_group(2.0), shapes.clone()),
            (scale_group(3.0), shapes),
        ];
        let (plan, compiles) = counted_build(&ops);
        assert_eq!(compiles.load(Ordering::SeqCst), 2);
        assert_eq!((plan.cache_stats().hits, plan.cache_stats().misses), (0, 2));
    }

    #[test]
    fn plan_indices_are_stable_and_duplicates_share_executables() {
        let gs = grid_set(8);
        let shapes = gs.shapes();
        let ops = vec![
            (scale_group(2.0), shapes.clone()),
            (scale_group(3.0), shapes.clone()),
            (scale_group(2.0), shapes.clone()), // structural duplicate of op 0
        ];
        let (plan, compiles) = counted_build(&ops);
        assert_eq!(plan.len(), 3);
        assert_eq!(
            compiles.load(Ordering::SeqCst),
            2,
            "the duplicate compiles once"
        );
        let stats = plan.cache_stats();
        assert_eq!(stats.misses, 2, "two distinct programs");
        assert_eq!(stats.hits, 1, "duplicate op reuses the compile");
        assert!(Arc::ptr_eq(&plan.ops[0].0, &plan.ops[2].0));

        let mut gs = gs;
        plan.run(0, &mut gs).unwrap();
        let doubled = gs.get("y").unwrap().clone();
        plan.run(1, &mut gs).unwrap();
        let tripled = gs.get("y").unwrap().clone();
        plan.run(2, &mut gs).unwrap();
        assert_eq!(gs.get("y").unwrap().max_abs_diff(&doubled), 0.0);
        assert!(tripled.max_abs_diff(&doubled) > 0.0);
    }

    #[test]
    fn dispatch_never_compiles_and_reports_per_op_rows() {
        let gs = grid_set(8);
        let shapes = gs.shapes();
        let ops = vec![
            (scale_group(2.0), shapes.clone()),
            (scale_group(3.0), shapes),
        ];
        let (plan, compiles) = counted_build(&ops);
        let built = plan.cache_stats();
        let mut gs = gs;
        let mut report = RunReport::new();
        for _ in 0..50 {
            plan.run(0, &mut gs).unwrap();
            plan.run_with_report(1, &mut gs, &mut report).unwrap();
        }
        assert_eq!(compiles.load(Ordering::SeqCst), 2);
        assert_eq!(plan.cache_stats(), built);
        assert_eq!(
            report.ops.keys().collect::<Vec<_>>(),
            [&1],
            "op 0 ran unprofiled"
        );
        assert_eq!(report.ops[&1].calls, 50);
        assert_eq!(report.runs, 50);
        assert_eq!(report.kernels.points, 50 * 36, "interior of 8x8 per call");
    }

    #[test]
    fn out_of_range_op_is_an_error_not_a_panic() {
        let gs = grid_set(8);
        let plan = SolverPlan::build(
            Box::new(SequentialBackend::new()),
            &[(scale_group(2.0), gs.shapes())],
        )
        .unwrap();
        let mut gs = gs;
        let err = plan.run(5, &mut gs).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn refusals_render_every_finding_and_convert_to_core_errors() {
        use snowflake_analysis::{DiagnosticKind, LintRule};
        let unverified = PlanError::Unverified(vec![
            Diagnostic::new(DiagnosticKind::OutOfBounds, "first").stencil("a"),
            Diagnostic::new(DiagnosticKind::PhaseHazard, "second").stencil("b"),
        ]);
        let msg = unverified.to_string();
        assert!(msg.contains("2 diagnostic(s)"), "{msg}");
        assert!(msg.contains("out-of-bounds"), "{msg}");
        assert!(msg.contains("phase-hazard"), "{msg}");
        let denied = PlanError::Denied(vec![
            Lint::new(LintRule::DeadStore, "first").stencil("a"),
            Lint::new(LintRule::CoverageGap, "second").grid("g"),
        ]);
        let msg = denied.to_string();
        assert!(msg.contains("2 finding(s)"), "{msg}");
        assert!(msg.contains("dead-store"), "{msg}");
        assert!(msg.contains("coverage-gap"), "{msg}");
        assert_eq!(CoreError::from(denied), CoreError::Backend(msg));
        let core = CoreError::Backend("cc missing".into());
        assert_eq!(CoreError::from(PlanError::from(core.clone())), core);
    }

    #[test]
    fn stamp_fills_plan_counters() {
        let gs = grid_set(8);
        let shapes = gs.shapes();
        let plan = SolverPlan::build(
            Box::new(SequentialBackend::new()),
            &[
                (scale_group(2.0), shapes.clone()),
                (scale_group(2.0), shapes),
            ],
        )
        .unwrap();
        let mut report = RunReport::new();
        plan.stamp(&mut report);
        assert_eq!(report.plan_ops, 2);
        assert_eq!(report.backend, "seq");
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.cache.hits, 1);
    }
}
