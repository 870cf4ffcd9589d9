//! The plan counters a solver stamps into its `RunReport`, asserted on the
//! report value in the process that ran the solve: the artifact cache of
//! the compiled backends (cjit, oclsim) serves a rebuilt plan, the inert
//! tuner knobs build the default omp plan, the plan check leaves clean
//! certificates on every backend, every plan op that ran has a row in the
//! op table, and each op's schedule dispatches the pinned work.

use std::path::PathBuf;

use snowflake::backends::{
    available_backends, backend_available, backend_from_name, Backend, BackendOptions, CJitBackend,
    OclSimBackend, OmpBackend, RunReport, SequentialBackend,
};
use snowflake::hpgmg::{snow::operator_list, Problem, SnowSolver};

/// A fresh, empty scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "snowflake-plan-counters-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The registry backends this host can run (cjit and oclsim need a C
/// compiler).
fn runnable_backends() -> impl Iterator<Item = &'static str> {
    available_backends()
        .iter()
        .copied()
        .filter(|&name| backend_available(name))
}

/// Build the 8³ variable-coefficient solver on `name`, checked when
/// `verify` is set, run one metered V-cycle and return its report with the
/// residual norm.
fn metered_vcycle(name: &str, opts: &BackendOptions, verify: bool) -> (RunReport, f64) {
    let backend = backend_from_name(name, opts).unwrap();
    let mut solver = SnowSolver::build(Problem::poisson_vc(8), backend, verify)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    solver.enable_metrics();
    solver.vcycle(0).unwrap();
    let norm = solver.residual_norm().unwrap();
    (solver.take_metrics().unwrap(), norm)
}

/// Build the solver on compiled backend `name` twice over one fresh
/// artifact cache directory: the cold build compiles, the warm one is
/// served from the cache alone and computes the same bits.
fn assert_plan_rebuild_is_served_from_the_artifact_cache(name: &str) {
    if !backend_available(name) {
        eprintln!("skipping: no C compiler for {name}");
        return;
    }
    let dir = scratch_dir(name);
    let opts = BackendOptions::default().with_cache_dir(&dir);
    let (cold, cold_norm) = metered_vcycle(name, &opts, false);
    assert!(cold.cache.disk_misses > 0, "{:?}", cold.cache);
    assert_eq!(cold.cache.disk_hits, 0, "fresh cache directory");

    // A rebuilt solver over the same directory stands in for a second
    // process: every artifact is dlopened, no compiler runs.
    let (warm, warm_norm) = metered_vcycle(name, &opts, false);
    assert!(warm.cache.disk_hits > 0, "{:?}", warm.cache);
    assert_eq!(warm.cache.disk_misses, 0, "{:?}", warm.cache);
    assert!(
        warm.compile_seconds < cold.compile_seconds,
        "loading cached artifacts ({}s) must beat compiling them ({}s)",
        warm.compile_seconds,
        cold.compile_seconds
    );
    assert_eq!(warm_norm.to_bits(), cold_norm.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cjit_plan_rebuild_is_served_from_the_artifact_cache() {
    assert_plan_rebuild_is_served_from_the_artifact_cache("cjit");
}

#[test]
fn oclsim_plan_rebuild_is_served_from_the_artifact_cache() {
    assert_plan_rebuild_is_served_from_the_artifact_cache("oclsim");
}

/// The solver benchmark's compile ledger still asks for the tile tuner
/// through the inert `with_tune` and `with_tune_dir` builders: they build
/// the default omp backend, which times no tile and writes nothing.
#[test]
fn inert_tune_knobs_build_the_default_omp_plan() {
    let dir = scratch_dir("tune");
    let opts = BackendOptions::default()
        .with_tune(true)
        .with_tune_dir(&dir);
    let (tuned, tuned_norm) = metered_vcycle("omp", &opts, false);
    let (default, default_norm) = metered_vcycle("omp", &BackendOptions::default(), false);
    assert_eq!(tuned_norm.to_bits(), default_norm.to_bits());
    assert_eq!(tuned.kernels, default.kernels, "the same schedules");
    assert_eq!(tuned.tune.candidates_timed, 0);
    assert!(!dir.exists(), "{dir:?} was created");
}

#[test]
fn gated_solve_stamps_clean_certificates_on_every_backend() {
    for name in runnable_backends() {
        let (report, _) = metered_vcycle(name, &BackendOptions::default(), true);
        assert_eq!(report.backend, name);
        assert!(
            report.verify.stencils_checked > 0,
            "{name}: {:?}",
            report.verify
        );
        assert!(report.verify.phases_certified > 0, "{name}");
        assert!(report.verify.rules_run > 0, "{name}: {:?}", report.verify);
        assert_eq!(report.verify.warnings, 0, "{name}");
    }
}

#[test]
fn metered_solve_books_every_op_call_on_every_backend() {
    for name in runnable_backends() {
        let (report, _) = metered_vcycle(name, &BackendOptions::default(), false);
        assert!(!report.ops.is_empty(), "{name}: empty op table");
        for (op, row) in &report.ops {
            assert!(row.calls > 0, "{name}: op {op} has a row but no calls");
            assert!((*op as u64) < report.plan_ops, "{name}: op {op}");
        }
        let calls: u64 = report.ops.values().map(|row| row.calls).sum();
        assert_eq!(calls, report.runs, "{name}");
    }
}

/// Each op of the 16³ GSRB operator list, the same for the `vc` and `cc`
/// problems: its points, then its tiles for `seq` and `oclsim` (one per
/// loop nest, as cjit: a colour union whose pieces tile their hull is one)
/// and for `omp` with an explicit 3×4×5 tile (multicolor reordering on:
/// one per tile of a nest's hull box). Every kernel is parallel-safe.
const WORK_16: [[u64; 3]; 9] = [
    [7168, 14, 280],
    [5632, 7, 224],
    [1512, 2, 36],
    [4096, 8, 96],
    [1280, 14, 68],
    [896, 7, 44],
    [280, 2, 10],
    [512, 8, 16],
    [256, 14, 22],
];

#[test]
fn schedules_dispatch_the_pinned_work_per_op() {
    // (WORK_16 column, backend)
    let mut backends: Vec<(usize, Box<dyn Backend>)> = vec![
        (1, Box::new(SequentialBackend::new())),
        (2, Box::new(OmpBackend::new().with_tile(vec![3, 4, 5]))),
    ];
    if CJitBackend::available() {
        backends.push((1, Box::new(OclSimBackend::new())));
    }
    for problem in [Problem::poisson_vc(16), Problem::poisson_cc(16)] {
        let (list, _) = operator_list(&problem);
        assert_eq!(list.len(), WORK_16.len());
        for (op, ((group, shapes), want)) in list.iter().zip(&WORK_16).enumerate() {
            for (column, backend) in &backends {
                let work = backend.compile(group, shapes).unwrap().work();
                let tiles = want[*column];
                assert_eq!(
                    [
                        work.points,
                        work.tiles,
                        work.parallel_tasks,
                        work.sequential_tasks
                    ],
                    [want[0], tiles, tiles, 0],
                    "{} op {op}",
                    backend.name()
                );
            }
        }
    }
}
