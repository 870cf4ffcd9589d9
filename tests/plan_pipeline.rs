//! Integration tests for the plan-once-run-many pipeline: a
//! [`SolverPlan`] built from real HPGMG operator groups produces bitwise
//! the same grids as compiling each group directly and running it, the backend
//! registry constructs every named backend, and the cjit persistent
//! artifact cache serves a second process-equivalent compile from disk.

use snowflake::backends::{
    available_backends, backend_available, backend_from_name, Backend, BackendOptions, CJitBackend,
    SolverPlan,
};
use snowflake::core::{Expr, RectDomain, ShapeMap, Stencil, StencilGroup};
use snowflake::grid::{Grid, GridSet};
use snowflake::hpgmg::stencils::{apply_op_group, gsrb_smooth_group, Coeff, Names};
use snowflake::hpgmg::{LevelData, Problem};

/// The level-0 grid set of a VC problem, deterministically filled.
fn level_grids(problem: &Problem, n: usize) -> (Names, GridSet) {
    let names = Names::level(0);
    let mut lvl = LevelData::build(problem, n);
    lvl.x.fill_random(17, -1.0, 1.0);
    lvl.rhs.fill_random(18, -1.0, 1.0);
    let mut grids = GridSet::new();
    grids.insert(&names.x, lvl.x);
    grids.insert(&names.rhs, lvl.rhs);
    grids.insert(&names.res, lvl.res);
    grids.insert(&names.dinv, lvl.dinv);
    grids.insert(&names.alpha, lvl.alpha);
    grids.insert(&names.beta_x, lvl.beta_x);
    grids.insert(&names.beta_y, lvl.beta_y);
    grids.insert(&names.beta_z, lvl.beta_z);
    (names, grids)
}

/// The HPGMG smoother + residual as a plan op list, with the smoother
/// repeated so the test also exercises executable dedup.
fn op_list(
    names: &Names,
    problem: &Problem,
    shapes: &ShapeMap,
    n: usize,
) -> Vec<(StencilGroup, ShapeMap)> {
    let h2inv = (n * n) as f64;
    let smooth = gsrb_smooth_group(names, Coeff::Variable, problem.a, problem.b, h2inv);
    let residual = apply_op_group(
        names,
        &names.res,
        Coeff::Variable,
        problem.a,
        problem.b,
        h2inv,
    );
    vec![
        (smooth.clone(), shapes.clone()),
        (residual, shapes.clone()),
        (smooth, shapes.clone()),
    ]
}

#[test]
fn plan_path_is_bitwise_identical_to_direct_backend_runs() {
    let n = 8;
    let problem = Problem::poisson_vc(n);
    for name in ["seq", "omp", "interp"] {
        let (names, mut plan_grids) = level_grids(&problem, n);
        let (_, mut direct_grids) = level_grids(&problem, n);
        let ops = op_list(&names, &problem, &plan_grids.shapes(), n);

        let plan = SolverPlan::build(
            backend_from_name(name, &BackendOptions::default()).unwrap(),
            &ops,
        )
        .unwrap();
        // Duplicate smoother group → 2 compilations, 1 builder hit.
        assert_eq!(plan.len(), 3, "{name}");
        let built = plan.cache_stats();
        assert_eq!((built.hits, built.misses), (1, 2), "{name}");

        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        let direct: Vec<_> = ops
            .iter()
            .map(|(group, shapes)| backend.compile(group, shapes).unwrap())
            .collect();
        for cycle in 0..3 {
            for op in 0..plan.len() {
                plan.run(op, &mut plan_grids).unwrap();
            }
            for exe in &direct {
                exe.run(&mut direct_grids).unwrap();
            }
            for grid in [&names.x, &names.res] {
                assert_eq!(
                    plan_grids.get(grid).unwrap().as_slice(),
                    direct_grids.get(grid).unwrap().as_slice(),
                    "{name}: {grid} diverged on cycle {cycle}"
                );
            }
        }
        // Steady-state dispatch is index-based: the build counters saw no
        // further traffic.
        let after = plan.cache_stats();
        assert_eq!(
            (after.hits, after.misses),
            (built.hits, built.misses),
            "{name}"
        );
    }
}

#[test]
fn registry_round_trips_every_backend_name() {
    let group = StencilGroup::from(Stencil::new(
        Expr::read_at("x", &[0, 0]) * 2.0,
        "y",
        RectDomain::all(2),
    ));
    for name in available_backends() {
        if !backend_available(name) {
            continue;
        }
        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        assert_eq!(backend.name(), *name, "registry name must round-trip");
        let mut grids = GridSet::new();
        grids.insert("x", Grid::from_fn(&[8, 8], |p| (p[0] * 8 + p[1]) as f64));
        grids.insert("y", Grid::new(&[8, 8]));
        let exe = backend.compile(&group, &grids.shapes()).unwrap();
        exe.run(&mut grids).unwrap();
        let y = grids.get("y").unwrap();
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(y.get(&[i, j]), ((i * 8 + j) * 2) as f64, "{name}");
            }
        }
    }
}

#[test]
fn registry_rejects_unknown_names_with_the_full_list() {
    let Err(err) = backend_from_name("does-not-exist", &BackendOptions::default()) else {
        panic!("unknown name must be rejected");
    };
    let msg = err.to_string();
    assert!(msg.contains("does-not-exist"), "{msg}");
    for name in available_backends() {
        assert!(msg.contains(name), "{msg} should list {name}");
    }
}

#[test]
fn cjit_disk_cache_serves_a_second_backend_with_identical_results() {
    if !CJitBackend::available() {
        eprintln!("(skipped: no C compiler)");
        return;
    }
    let dir =
        std::env::temp_dir().join(format!("snowflake-disk-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let n = 8;
    let problem = Problem::poisson_vc(n);
    let run = |backend: CJitBackend| {
        let (names, mut grids) = level_grids(&problem, n);
        let h2inv = (n * n) as f64;
        let group = gsrb_smooth_group(&names, Coeff::Variable, problem.a, problem.b, h2inv);
        let exe = backend.compile(&group, &grids.shapes()).unwrap();
        exe.run(&mut grids).unwrap();
        let out = grids.get(&names.x).unwrap().as_slice().to_vec();
        let stats = backend.stats();
        (out, (stats.disk_hits, stats.disk_misses))
    };

    let (cold_out, (cold_hits, cold_misses)) = run(CJitBackend::new().with_cache_dir(dir.clone()));
    assert_eq!(cold_hits, 0, "fresh cache dir cannot hit");
    assert!(cold_misses > 0, "cold compile must record a disk miss");

    // A brand-new backend instance (fresh in-process state, same cache
    // dir) stands in for a second process: it must dlopen the persisted
    // artifact instead of re-invoking the C compiler.
    let (warm_out, (warm_hits, warm_misses)) = run(CJitBackend::new().with_cache_dir(dir.clone()));
    assert!(warm_hits > 0, "second compile must be served from disk");
    assert_eq!(warm_misses, 0, "warm compile must not miss");
    assert_eq!(
        cold_out, warm_out,
        "cached artifact must be bitwise-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
