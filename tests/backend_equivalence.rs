//! Cross-backend equivalence: every micro-compiler must compute the same
//! function from a single stencil source — the correctness half of the
//! paper's performance-portability claim.
//!
//! The interpreter backend defines the semantics; the compiled backends
//! (sequential, OpenMP-like, OpenCL-simulator, C JIT) are compared against
//! it on randomized programs, shapes and domains. A kernel that does not
//! linearize runs as a tape of its source tree, so it must match the
//! interpreter bit for bit; a tolerance is left only where a linear form
//! re-associates the source (merged weights, distributed scalars).

use proptest::prelude::*;
use snowflake::prelude::*;

/// All always-available backends.
fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(SequentialBackend::new()),
        Box::new(OmpBackend::new()),
        Box::new(
            OmpBackend::new()
                .with_tile(vec![3, 5])
                .with_multicolor(true),
        ),
        Box::new(OclSimBackend::new()),
    ]
}

/// Run `group` on every backend and compare each grid with the
/// interpreter's: bitwise when `tol` is zero, within `tol` otherwise.
fn run_all(group: &StencilGroup, make: impl Fn() -> GridSet, tol: f64) {
    let mut reference = make();
    let shapes = reference.shapes();
    InterpreterBackend
        .compile(group, &shapes)
        .expect("interp compile")
        .run(&mut reference)
        .expect("interp run");
    let mut tested = backends();
    tested.push(Box::new(snowflake::backends::CheckedBackend::new()));
    if CJitBackend::available() {
        tested.push(Box::new(CJitBackend::new()));
    }
    for backend in tested {
        let mut grids = make();
        backend
            .compile(group, &shapes)
            .unwrap_or_else(|e| panic!("{} compile: {e}", backend.name()))
            .run(&mut grids)
            .unwrap_or_else(|e| panic!("{} run: {e}", backend.name()));
        for name in reference.names() {
            let (want, got) = (reference.get(name).unwrap(), grids.get(name).unwrap());
            if tol == 0.0 {
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "backend {} deviates on grid {name:?}",
                    backend.name()
                );
                continue;
            }
            let diff = want.max_abs_diff(got);
            assert!(
                diff <= tol,
                "backend {} deviates on grid {name:?} by {diff}",
                backend.name()
            );
        }
    }
}

#[test]
fn equivalence_on_out_of_place_laplacian() {
    let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
    let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
    run_all(
        &group,
        || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[19, 23]);
            x.fill_random(11, -2.0, 2.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&[19, 23]));
            gs
        },
        0.0,
    );
}

/// The paper's Figure 4-style 2-D VC GSRB smooth with interleaved
/// Dirichlet boundary faces (shared by the equivalence and the
/// instrumentation tests below).
fn figure4_gsrb_group() -> StencilGroup {
    let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
    let ax = Expr::read_at("bx", &[1, 0]) * (m(1, 0) - m(0, 0))
        - Expr::read_at("bx", &[0, 0]) * (m(0, 0) - m(-1, 0))
        + Expr::read_at("by", &[0, 1]) * (m(0, 1) - m(0, 0))
        - Expr::read_at("by", &[0, 0]) * (m(0, 0) - m(0, -1));
    let update = m(0, 0) + 0.21 * (Expr::read_at("rhs", &[0, 0]) - ax);
    let (red, black) = DomainUnion::red_black(2);
    let face = |dom: RectDomain, off: [i64; 2]| {
        Stencil::new(
            Expr::Neg(Box::new(Expr::read_at("mesh", &off))),
            "mesh",
            dom,
        )
    };
    let mut group = StencilGroup::new();
    for f in [
        face(RectDomain::new(&[0, 1], &[0, -1], &[0, 1]), [1, 0]),
        face(RectDomain::new(&[-1, 1], &[-1, -1], &[0, 1]), [-1, 0]),
        face(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, 1]),
        face(RectDomain::new(&[1, -1], &[-1, -1], &[1, 0]), [0, -1]),
    ] {
        group.push(f);
    }
    group.push(Stencil::new(update.clone(), "mesh", red));
    group.push(Stencil::new(update, "mesh", black));
    group
}

fn figure4_gsrb_grids() -> GridSet {
    let mut gs = GridSet::new();
    for (name, seed, lo, hi) in [
        ("mesh", 1u64, -1.0, 1.0),
        ("rhs", 2, -1.0, 1.0),
        ("bx", 3, 0.5, 1.5),
        ("by", 4, 0.5, 1.5),
    ] {
        let mut g = Grid::new(&[17, 17]);
        g.fill_random(seed, lo, hi);
        gs.insert(name, g);
    }
    gs
}

#[test]
fn equivalence_on_figure4_vc_gsrb_with_boundaries() {
    // The red/black updates are tapes and the faces' linear fold
    // `0 + (−1)·x` is exact: bitwise.
    run_all(&figure4_gsrb_group(), figure4_gsrb_grids, 0.0);
}

/// A non-linear right-nested sum 44 levels deep compiles and runs on every
/// backend — no stack-depth limit — and matches the interpreter bitwise.
#[test]
fn deeply_nested_expressions_compile_on_every_backend() {
    let x = |j: i64| Expr::read_at("x", &[0, j]);
    let mut expr = x(0) * Expr::read_at("c", &[0, 0]);
    for k in 0..44 {
        let term = if k % 3 == 0 {
            x(k % 5 - 2) * x(1)
        } else {
            x(k % 5 - 2)
        };
        expr = term + expr;
    }
    let group = StencilGroup::from(Stencil::new(
        expr,
        "y",
        RectDomain::new(&[0, 2], &[0, -2], &[1, 1]),
    ));
    let make = || {
        let mut gs = GridSet::new();
        for (name, seed) in [("x", 41u64), ("c", 42), ("y", 43)] {
            let mut g = Grid::new(&[6, 40]);
            g.fill_random(seed, -1.0, 1.0);
            gs.insert(name, g);
        }
        gs
    };
    run_all(&group, make, 0.0);
}

/// Instrumented execution must not change the computed values: a one-op
/// plan's `run` and `run_with_report` produce bitwise-identical grids on
/// the GSRB group across every CPU backend.
#[test]
fn run_with_report_is_bitwise_identical_to_run() {
    let shapes = figure4_gsrb_grids().shapes();
    let ops = [(figure4_gsrb_group(), shapes)];
    let mut tested = backends();
    tested.push(Box::new(InterpreterBackend));
    tested.push(Box::new(snowflake::backends::CheckedBackend::new()));
    if CJitBackend::available() {
        tested.push(Box::new(CJitBackend::new()));
    }
    for backend in tested {
        let name = backend.name();
        let plan =
            SolverPlan::build(backend, &ops).unwrap_or_else(|e| panic!("{name} compile: {e}"));
        let mut plain = figure4_gsrb_grids();
        plan.run(0, &mut plain)
            .unwrap_or_else(|e| panic!("{name} run: {e}"));
        let mut profiled = figure4_gsrb_grids();
        let mut report = RunReport::new();
        plan.run_with_report(0, &mut profiled, &mut report)
            .unwrap_or_else(|e| panic!("{name} run_with_report: {e}"));
        for grid in plain.names() {
            let diff = plain
                .get(grid)
                .unwrap()
                .max_abs_diff(profiled.get(grid).unwrap());
            assert_eq!(
                diff, 0.0,
                "backend {name} not bitwise identical on {grid:?}"
            );
        }
        assert_eq!(report.backend, name);
        assert_eq!(report.runs, 1);
        assert_eq!(report.ops[&0].calls, 1, "{name}");
        assert!(report.kernels.points > 0, "{name}");
        assert!(report.kernels.tiles > 0, "{name}");
        assert!(report.run_seconds > 0.0, "{name}");
    }
}

/// The op table attributes time to plan ops: a profiled V-cycle gets one
/// row per plan index it dispatched, with the calls the cycle makes, and
/// the rows add up to the report's totals. Each call adds its executable's
/// static work, which for omp counts the tasks of its tiled schedule.
#[test]
fn report_op_table_matches_plan_dispatch() {
    use snowflake::hpgmg::{Problem, SnowSolver, BOTTOM_SMOOTHS, SMOOTHS_PER_LEG};

    let mut solver =
        SnowSolver::new(Problem::poisson_vc(8), Box::new(SequentialBackend::new())).unwrap();
    assert_eq!(solver.sizes.len(), 2, "one smoothed level above the bottom");
    solver.enable_metrics();
    solver.vcycle(0).unwrap();
    let report = solver.take_metrics().unwrap();
    // Name each row by the stencil that identifies its operator.
    const KEYS: [&str; 4] = ["gsrb_red_", "residual", "restrict", "interp_000"];
    let label = |op: usize| {
        let (group, _) = &solver.plan().descriptors()[op];
        let s = group
            .stencils()
            .iter()
            .find(|s| KEYS.iter().any(|k| s.name().starts_with(k)));
        s.map(|s| format!("{} -> {}", s.name(), s.output()))
            .unwrap()
    };
    let mut rows: Vec<(String, u64)> = report
        .ops
        .iter()
        .map(|(&op, row)| (label(op), row.calls))
        .collect();
    rows.sort();
    let smooths = SMOOTHS_PER_LEG as u64;
    assert_eq!(
        rows,
        [
            ("gsrb_red_x_0 -> x_0".to_string(), 2 * smooths),
            ("gsrb_red_x_1 -> x_1".to_string(), BOTTOM_SMOOTHS as u64),
            ("interp_000 -> x_0".to_string(), 1),
            ("residual -> res_0".to_string(), 1),
            ("restrict -> rhs_1".to_string(), 1),
        ]
    );
    let calls: u64 = report.ops.values().map(|row| row.calls).sum();
    assert_eq!(calls, report.runs);
    let seconds: f64 = report.ops.values().map(|row| row.seconds).sum();
    assert!(
        (seconds - report.run_seconds).abs() <= 1e-12 * report.run_seconds,
        "rows sum to {seconds} s, report says {} s",
        report.run_seconds
    );

    // One parallel kernel over a 16x16 interior, cut into 4x8 tiles: the
    // schedule has 4 * 2 tasks, one dispatch each per run.
    let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
    let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
    let mut shapes = snowflake::core::ShapeMap::new();
    shapes.insert("x".into(), vec![18, 18]);
    shapes.insert("y".into(), vec![18, 18]);
    let work = OmpBackend::new()
        .with_tile(vec![4, 8])
        .compile(&group, &shapes)
        .unwrap()
        .work();
    assert_eq!(work.tiles, 8);
    assert_eq!(work.parallel_tasks, 8);
    assert_eq!(work.points, 256);
}

#[test]
fn equivalence_on_multigrid_transfer_operators() {
    // Restriction (scale-2 reads) and interpolation (scale-2 writes) in 1
    // group: exercises the affine-map machinery end to end.
    let restrict = (Expr::read_mapped("fine", AffineMap::scaled(vec![2, 2], vec![-1, -1]))
        + Expr::read_mapped("fine", AffineMap::scaled(vec![2, 2], vec![-1, 0]))
        + Expr::read_mapped("fine", AffineMap::scaled(vec![2, 2], vec![0, -1]))
        + Expr::read_mapped("fine", AffineMap::scaled(vec![2, 2], vec![0, 0])))
        * 0.25;
    let mut group = StencilGroup::from(
        Stencil::new(restrict, "coarse", RectDomain::interior(2)).named("restrict"),
    );
    for di in [-1i64, 0] {
        for dj in [-1i64, 0] {
            let map = AffineMap::scaled(vec![2, 2], vec![di, dj]);
            group.push(
                Stencil::new(
                    Expr::read_mapped("out", map.clone()) + Expr::read_at("coarse", &[0, 0]),
                    "out",
                    RectDomain::interior(2),
                )
                .with_out_map(map)
                .named("interp"),
            );
        }
    }
    run_all(
        &group,
        || {
            let mut gs = GridSet::new();
            let mut fine = Grid::new(&[18, 18]);
            fine.fill_random(7, 0.0, 1.0);
            gs.insert("fine", fine);
            gs.insert("coarse", Grid::new(&[10, 10]));
            let mut out = Grid::new(&[18, 18]);
            out.fill_random(8, 0.0, 1.0);
            gs.insert("out", out);
            gs
        },
        // Linear: the restriction's 0.25 is distributed over its reads.
        1e-13,
    );
}

#[test]
fn equivalence_on_sequential_in_place_propagation() {
    // A kernel the analysis must refuse to parallelize: every backend has
    // to fall back to canonical order and still agree.
    let s = Stencil::new(
        Expr::read_at("x", &[-1, 0]) * 0.5 + Expr::read_at("x", &[0, 0]) * 0.5,
        "x",
        RectDomain::interior(2),
    );
    run_all(
        &StencilGroup::from(s),
        || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[12, 12]);
            x.fill_random(3, -1.0, 1.0);
            gs.insert("x", x);
            gs
        },
        // Linear: folded as `(0 + 0.5·x₋) + 0.5·x`.
        1e-13,
    );
}

#[test]
fn equivalence_on_fourth_order_13_point_laplacian() {
    // "Higher-order operators (larger stencils)" — §II. The 4th-order
    // operator needs a 2-cell halo; every backend must agree.
    use snowflake::core::ops::{laplacian, Order};
    let lap = Component::new("u", laplacian(3, Order::Fourth));
    let group = StencilGroup::from(Stencil::new(
        lap,
        "out",
        RectDomain::new(&[2, 2, 2], &[-2, -2, -2], &[1, 1, 1]),
    ));
    run_all(
        &group,
        || {
            let mut gs = GridSet::new();
            let mut u = Grid::new(&[12, 12, 12]);
            u.fill_random(31, -1.0, 1.0);
            gs.insert("u", u);
            gs.insert("out", Grid::new(&[12, 12, 12]));
            gs
        },
        // Linear: the operator's weights are merged per read.
        1e-13,
    );
}

#[test]
fn equivalence_on_4d_stencil() {
    // MAX_DIMS = 4: e.g. 3-D space × component index.
    let e = Expr::read_at("x", &[0, 1, 0, 0]) - Expr::read_at("x", &[0, -1, 0, 0])
        + 0.5 * Expr::read_at("x", &[0, 0, 0, 1]);
    let group = StencilGroup::from(Stencil::new(
        e,
        "y",
        RectDomain::new(&[0, 1, 0, 0], &[0, -1, 0, -1], &[1, 1, 1, 1]),
    ));
    run_all(
        &group,
        || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[3, 6, 5, 4]);
            x.fill_random(17, -2.0, 2.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&[3, 6, 5, 4]));
            gs
        },
        0.0,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Randomized variable-coefficient stencils (coefficient-read ×
    /// solution-read products run as tapes): all backends match the
    /// interpreter bitwise.
    #[test]
    fn equivalence_on_random_vc_stencils(
        seed in 0u64..1_000,
        terms in proptest::collection::vec(
            ((-1i64..2, -1i64..2), (-1i64..2, -1i64..2), -1.0f64..1.0), 1..4),
    ) {
        let mut expr = Expr::read_at("x", &[0, 0]);
        for ((ci, cj), (xi, xj), w) in &terms {
            expr = expr
                + Expr::Const(*w)
                    * Expr::read_at("c", &[*ci, *cj])
                    * Expr::read_at("x", &[*xi, *xj]);
        }
        let group = StencilGroup::from(Stencil::new(expr, "y", RectDomain::interior(2)));
        let make = move || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[12, 13]);
            x.fill_random(seed, -2.0, 2.0);
            gs.insert("x", x);
            let mut c = Grid::new(&[12, 13]);
            c.fill_random(seed.wrapping_add(1), 0.25, 1.75);
            gs.insert("c", c);
            gs.insert("y", Grid::new(&[12, 13]));
            gs
        };
        let mut reference = make();
        let shapes = reference.shapes();
        InterpreterBackend.compile(&group, &shapes).unwrap().run(&mut reference).unwrap();
        for backend in backends() {
            let mut grids = make();
            backend.compile(&group, &shapes).unwrap().run(&mut grids).unwrap();
            prop_assert_eq!(
                grids.get("y").unwrap().as_slice(),
                reference.get("y").unwrap().as_slice(),
                "{} deviates", backend.name()
            );
        }
    }

    /// Randomized linear stencils over randomized strided domains: all
    /// backends agree with the interpreter.
    #[test]
    fn equivalence_on_random_linear_stencils(
        seed in 0u64..1_000,
        offs in proptest::collection::vec((-2i64..3, -2i64..3, -1.0f64..1.0), 1..6),
        lo in 2i64..4,
        stride in 1i64..3,
    ) {
        let mut expr = Expr::Const(0.25);
        for (oi, oj, w) in &offs {
            expr = expr + Expr::Const(*w) * Expr::read_at("x", &[*oi, *oj]);
        }
        let dom = RectDomain::new(&[lo, lo], &[-2, -2], &[stride, stride]);
        let group = StencilGroup::from(Stencil::new(expr, "y", dom));
        let make = move || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[14, 15]);
            x.fill_random(seed, -3.0, 3.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&[14, 15]));
            gs
        };
        // No cjit in the proptest loop (compiler invocations are slow).
        // Linear: the bias and weights fold as `(0.25 + w·x) + …`, which
        // merges repeated offsets.
        let mut reference = make();
        let shapes = reference.shapes();
        InterpreterBackend.compile(&group, &shapes).unwrap().run(&mut reference).unwrap();
        for backend in backends() {
            let mut grids = make();
            backend.compile(&group, &shapes).unwrap().run(&mut grids).unwrap();
            let diff = reference.get("y").unwrap().max_abs_diff(grids.get("y").unwrap());
            prop_assert!(diff < 1e-12, "{} deviates by {diff}", backend.name());
        }
    }
}

#[test]
fn multicolor_union_with_a_coarse_untiled_stride_matches_seq() {
    // Three colours of stride 3 along the untiled inner dimension: the
    // multicolor box step there saturates, and stepping past it must
    // neither overflow nor drop a colour.
    let colours = (0..3)
        .map(|k| RectDomain::new(&[1, 1 + k], &[-1, -1], &[1, 3]))
        .collect();
    let e = Expr::read_at("x", &[0, 1]) * 0.5 + Expr::read_at("x", &[0, -1]) * 0.25;
    let group = StencilGroup::from(Stencil::new(e, "y", DomainUnion::new(colours)));
    let make = || {
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[20, 20]);
        x.fill_random(11, -1.0, 1.0);
        gs.insert("x", x);
        gs.insert("y", Grid::new(&[20, 20]));
        gs
    };
    let (mut want, mut got) = (make(), make());
    let shapes = want.shapes();
    let run = |backend: &dyn Backend, grids: &mut GridSet| {
        backend
            .compile(&group, &shapes)
            .unwrap()
            .run(grids)
            .unwrap();
    };
    run(&SequentialBackend::new(), &mut want);
    run(&OmpBackend::new(), &mut got);
    assert_eq!(
        got.get("y").unwrap().as_slice(),
        want.get("y").unwrap().as_slice()
    );
}
