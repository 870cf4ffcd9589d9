//! Closed-form equivalence: every backend runs the closed forms lowering
//! extracts — a linear record or a tape of the source tree — and every
//! loop shape (chunked, strided, point by point) must perform the same
//! per-element operation sequence. The reference is the `checked`
//! sanitizer, which evaluates each record point by point in canonical
//! order with range-checked reads. These tests pin that contract on the
//! full HPGMG V-cycles and on randomized stencils — including in-place
//! sequential ones, which take the per-point path — check that a tape
//! kernel matches the tree-walking interpreter bit for bit, and check
//! statically which form every HPGMG plan kernel carries.

use proptest::prelude::*;
use snowflake::backends::specialize::specialize_lowered;
use snowflake::backends::{verify_plan, CJitBackend, CheckedBackend};
use snowflake::hpgmg::{Problem, SnowSolver};
use snowflake::ir::spec::SpecForm;
use snowflake::ir::{lower_group, LowerOptions};
use snowflake::prelude::*;

/// Solve `cycles` V-cycles; return the residual history and the final
/// grids.
fn solve(problem: Problem, backend: Box<dyn Backend>, cycles: usize) -> (Vec<f64>, GridSet) {
    let mut solver = SnowSolver::new(problem, backend).expect("plan build");
    let norms = solver.solve(cycles).expect("solve");
    (norms, solver.grids)
}

/// The headline equivalence: full multi-level V-cycle solves — smoothers,
/// residuals, boundary fills, inter-grid transfers — leave every grid
/// bitwise identical to the `checked` reference on each pure-Rust backend,
/// for the variable- and constant-coefficient operators.
#[test]
fn hpgmg_vcycles_are_bitwise_identical_to_checked() {
    for problem in [Problem::poisson_vc(8), Problem::poisson_cc(8)] {
        let (want_norms, want) = solve(problem, Box::new(CheckedBackend::new()), 3);
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(SequentialBackend::new()),
            Box::new(OmpBackend::new()),
            Box::new(OclSimBackend::new()),
        ];
        for backend in backends {
            let name = backend.name();
            let (norms, got) = solve(problem, backend, 3);
            assert_eq!(norms, want_norms, "{name}: residual histories differ");
            for grid in want.names() {
                assert_eq!(
                    got.get(grid).unwrap().as_slice(),
                    want.get(grid).unwrap().as_slice(),
                    "{name}: grid {grid} differs from checked"
                );
            }
        }
    }
}

/// Assert that every grid of `got` is bitwise identical to `want`.
fn assert_grids_eq(got: &GridSet, want: &GridSet, who: &str) {
    for grid in want.names() {
        assert_eq!(
            got.get(grid).unwrap().as_slice(),
            want.get(grid).unwrap().as_slice(),
            "{who}: grid {grid} differs"
        );
    }
}

/// The C micro-compiler renders the same closed forms — the linear left
/// fold and the tape's source tree — so its V-cycles leave every grid
/// bitwise identical to `seq`. Gated on a working host C compiler.
#[test]
fn hpgmg_vcycle_cjit_matches_seq() {
    if !CJitBackend::available() {
        eprintln!("skipping: no host C compiler for cjit");
        return;
    }
    for problem in [Problem::poisson_vc(8), Problem::poisson_cc(8)] {
        let (cjit_norms, cjit) = solve(problem, Box::new(CJitBackend::new()), 2);
        let (seq_norms, seq) = solve(problem, Box::new(SequentialBackend::new()), 2);
        assert_eq!(cjit_norms, seq_norms, "cjit vs seq residual histories");
        assert_grids_eq(&cjit, &seq, "cjit vs seq");
    }
}

/// The `vc` smoother and residual are tapes, which keep source-tree order,
/// and the linear folds of the other `vc` kernels are exact (unit and
/// power-of-two weights), so the tree-walking interpreter is a bitwise
/// oracle for the whole variable-coefficient V-cycle on every backend.
#[test]
fn interp_is_a_bitwise_oracle_on_vc_vcycles() {
    let problem = Problem::poisson_vc(8);
    let (want_norms, want) = solve(problem, Box::new(InterpreterBackend::new()), 2);
    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(SequentialBackend::new()),
        Box::new(OmpBackend::new()),
        Box::new(OclSimBackend::new()),
        Box::new(CheckedBackend::new()),
    ];
    if CJitBackend::available() {
        backends.push(Box::new(CJitBackend::new()));
    }
    for backend in backends {
        let name = backend.name();
        let (norms, got) = solve(problem, backend, 2);
        assert_eq!(
            norms, want_norms,
            "{name}: residual histories differ from interp"
        );
        assert_grids_eq(&got, &want, &format!("{name} vs interp"));
    }
}

/// Static check that the closed-form pass reaches the whole solver: every
/// kernel of the HPGMG plans has a record — linear throughout the
/// constant-coefficient plan, a tape for the variable-coefficient smoother
/// and residual (products of coefficient and solution reads).
#[test]
fn every_hpgmg_plan_kernel_is_linear_or_a_tape() {
    for (problem, variable) in [
        (Problem::poisson_cc(8), false),
        (Problem::poisson_vc(8), true),
    ] {
        let solver = SnowSolver::new(problem, Box::new(SequentialBackend::new())).unwrap();
        let plan = solver.plan();
        let mut smoother_kernels = 0;
        for (group, shapes) in plan.descriptors() {
            let mut lowered = lower_group(group, shapes, &plan.lower_options()).unwrap();
            specialize_lowered(&mut lowered);
            for kernel in &lowered.kernels {
                let smoother = kernel.name.starts_with("gsrb_");
                smoother_kernels += usize::from(smoother);
                let tape = variable && (smoother || kernel.name == "residual");
                match &kernel.form {
                    SpecForm::Tape(_) => assert!(
                        tape,
                        "kernel {:?} must be linear (variable: {variable})",
                        kernel.name
                    ),
                    SpecForm::Linear(_) => assert!(
                        !tape,
                        "variable-coefficient kernel {:?} must be a tape",
                        kernel.name
                    ),
                }
            }
        }
        assert!(smoother_kernels > 0, "the plan has GSRB smoother kernels");
    }
}

/// §VI's `--verify` flag certifies every op of the plan: the closed-form
/// pass runs after lowering, and the verifier replays the lowering, so the
/// certificate covers exactly the schedule the backend executes.
#[test]
fn verify_certifies_hpgmg_plan() {
    let solver = SnowSolver::new(Problem::poisson_vc(8), Box::new(SequentialBackend::new()))
        .expect("plan build");
    let cert =
        verify_plan(solver.plan()).unwrap_or_else(|diags| panic!("plan must certify: {diags:?}"));
    let stats = cert.stats();
    assert!(stats.stencils_checked > 0);
    assert!(stats.accesses_proved > 0);
}

/// One randomized stencil: `bias + Σ w·src[off]`, or `w·src[off]·c[0]`
/// product terms (a tape) when `poly`, written to `out` over a
/// 2-cell-margin domain.
fn random_stencil(
    out: &str,
    src: &str,
    poly: bool,
    bias: f64,
    offs: &[(i64, i64, f64)],
) -> StencilGroup {
    let mut expr = Expr::Const(bias);
    for (oi, oj, w) in offs {
        let read = Expr::Const(*w) * Expr::read_at(src, &[*oi, *oj]);
        expr = expr
            + if poly {
                read * Expr::read_at("c", &[0, 0])
            } else {
                read
            };
    }
    let dom = RectDomain::new(&[2, 2], &[-2, -2], &[1, 1]);
    StencilGroup::from(Stencil::new(expr, out, dom))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Randomized stencils — out-of-place linear (parallel-safe, chunked
    /// executors) and in-place linear and tape reading their own earlier
    /// writes (sequential, per-point executors) — are bitwise identical to
    /// `checked` on every pure-Rust backend.
    #[test]
    fn random_stencils_match_checked_bitwise(
        seed in 0u64..1_000,
        kind in 0usize..3,
        offs in proptest::collection::vec((-2i64..3, -2i64..3, -1.0f64..1.0), 1..7),
        bias in -1.0f64..1.0,
    ) {
        let group = match kind {
            0 => random_stencil("y", "x", false, bias, &offs),
            // Reading the previous column makes the in-place sweep carry a
            // dependence, so these kernels are sequential.
            _ => {
                let mut offs = offs.clone();
                offs.push((0, -1, 0.5));
                random_stencil("x", "x", kind == 2, bias, &offs)
            }
        };
        let make = || {
            let mut gs = GridSet::new();
            for (name, s) in [("x", seed), ("y", seed + 1), ("c", seed + 2)] {
                let mut g = Grid::new(&[13, 14]);
                g.fill_random(s, 0.5, 1.5);
                gs.insert(name, g);
            }
            gs
        };
        let shapes = make().shapes();
        let lowered = lower_group(&group, &shapes, &LowerOptions::default()).unwrap();
        prop_assert_eq!(lowered.kernels[0].parallel_safe, kind == 0);
        let mut want = make();
        CheckedBackend::new().compile(&group, &shapes).unwrap().run(&mut want).unwrap();
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(SequentialBackend::new()),
            Box::new(OmpBackend::new()),
            Box::new(OclSimBackend::new()),
        ];
        for backend in backends {
            let mut got = make();
            backend.compile(&group, &shapes).unwrap().run(&mut got).unwrap();
            for name in ["x", "y"] {
                prop_assert_eq!(
                    got.get(name).unwrap().as_slice(),
                    want.get(name).unwrap().as_slice(),
                    "{} deviates from checked on {}", backend.name(), name
                );
            }
        }
    }
}
