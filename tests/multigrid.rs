//! Integration tests for the HPGMG evaluation driver (§V): the
//! Snowflake-driven solver matches the hand-optimized baseline on every
//! backend, converges at textbook multigrid rates, and amortizes JIT
//! compilation through the cache.

use snowflake::backends::{Backend, CJitBackend, OclSimBackend, OmpBackend, SequentialBackend};
use snowflake::hpgmg::verify::{assert_reports_match, verify_hand, verify_snow};
use snowflake::hpgmg::{HandSolver, Problem, Smoother, SnowSolver, SolveOptions};

#[test]
fn hand_solver_converges_at_multigrid_rates() {
    for problem in [Problem::poisson_cc(16), Problem::poisson_vc(16)] {
        let report = verify_hand(problem, 5);
        assert!(
            report.contraction < 0.25,
            "V(2,2)-cycle contraction should be < 0.25, got {} ({:?})",
            report.contraction,
            report.norms
        );
        assert!(report.error < 1e-2);
    }
}

#[test]
fn snowflake_matches_hand_on_every_backend() {
    let problem = Problem::poisson_vc(8);
    let hand = verify_hand(problem, 3);
    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(SequentialBackend::new()),
        Box::new(OmpBackend::new()),
        Box::new(OclSimBackend::new()),
    ];
    if CJitBackend::available() {
        backends.push(Box::new(CJitBackend::new()));
    }
    for backend in backends {
        let name = backend.name();
        let snow = verify_snow(problem, 3, backend).expect("snow solve");
        assert_reports_match(&hand, &snow, 1e-7);
        assert!(
            (snow.error - hand.error).abs() < 1e-9,
            "{name}: error {} vs hand {}",
            snow.error,
            hand.error
        );
    }
}

#[test]
fn convergence_is_backend_independent_bitwise_among_compiled_backends() {
    // seq / omp / oclsim share lowering and arithmetic order, so their
    // residual histories agree to machine precision (not just a tolerance).
    let problem = Problem::poisson_vc(8);
    let a = verify_snow(problem, 2, Box::new(SequentialBackend::new())).unwrap();
    let b = verify_snow(problem, 2, Box::new(OmpBackend::new())).unwrap();
    let c = verify_snow(problem, 2, Box::new(OclSimBackend::new())).unwrap();
    for (x, y) in a.norms.iter().zip(&b.norms) {
        assert!(((x - y) / x).abs() < 1e-13, "seq vs omp: {x} vs {y}");
    }
    for (x, y) in a.norms.iter().zip(&c.norms) {
        assert!(((x - y) / x).abs() < 1e-13, "seq vs oclsim: {x} vs {y}");
    }
}

#[test]
fn solver_reaches_discrete_solution_to_machine_precision() {
    // The manufactured rhs makes the sampled analytic field the *exact*
    // discrete solution; enough V-cycles must recover it almost exactly.
    let mut solver = HandSolver::new(Problem::poisson_cc(16));
    solver.solve(12);
    assert!(
        solver.error_norm() < 1e-9,
        "12 V-cycles should reach near machine precision, got {}",
        solver.error_norm()
    );
}

#[test]
fn plan_amortizes_compilation_and_cycles_never_look_up() {
    let mut solver =
        SnowSolver::new(Problem::poisson_vc(16), Box::new(SequentialBackend::new())).unwrap();
    // 3 levels: 3 smooth + 3 residual + 2 × (restrict + restrict_rhs +
    // interp_pc + interp_linear) = 14 groups, compiled once at plan build.
    assert_eq!(solver.plan_ops(), 14);
    let built = solver.plan().cache_stats();
    assert_eq!(
        (built.hits, built.misses),
        (0, 14),
        "one compilation per distinct (group, shape)"
    );
    solver.solve(4).unwrap();
    assert_eq!(
        solver.plan().cache_stats(),
        built,
        "steady-state cycles must not compile"
    );
}

#[test]
fn dof_throughput_reported() {
    let solver =
        SnowSolver::new(Problem::poisson_cc(8), Box::new(SequentialBackend::new())).unwrap();
    assert_eq!(solver.dof(), 512);
    assert_eq!(solver.backend_name(), "seq");
}

#[test]
fn chebyshev_smoother_is_backend_portable() {
    // The Chebyshev-smoothed V-cycle runs identically on hand and on
    // Snowflake backends (ping-pong buffers, per-step coefficient groups).
    let p = Problem::poisson_vc(8);
    let mut hand = HandSolver::new(p).with_smoother(Smoother::Chebyshev);
    let hnorms = hand.solve(3);
    for backend_name in ["seq", "omp"] {
        let backend: Box<dyn Backend> = match backend_name {
            "seq" => Box::new(SequentialBackend::new()),
            _ => Box::new(OmpBackend::new()),
        };
        let mut snow = SnowSolver::with_smoother(p, backend, Smoother::Chebyshev).unwrap();
        let snorms = snow.solve(3).unwrap();
        for (a, b) in hnorms.iter().zip(&snorms) {
            assert!(
                ((a - b) / a.abs().max(1e-300)).abs() < 1e-7,
                "{backend_name}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn fcycle_start_accelerates_convergence() {
    let p = Problem::poisson_vc(16);
    let mut plain = HandSolver::new(p);
    let nv = plain.solve(SolveOptions::cycles(3));
    let mut fmg = HandSolver::new(p);
    let nf = fmg.solve(SolveOptions::cycles(3).with_fmg(true));
    assert!(
        nf[1] < nv[1],
        "F-cycle first step should beat a zero-guess V-cycle: {nf:?} vs {nv:?}"
    );
    assert!(
        nf[3] <= nv[3] * 10.0,
        "and not hurt the tail: {nf:?} vs {nv:?}"
    );
    // Snowflake F-cycle agrees with hand.
    let mut snow = SnowSolver::new(p, Box::new(SequentialBackend::new())).unwrap();
    let ns = snow.solve(SolveOptions::cycles(3).with_fmg(true)).unwrap();
    for (a, b) in nf.iter().zip(&ns) {
        assert!(((a - b) / a.abs().max(1e-300)).abs() < 1e-7, "{a} vs {b}");
    }
}

#[test]
fn larger_problems_keep_contracting() {
    // Figure 9's premise: performance AND convergence hold as the finest
    // level grows.
    let r16 = verify_hand(Problem::poisson_vc(16), 4);
    let r32 = verify_hand(Problem::poisson_vc(32), 4);
    assert!(r16.contraction < 0.25);
    assert!(r32.contraction < 0.25);
    // h-independence: contraction does not degrade badly with resolution.
    assert!(r32.contraction < r16.contraction * 2.5 + 0.05);
}

/// `seq`, `checked` and `cjit` count one V-cycle's dispatches the same way:
/// one per (kernel, region), split by the analysis' parallel-safety
/// verdict rather than by how the backend happens to run them.
#[test]
fn dispatch_counters_agree_across_seq_checked_and_cjit() {
    let counters = |backend: Box<dyn Backend>| {
        let mut solver = SnowSolver::new(Problem::poisson_vc(8), backend).expect("plan");
        solver.enable_metrics();
        solver.vcycle(0).expect("v-cycle");
        let k = solver.take_metrics().expect("metrics on").kernels;
        (k.tiles, k.parallel_tasks, k.sequential_tasks)
    };
    let seq = counters(Box::new(SequentialBackend::new()));
    assert!(
        seq.1 > 0,
        "the V-cycle has parallel-safe dispatches: {seq:?}"
    );
    assert_eq!(seq.0, seq.1 + seq.2);
    let checked = counters(Box::new(snowflake::backends::CheckedBackend::new()));
    assert_eq!(checked, seq, "checked vs seq");
    if CJitBackend::available() {
        assert_eq!(counters(Box::new(CJitBackend::new())), seq, "cjit vs seq");
    }
}
