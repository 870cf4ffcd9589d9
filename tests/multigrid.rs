//! Integration tests for the HPGMG evaluation driver (§V): the
//! Snowflake-driven solver matches the hand-optimized baseline on every
//! backend, converges at textbook multigrid rates, and amortizes JIT
//! compilation through the cache.

use snowflake::backends::{Backend, CJitBackend, OclSimBackend, OmpBackend, SequentialBackend};
use snowflake::hpgmg::snow::operator_list;
use snowflake::hpgmg::{HandSolver, Problem, SnowSolver};

/// Outcome of one solver run.
#[derive(Clone, Debug)]
struct VerifyReport {
    /// Residual norms per V-cycle (initial first).
    norms: Vec<f64>,
    /// Final max-norm error against the exact discrete solution.
    error: f64,
    /// Geometric-mean residual contraction factor per cycle.
    contraction: f64,
}

impl VerifyReport {
    fn from_norms(norms: Vec<f64>, error: f64) -> Self {
        let cycles = norms.len() - 1;
        let contraction = if cycles == 0 || norms[0] == 0.0 {
            0.0
        } else {
            (norms[cycles] / norms[0]).powf(1.0 / cycles as f64)
        };
        VerifyReport {
            norms,
            error,
            contraction,
        }
    }
}

/// Run the hand-optimized solver.
fn verify_hand(problem: Problem, cycles: usize) -> VerifyReport {
    let mut s = HandSolver::new(problem);
    let norms = s.solve(cycles);
    let error = s.error_norm();
    VerifyReport::from_norms(norms, error)
}

/// Run the Snowflake solver on a backend.
fn verify_snow(
    problem: Problem,
    cycles: usize,
    backend: Box<dyn Backend>,
) -> snowflake::core::Result<VerifyReport> {
    let mut s = SnowSolver::new(problem, backend)?;
    let norms = s.solve(cycles)?;
    let error = s.error_norm();
    Ok(VerifyReport::from_norms(norms, error))
}

/// Assert two reports describe the same convergence history.
fn assert_reports_match(a: &VerifyReport, b: &VerifyReport, tol: f64) {
    assert_eq!(a.norms.len(), b.norms.len());
    for (x, y) in a.norms.iter().zip(&b.norms) {
        let denom = x.abs().max(y.abs()).max(1e-300);
        assert!(
            ((x - y) / denom).abs() < tol,
            "residual histories diverge: {x} vs {y}"
        );
    }
}

#[test]
fn contraction_factor_reported() {
    let r = verify_hand(Problem::poisson_cc(8), 3);
    assert!(
        r.contraction > 0.0 && r.contraction < 0.2,
        "V(2,2) GSRB should contract by ~10x/cycle, got {}",
        r.contraction
    );
    assert_eq!(r.norms.len(), 4);
}

#[test]
fn hand_and_snow_histories_match() {
    let p = Problem::poisson_vc(8);
    let a = verify_hand(p, 2);
    let b = verify_snow(p, 2, Box::new(SequentialBackend::new())).unwrap();
    assert_reports_match(&a, &b, 1e-9);
}

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
    ];
    if CJitBackend::available() {
        backends.push(Box::new(OclSimBackend::new()));
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
    // residual histories agree bit for bit.
    let problem = Problem::poisson_vc(8);
    let a = verify_snow(problem, 2, Box::new(SequentialBackend::new())).unwrap();
    let b = verify_snow(problem, 2, Box::new(OmpBackend::new())).unwrap();
    let bits = |norms: &[f64]| norms.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.norms), bits(&b.norms), "seq vs omp");
    if CJitBackend::available() {
        let c = verify_snow(problem, 2, Box::new(OclSimBackend::new())).unwrap();
        assert_eq!(bits(&a.norms), bits(&c.norms), "seq vs oclsim");
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
    // 3 levels: 3 smooth + 2 × (residual + restrict + interp) = 9
    // groups, compiled once at plan build.
    assert_eq!(solver.plan_ops(), 9);
    let built = solver.plan().cache_stats();
    assert_eq!(
        (built.hits, built.misses),
        (0, 9),
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
fn every_plan_op_runs() {
    // The plan compiles exactly the ops one V-cycle dispatches, each
    // reached through `PlanOps::op`.
    for n in [8, 16] {
        let problem = Problem::poisson_vc(n);
        let compiled = operator_list(&problem).0.len();
        let mut solver = SnowSolver::new(problem, Box::new(SequentialBackend::new())).unwrap();
        assert_eq!(solver.plan_ops(), compiled);
        solver.enable_metrics();
        solver.vcycle(0).unwrap();
        let report = solver.take_metrics().unwrap();
        let reached: Vec<usize> = report.ops.keys().copied().collect();
        assert_eq!(reached, (0..compiled).collect::<Vec<_>>(), "{n}³");
    }
}

#[test]
fn dof_throughput_reported() {
    let solver =
        SnowSolver::new(Problem::poisson_cc(8), Box::new(SequentialBackend::new())).unwrap();
    assert_eq!(solver.dof(), 512);
    assert_eq!(solver.backend_name(), "seq");
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

/// `seq`, `checked` and `cjit` count one V-cycle's dispatches the same
/// way: one per loop nest (each GSRB colour union is one), split by the
/// analysis' parallel-safety verdict rather than by how the backend
/// happens to run them.
#[test]
fn dispatch_counters_agree_across_seq_checked_and_cjit() {
    let counters = |backend: Box<dyn Backend>| {
        let mut solver = SnowSolver::new(Problem::poisson_vc(8), backend).expect("plan");
        solver.enable_metrics();
        solver.vcycle(0).expect("v-cycle");
        let k = solver.take_metrics().expect("metrics on").kernels;
        (k.points, k.tiles, k.parallel_tasks, k.sequential_tasks)
    };
    let seq = counters(Box::new(SequentialBackend::new()));
    assert!(
        seq.2 > 0,
        "the V-cycle has parallel-safe dispatches: {seq:?}"
    );
    assert_eq!(seq.1, seq.2 + seq.3);
    let checked = counters(Box::new(snowflake::backends::CheckedBackend::new()));
    assert_eq!(checked, seq, "checked vs seq");
    // All three run one dispatch per loop nest (`exec::nests`).
    if CJitBackend::available() {
        let cjit = counters(Box::new(CJitBackend::new()));
        assert_eq!(cjit, seq, "cjit vs seq");
    }
}
