//! The paper's headline application: the full HPGMG geometric-multigrid
//! solver driven entirely by Snowflake stencils, runnable on any backend
//! from a single source (§V / Figure 9).
//!
//!     cargo run --release --example multigrid_solver            # omp backend
//!     cargo run --release --example multigrid_solver -- oclsim 32
//!     cargo run --release --example multigrid_solver -- cjit 64
//!
//! Arguments: [backend] [finest-size] [vcycles]; backend is any
//! registry name (`available_backends()`).

use std::time::Instant;

use snowflake::backends::{backend_from_name, BackendOptions};
use snowflake::hpgmg::{HandSolver, Problem, SnowSolver};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let backend_name = args.get(1).map(String::as_str).unwrap_or("omp");
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(32);
    let cycles: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(10);

    let backend = backend_from_name(backend_name, &BackendOptions::default()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let problem = Problem::poisson_vc(n);
    println!(
        "HPGMG (variable-coefficient Poisson), {n}^3 finest, levels {:?}",
        problem.level_sizes()
    );

    // --- Snowflake-driven solver -----------------------------------------
    println!("\n[Snowflake / {backend_name}]");
    let mut solver = SnowSolver::new(problem, backend).expect("build solver");
    let t0 = Instant::now();
    let norms = solver.solve(cycles).expect("solve");
    let dt = t0.elapsed().as_secs_f64();
    for (c, r) in norms.iter().enumerate() {
        println!("  cycle {c:>2}: residual {r:.6e}");
    }
    let built = solver.plan().cache_stats();
    println!(
        "  {:.3} s, {:.3} MDOF/s, error vs exact discrete solution: {:.3e}",
        dt,
        solver.dof() as f64 / dt / 1e6,
        solver.error_norm()
    );
    println!(
        "  plan build: {} ops, {} compilations, {} shared",
        solver.plan_ops(),
        built.misses,
        built.hits
    );

    // --- Hand-optimized baseline (the paper's comparator) -----------------
    println!("\n[hand-optimized baseline]");
    let mut hand = HandSolver::new(problem);
    let t0 = Instant::now();
    let hnorms = hand.solve(cycles);
    let dt_hand = t0.elapsed().as_secs_f64();
    println!(
        "  {:.3} s, {:.3} MDOF/s, final residual {:.6e}",
        dt_hand,
        (n * n * n) as f64 / dt_hand / 1e6,
        hnorms[cycles]
    );

    let ratio = dt / dt_hand;
    println!(
        "\nSnowflake/{backend_name} runs at {:.2}x the hand-optimized time \
         (paper: ~1x for OpenMP on CPU, ~2x for OpenCL on GPU).",
        ratio
    );
}
