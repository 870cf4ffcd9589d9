//! Figure 9: full geometric-multigrid solver performance in DOF/s —
//! Snowflake (single source, multiple backends) vs the hand-optimized
//! baseline (experiment E4).
//!
//! Matches the paper's configuration: variable-coefficient operator, 10
//! V-cycles, 2 GSRB pre/post smooths per leg, PC restriction/interpolation
//! and interleaved Dirichlet boundary stencils.
//!
//! `cargo run --release -p snowflake-bench --bin figure9
//!      [-- --size 256] [--cycles 10] [--backend <name>] [--smoke]`
//!
//! Backends are resolved by name through [`backend_from_name`]; pass
//! `--backend <name>` to run a single one (any of `available_backends()`,
//! including `interp` and `checked`, which the default comparison set
//! skips for speed). `--smoke` shrinks the run to a CI-sized problem (8³, 2
//! cycles, seq + cjit) for exercising the persistent artifact cache.
//!
//! Pass `--metrics-json <path>` to dump the per-backend solver
//! [`RunReport`] profiles (schema in README.md), including `plan_ops` and
//! the disk-cache hit/miss counters.
//!
//! `--verify` statically certifies the plan and `--lint` semantically
//! lints it, each once over the operator list before anything compiles
//! (a finding refuses the run with exit 1); the counters surface in each
//! report's `verify` and `lint` objects — see `snowlint` for the
//! standalone lint driver.
//!
//! `--tune` enables the persisted tile auto-tuner on backends that support
//! it (`omp`), whose cache directory is the `SNOWFLAKE_TUNE_DIR` chain; it
//! surfaces in the metrics JSON through each report's `tune` object.
//!
//! [`RunReport`]: snowflake_backends::RunReport

use std::time::Instant;

use hpgmg::{HandSolver, Problem, Smoother, SnowSolver, SolveOptions};
use snowflake_backends::{backend_from_name, BackendOptions, PlanError, RunReport};
use snowflake_bench::{
    arg_flag, arg_size_or_exit, arg_usize_or_exit, arg_value, gates_from_args, print_table,
    write_metrics_json, MetricsRow, Who,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let n = arg_size_or_exit(&args, "--size", if smoke { 8 } else { 64 });
    let cycles = arg_usize_or_exit(&args, "--cycles", if smoke { 2 } else { 10 });
    let smoother = match arg_value(&args, "--smoother").as_deref() {
        Some("cheby") | Some("chebyshev") => Smoother::Chebyshev,
        _ => Smoother::GsRb,
    };
    let fmg = args.iter().any(|a| a == "--fcycle");
    let gates = gates_from_args(&args);
    let metrics_path = arg_value(&args, "--metrics-json");
    let backend_opts = BackendOptions::default().with_tune(arg_flag(&args, "--tune"));
    let problem = Problem::poisson_vc(n);
    let dof = (n * n * n) as f64;
    let opts = SolveOptions::cycles(cycles).with_fmg(fmg);

    // One backend by name, or the figure's default comparison set
    // (interp/checked are constructible via --backend but far too slow
    // for the default sweep).
    let backend_names: Vec<String> = match arg_value(&args, "--backend") {
        Some(name) => vec![name],
        None if smoke => vec!["seq".into(), "cjit".into()],
        None => vec!["omp".into(), "oclsim".into(), "cjit".into(), "seq".into()],
    };

    println!(
        "Figure 9 — GMG solver performance, {n}^3, {cycles} cycles (VC, {smoother:?}{})",
        if fmg { ", F-cycle start" } else { "" }
    );

    let mut rows = Vec::new();
    let mut metrics_rows = Vec::new();

    // Hand-optimized baseline.
    if arg_value(&args, "--backend").is_none() {
        let mut solver = HandSolver::new(problem).with_smoother(smoother);
        solver.solve(1); // untimed warm-up cycle (pays page faults)
        solver.levels[0].x.fill(0.0);
        let t0 = Instant::now();
        let norms = solver.solve(opts);
        let dt = t0.elapsed().as_secs_f64();
        rows.push(vec![
            Who::Hand.label().to_string(),
            format!("{:.3}", dof / dt / 1e6),
            format!("{dt:.3}"),
            format!("{:.2e}", norms[cycles] / norms[0]),
            "-".to_string(),
            "-".to_string(),
        ]);
        if metrics_path.is_some() {
            metrics_rows.push(MetricsRow {
                operator: "gmg-solve".to_string(),
                implementation: Who::Hand.label().to_string(),
                value: dof / dt / 1e6,
                report: None,
            });
        }
    }

    // Snowflake on each backend, constructed through the registry.
    for name in &backend_names {
        let label = format!("Snowflake/{name}");
        let backend = match backend_from_name(name, &backend_opts) {
            Ok(b) => b,
            Err(e) => {
                // An unknown --backend name is a usage error; unknown names
                // in the built-in set would be a bug.
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        match SnowSolver::with_gates(problem, backend, smoother, gates) {
            Ok(mut solver) => {
                // The gates ran once, at plan build; print their counters.
                let mut gated = RunReport::new();
                solver.plan().stamp(&mut gated);
                if gates.verify {
                    let v = gated.verify;
                    println!(
                        "({label} certified: {} stencils, {} accesses proved, {} phases)",
                        v.stencils_checked, v.accesses_proved, v.phases_certified
                    );
                }
                if gates.lint {
                    println!(
                        "({label} linted: {} rules run, {} finding(s))",
                        gated.lint.rules_run, gated.lint.lints
                    );
                }
                solver.solve(1).expect("warm-up");
                if metrics_path.is_some() {
                    solver.enable_metrics();
                }
                let t0 = Instant::now();
                let norms = solver.solve(opts).expect("solve");
                let dt = t0.elapsed().as_secs_f64();
                let stats = solver.plan().cache_stats();
                rows.push(vec![
                    label.clone(),
                    format!("{:.3}", dof / dt / 1e6),
                    format!("{dt:.3}"),
                    format!("{:.2e}", norms[cycles] / norms[0]),
                    format!("{}", solver.plan_ops()),
                    format!("{}/{}", stats.disk_hits, stats.disk_misses),
                ]);
                if metrics_path.is_some() {
                    metrics_rows.push(MetricsRow {
                        operator: "gmg-solve".to_string(),
                        implementation: label,
                        value: dof / dt / 1e6,
                        report: solver.take_metrics(),
                    });
                }
            }
            Err(PlanError::Core(e)) => {
                // An unavailable backend (e.g. cjit without a C compiler)
                // is a skipped row, not a failed figure.
                eprintln!("({label} skipped: {e})");
                rows.push(vec![
                    label,
                    "skipped".to_string(),
                    "skipped".to_string(),
                    "skipped".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
            }
            Err(refused) => {
                // A plan refused by --verify or --lint is not a skip.
                eprintln!("error: {label}: {refused}");
                std::process::exit(1);
            }
        }
    }

    print_table(
        &format!("GMG solve, {n}^3 (DOF/s in 10^6)"),
        &[
            "implementation".into(),
            "DOF/s (10^6)".into(),
            "solve time (s)".into(),
            "residual reduction".into(),
            "plan ops".into(),
            "disk hit/miss".into(),
        ],
        &rows,
    );
    if let Some(path) = metrics_path {
        match write_metrics_json(&path, 9, n, &metrics_rows) {
            Ok(()) => println!("\nmetrics written to {path}"),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "\nShape check vs paper: Snowflake ≈ hand-optimized on the CPU path;\n\
         every implementation converges identically (same reduction factor)\n\
         because all run the same single-source algorithm."
    );
}
