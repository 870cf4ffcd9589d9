//! CI benchmark summary: one JSON artifact (`BENCH_solver.json`) that
//! records the Figure 9 solver at smoke size on every stock backend and
//! the persisted tile auto-tuner's activity and choices.
//!
//! `cargo run --release -p snowflake-bench --bin bench_summary
//!      [-- --size 8] [--cycles 2] [--reps 5] [--out BENCH_solver.json]`
//!
//! The tuner cache directory is `SNOWFLAKE_TUNE_DIR` when set (CI pins it
//! so the cold/warm runs share one cache), otherwise a scratch directory
//! under the system temp dir.
//!
//! Every listed backend must build and solve (cjit is listed only when a
//! C compiler is available): a failure prints its error and exits 1.

use std::path::PathBuf;
use std::time::Instant;

use hpgmg::{HandSolver, Problem, SnowSolver, SolveOptions};
use snowflake_backends::metrics::json;
use snowflake_backends::{backend_from_name, BackendOptions, CJitBackend};
use snowflake_bench::{arg_size, arg_usize, arg_value, check_args, or_exit, print_table};
use snowflake_core::{CoreError, Result};

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// One backend's solver measurement, rendered into the artifact.
struct BackendRow {
    name: &'static str,
    solve_seconds_median: f64,
    dof_per_sec: f64,
    report_json: String,
}

fn measure_backend(
    name: &'static str,
    opts: &BackendOptions,
    problem: Problem,
    cycles: usize,
    reps: usize,
    dof: f64,
) -> Result<BackendRow> {
    let backend = backend_from_name(name, opts)?;
    let mut solver = SnowSolver::new(problem, backend)?;
    solver.solve(1)?; // untimed warm-up (pays page faults + JIT)
    solver.enable_metrics();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        solver.solve(SolveOptions::cycles(cycles))?;
        times.push(t0.elapsed().as_secs_f64());
    }
    let report = solver
        .take_metrics()
        .ok_or_else(|| CoreError::Backend("the solver kept no metrics".into()))?;
    let solve_seconds_median = median(&mut times);
    Ok(BackendRow {
        name,
        solve_seconds_median,
        dof_per_sec: dof / solve_seconds_median,
        report_json: report.to_json(),
    })
}

/// The tuner's persisted decisions: every `tile-*.txt` record in the
/// cache directory, as `(file name, record line)`.
fn tuner_artifacts(dir: &std::path::Path) -> Vec<(String, String)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<(String, String)> = entries
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().to_string_lossy().into_owned();
            if !(name.starts_with("tile-") && name.ends_with(".txt")) {
                return None;
            }
            let body = std::fs::read_to_string(e.path()).ok()?;
            Some((name, body.trim().to_string()))
        })
        .collect();
    out.sort();
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(
        &args,
        &["--size", "--cycles", "--reps", "--out"],
        &[],
    ));
    let n = or_exit(arg_size(&args, "--size", 8));
    let cycles = or_exit(arg_usize(&args, "--cycles", 2));
    let reps = or_exit(arg_usize(&args, "--reps", 5));
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_solver.json".to_string());
    let tune_dir = std::env::var_os("SNOWFLAKE_TUNE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("snowflake-bench-tune"));

    let problem = Problem::poisson_vc(n);
    let dof = (n * n * n) as f64;

    // Hand-optimized baseline for context.
    let hand_seconds = {
        let mut solver = HandSolver::new(problem);
        solver.solve(1);
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            solver.solve(cycles);
            times.push(t0.elapsed().as_secs_f64());
        }
        median(&mut times)
    };

    // Every stock backend; omp additionally exercises the persisted tuner.
    // A backend that fails to build or solve fails the run.
    let mut names = vec!["seq", "omp", "oclsim"];
    if CJitBackend::available() {
        names.push("cjit");
    }
    let rows: Vec<BackendRow> = names
        .into_iter()
        .map(|name| {
            let mut opts = BackendOptions::default();
            if name == "omp" {
                opts = opts.with_tune(true).with_tune_dir(tune_dir.clone());
            }
            measure_backend(name, &opts, problem, cycles, reps, dof).unwrap_or_else(|e| {
                eprintln!("error: backend {name}: {e}");
                std::process::exit(1);
            })
        })
        .collect();

    let artifacts = tuner_artifacts(&tune_dir);

    // Render the document (same hand-rolled JSON style as the figures).
    let mut doc = String::new();
    doc.push_str(&format!(
        "{{\"artifact\":\"bench_summary\",\"size\":{n},\"cycles\":{cycles},\
         \"reps\":{reps},\"hand_solve_seconds_median\":{}",
        json::number(hand_seconds)
    ));
    doc.push_str(",\"backends\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            "{{\"name\":{},\"solve_seconds_median\":{},\"dof_per_sec\":{},\
             \"report\":{}}}",
            json::escape(row.name),
            json::number(row.solve_seconds_median),
            json::number(row.dof_per_sec),
            row.report_json
        ));
    }
    doc.push_str("],");
    doc.push_str(&format!(
        "\"tuner\":{{\"dir\":{},\"artifacts\":[",
        json::escape(&tune_dir.to_string_lossy())
    ));
    for (i, (file, body)) in artifacts.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            "{{\"file\":{},\"decision\":{}}}",
            json::escape(file),
            json::escape(body)
        ));
    }
    doc.push_str("]}}");

    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.name.to_string(),
                format!("{:.3}", row.dof_per_sec / 1e6),
                format!("{:.4}", row.solve_seconds_median),
            ]
        })
        .collect();
    print_table(
        &format!("bench_summary, {n}^3 x {cycles} cycles"),
        &["backend".into(), "DOF/s (10^6)".into(), "solve (s)".into()],
        &table,
    );
    println!(
        "tuner cache: {} ({} artifacts)",
        tune_dir.display(),
        artifacts.len()
    );
    println!("written to {out_path}");
}
