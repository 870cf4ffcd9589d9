//! Figure 8: variable-coefficient GSRB smoother time as a function of
//! problem size (experiment E3).
//!
//! The paper sweeps 32³…256³ to show a multigrid smoother must sustain
//! performance across exponentially-varying level sizes (small levels fit
//! in cache and beat the DRAM roofline — same effect here).
//!
//! `cargo run --release -p snowflake-bench --bin figure8 [-- --max-size 256]`
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
    let max = arg_usize_or_exit(&args, "--max-size", 128);
    let reps = arg_usize_or_exit(&args, "--reps", 5);
    let metrics_path = arg_value(&args, "--metrics-json");
    let gates = gates_from_args(&args);
    let opts = BackendOptions::default();

    let mut sizes = vec![32usize, 64, 128, 256];
    sizes.retain(|&s| s <= max);

    println!("Figure 8 — VC GSRB smoother time (seconds per smooth)");
    let bw = measure_dot_bandwidth(1 << 22, 3);
    let model = Roofline::from_stream(&bw);
    println!("measured dot bandwidth: {:.2} GB/s", bw.gbs());

    let impls = figure_impls_or_exit(&args);
    let mut header: Vec<String> = vec!["size".into()];
    header.extend(impls.iter().map(|(label, _)| label.clone()));
    header.push("Roofline".into());

    let mut rows = Vec::new();
    let mut metrics_rows = Vec::new();
    for &n in sizes.iter().rev() {
        let mut row = vec![format!("{n}^3")];
        for (label, backend) in &impls {
            let kind = StencilKind::VcGsrb;
            match KernelBench::build_named_opts(kind, backend.as_deref(), n, &opts, gates) {
                Ok(mut kb) => {
                    let secs = kb.seconds_per_sweep(reps);
                    row.push(format!("{secs:.3e}"));
                    if metrics_path.is_some() {
                        let mut report = RunReport::new();
                        kb.sweep_with_report(&mut report);
                        metrics_rows.push(MetricsRow {
                            operator: format!("{n}^3"),
                            implementation: label.clone(),
                            value: secs,
                            report: Some(report),
                        });
                    }
                }
                Err(PlanError::Core(e)) => {
                    eprintln!("({label} at {n}^3 skipped: {e})");
                    row.push("skipped".to_string());
                }
                Err(refused) => {
                    // A plan refused by --verify or --lint is not a skip.
                    eprintln!("error: {label} at {n}^3: {refused}");
                    std::process::exit(1);
                }
            }
        }
        row.push(format!(
            "{:.3e}",
            model.bound_sweep_seconds(StencilKind::VcGsrb, (n * n * n) as u64)
        ));
        rows.push(row);
    }
    print_table("seconds per VC GSRB smooth", &header, &rows);
    if let Some(path) = metrics_path {
        match write_metrics_json(&path, 8, max, &metrics_rows) {
            Ok(()) => println!("\nmetrics written to {path}"),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "\nShape check vs paper: time scales ~8x per size doubling (bandwidth\n\
         bound); the smallest sizes drop below the DRAM Roofline because the\n\
         working set fits in cache."
    );
}
