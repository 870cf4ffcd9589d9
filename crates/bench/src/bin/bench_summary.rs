//! The one evaluation command: every measurement of the paper's §V in
//! one run, written as `BENCH_solver.json`, `BENCH_kernels.json` and the
//! tables under `results/` (see [`snowflake_bench::eval`]).
//!
//! ```text
//! bench_summary [--smoke] [--out <dir>]
//! ```
//!
//! `--smoke` is the CI-sized run. `--out` names the output directory
//! (created if missing; its parent must exist; default: the repository
//! root). Exit status: 0 when everything was written; 1 when an
//! implementation fails to build or run (a refused plan included) or an
//! output cannot be written; 2 on a usage error.

use std::path::PathBuf;
use std::time::Instant;

use snowflake_bench::eval::{evaluate, prepare_out, Config};
use snowflake_bench::{arg_flag, arg_value, check_args, or_exit};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(&args, &["--out"], &["--smoke"]));
    let config = if arg_flag(&args, "--smoke") {
        Config::smoke()
    } else {
        Config::full()
    };
    let out = arg_value(&args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));
    let t0 = Instant::now();
    let written = prepare_out(&out)
        .and_then(|()| evaluate(&config))
        .and_then(|evaluation| evaluation.write(&out));
    if let Err(e) = written {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote BENCH_solver.json, BENCH_kernels.json and results/ under {} in {:.1} s",
        out.display(),
        t0.elapsed().as_secs_f64()
    );
}
