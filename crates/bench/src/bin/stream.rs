//! Figure 6 / §V-B: the modified-STREAM dot bandwidth measurement and the
//! derived Roofline bounds (experiments E1 + E5).
//!
//! Usage: `cargo run --release -p snowflake-bench --bin stream
//!         [-- --elems <N>] [--reps <R>]`

use roofline::{measure_dot_bandwidth, Roofline, StencilKind};
use snowflake_bench::{arg_usize, check_args, or_exit, print_table};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(&args, &["--elems", "--reps"], &[]));
    // 2 × 32 MiB of doubles by default: far beyond any LLC here.
    let elems = or_exit(arg_usize(&args, "--elems", 1 << 22));
    let reps = or_exit(arg_usize(&args, "--reps", 5));

    println!("Modified STREAM (dot-product) bandwidth — Figure 6 protocol");
    println!(
        "arrays: 2 x {elems} doubles = {:.1} MiB total",
        (2 * elems * 8) as f64 / (1 << 20) as f64
    );

    // Sweep a few sizes to expose the cache/DRAM transition, mirroring the
    // paper's note that small problems exceed the DRAM roofline.
    let mut rows = Vec::new();
    for shift in [16usize, 18, 20, 22] {
        let n = 1usize << shift;
        if n > elems {
            break;
        }
        let r = measure_dot_bandwidth(n, reps);
        rows.push(vec![
            format!("2^{shift}"),
            format!("{:.1} KiB", (2 * n * 8) as f64 / 1024.0),
            format!("{:.2}", r.gbs()),
        ]);
    }
    let big = measure_dot_bandwidth(elems, reps);
    rows.push(vec![
        format!("{elems}"),
        format!("{:.1} MiB", (2 * elems * 8) as f64 / (1 << 20) as f64),
        format!("{:.2}", big.gbs()),
    ]);
    print_table(
        "dot-product bandwidth",
        &["elems".into(), "footprint".into(), "GB/s".into()],
        &rows,
    );

    let model = Roofline::from_stream(&big);
    let rows: Vec<Vec<String>> = StencilKind::all()
        .iter()
        .map(|k| {
            vec![
                k.label().to_string(),
                format!("{:.0}", k.bytes_per_stencil()),
                format!("{:.3}", model.bound_stencils_per_sec(*k) / 1e9),
            ]
        })
        .collect();
    print_table(
        "Roofline bounds from measured bandwidth (§V-B)",
        &[
            "operator".into(),
            "bytes/stencil".into(),
            "bound (10^9 stencils/s)".into(),
        ],
        &rows,
    );
    println!(
        "\n(paper reference: CPU 22.2 GB/s, GPU 127 GB/s; this machine: {:.2} GB/s)",
        big.gbs()
    );
}
