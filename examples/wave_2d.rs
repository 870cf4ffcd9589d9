//! A time-stepping application: the 2-D wave equation with a leapfrog
//! scheme, showing how a simulation loop composes Snowflake stencils —
//! multiple input grids, an out-of-place update, reflecting boundaries,
//! and the compile-once/run-many JIT cache.
//!
//!     u_tt = c² Δu
//!     u_next = 2·u_now − u_prev + (c·dt/h)² Δu_now
//!
//!     cargo run --release --example wave_2d

use snowflake::prelude::*;

const N: usize = 130; // 128 interior + ghost
const STEPS: usize = 200;

fn main() {
    let courant2 = 0.25f64; // (c·dt/h)², < 0.5 for stability in 2-D

    // Leapfrog update: reads two time levels, writes a third.
    let lap_now = Component::new("u_now", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
    let update = 2.0 * Expr::read_at("u_now", &[0, 0]) - Expr::read_at("u_prev", &[0, 0])
        + Expr::Const(courant2) * lap_now;

    // Reflecting (Neumann-ish) boundary: ghost = inside value.
    let face =
        |dom: RectDomain, off: [i64; 2]| Stencil::new(Expr::read_at("u_now", &off), "u_now", dom);
    let mut step = StencilGroup::new();
    step.push(face(RectDomain::new(&[0, 1], &[0, -1], &[0, 1]), [1, 0]));
    step.push(face(RectDomain::new(&[-1, 1], &[-1, -1], &[0, 1]), [-1, 0]));
    step.push(face(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, 1]));
    step.push(face(RectDomain::new(&[1, -1], &[-1, -1], &[1, 0]), [0, -1]));
    step.push(Stencil::new(update, "u_next", RectDomain::interior(2)).named("leapfrog"));

    // Initial condition: a Gaussian pulse off-center; u_prev = u_now
    // (zero initial velocity).
    let pulse = |p: &[usize]| {
        let (x, y) = (p[0] as f64 / N as f64, p[1] as f64 / N as f64);
        let r2 = (x - 0.35).powi(2) + (y - 0.4).powi(2);
        (-r2 / 0.002).exp()
    };
    let mut grids = GridSet::new();
    grids.insert("u_now", Grid::from_fn(&[N, N], pulse));
    grids.insert("u_prev", Grid::from_fn(&[N, N], pulse));
    grids.insert("u_next", Grid::new(&[N, N]));

    // Compile once; rotating the three time levels reuses the one plan op
    // because the names stay fixed (we rotate the data).
    let plan =
        SolverPlan::build(Box::new(OmpBackend::new()), &[(step, grids.shapes())]).expect("compile");
    let t0 = std::time::Instant::now();
    let mut energy_history = Vec::new();
    for s in 0..STEPS {
        plan.run(0, &mut grids).expect("step");
        // Rotate time levels: prev <- now <- next <- (old prev storage).
        let prev = grids.get("u_prev").unwrap().clone();
        let now = grids.get("u_now").unwrap().clone();
        let next = grids.get("u_next").unwrap().clone();
        *grids.get_mut("u_prev").unwrap() = now;
        *grids.get_mut("u_now").unwrap() = next;
        *grids.get_mut("u_next").unwrap() = prev;
        if s % 50 == 0 {
            let e = grids.get("u_now").unwrap().norm_l2();
            energy_history.push((s, e));
        }
    }
    let dt = t0.elapsed().as_secs_f64();

    println!(
        "2-D wave equation, {0}x{0} grid, {STEPS} leapfrog steps",
        N - 2
    );
    for (s, e) in &energy_history {
        println!("  step {s:>4}: ||u||_2 = {e:.4}");
    }
    println!(
        "\n{:.1} Msteps·cells/s, plan build: {} compilation(s) for {STEPS} steps",
        (STEPS * (N - 2) * (N - 2)) as f64 / dt / 1e6,
        plan.cache_stats().misses
    );

    // ASCII snapshot of the wavefield.
    println!("\nwavefield snapshot (40x40 downsample):");
    let u = grids.get("u_now").unwrap();
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    for i in (1..N - 1).step_by((N - 2) / 40) {
        let mut line = String::new();
        for j in (1..N - 1).step_by((N - 2) / 40) {
            let v = u.get(&[i, j]).abs().min(0.999);
            // v is clamped to [0, 0.999], so the cast lands in 0..=9.
            #[allow(clippy::cast_possible_truncation)]
            line.push(shades[(v * 10.0) as usize]);
        }
        println!("  {line}");
    }
}
