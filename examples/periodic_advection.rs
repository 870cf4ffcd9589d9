//! Periodic boundaries in action: 2-D upwind advection on a torus.
//!
//! The wrap-around ghosts are stencils with offsets of `n−2` cells — the
//! paper's "boundary conditions … expressed as stencils with (sometimes)
//! large offsets" — and the finite-domain analysis proves all four wrap
//! faces independent, scheduling them into a single barrier phase before
//! each transport step.
//!
//!     cargo run --release --example periodic_advection

use snowflake::core::bc::periodic_faces;
use snowflake::prelude::*;

const N: usize = 66; // 64 interior + wrap ghosts
const STEPS: usize = 640;

fn main() {
    // First-order upwind transport with velocity (+1, +1)·c, CFL 0.2:
    //   u_next = u − c·(u − u_west) − c·(u − u_south)
    let c = 0.1f64;
    let u = |o: [i64; 2]| Expr::read_at("u", &o);
    let update = u([0, 0])
        - Expr::Const(c) * (u([0, 0]) - u([-1, 0]))
        - Expr::Const(c) * (u([0, 0]) - u([0, -1]));

    let mut step = StencilGroup::new();
    for f in periodic_faces("u", &[N, N]) {
        step.push(f);
    }
    step.push(Stencil::new(update, "u_next", RectDomain::interior(2)).named("upwind"));

    // Initial condition: a square pulse near the origin.
    let mut grids = GridSet::new();
    grids.insert(
        "u",
        Grid::from_fn(&[N, N], |p| {
            if (4..12).contains(&p[0]) && (4..12).contains(&p[1]) {
                1.0
            } else {
                0.0
            }
        }),
    );
    grids.insert("u_next", Grid::new(&[N, N]));

    // Verify the schedule: 4 independent wrap faces, then the sweep.
    {
        use snowflake::analysis::{greedy_phases, ResolvedStencil};
        let shapes = grids.shapes();
        let resolved: Vec<_> = step
            .stencils()
            .iter()
            .map(|s| ResolvedStencil::resolve(s, &shapes).unwrap())
            .collect();
        let phases = greedy_phases(&resolved).phases;
        println!("schedule: {phases:?}  (4 wrap faces fused into one phase)");
        assert_eq!(phases.len(), 2);
    }

    let interior_mass = |gs: &GridSet, name: &str| {
        let g = gs.get(name).unwrap();
        let mut m = 0.0;
        for i in 1..N - 1 {
            for j in 1..N - 1 {
                m += g.get(&[i, j]);
            }
        }
        m
    };

    let plan =
        SolverPlan::build(Box::new(OmpBackend::new()), &[(step, grids.shapes())]).expect("compile");
    let m0 = interior_mass(&grids, "u");
    let mut peak_track = Vec::new();
    for s in 1..=STEPS {
        plan.run(0, &mut grids).expect("step");
        grids.swap_data("u", "u_next").expect("ping-pong swap");
        if s % 160 == 0 {
            // Locate the pulse peak.
            let g = grids.get("u").unwrap();
            let mut best = (0usize, 0usize, 0.0f64);
            for i in 1..N - 1 {
                for j in 1..N - 1 {
                    let v = g.get(&[i, j]);
                    if v > best.2 {
                        best = (i, j, v);
                    }
                }
            }
            peak_track.push((s, best));
        }
    }
    let m1 = interior_mass(&grids, "u");

    println!(
        "\nupwind transport on a {0}x{0} torus, {STEPS} steps, CFL {c}",
        N - 2
    );
    for (s, (i, j, v)) in &peak_track {
        println!("  step {s:>4}: pulse peak at ({i:>2},{j:>2}), height {v:.3}");
    }
    println!(
        "\nmass conservation: Σu = {m0:.6} -> {m1:.6}  (drift {:.2e})",
        (m1 - m0).abs() / m0
    );
    assert!(
        ((m1 - m0) / m0).abs() < 1e-9,
        "periodic upwind transport conserves mass to rounding"
    );
    println!("The pulse crossed the periodic boundary and came back around —");
    println!("the wrap was just four more stencils.");
}
