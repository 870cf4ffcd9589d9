//! The paper's Figure 4 program: a variable-coefficient red-black
//! Gauss-Seidel smoother with Dirichlet boundary stencils, in 2-D.
//!
//! We solve  −∇·(β∇u) = f  on the unit square with u = 0 on the boundary,
//! by relaxing with the interleaved group
//!     [boundary, red, boundary, black]
//! exactly as the paper composes it — boundaries are ordinary stencils
//! over pinned-index domains, colors are unions of stride-2 rectangles,
//! and the Diophantine analysis schedules the group into four barrier
//! phases with all six faces (and all color rectangles) running in
//! parallel.
//!
//!     cargo run --release --example red_black_gsrb

use snowflake::prelude::*;

const N: usize = 34; // 32 interior cells + 2 ghost layers

fn beta(x: f64, y: f64) -> f64 {
    1.0 + 0.6 * (3.0 * x).sin() * (3.0 * y).cos()
}

fn main() {
    let h = 1.0 / (N - 2) as f64;
    let h2inv = 1.0 / (h * h);

    // --- Figure 4, lines 1-10: the operator algebra ----------------------
    let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
    // divergence-form A(x) with face-centered coefficients
    let ax = (Expr::read_at("beta_x", &[1, 0]) * (m(1, 0) - m(0, 0))
        - Expr::read_at("beta_x", &[0, 0]) * (m(0, 0) - m(-1, 0))
        + Expr::read_at("beta_y", &[0, 1]) * (m(0, 1) - m(0, 0))
        - Expr::read_at("beta_y", &[0, 0]) * (m(0, 0) - m(0, -1)))
        * Expr::Const(-h2inv);
    let difference = Expr::read_at("rhs", &[0, 0]) - ax; // b - Ax
    let update = m(0, 0) + Expr::read_at("lambda", &[0, 0]) * difference;

    // --- Figure 4, lines 11-14: colors as unions of strided domains ------
    let (red, black) = DomainUnion::red_black(2);

    // --- Figure 4, lines 15-18: Dirichlet boundary stencils --------------
    let face = |dom: RectDomain, off: [i64; 2]| {
        Stencil::new(
            Expr::Neg(Box::new(Expr::read_at("mesh", &off))),
            "mesh",
            dom,
        )
    };
    let faces = || {
        vec![
            face(RectDomain::new(&[0, 1], &[0, -1], &[0, 1]), [1, 0]),
            face(RectDomain::new(&[-1, 1], &[-1, -1], &[0, 1]), [-1, 0]),
            face(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, 1]),
            face(RectDomain::new(&[1, -1], &[-1, -1], &[1, 0]), [0, -1]),
        ]
    };

    // One GSRB sweep: boundary / red / boundary / black.
    let mut sweep = StencilGroup::new();
    for s in faces() {
        sweep.push(s);
    }
    sweep.push(Stencil::new(update.clone(), "mesh", red).named("red"));
    for s in faces() {
        sweep.push(s);
    }
    sweep.push(Stencil::new(update, "mesh", black).named("black"));

    // Residual group for convergence reporting: res = rhs - A(mesh).
    let ax2 = (Expr::read_at("beta_x", &[1, 0])
        * (Expr::read_at("mesh", &[1, 0]) - Expr::read_at("mesh", &[0, 0]))
        - Expr::read_at("beta_x", &[0, 0])
            * (Expr::read_at("mesh", &[0, 0]) - Expr::read_at("mesh", &[-1, 0]))
        + Expr::read_at("beta_y", &[0, 1])
            * (Expr::read_at("mesh", &[0, 1]) - Expr::read_at("mesh", &[0, 0]))
        - Expr::read_at("beta_y", &[0, 0])
            * (Expr::read_at("mesh", &[0, 0]) - Expr::read_at("mesh", &[0, -1])))
        * Expr::Const(-h2inv);
    let mut residual = StencilGroup::new();
    for s in faces() {
        residual.push(s);
    }
    residual.push(Stencil::new(
        Expr::read_at("rhs", &[0, 0]) - ax2,
        "res",
        RectDomain::interior(2),
    ));

    // --- Meshes -----------------------------------------------------------
    let cc = |i: usize| (i as f64 - 0.5) * h;
    let fcx = |i: usize| (i as f64 - 1.0) * h;
    let mut grids = GridSet::new();
    grids.insert("mesh", Grid::new(&[N, N]));
    grids.insert("res", Grid::new(&[N, N]));
    grids.insert(
        "rhs",
        Grid::from_fn(&[N, N], |p| {
            // A smooth forcing term.
            let (x, y) = (cc(p[0]), cc(p[1]));
            (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin()
        }),
    );
    grids.insert(
        "beta_x",
        Grid::from_fn(&[N, N], |p| beta(fcx(p[0]), cc(p[1]))),
    );
    grids.insert(
        "beta_y",
        Grid::from_fn(&[N, N], |p| beta(cc(p[0]), fcx(p[1]))),
    );
    // λ = the inverse diagonal of A (exact Gauss-Seidel step).
    let bx = grids.get("beta_x").unwrap().clone();
    let by = grids.get("beta_y").unwrap().clone();
    grids.insert(
        "lambda",
        Grid::from_fn(&[N, N], |p| {
            let (i, j) = (p[0], p[1]);
            if i == 0 || j == 0 || i == N - 1 || j == N - 1 {
                0.0
            } else {
                1.0 / (h2inv
                    * (bx.get(&[i + 1, j])
                        + bx.get(&[i, j])
                        + by.get(&[i, j + 1])
                        + by.get(&[i, j])))
            }
        }),
    );

    // --- Compile once, run many (the plan) ---------------------------------
    let shapes = grids.shapes();
    let plan = SolverPlan::build(
        Box::new(OmpBackend::new()),
        &[(residual, shapes.clone()), (sweep, shapes)],
    )
    .unwrap();
    let (residual, sweep) = (0, 1); // plan op indices
    let interior_norm = |grids: &GridSet| {
        let res = grids.get("res").unwrap();
        let mut m = 0.0f64;
        for i in 1..N - 1 {
            for j in 1..N - 1 {
                m = m.max(res.get(&[i, j]).abs());
            }
        }
        m
    };

    plan.run(residual, &mut grids).unwrap();
    let r0 = interior_norm(&grids);
    println!("sweep   residual(max)   reduction");
    println!("    0   {r0:.6e}   1.000");
    for it in 1..=400 {
        plan.run(sweep, &mut grids).unwrap();
        if it % 50 == 0 {
            plan.run(residual, &mut grids).unwrap();
            let r = interior_norm(&grids);
            println!("{it:>5}   {r:.6e}   {:.3e}", r / r0);
        }
    }
    println!(
        "\nplan build: {} compilations, then 400 sweeps by index.",
        plan.cache_stats().misses
    );
    println!("Gauss-Seidel red-black relaxation converges (slowly, as plain");
    println!("relaxation must — see the multigrid example for the O(N) fix);");
    println!("boundaries, colors and the VC operator were all plain stencils.");
}
