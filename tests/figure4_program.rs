//! End-to-end test of the paper's Figure 4 program: the complex smoothing
//! operation (strided colored red-black stencil with Dirichlet boundaries
//! and variable coefficients), transcribed line by line.
//!
//! "Nominally, we are solving −∇·β∇x = b … by applying the Jacobi operator
//! without dampening over the red and black points on a checkerboard on
//! alternating iterations."

use snowflake::prelude::*;

const N: usize = 18; // 16 interior + ghost

/// Transcription of Figure 4 (with the paper's typos fixed: `bot`/`top`
/// offsets symmetric, weight entries evaluated at the write point).
fn figure4_group() -> (StencilGroup, StencilGroup) {
    // Lines 1-4: face coefficients as one-point components.
    let top = Component::read_at("beta_x", &[1, 0]);
    let bot = Component::read_at("beta_x", &[0, 0]);
    let left = Component::read_at("beta_y", &[0, 0]);
    let right = Component::read_at("beta_y", &[0, 1]);

    // Line 5: Ax — weight entries are themselves components (VC stencil).
    // A = −∇·β∇ (SPD): positive center weight Σβ, negative neighbors.
    let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
    let ax = (top.clone() + bot.clone() + left.clone() + right.clone()) * m(0, 0)
        - top.clone() * m(1, 0)
        - bot.clone() * m(-1, 0)
        - right.clone() * m(0, 1)
        - left.clone() * m(0, -1);

    // Lines 6-10: difference = b − Ax; final = original + λ·difference.
    let b = Component::read("rhs", 2);
    let difference = b.expand() - ax;
    let original = Component::read("mesh", 2);
    let lambda_term = Component::read("lambda", 2);
    let final_expr = original.expand() + lambda_term.expand() * difference;

    // Lines 11-12: red and black as unions of stride-2 domains.
    let (red, black) = DomainUnion::red_black(2);

    // Lines 13-14: the color stencils (in place on "mesh").
    let red_stencil = Stencil::new(final_expr.clone(), "mesh", red).named("red");
    let black_stencil = Stencil::new(final_expr, "mesh", black).named("black");

    // Lines 15-18: Dirichlet zero boundary; one shown in the paper, the
    // others rotationally equivalent.
    let face = |dom: RectDomain, off: [i64; 2]| {
        Stencil::new(
            Expr::Neg(Box::new(Expr::read_at("mesh", &off))),
            "mesh",
            dom,
        )
    };
    let faces = [
        face(RectDomain::new(&[1, -1], &[-1, -1], &[1, 0]), [0, -1]), // top (paper's)
        face(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, 1]),
        face(RectDomain::new(&[0, 1], &[0, -1], &[0, 1]), [1, 0]),
        face(RectDomain::new(&[-1, 1], &[-1, -1], &[0, 1]), [-1, 0]),
    ];

    let mut sweep = StencilGroup::new();
    for f in faces.clone() {
        sweep.push(f);
    }
    sweep.push(red_stencil);
    for f in faces {
        sweep.push(f);
    }
    sweep.push(black_stencil);

    // A residual group to measure convergence: res = rhs − A(mesh)·h⁻²…
    // here Figure 4's operator already absorbs scaling into λ, so we just
    // reuse b − Ax.
    let b2 = Component::read("rhs", 2);
    let m2 = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
    let top2 = Component::read_at("beta_x", &[1, 0]);
    let bot2 = Component::read_at("beta_x", &[0, 0]);
    let left2 = Component::read_at("beta_y", &[0, 0]);
    let right2 = Component::read_at("beta_y", &[0, 1]);
    let ax2 = (top2.clone() + bot2.clone() + left2.clone() + right2.clone()) * m2(0, 0)
        - top2 * m2(1, 0)
        - bot2 * m2(-1, 0)
        - right2 * m2(0, 1)
        - left2 * m2(0, -1);
    let res = Stencil::new(b2.expand() - ax2, "res", RectDomain::interior(2));
    let mut residual = StencilGroup::new();
    residual.push(res);
    (sweep, residual)
}

fn make_grids() -> GridSet {
    let mut gs = GridSet::new();
    gs.insert("mesh", Grid::new(&[N, N]));
    gs.insert("res", Grid::new(&[N, N]));
    let mut rhs = Grid::new(&[N, N]);
    rhs.fill_random(1, -1.0, 1.0);
    gs.insert("rhs", rhs);
    let mut bx = Grid::new(&[N, N]);
    bx.fill_random(2, 0.8, 1.2);
    gs.insert("beta_x", bx);
    let mut by = Grid::new(&[N, N]);
    by.fill_random(3, 0.8, 1.2);
    gs.insert("beta_y", by);
    // λ = inverse diagonal (undamped Jacobi step).
    let bx = gs.get("beta_x").unwrap().clone();
    let by = gs.get("beta_y").unwrap().clone();
    gs.insert(
        "lambda",
        Grid::from_fn(&[N, N], |p| {
            let (i, j) = (p[0], p[1]);
            if i == 0 || j == 0 || i == N - 1 || j == N - 1 {
                0.0
            } else {
                1.0 / (bx.get(&[i + 1, j])
                    + bx.get(&[i, j])
                    + by.get(&[i, j + 1])
                    + by.get(&[i, j]))
            }
        }),
    );
    gs
}

fn interior_max(gs: &GridSet, name: &str) -> f64 {
    let g = gs.get(name).unwrap();
    let mut m = 0.0f64;
    for i in 1..N - 1 {
        for j in 1..N - 1 {
            m = m.max(g.get(&[i, j]).abs());
        }
    }
    m
}

#[test]
fn figure4_program_validates_and_schedules() {
    let (sweep, _) = figure4_group();
    let gs = make_grids();
    assert!(sweep.validate(&gs.shapes()).is_ok());
    assert_eq!(sweep.len(), 10);
    // boundary / red / boundary / black = 4 phases.
    use snowflake::analysis::{greedy_phases, ResolvedStencil};
    let resolved: Vec<_> = sweep
        .stencils()
        .iter()
        .map(|s| ResolvedStencil::resolve(s, &gs.shapes()).unwrap())
        .collect();
    assert_eq!(greedy_phases(&resolved).phases.len(), 4);
}

#[test]
fn figure4_gsrb_converges_to_solution() {
    let (sweep, residual) = figure4_group();
    let mut gs = make_grids();
    let shapes = gs.shapes();
    let plan = SolverPlan::build(
        Box::new(OmpBackend::new()),
        &[(residual, shapes.clone()), (sweep, shapes)],
    )
    .unwrap();
    let (residual, sweep) = (0, 1);
    plan.run(residual, &mut gs).unwrap();
    let r0 = interior_max(&gs, "res");
    for _ in 0..300 {
        plan.run(sweep, &mut gs).unwrap();
    }
    plan.run(residual, &mut gs).unwrap();
    let r1 = interior_max(&gs, "res");
    assert!(
        r1 < r0 * 1e-2,
        "300 GSRB sweeps on 16² should reduce the residual 100x: {r0} -> {r1}"
    );
}

#[test]
fn figure4_backends_agree() {
    let (sweep, _) = figure4_group();
    let mut a = make_grids();
    let mut b = make_grids();
    let shapes = a.shapes();
    let seq = SequentialBackend::new().compile(&sweep, &shapes).unwrap();
    let ocl = OclSimBackend::new().compile(&sweep, &shapes).unwrap();
    for _ in 0..5 {
        seq.run(&mut a).unwrap();
        ocl.run(&mut b).unwrap();
    }
    assert!(a.get("mesh").unwrap().max_abs_diff(b.get("mesh").unwrap()) < 1e-12);
}
