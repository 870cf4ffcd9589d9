//! Stencil programs as *data*: parse a Snowflake script at run time,
//! analyze it, compile it on a backend and run it — the dynamism of the
//! paper's Python embedding, restored to the Rust port by the text
//! front-end (`snowflake::core::parser`).
//!
//!     cargo run --release --example script_driven

use snowflake::analysis::{greedy_phases, ResolvedStencil};
use snowflake::core::parser;
use snowflake::prelude::*;

const SCRIPT: &str = r#"
# 2-D variable-coefficient GSRB with Dirichlet boundaries,
# written in the Snowflake script language (compare Figure 4).
grid mesh rhs beta_x beta_y lambda

domain red    = (1,1):(-1,-1):(2,2) + (2,2):(-1,-1):(2,2)
domain black  = (1,2):(-1,-1):(2,2) + (2,1):(-1,-1):(2,2)
domain ilo    = (0,1):(0,-1):(0,1)
domain ihi    = (-1,1):(-1,-1):(0,1)
domain jlo    = (1,0):(-1,0):(1,0)
domain jhi    = (1,-1):(-1,-1):(1,0)

# A = -div(beta grad): positive-definite center, negative neighbors.
expr diag   = beta_x[1,0] + beta_x[0,0] + beta_y[0,1] + beta_y[0,0]
expr ax     = diag*mesh[0,0] - beta_x[1,0]*mesh[1,0] - beta_x[0,0]*mesh[-1,0] - beta_y[0,1]*mesh[0,1] - beta_y[0,0]*mesh[0,-1]
expr update = mesh[0,0] + lambda[0,0]*(rhs[0,0] - ax)

stencil bc_ilo: mesh[ilo] = -mesh[1,0]
stencil bc_ihi: mesh[ihi] = -mesh[-1,0]
stencil bc_jlo: mesh[jlo] = -mesh[0,1]
stencil bc_jhi: mesh[jhi] = -mesh[0,-1]
stencil red_pass:   mesh[red]   = update
stencil black_pass: mesh[black] = update

group sweep = bc_ilo bc_ihi bc_jlo bc_jhi red_pass bc_ilo bc_ihi bc_jlo bc_jhi black_pass
"#;

fn main() {
    let n = 34usize;

    // --- parse --------------------------------------------------------
    let script = parser::parse(SCRIPT).expect("script parses");
    println!(
        "parsed: {} grids, {} domains, {} exprs, {} stencils, {} groups",
        script.grids.len(),
        script.domains.len(),
        script.exprs.len(),
        script.stencils.len(),
        script.groups.len()
    );
    let sweep = script.group("sweep").expect("group `sweep`");

    // --- meshes ---------------------------------------------------------
    let h = 1.0 / (n - 2) as f64;
    let mut grids = GridSet::new();
    grids.insert("mesh", Grid::new(&[n, n]));
    let mut rhs = Grid::new(&[n, n]);
    rhs.fill_random(1, -1.0, 1.0);
    grids.insert("rhs", rhs);
    let beta = |x: f64, y: f64| 1.0 + 0.5 * (4.0 * x).sin() * (3.0 * y).cos();
    let cc = |i: usize| (i as f64 - 0.5) * h;
    let fc = |i: usize| (i as f64 - 1.0) * h;
    grids.insert(
        "beta_x",
        Grid::from_fn(&[n, n], |p| beta(fc(p[0]), cc(p[1]))),
    );
    grids.insert(
        "beta_y",
        Grid::from_fn(&[n, n], |p| beta(cc(p[0]), fc(p[1]))),
    );
    let bx = grids.get("beta_x").unwrap().clone();
    let by = grids.get("beta_y").unwrap().clone();
    grids.insert(
        "lambda",
        Grid::from_fn(&[n, n], |p| {
            let (i, j) = (p[0], p[1]);
            if i == 0 || j == 0 || i == n - 1 || j == n - 1 {
                0.0
            } else {
                1.0 / (bx.get(&[i + 1, j])
                    + bx.get(&[i, j])
                    + by.get(&[i, j + 1])
                    + by.get(&[i, j]))
            }
        }),
    );

    // --- analyze ----------------------------------------------------------
    let shapes = grids.shapes();
    let resolved: Vec<_> = sweep
        .stencils()
        .iter()
        .map(|s| ResolvedStencil::resolve(s, &shapes).expect("resolve"))
        .collect();
    let sched = greedy_phases(&resolved);
    println!(
        "analysis: {} stencils -> {} barrier phases {:?}",
        sweep.len(),
        sched.phases.len(),
        sched.phases
    );

    // --- compile & relax ---------------------------------------------------
    let plan = SolverPlan::build(
        Box::new(OmpBackend::new()),
        &[(sweep.clone(), grids.shapes())],
    )
    .expect("compile");
    let before = grids.get("mesh").unwrap().norm_l2();
    for _ in 0..200 {
        plan.run(0, &mut grids).expect("sweep");
    }
    let after = grids.get("mesh").unwrap().norm_l2();
    let compiles = plan.cache_stats().misses;
    println!("relaxed 200 sweeps: ||mesh|| {before:.3} -> {after:.3} ({compiles} compilation)");
    println!("\nThe whole pipeline — parsing, Diophantine scheduling, JIT compile,\nparallel execution — ran from a program that existed only as text.");
}
