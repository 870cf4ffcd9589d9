//! Quickstart: define a stencil, compile it on several micro-compiler
//! backends, and run it — the paper's core workflow in ~60 lines.
//!
//!     cargo run --release --example quickstart

use snowflake::prelude::*;

fn main() {
    // --- 1. Describe the computation (the DSL layer, Table I) ----------
    //
    // A 2-D 5-point Laplacian: weights around a center point, bound to the
    // grid named "u" by a Component.
    let laplacian = Component::new("u", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);

    // Apply it over the interior of whatever grid it ends up running on:
    // negative bounds are relative to the grid size, so this stencil works
    // unchanged for every mesh resolution.
    let stencil = Stencil::new(laplacian, "out", RectDomain::interior(2)).named("laplacian");
    let group = StencilGroup::from(stencil);

    // --- 2. Provide meshes ----------------------------------------------
    let n = 64usize;
    let mut grids = GridSet::new();
    // u(i,j) = i² + j²  →  Δu = 4 exactly (2nd differences of quadratics).
    grids.insert(
        "u",
        Grid::from_fn(&[n, n], |p| (p[0] * p[0] + p[1] * p[1]) as f64),
    );
    grids.insert("out", Grid::new(&[n, n]));

    // --- 3. Compile & run on interchangeable backends --------------------
    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(InterpreterBackend),
        Box::new(SequentialBackend::new()),
        Box::new(OmpBackend::new()),
    ];
    if CJitBackend::available() {
        backends.push(Box::new(OclSimBackend::new()));
    }
    for backend in &backends {
        grids.get_mut("out").unwrap().fill(0.0);
        let exe = backend
            .compile(&group, &grids.shapes())
            .expect("compile laplacian");
        let t0 = std::time::Instant::now();
        exe.run(&mut grids).expect("run");
        let dt = t0.elapsed();
        let v = grids.get("out").unwrap().get(&[n / 2, n / 2]);
        println!(
            "{:<8} -> out[{},{}] = {v}  ({} points in {dt:?})",
            backend.name(),
            n / 2,
            n / 2,
            exe.work().points
        );
        assert_eq!(v, 4.0);
    }

    // The C JIT (emit C99+OpenMP, cc, dlopen) if a compiler is present.
    if CJitBackend::available() {
        grids.get_mut("out").unwrap().fill(0.0);
        let exe = CJitBackend::new()
            .compile(&group, &grids.shapes())
            .expect("cjit compile");
        exe.run(&mut grids).expect("cjit run");
        println!(
            "cjit     -> out[{},{}] = {}",
            n / 2,
            n / 2,
            grids.get("out").unwrap().get(&[n / 2, n / 2])
        );
    } else {
        println!("cjit and oclsim skipped (no C compiler found)");
    }

    println!("\nAll backends computed Δ(i²+j²) = 4 from one stencil definition.");
}
