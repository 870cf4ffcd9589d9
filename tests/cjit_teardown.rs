//! Regression test: dropping a cjit executable must not unload the OpenMP
//! runtime under its parked worker threads.
//!
//! With two or more OpenMP threads, the first parallel region leaves
//! libgomp workers parked inside the runtime. If dropping the executable
//! `dlclose`d its shared object and released the last reference to
//! libgomp, the next parallel region would jump into unmapped code. The
//! test lives in its own binary so it can pin `OMP_NUM_THREADS=2` before
//! any artifact loads libgomp, whatever the host's core count.

use snowflake::prelude::*;

#[test]
fn cjit_executables_survive_drop_and_recompile_with_two_openmp_threads() {
    if !CJitBackend::available() {
        eprintln!("skipping: no host C compiler for cjit");
        return;
    }
    // Nothing in this process has loaded libgomp yet; it reads the thread
    // count when the first artifact pulls it in.
    std::env::set_var("OMP_NUM_THREADS", "2");
    let n = 24;
    let lap = Component::new(
        "x",
        weights3![
            [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 1, 0], [1, -6, 1], [0, 1, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
        ],
    );
    let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(3)));
    let mut grids = GridSet::new();
    let mut x = Grid::new(&[n, n, n]);
    x.fill_random(17, -1.0, 1.0);
    grids.insert("x", x);
    grids.insert("y", Grid::new(&[n, n, n]));
    let shapes = grids.shapes();

    let mut want = grids.clone();
    SequentialBackend::new()
        .compile(&group, &shapes)
        .unwrap()
        .run(&mut want)
        .unwrap();
    // Each round compiles into its own empty artifact cache, so every
    // round invokes the compiler and loads a fresh object, then drops it.
    let root = std::env::temp_dir().join(format!("snowflake-teardown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for round in 0..3 {
        let backend = CJitBackend::new().with_cache_dir(root.join(format!("round{round}")));
        let exe = backend.compile(&group, &shapes).unwrap();
        let stats = backend.stats();
        assert_eq!(
            (stats.disk_hits, stats.disk_misses),
            (0, 1),
            "round {round} compiled afresh"
        );
        let mut got = grids.clone();
        exe.run(&mut got).unwrap();
        drop(exe);
        assert_eq!(
            got.get("y").unwrap().as_slice(),
            want.get("y").unwrap().as_slice(),
            "round {round}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
