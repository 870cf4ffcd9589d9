//! A tour of the micro-compiler pipeline (§III–IV): what the analysis
//! proves about a real stencil group, and the C/OpenMP and OpenCL sources
//! the code generators emit for it.
//!
//!     cargo run --release --example codegen_tour

use snowflake::analysis::{dependence_dag, greedy_phases, is_parallel_safe, ResolvedStencil};
use snowflake::backends::codegen_c::emit_c;
use snowflake::backends::codegen_ocl::{emit_ocl, emit_ocl_driver};
use snowflake::hpgmg::stencils::{gsrb_smooth_group, Coeff, Names};
use snowflake::ir::{lower_group, LowerOptions};
use snowflake_core::ShapeMap;

fn main() {
    // The paper's flagship kernel: one VC GSRB smooth in 3-D —
    // boundary faces, red, boundary faces, black.
    let n = 16usize;
    let names = Names::level(0);
    let group = gsrb_smooth_group(&names, Coeff::Variable, 0.0, 1.0, (n * n) as f64);

    let mut shapes = ShapeMap::new();
    for g in [
        &names.x,
        &names.rhs,
        &names.res,
        &names.dinv,
        &names.alpha,
        &names.beta_x,
        &names.beta_y,
        &names.beta_z,
    ] {
        shapes.insert(g.clone(), vec![n + 2, n + 2, n + 2]);
    }

    // --- §III: what the Diophantine analysis proves -----------------------
    println!("=== Analysis (finite-domain Diophantine) ===");
    let resolved: Vec<ResolvedStencil> = group
        .stencils()
        .iter()
        .map(|s| ResolvedStencil::resolve(s, &shapes).expect("resolve"))
        .collect();
    for (i, rs) in resolved.iter().enumerate() {
        println!(
            "  [{i:>2}] {:<18} {:>7} pts  parallel-safe: {}",
            rs.stencil.name(),
            rs.num_points(),
            is_parallel_safe(rs)
        );
    }
    let sched = greedy_phases(&resolved);
    println!("\n  greedy barrier phases: {:?}", sched.phases);
    println!(
        "  ({} barriers for {} stencils — the 12 face stencils fused)",
        sched.num_barriers(),
        resolved.len()
    );
    let dag = dependence_dag(&resolved);
    let edges: usize = dag.iter().map(|e| e.len()).sum();
    println!("  dependence DAG: {edges} edges");

    // --- §IV: the code the micro-compilers hand to cc / OpenCL ------------
    let lowered = lower_group(&group, &shapes, &LowerOptions::default()).expect("lower");
    println!("\n=== Generated C99 + OpenMP (cjit backend input), excerpt ===");
    let c_src = emit_c(&lowered, "snowflake_run");
    for line in c_src.lines().take(28) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", c_src.lines().count());

    println!("\n=== Generated OpenCL (tall-skinny blocking, oclsim backend input), excerpt ===");
    let ocl_src = emit_ocl(&lowered);
    for line in ocl_src.lines().take(24) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", ocl_src.lines().count());

    println!("\n=== Its host driver (C99 + OpenMP), excerpt ===");
    let driver = emit_ocl_driver(&lowered, "snowflake_run");
    for line in driver.lines().take(20) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", driver.lines().count());
}
