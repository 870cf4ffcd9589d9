//! OpenCL kernel source emission (§IV-B).
//!
//! The paper's OpenCL micro-compiler renders each stencil as a kernel using
//! a **tall-skinny blocking**: the NDRange covers the two fastest
//! dimensions (wide along unit stride for coalescing) and each work-item
//! rolls upward through the remaining dimension(s) in a private loop.
//!
//! This module emits that source. It is exercised as a *code generator*
//! only — the execution model is reproduced on CPU by
//! [`crate::oclsim::OclSimBackend`], because no OpenCL runtime exists in
//! this environment (DESIGN.md, substitutions). The emitted text is valid
//! OpenCL C 1.2 with the `cl_khr_fp64` extension, and the header comment
//! documents the host-side launch protocol (one NDRange per kernel per
//! region; a `clFinish` barrier between phases).

use std::fmt::Write as _;

use snowflake_ir::Lowered;

use crate::codegen_c::{index_string, value_string};

/// Emit the OpenCL program (all kernels) for a lowered group.
pub fn emit_ocl(lowered: &Lowered) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by snowflake-backends::codegen_ocl.\n\
         // Grids (argument order for every kernel): {:?}\n\
         // Host launch protocol:\n\
         //   for each phase in {:?}:\n\
         //     enqueue the phase's kernels (any order), one NDRange per\n\
         //     region as annotated below, then clFinish() as the barrier.\n\
         #pragma OPENCL EXTENSION cl_khr_fp64 : enable\n",
        lowered.grid_names, lowered.phases
    );
    let args: Vec<String> = (0..lowered.grid_names.len())
        .map(|i| format!("__global double* g{i}"))
        .collect();
    let args = args.join(", ");

    for (ki, kernel) in lowered.kernels.iter().enumerate() {
        for (ri, region) in kernel.regions.iter().enumerate() {
            if region.is_empty() {
                continue;
            }
            let nd = region.ndim();
            let (tall_dim, wide_dim) = if nd >= 2 { (nd - 2, nd - 1) } else { (0, 0) };
            let _ = writeln!(
                out,
                "// kernel {:?} region {ri}: NDRange = ({} /* dim {} */, {} /* dim {} */){}",
                kernel.name,
                region.extent(wide_dim),
                wide_dim,
                if nd >= 2 { region.extent(tall_dim) } else { 1 },
                tall_dim,
                if kernel.parallel_safe {
                    ""
                } else {
                    " — NOT parallel-safe: launch with a single work-item"
                }
            );
            let _ = writeln!(out, "__kernel void k{ki}_r{ri}({args})");
            out.push_str("{\n");
            if nd >= 2 {
                let _ = writeln!(
                    out,
                    "    const long j{wide_dim} = get_global_id(0);\n    const long j{tall_dim} = get_global_id(1);"
                );
                let _ = writeln!(
                    out,
                    "    if (j{wide_dim} >= {} || j{tall_dim} >= {}) return;",
                    region.extent(wide_dim),
                    region.extent(tall_dim)
                );
                let _ = writeln!(
                    out,
                    "    const long i{wide_dim} = {} + j{wide_dim} * {};",
                    region.lo[wide_dim], region.stride[wide_dim]
                );
                let _ = writeln!(
                    out,
                    "    const long i{tall_dim} = {} + j{tall_dim} * {};",
                    region.lo[tall_dim], region.stride[tall_dim]
                );
            } else {
                let _ = writeln!(out, "    const long j0 = get_global_id(0);");
                let _ = writeln!(out, "    if (j0 >= {}) return;", region.extent(0));
                let _ = writeln!(
                    out,
                    "    const long i0 = {} + j0 * {};",
                    region.lo[0], region.stride[0]
                );
            }
            // Roll through the outer dimensions (those before tall_dim).
            let mut indent = 1usize;
            if nd >= 3 {
                for d in 0..nd - 2 {
                    let _ = writeln!(
                        out,
                        "{}for (long i{d} = {}; i{d} < {}; i{d} += {}) {{ // rolled",
                        "    ".repeat(indent),
                        region.lo[d],
                        region.hi[d],
                        region.stride[d]
                    );
                    indent += 1;
                }
            }
            let value = value_string(kernel);
            let out_idx = index_string(kernel, kernel.out_class, kernel.out_delta);
            let _ = writeln!(
                out,
                "{}g{}[{}] = {};",
                "    ".repeat(indent),
                kernel.out_grid,
                out_idx,
                value
            );
            if nd >= 3 {
                for d in (0..nd - 2).rev() {
                    indent -= 1;
                    let _ = writeln!(out, "{}}}", "    ".repeat(indent));
                    let _ = d;
                }
            }
            out.push_str("}\n\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{
        weights3, Component, DomainUnion, Expr, RectDomain, ShapeMap, Stencil, StencilGroup,
    };
    use snowflake_ir::{lower_group, LowerOptions};

    fn lowered_3d(n: usize) -> Lowered {
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![n, n, n]);
        shapes.insert("y".into(), vec![n, n, n]);
        let lap = Component::new(
            "x",
            weights3![
                [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                [[0, 1, 0], [1, -6, 1], [0, 1, 0]],
                [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
            ],
        );
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(3)));
        lower_group(&group, &shapes, &LowerOptions::default()).unwrap()
    }

    #[test]
    fn emits_kernel_with_tall_skinny_mapping() {
        let src = emit_ocl(&lowered_3d(16));
        assert!(src.contains("__kernel void k0_r0"));
        assert!(src.contains("get_global_id(0)"));
        assert!(src.contains("get_global_id(1)"));
        // The outer dim is rolled in a loop, not part of the NDRange.
        assert!(src.contains("// rolled"));
        assert!(src.contains("cl_khr_fp64"));
    }

    #[test]
    fn guards_ndrange_overrun() {
        let src = emit_ocl(&lowered_3d(10));
        // interior extent is 8 in each dim.
        assert!(src.contains("if (j2 >= 8 || j1 >= 8) return;"));
    }

    // Golden snapshots: the emitted text is the backend's public contract
    // (valid OpenCL C 1.2, DESIGN.md), so any drift — index algebra,
    // NDRange annotations, work-item mapping — must be a conscious diff
    // here, not an accident.

    #[test]
    fn golden_snapshot_linear_kernel() {
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![6, 6]);
        shapes.insert("y".into(), vec![6, 6]);
        let lap = Expr::Const(0.25)
            * (Expr::read_at("x", &[-1, 0])
                + Expr::read_at("x", &[1, 0])
                + Expr::read_at("x", &[0, -1])
                + Expr::read_at("x", &[0, 1]));
        let group =
            StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)).named("jacobi2d"));
        let lowered = lower_group(&group, &shapes, &LowerOptions::default()).unwrap();
        let expected = r#"// Generated by snowflake-backends::codegen_ocl.
// Grids (argument order for every kernel): ["x", "y"]
// Host launch protocol:
//   for each phase in [[0]]:
//     enqueue the phase's kernels (any order), one NDRange per
//     region as annotated below, then clFinish() as the barrier.
#pragma OPENCL EXTENSION cl_khr_fp64 : enable

// kernel "jacobi2d" region 0: NDRange = (4 /* dim 1 */, 4 /* dim 0 */)
__kernel void k0_r0(__global double* g0, __global double* g1)
{
    const long j1 = get_global_id(0);
    const long j0 = get_global_id(1);
    if (j1 >= 4 || j0 >= 4) return;
    const long i1 = 1 + j1 * 1;
    const long i0 = 1 + j0 * 1;
    g1[i0*6 + i1] = (0.25 * (((g0[i0*6 + i1 + -6] + g0[i0*6 + i1 + 6]) + g0[i0*6 + i1 + -1]) + g0[i0*6 + i1 + 1]));
}

"#;
        assert_eq!(emit_ocl(&lowered), expected);
    }

    #[test]
    fn golden_snapshot_red_black_kernel() {
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![6, 6]);
        let (red, _) = DomainUnion::red_black(2);
        let avg = Expr::read_at("x", &[0, -1]) * 0.5 + Expr::read_at("x", &[0, 1]) * 0.5;
        let group = StencilGroup::from(Stencil::new(avg, "x", red).named("red_avg"));
        let lowered = lower_group(&group, &shapes, &LowerOptions::default()).unwrap();
        let expected = r#"// Generated by snowflake-backends::codegen_ocl.
// Grids (argument order for every kernel): ["x"]
// Host launch protocol:
//   for each phase in [[0]]:
//     enqueue the phase's kernels (any order), one NDRange per
//     region as annotated below, then clFinish() as the barrier.
#pragma OPENCL EXTENSION cl_khr_fp64 : enable

// kernel "red_avg" region 0: NDRange = (2 /* dim 1 */, 2 /* dim 0 */)
__kernel void k0_r0(__global double* g0)
{
    const long j1 = get_global_id(0);
    const long j0 = get_global_id(1);
    if (j1 >= 2 || j0 >= 2) return;
    const long i1 = 1 + j1 * 2;
    const long i0 = 1 + j0 * 2;
    g0[i0*6 + i1] = ((g0[i0*6 + i1 + -1] * 0.5) + (g0[i0*6 + i1 + 1] * 0.5));
}

// kernel "red_avg" region 1: NDRange = (2 /* dim 1 */, 2 /* dim 0 */)
__kernel void k0_r1(__global double* g0)
{
    const long j1 = get_global_id(0);
    const long j0 = get_global_id(1);
    if (j1 >= 2 || j0 >= 2) return;
    const long i1 = 2 + j1 * 2;
    const long i0 = 2 + j0 * 2;
    g0[i0*6 + i1] = ((g0[i0*6 + i1 + -1] * 0.5) + (g0[i0*6 + i1 + 1] * 0.5));
}

"#;
        assert_eq!(emit_ocl(&lowered), expected);
    }

    #[test]
    fn argument_order_matches_grid_table() {
        let src = emit_ocl(&lowered_3d(8));
        assert!(src.contains("__global double* g0, __global double* g1"));
    }
}
