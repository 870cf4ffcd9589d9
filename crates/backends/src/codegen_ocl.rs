//! OpenCL source emission (§IV-B) and the host driver that launches it.
//!
//! The paper's OpenCL micro-compiler renders each stencil as a kernel using
//! a **tall-skinny blocking**: the NDRange covers the two fastest
//! dimensions (wide along unit stride for coalescing), a work-group is
//! [`WORK_GROUP`] = 4 (tall) × 64 (wide) work-items, and each work-item
//! rolls upward through the remaining dimension(s) in a private loop.
//!
//! This module writes three parts of one program:
//!
//! - [`emit_ocl`]: the kernels, valid OpenCL C 1.2 with the `cl_khr_fp64`
//!   extension, one per region of every kernel. A parallel-safe kernel
//!   computes one (wide, tall) point per work-item, behind a guard for the
//!   work-items of the rounded-up global size. A kernel that is not
//!   parallel-safe is one work-item that rolls every dimension in
//!   canonical row-major order.
//! - [`emit_ocl_driver`]: the host launch protocol, as C99 + OpenMP. Each
//!   op runs on one `#pragma omp parallel` team with one `#pragma omp
//!   barrier` between barrier phases (the `clFinish` of a real queue).
//!   Each region of a parallel-safe kernel is one `#pragma omp for
//!   schedule(static) nowait` over its work-groups; a sequential kernel's
//!   regions are launched once each, in union order, under one `#pragma
//!   omp single nowait`.
//! - [`ocl_unit`]: a shim (`__kernel` → `static inline`, `__global` →
//!   nothing, `get_global_id(d)` → the calling thread's current
//!   work-item), the kernels and the driver as one C99 translation unit.
//!
//! [`crate::oclsim::OclSimBackend`] compiles that unit through cjit's
//! toolchain and runs it, so the bitwise equivalence suites check this
//! generator, and the plan check audits the driver's pragmas as it audits
//! cjit's C. No OpenCL runtime is assumed (DESIGN.md, substitutions).

use std::fmt::Write as _;

use snowflake_grid::Region;
use snowflake_ir::{Lowered, LoweredKernel, SpecForm};

use crate::codegen_c::{emit_team, index_string, value_string};

/// Work-items per work-group: 4 along the second-fastest dimension (the
/// "tall" edge) by 64 along the fastest, unit-stride one (the "skinny"
/// edge, kept wide for coalescing). A 1-D kernel's work-groups are 64
/// work-items.
pub const WORK_GROUP: [i64; 2] = [4, 64];

/// What makes the OpenCL kernels C99: each becomes a static function of
/// the unit, and `get_global_id` reads the work-item the driver set for
/// the calling thread.
const SHIM: &str = "\
/* OpenCL C as C99: kernels are static functions of this unit, and
 * get_global_id reads the calling thread's current work-item. */
#define __kernel static inline
#define __global
static long sf_global_id[2];
#pragma omp threadprivate(sf_global_id)
#define get_global_id(d) sf_global_id[d]

";

/// The grids kernel `kernel` addresses, in grid-table order: its
/// arguments.
fn kernel_grids(kernel: &LoweredKernel) -> Vec<usize> {
    let reads = match &kernel.form {
        SpecForm::Linear(sl) => &sl.classes,
        SpecForm::Tape(tape) => &tape.read_classes,
    };
    let mut grids: Vec<usize> = reads
        .iter()
        .chain([&kernel.out_class])
        .map(|&c| kernel.classes[c as usize].grid)
        .collect();
    grids.sort_unstable();
    grids.dedup();
    grids
}

/// A parallel-safe region's launch, `[tall, wide]`: the work-group size
/// and the number of work-groups, its extents rounded up to work-group
/// multiples. A 1-D region's NDRange is one work-item tall.
fn launch(region: &Region) -> ([i64; 2], [i64; 2]) {
    let nd = region.ndim();
    let (size, extent) = if nd >= 2 {
        (WORK_GROUP, [region.extent(nd - 2), region.extent(nd - 1)])
    } else {
        ([1, WORK_GROUP[1]], [1, region.extent(0)])
    };
    (size, [0, 1].map(|d| (extent[d] + size[d] - 1) / size[d]))
}

/// The launches the driver makes for `kernel` per run: every work-group of
/// every non-empty region of a parallel-safe kernel, and one (the whole
/// sequential kernel under one `single`) otherwise.
pub(crate) fn launches(kernel: &LoweredKernel) -> u64 {
    if !kernel.parallel_safe {
        return 1;
    }
    let groups = kernel.regions.iter().filter(|r| !r.is_empty());
    groups
        .map(|r| launch(r).1.iter().product::<i64>())
        .sum::<i64>() as u64
}

/// Emit the OpenCL program (all kernels) for a lowered group.
pub fn emit_ocl(lowered: &Lowered) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by snowflake-backends::codegen_ocl.\n\
         // Grids: {:?}; kernel argument gI is grid I.\n\
         // Host launch protocol (emit_ocl_driver writes it as C):\n\
         //   for each phase in {:?}:\n\
         //     launch every region as annotated below on {}x{} (tall x wide)\n\
         //     work-groups, then clFinish() as the barrier.\n\
         #ifdef __OPENCL_VERSION__\n\
         #pragma OPENCL EXTENSION cl_khr_fp64 : enable\n\
         #endif\n",
        lowered.grid_names, lowered.phases, WORK_GROUP[0], WORK_GROUP[1]
    );
    for (ki, kernel) in lowered.kernels.iter().enumerate() {
        let args: Vec<String> = kernel_grids(kernel)
            .iter()
            .map(|g| format!("__global double* g{g}"))
            .collect();
        let store = format!(
            "g{}[{}] = {};",
            kernel.out_grid,
            index_string(kernel, kernel.out_class, kernel.out_delta),
            value_string(kernel)
        );
        for (ri, region) in kernel.regions.iter().enumerate() {
            if region.is_empty() {
                continue;
            }
            let nd = region.ndim();
            let _ = write!(out, "// kernel {:?} region {ri}: ", kernel.name);
            let rolled = if !kernel.parallel_safe {
                out.push_str("NOT parallel-safe: one work-item rolls the region\n");
                0..nd
            } else if nd >= 2 {
                let (tall, wide) = (nd - 2, nd - 1);
                let _ = writeln!(
                    out,
                    "NDRange = ({} /* dim {wide} */, {} /* dim {tall} */)",
                    region.extent(wide),
                    region.extent(tall)
                );
                0..tall
            } else {
                let _ = writeln!(out, "NDRange = ({} /* dim 0 */)", region.extent(0));
                0..0
            };
            let _ = writeln!(out, "__kernel void k{ki}_r{ri}({})\n{{", args.join(", "));
            if kernel.parallel_safe {
                // Work-item id `j{d}` along NDRange dimension `n` is point
                // `lo + j * stride` of region dimension `d`.
                let ids: Vec<(usize, usize)> = if nd >= 2 {
                    vec![(nd - 1, 0), (nd - 2, 1)]
                } else {
                    vec![(0, 0)]
                };
                for &(d, n) in &ids {
                    let _ = writeln!(out, "    const long j{d} = get_global_id({n});");
                }
                let guard: Vec<String> = ids
                    .iter()
                    .map(|&(d, _)| format!("j{d} >= {}", region.extent(d)))
                    .collect();
                let _ = writeln!(out, "    if ({}) return;", guard.join(" || "));
                for &(d, _) in &ids {
                    let _ = writeln!(
                        out,
                        "    const long i{d} = {} + j{d} * {};",
                        region.lo[d], region.stride[d]
                    );
                }
            }
            let indent = |n: usize| "    ".repeat(n);
            for d in rolled.clone() {
                let _ = writeln!(
                    out,
                    "{}for (long i{d} = {}; i{d} < {}; i{d} += {}) {{ // rolled",
                    indent(1 + d),
                    region.lo[d],
                    region.hi[d],
                    region.stride[d]
                );
            }
            let _ = writeln!(out, "{}{store}", indent(1 + rolled.len()));
            for d in rolled.rev() {
                let _ = writeln!(out, "{}}}", indent(1 + d));
            }
            out.push_str("}\n\n");
        }
    }
    out
}

/// Emit the host driver: `void <func>(double** g)`, where `g[i]` is the
/// base pointer of grid `i` in the lowering's dense order, launching every
/// kernel of [`emit_ocl`] under the protocol in the module docs. Each
/// kernel's launches follow the same kernel marker comment as its loop
/// nests in cjit's C, so the plan check audits both sources against one
/// pragma contract.
pub fn emit_ocl_driver(lowered: &Lowered, func: &str) -> String {
    let mut out = String::from("/* Host driver: one OpenMP team, one barrier between phases. */\n");
    emit_team(&mut out, lowered, func, "", |out, ki, kernel| {
        let args: Vec<String> = kernel_grids(kernel)
            .iter()
            .map(|g| format!("g[{g}]"))
            .collect();
        let args = args.join(", ");
        let regions = kernel.regions.iter().enumerate();
        let regions = regions.filter(|(_, r)| !r.is_empty());
        if !kernel.parallel_safe {
            out.push_str("        #pragma omp single nowait\n        {\n");
            for (ri, _) in regions {
                let _ = writeln!(out, "            k{ki}_r{ri}({args});");
            }
            out.push_str("        }\n");
            return;
        }
        for (ri, region) in regions {
            let ([tall, wide], [tall_groups, wide_groups]) = launch(region);
            let _ = writeln!(
                out,
                "        #pragma omp for schedule(static) nowait collapse(2)\n\
                 \x20       for (long wg1 = 0; wg1 < {tall_groups}; wg1++) {{\n\
                 \x20           for (long wg0 = 0; wg0 < {wide_groups}; wg0++) {{\n\
                 \x20               for (long l1 = 0; l1 < {tall}; l1++) {{\n\
                 \x20                   sf_global_id[1] = wg1 * {tall} + l1;\n\
                 \x20                   for (long l0 = 0; l0 < {wide}; l0++) {{\n\
                 \x20                       sf_global_id[0] = wg0 * {wide} + l0;\n\
                 \x20                       k{ki}_r{ri}({args});\n\
                 \x20                   }}\n\
                 \x20               }}\n\
                 \x20           }}\n\
                 \x20       }}"
            );
        }
    });
    out
}

/// The OpenCL program as one C99 translation unit: the shim, the kernels
/// of [`emit_ocl`] and the driver of [`emit_ocl_driver`], whose entry
/// point is `func`.
pub fn ocl_unit(lowered: &Lowered, func: &str) -> String {
    format!(
        "{SHIM}{}{}",
        emit_ocl(lowered),
        emit_ocl_driver(lowered, func)
    )
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
    // NDRange annotations, work-item mapping, the launch protocol — must be
    // a conscious diff here, not an accident.

    fn shapes_6x6() -> ShapeMap {
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![6, 6]);
        shapes.insert("y".into(), vec![6, 6]);
        shapes
    }

    const HEADER: &str = r#"// Generated by snowflake-backends::codegen_ocl.
// Grids: ["x", "y"]; kernel argument gI is grid I.
// Host launch protocol (emit_ocl_driver writes it as C):
//   for each phase in [[0]]:
//     launch every region as annotated below on 4x64 (tall x wide)
//     work-groups, then clFinish() as the barrier.
#ifdef __OPENCL_VERSION__
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
#endif

"#;

    #[test]
    fn golden_snapshot_linear_kernel_and_driver() {
        let lap = Expr::Const(0.25)
            * (Expr::read_at("x", &[-1, 0])
                + Expr::read_at("x", &[1, 0])
                + Expr::read_at("x", &[0, -1])
                + Expr::read_at("x", &[0, 1]));
        let group =
            StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)).named("jacobi2d"));
        let lowered = lower_group(&group, &shapes_6x6(), &LowerOptions::default()).unwrap();
        let kernels = r#"// kernel "jacobi2d" region 0: NDRange = (4 /* dim 1 */, 4 /* dim 0 */)
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
        assert_eq!(emit_ocl(&lowered), format!("{HEADER}{kernels}"));
        // One work-group covers the 4×4 NDRange; its other work-items
        // take the guard's early return.
        let driver = r#"/* Host driver: one OpenMP team, one barrier between phases. */
void run(double** g)
{
#pragma omp parallel
    {

        /* ===== phase 0 ===== */
        /* kernel 0 "jacobi2d" (parallel-safe) */
        #pragma omp for schedule(static) nowait collapse(2)
        for (long wg1 = 0; wg1 < 1; wg1++) {
            for (long wg0 = 0; wg0 < 1; wg0++) {
                for (long l1 = 0; l1 < 4; l1++) {
                    sf_global_id[1] = wg1 * 4 + l1;
                    for (long l0 = 0; l0 < 64; l0++) {
                        sf_global_id[0] = wg0 * 64 + l0;
                        k0_r0(g[0], g[1]);
                    }
                }
            }
        }
    }
}
"#;
        assert_eq!(emit_ocl_driver(&lowered, "run"), driver);
        assert_eq!(launches(&lowered.kernels[0]), 1);
    }

    #[test]
    fn golden_snapshot_red_black_kernel() {
        let (red, _) = DomainUnion::red_black(2);
        let avg = Expr::read_at("x", &[0, -1]) * 0.5 + Expr::read_at("x", &[0, 1]) * 0.5;
        let group = StencilGroup::from(Stencil::new(avg, "x", red).named("red_avg"));
        let mut shapes = shapes_6x6();
        shapes.remove("y");
        let lowered = lower_group(&group, &shapes, &LowerOptions::default()).unwrap();
        let expected = r#"// Generated by snowflake-backends::codegen_ocl.
// Grids: ["x"]; kernel argument gI is grid I.
// Host launch protocol (emit_ocl_driver writes it as C):
//   for each phase in [[0]]:
//     launch every region as annotated below on 4x64 (tall x wide)
//     work-groups, then clFinish() as the barrier.
#ifdef __OPENCL_VERSION__
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
#endif

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

    /// An in-place lexicographic Gauss-Seidel over two row blocks, upper
    /// block first: each region is one work-item rolling every dimension,
    /// and the driver launches both in union order from one thread.
    #[test]
    fn golden_snapshot_sequential_kernel_and_driver() {
        let rows = RectDomain::new(&[3, 1], &[5, -1], &[1, 1])
            + RectDomain::new(&[1, 1], &[3, -1], &[1, 1]);
        let x = |i: i64, j: i64| Expr::read_at("x", &[i, j]);
        let gs = Stencil::new((x(-1, 0) + x(0, -1)) * 0.5, "x", rows).named("lex");
        let lowered = lower_group(
            &StencilGroup::from(gs),
            &shapes_6x6(),
            &LowerOptions::default(),
        )
        .unwrap();
        let header = HEADER.replace(r#"["x", "y"]"#, r#"["x"]"#);
        let kernels = r#"// kernel "lex" region 0: NOT parallel-safe: one work-item rolls the region
__kernel void k0_r0(__global double* g0)
{
    for (long i0 = 3; i0 < 5; i0 += 1) { // rolled
        for (long i1 = 1; i1 < 5; i1 += 1) { // rolled
            g0[i0*6 + i1] = ((g0[i0*6 + i1 + -6] + g0[i0*6 + i1 + -1]) * 0.5);
        }
    }
}

// kernel "lex" region 1: NOT parallel-safe: one work-item rolls the region
__kernel void k0_r1(__global double* g0)
{
    for (long i0 = 1; i0 < 3; i0 += 1) { // rolled
        for (long i1 = 1; i1 < 5; i1 += 1) { // rolled
            g0[i0*6 + i1] = ((g0[i0*6 + i1 + -6] + g0[i0*6 + i1 + -1]) * 0.5);
        }
    }
}

"#;
        assert_eq!(emit_ocl(&lowered), format!("{header}{kernels}"));
        let driver = r#"/* Host driver: one OpenMP team, one barrier between phases. */
void run(double** g)
{
#pragma omp parallel
    {

        /* ===== phase 0 ===== */
        /* kernel 0 "lex" (sequential: loop-carried dependence) */
        #pragma omp single nowait
        {
            k0_r0(g[0]);
            k0_r1(g[0]);
        }
    }
}
"#;
        assert_eq!(emit_ocl_driver(&lowered, "run"), driver);
        assert_eq!(launches(&lowered.kernels[0]), 1);
    }

    #[test]
    fn launches_count_rounded_up_work_groups() {
        // 3-D interior of 70³: 68 × 68 NDRange per plane = 17 tall × 2
        // wide groups, the outer dimension rolled.
        let lowered = lowered_3d(70);
        assert_eq!(launches(&lowered.kernels[0]), 17 * 2);
        let unit = ocl_unit(&lowered, "run");
        assert!(
            unit.contains("wg1 < 17;") && unit.contains("wg0 < 2;"),
            "{unit}"
        );
        // 1-D: 64 work-items per group.
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![131]);
        let s = Stencil::new(Expr::read_at("x", &[0]) * 2.0, "x", RectDomain::all(1));
        let lowered =
            lower_group(&StencilGroup::from(s), &shapes, &LowerOptions::default()).unwrap();
        assert_eq!(launches(&lowered.kernels[0]), 3);
        assert!(ocl_unit(&lowered, "run").contains("for (long wg0 = 0; wg0 < 3; wg0++)"));
    }

    #[test]
    fn kernels_take_only_the_grids_they_address() {
        let mut shapes = ShapeMap::new();
        for g in ["a", "b", "c"] {
            shapes.insert(g.into(), vec![8, 8]);
        }
        let group = StencilGroup::new()
            .with(Stencil::new(
                Expr::read_at("a", &[0, 1]) * 2.0,
                "c",
                RectDomain::interior(2),
            ))
            .with(Stencil::new(
                Expr::read_at("b", &[0, 0]),
                "b",
                RectDomain::interior(2),
            ));
        let lowered = lower_group(&group, &shapes, &LowerOptions::default()).unwrap();
        // The grid table is in first-use order: a, c, b.
        let unit = ocl_unit(&lowered, "run");
        assert!(
            unit.contains("k0_r0(__global double* g0, __global double* g1)"),
            "{unit}"
        );
        assert!(unit.contains("k1_r0(__global double* g2)"), "{unit}");
        assert!(unit.contains("k1_r0(g[2]);"), "{unit}");
    }
}
