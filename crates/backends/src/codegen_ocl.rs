//! OpenCL source emission (§IV-B) and the host driver that launches it.
//!
//! The paper's OpenCL micro-compiler renders each stencil as a kernel using
//! a **tall-skinny blocking**: the NDRange covers the two fastest
//! dimensions (wide along unit stride for coalescing), a work-group is at
//! most [`WORK_GROUP`] = 4 (tall) × 64 (wide) work-items, and each
//! work-item rolls upward through the remaining dimension(s) in a private
//! loop. This module writes three parts of one program:
//!
//! - [`emit_ocl`]: the kernels, valid OpenCL C 1.2 with the `cl_khr_fp64`
//!   extension, one per region of every kernel, each annotated with its
//!   NDRange and local size. A parallel-safe kernel computes one (wide,
//!   tall) point per work-item, behind a guard for a rounded-up global
//!   size, and rolls the other dimensions from `SF_LO` to `SF_HI`, which
//!   under `__OPENCL_VERSION__` are the full range (`SF_ITEM` then adds no
//!   parameter). A kernel that is not parallel-safe is one work-item that
//!   rolls every dimension in canonical row-major order.
//! - [`emit_ocl_driver`]: a CPU host, as C99 + OpenMP: one `#pragma omp
//!   parallel` team per op, one `#pragma omp barrier` between phases (the
//!   `clFinish` of a real queue). A parallel-safe kernel runs on cjit's
//!   loop nests (`exec::nests`, colour-union hulls and guards), a
//!   row's work-items as the innermost, unit-stride loop and one rolled
//!   plane per call, as a CPU OpenCL runtime runs a work-group. A
//!   sequential kernel's regions run once each, in union order, under one
//!   `#pragma omp single nowait`.
//! - [`ocl_unit`]: a shim (`__kernel` → `static inline`, `__global` →
//!   nothing; `get_global_id`, `SF_ITEM`, `SF_LO` and `SF_HI` → the
//!   work-item and plane the driver passes), the kernels and the driver
//!   as one C99 translation unit.
//!
//! [`crate::oclsim::OclSimBackend`] compiles that unit through cjit's
//! toolchain and runs it, so the bitwise equivalence suites check this
//! generator, and the plan check audits the driver's pragmas as it audits
//! cjit's C. No OpenCL runtime is assumed (DESIGN.md, substitutions).

use std::fmt::Write as _;

use snowflake_ir::{Lowered, LoweredKernel, SpecForm};

use crate::codegen_c::{emit_nest, emit_team, indent, index_string, value_string};
use crate::exec::nests;

/// The largest GPU work-group the kernel annotations name: 4 work-items
/// along the second-fastest dimension (the "tall" edge) by 64 along the
/// fastest, unit-stride one (the "skinny" edge, kept wide for
/// coalescing). A region narrower than an edge gets a group as narrow as
/// the region.
pub const WORK_GROUP: [i64; 2] = [4, 64];

/// What makes the OpenCL kernels C99: each becomes a static function of
/// the unit, and the driver passes it the work-item and the plane of the
/// rolled dimensions it computes.
const SHIM: &str = "\
/* OpenCL C as C99: one kernel call per work-item and rolled plane. */
#define __kernel static inline
#define __global
#define get_global_id(d) sf_id##d
#define SF_ITEM(...) __VA_ARGS__,
#define SF_LO(d, lo) sf_plane##d
#define SF_HI(d, hi) (sf_plane##d + 1)

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

/// Emit the OpenCL program (all kernels) for a lowered group.
pub fn emit_ocl(lowered: &Lowered) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by snowflake-backends::codegen_ocl.\n\
         // Grids: {:?}; kernel argument gI is grid I.\n\
         // Host launch protocol (emit_ocl_driver writes a CPU host as C):\n\
         //   for each phase in {:?}:\n\
         //     launch every region on the NDRange and local size annotated\n\
         //     below, then clFinish() as the barrier.\n\
         // On a device, SF_ITEM adds no parameter and each work-item rolls\n\
         // the full range SF_LO..SF_HI of the remaining dimensions.\n\
         #ifdef __OPENCL_VERSION__\n\
         #pragma OPENCL EXTENSION cl_khr_fp64 : enable\n\
         #define SF_ITEM(...)\n\
         #define SF_LO(d, lo) (lo)\n\
         #define SF_HI(d, hi) (hi)\n\
         #endif\n",
        lowered.grid_names, lowered.phases
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
            // Work-item id `j{d}` along NDRange dimension `n` is point
            // `lo + j * stride` of region dimension `d`: the last two
            // dimensions of a parallel-safe kernel, wide first. The
            // dimensions before them are rolled.
            let ids: Vec<usize> = if kernel.parallel_safe {
                (nd.saturating_sub(2)..nd).rev().collect()
            } else {
                Vec::new()
            };
            let rolled = nd - ids.len();
            let _ = write!(out, "// kernel {:?} region {ri}: ", kernel.name);
            let mut hidden = String::new();
            if kernel.parallel_safe {
                let (mut ndrange, mut local, mut params) = (vec![], vec![], vec![]);
                for (n, (&d, edge)) in ids.iter().zip(WORK_GROUP.iter().rev()).enumerate() {
                    ndrange.push(format!("{} /* dim {d} */", region.extent(d)));
                    local.push(edge.min(&region.extent(d)).to_string());
                    params.push(format!("long sf_id{n}"));
                }
                params.extend((0..rolled).map(|d| format!("long sf_plane{d}")));
                let (ndrange, local) = (ndrange.join(", "), local.join(", "));
                let _ = writeln!(out, "NDRange = ({ndrange}), local size ({local})");
                hidden = format!("SF_ITEM({}) ", params.join(", "));
            } else {
                out.push_str("NOT parallel-safe: one work-item rolls the region\n");
            }
            let _ = writeln!(
                out,
                "__kernel void k{ki}_r{ri}({hidden}{})\n{{",
                args.join(", ")
            );
            for (n, &d) in ids.iter().enumerate() {
                let _ = writeln!(out, "    const long j{d} = get_global_id({n});");
            }
            if kernel.parallel_safe {
                let guard: Vec<String> = ids
                    .iter()
                    .map(|&d| format!("j{d} >= {}", region.extent(d)))
                    .collect();
                let _ = writeln!(out, "    if ({}) return;", guard.join(" || "));
            }
            for &d in &ids {
                let (lo, step) = (region.lo[d], region.stride[d]);
                let _ = writeln!(out, "    const long i{d} = {lo} + j{d} * {step};");
            }
            for d in 0..rolled {
                let (lo, hi) = (region.lo[d], region.hi[d]);
                let (lo, hi) = if kernel.parallel_safe {
                    (format!("SF_LO({d}, {lo})"), format!("SF_HI({d}, {hi})"))
                } else {
                    (lo.to_string(), hi.to_string())
                };
                let _ = writeln!(
                    out,
                    "{}for (long i{d} = {lo}; i{d} < {hi}; i{d} += {}) {{ // rolled",
                    indent(1 + d),
                    region.stride[d]
                );
            }
            let _ = writeln!(out, "{}{store}", indent(1 + rolled));
            for d in (0..rolled).rev() {
                let _ = writeln!(out, "{}}}", indent(1 + d));
            }
            out.push_str("}\n\n");
        }
    }
    out
}

/// Emit the host driver: `void <func>(double** g)`, where `g[i]` is the
/// base pointer of grid `i` in the lowering's dense order, running every
/// kernel of [`emit_ocl`] under the protocol in the module docs. Each
/// kernel's loops follow the same kernel marker comment as its loop nests
/// in cjit's C, so the plan check audits both sources against one pragma
/// contract.
pub fn emit_ocl_driver(lowered: &Lowered, func: &str) -> String {
    let mut out = String::from("/* Host driver: one OpenMP team, one barrier between phases. */\n");
    emit_team(&mut out, lowered, func, "", |out, ki, kernel| {
        let args: Vec<String> = kernel_grids(kernel)
            .iter()
            .map(|g| format!("g[{g}]"))
            .collect();
        if !kernel.parallel_safe {
            out.push_str("        #pragma omp single nowait\n        {\n");
            for (ri, region) in kernel.regions.iter().enumerate() {
                if !region.is_empty() {
                    let _ = writeln!(out, "            k{ki}_r{ri}({});", args.join(", "));
                }
            }
            out.push_str("        }\n");
            return;
        }
        // Nests hold the kernel's non-empty regions in union order.
        let mut index = (0..kernel.regions.len()).filter(|&ri| !kernel.regions[ri].is_empty());
        for nest in nests(kernel) {
            emit_nest(out, &nest, true, 2, |member| {
                // The wide work-item runs innermost, the tall one is the
                // member's row, and the outer loops are the rolled planes.
                let ri = index
                    .next()
                    .expect("nests are made of the kernel's regions");
                let nd = member.ndim();
                let mut call = vec![format!("j{}", nd - 1)];
                if let Some(t) = nd.checked_sub(2) {
                    let (lo, step) = (member.lo[t], member.stride[t]);
                    call.push(format!("(i{t} - {lo}) / {step}"));
                }
                call.extend((0..nd.saturating_sub(2)).map(|d| format!("i{d}")));
                call.extend(args.iter().cloned());
                let (w, extent) = (nd - 1, member.extent(nd - 1));
                (
                    format!("for (long j{w} = 0; j{w} < {extent}; j{w}++)"),
                    format!("k{ki}_r{ri}({});", call.join(", ")),
                )
            });
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
        assert!(
            src.contains("for (long i0 = SF_LO(0, 1); i0 < SF_HI(0, 15); i0 += 1) { // rolled"),
            "{src}"
        );
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
// Host launch protocol (emit_ocl_driver writes a CPU host as C):
//   for each phase in [[0]]:
//     launch every region on the NDRange and local size annotated
//     below, then clFinish() as the barrier.
// On a device, SF_ITEM adds no parameter and each work-item rolls
// the full range SF_LO..SF_HI of the remaining dimensions.
#ifdef __OPENCL_VERSION__
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
#define SF_ITEM(...)
#define SF_LO(d, lo) (lo)
#define SF_HI(d, hi) (hi)
#endif

"#;

    const DRIVER_HEAD: &str = r#"/* Host driver: one OpenMP team, one barrier between phases. */
void run(double** g)
{
#pragma omp parallel
    {

        /* ===== phase 0 ===== */
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
        let kernels = r#"// kernel "jacobi2d" region 0: NDRange = (4 /* dim 1 */, 4 /* dim 0 */), local size (4, 4)
__kernel void k0_r0(SF_ITEM(long sf_id0, long sf_id1) __global double* g0, __global double* g1)
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
        // cjit's one nest: a row's four work-items innermost, the tall id
        // from the row.
        let driver = r#"        /* kernel 0 "jacobi2d" (parallel-safe) */
        #pragma omp for schedule(static) nowait
        for (long i0 = 1; i0 < 5; i0 += 1) {
            #pragma omp simd
            for (long j1 = 0; j1 < 4; j1++) {
                k0_r0(j1, (i0 - 1) / 1, g[0], g[1]);
            }
        }
    }
}
"#;
        assert_eq!(
            emit_ocl_driver(&lowered, "run"),
            format!("{DRIVER_HEAD}{driver}")
        );
    }

    /// A red colour over 6×6: two regions, the rows of one hull, each under
    /// its congruence guard in the driver.
    #[test]
    fn golden_snapshot_red_black_kernel_and_driver() {
        let (red, _) = DomainUnion::red_black(2);
        let avg = Expr::read_at("x", &[0, -1]) * 0.5 + Expr::read_at("x", &[0, 1]) * 0.5;
        let group = StencilGroup::from(Stencil::new(avg, "x", red).named("red_avg"));
        let mut shapes = shapes_6x6();
        shapes.remove("y");
        let lowered = lower_group(&group, &shapes, &LowerOptions::default()).unwrap();
        let header = HEADER.replace(r#"["x", "y"]"#, r#"["x"]"#);
        let kernels = r#"// kernel "red_avg" region 0: NDRange = (2 /* dim 1 */, 2 /* dim 0 */), local size (2, 2)
__kernel void k0_r0(SF_ITEM(long sf_id0, long sf_id1) __global double* g0)
{
    const long j1 = get_global_id(0);
    const long j0 = get_global_id(1);
    if (j1 >= 2 || j0 >= 2) return;
    const long i1 = 1 + j1 * 2;
    const long i0 = 1 + j0 * 2;
    g0[i0*6 + i1] = ((g0[i0*6 + i1 + -1] * 0.5) + (g0[i0*6 + i1 + 1] * 0.5));
}

// kernel "red_avg" region 1: NDRange = (2 /* dim 1 */, 2 /* dim 0 */), local size (2, 2)
__kernel void k0_r1(SF_ITEM(long sf_id0, long sf_id1) __global double* g0)
{
    const long j1 = get_global_id(0);
    const long j0 = get_global_id(1);
    if (j1 >= 2 || j0 >= 2) return;
    const long i1 = 2 + j1 * 2;
    const long i0 = 2 + j0 * 2;
    g0[i0*6 + i1] = ((g0[i0*6 + i1 + -1] * 0.5) + (g0[i0*6 + i1 + 1] * 0.5));
}

"#;
        assert_eq!(emit_ocl(&lowered), format!("{header}{kernels}"));
        let driver = r#"        /* kernel 0 "red_avg" (parallel-safe) */
        #pragma omp for schedule(static) nowait
        for (long i0 = 1; i0 < 5; i0 += 1) {
            if ((i0 - 1) % 2 == 0) {
                #pragma omp simd
                for (long j1 = 0; j1 < 2; j1++) {
                    k0_r0(j1, (i0 - 1) / 2, g[0]);
                }
            }
            if ((i0 - 2) % 2 == 0) {
                #pragma omp simd
                for (long j1 = 0; j1 < 2; j1++) {
                    k0_r1(j1, (i0 - 2) / 2, g[0]);
                }
            }
        }
    }
}
"#;
        assert_eq!(
            emit_ocl_driver(&lowered, "run"),
            format!("{DRIVER_HEAD}{driver}")
        );
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
        let driver = r#"        /* kernel 0 "lex" (sequential: loop-carried dependence) */
        #pragma omp single nowait
        {
            k0_r0(g[0]);
            k0_r1(g[0]);
        }
    }
}
"#;
        assert_eq!(
            emit_ocl_driver(&lowered, "run"),
            format!("{DRIVER_HEAD}{driver}")
        );
    }

    #[test]
    fn local_size_is_at_most_the_region() {
        // 3-D interior of 70³: the full 4×64 group, over 68 work-items per
        // row that the driver runs exactly, the outer dimension one plane
        // per call.
        let unit = ocl_unit(&lowered_3d(70), "run");
        assert!(
            unit.contains("NDRange = (68 /* dim 2 */, 68 /* dim 1 */), local size (64, 4)"),
            "{unit}"
        );
        assert!(unit.contains("for (long j2 = 0; j2 < 68; j2++)"), "{unit}");
        assert!(
            unit.contains("k0_r0(j2, (i1 - 1) / 1, i0, g[0], g[1]);"),
            "{unit}"
        );
        // A 3-D red colour at 66³: 32 work-items wide, so 32-wide groups.
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![66, 66, 66]);
        let (red, _) = DomainUnion::red_black(3);
        let s = Stencil::new(Expr::read_at("x", &[0, 0, 1]) * 0.5, "x", red);
        let lowered =
            lower_group(&StencilGroup::from(s), &shapes, &LowerOptions::default()).unwrap();
        let src = emit_ocl(&lowered);
        assert_eq!(src.matches("local size (32, 4)").count(), 4, "{src}");
        // 1-D: at most 64 work-items per group.
        for (n, local) in [(131, 64), (12, 12)] {
            let mut shapes = ShapeMap::new();
            shapes.insert("x".into(), vec![n]);
            let s = Stencil::new(Expr::read_at("x", &[0]) * 2.0, "x", RectDomain::all(1));
            let lowered =
                lower_group(&StencilGroup::from(s), &shapes, &LowerOptions::default()).unwrap();
            let unit = ocl_unit(&lowered, "run");
            let annotation = format!("NDRange = ({n} /* dim 0 */), local size ({local})");
            assert!(unit.contains(&annotation), "{unit}");
            assert!(unit.contains("k0_r0(SF_ITEM(long sf_id0) __global double* g0)"));
            assert!(unit.contains(&format!("for (long j0 = 0; j0 < {n}; j0++)")));
        }
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
            unit.contains(
                "k0_r0(SF_ITEM(long sf_id0, long sf_id1) __global double* g0, __global double* g1)"
            ),
            "{unit}"
        );
        assert!(
            unit.contains("k1_r0(SF_ITEM(long sf_id0, long sf_id1) __global double* g2)"),
            "{unit}"
        );
        assert!(unit.contains("k1_r0(j1, (i0 - 1) / 1, g[2]);"), "{unit}");
    }
}
