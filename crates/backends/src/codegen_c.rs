//! C99 + OpenMP source emission: the code the paper's OpenMP
//! micro-compiler renders.
//!
//! One C function is generated per compiled stencil group. Each kernel
//! becomes a loop nest per region; kernels proven parallel-safe get an
//! `#pragma omp parallel for` on their outermost loop (strided color
//! unions parallelize every member rectangle), kernels that are not
//! parallel-safe are emitted as plain sequential nests. Barrier phases are
//! realized by the implicit barrier at the end of each OpenMP parallel
//! region — a simplification of the paper's task-farming scheduler that
//! preserves its correctness contract (dependent kernels never overlap).
//!
//! The generated code is consumed by [`crate::cjit::CJitBackend`], which
//! compiles it with the system C compiler and `dlopen`s the result —
//! reproducing the paper's JIT pipeline end to end.

use std::fmt::Write as _;

use snowflake_grid::Region;
use snowflake_ir::spec::{SpecForm, TapeOp};
use snowflake_ir::{Lowered, LoweredKernel};

/// Emit a complete C99 translation unit for a lowered group.
///
/// The entry point has signature `void <func>(double** g)` where `g[i]` is
/// the base pointer of grid `i` in the lowering's dense order
/// (`lowered.grid_names`).
pub fn emit_c(lowered: &Lowered, func: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* Generated by snowflake-backends::codegen_c.\n\
         * Grids (dense order): {:?}\n\
         * Phases: {:?}\n\
         */",
        lowered.grid_names, lowered.phases
    );
    out.push_str("#include <stddef.h>\n\n");
    let _ = writeln!(out, "void {func}(double** g)");
    out.push_str("{\n");
    for i in 0..lowered.grid_names.len() {
        let _ = writeln!(out, "    double* restrict g{i} = g[{i}];");
    }
    for (pi, phase) in lowered.phases.iter().enumerate() {
        let _ = writeln!(out, "\n    /* ===== phase {pi} ===== */");
        for &ki in phase {
            let kernel = &lowered.kernels[ki];
            let _ = writeln!(
                out,
                "    /* kernel {:?} ({}) */",
                kernel.name,
                if kernel.parallel_safe {
                    "parallel-safe"
                } else {
                    "sequential: loop-carried dependence"
                }
            );
            for region in &kernel.regions {
                if region.is_empty() {
                    continue;
                }
                emit_region(&mut out, kernel, region);
            }
        }
    }
    out.push_str("}\n");
    out
}

fn emit_region(out: &mut String, kernel: &LoweredKernel, region: &Region) {
    let nd = region.ndim();
    let indent = |n: usize| "    ".repeat(n + 1);
    if kernel.parallel_safe && region.extent(0) > 1 {
        let _ = writeln!(
            out,
            "{}#pragma omp parallel for schedule(static)",
            indent(0)
        );
    }
    // A parallel-safe body has no loop-carried state, so the innermost
    // loop is explicitly vectorizable.
    for d in 0..nd {
        if d == nd - 1 && nd >= 2 && kernel.parallel_safe {
            let _ = writeln!(out, "{}#pragma omp simd", indent(d));
        }
        let _ = writeln!(
            out,
            "{}for (long i{d} = {}; i{d} < {}; i{d} += {}) {{",
            indent(d),
            region.lo[d],
            region.hi[d],
            region.stride[d]
        );
    }
    let value = value_string(kernel);
    let out_idx = index_string(kernel, kernel.out_class, kernel.out_delta);
    let _ = writeln!(
        out,
        "{}g{}[{}] = {};",
        indent(nd),
        kernel.out_grid,
        out_idx,
        value
    );
    for d in (0..nd).rev() {
        let _ = writeln!(out, "{}}}", indent(d));
    }
}

/// Render the index expression `Σ_d scale_d·i_d·stride_d + delta` for an
/// access class.
pub(crate) fn index_string(kernel: &LoweredKernel, class: u32, delta: isize) -> String {
    let cl = &kernel.classes[class as usize];
    let mut parts: Vec<String> = Vec::new();
    for d in 0..cl.scale.len() {
        let coef = cl.scale[d] * cl.strides[d] as i64;
        match coef {
            0 => {}
            1 => parts.push(format!("i{d}")),
            _ => parts.push(format!("i{d}*{coef}")),
        }
    }
    if delta != 0 || parts.is_empty() {
        parts.push(format!("{delta}"));
    }
    parts.join(" + ")
}

/// Render the kernel's value in its closed form's operation order (see
/// `snowflake_ir::spec`): a linear record as the left fold
/// `((bias + c0*r0) + c1*r1) …` — exactly `acc = bias; acc += coeff·read`
/// in term order — and a tape as its source tree, one parenthesized node
/// per instruction. With `-ffp-contract=off` the C compiler may not fuse
/// the multiply-adds, so results stay bitwise identical to the Rust
/// executors.
pub(crate) fn value_string(kernel: &LoweredKernel) -> String {
    let read = |class: u32, delta: isize| {
        let grid = kernel.classes[class as usize].grid;
        format!("g{grid}[{}]", index_string(kernel, class, delta))
    };
    match &kernel.form {
        SpecForm::Linear(sl) => {
            let mut acc = c_f64(sl.bias);
            for t in 0..sl.arity() {
                let r = read(sl.classes[t], sl.deltas[t]);
                acc = format!("({acc} + {}*{r})", c_f64(sl.coeffs[t]));
            }
            acc
        }
        SpecForm::Tape(tape) => {
            let reads =
                (0..tape.num_reads()).map(|r| read(tape.read_classes[r], tape.read_deltas[r]));
            let consts = tape.consts.iter().map(|&c| c_f64(c));
            let mut regs: Vec<String> = reads.chain(consts).collect();
            for ins in &tape.instrs {
                let (a, b) = (&regs[ins.a as usize], &regs[ins.b as usize]);
                let node = match ins.op {
                    TapeOp::Add => format!("({a} + {b})"),
                    TapeOp::Sub => format!("({a} - {b})"),
                    TapeOp::Mul => format!("({a} * {b})"),
                    TapeOp::Div => format!("({a} / {b})"),
                    TapeOp::Neg => format!("(-{a})"),
                };
                regs.push(node);
            }
            regs.swap_remove(tape.out as usize)
        }
    }
}

/// Format an `f64` as a C double literal that round-trips exactly.
fn c_f64(v: f64) -> String {
    if v.is_nan() {
        // No NaN literal exists in C99, and arithmetic keeps no NaN payload
        // portably: any quiet NaN will do.
        "(0.0/0.0)".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "(1.0/0.0)" } else { "(-1.0/0.0)" }).to_string()
    } else if v != v.trunc() {
        // Rust's shortest-roundtrip formatting is valid C syntax.
        format!("{v}")
    } else if v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        // Rust prints integral values without an exponent, which C reads
        // as an integer literal that wraps past 2^64.
        format!("{v:e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{
        weights2, Component, DomainUnion, Expr, RectDomain, ShapeMap, Stencil, StencilGroup,
    };
    use snowflake_ir::{lower_group, LowerOptions};

    fn shapes(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        for g in ["x", "y"] {
            m.insert(g.to_string(), vec![n, n]);
        }
        m
    }

    fn lower(group: &StencilGroup, n: usize) -> Lowered {
        lower_group(group, &shapes(n), &LowerOptions::default()).unwrap()
    }

    #[test]
    fn emits_pragma_for_parallel_safe_kernel() {
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let src = emit_c(&lower(&group, 8), "snowflake_run");
        assert!(src.contains("#pragma omp parallel for"));
        assert!(src.contains("void snowflake_run(double** g)"));
        assert!(src.contains("double* restrict g0"));
        assert!(src.contains("for (long i0 = 1; i0 < 7; i0 += 1)"));
        // Laplacian center coefficient appears.
        assert!(src.contains("-4.0") || src.contains("* -4.0") || src.contains("-4"));
    }

    #[test]
    fn sequential_kernel_has_no_pragma() {
        // Lexicographic in-place propagation: pragma must be absent.
        let s = Stencil::new(Expr::read_at("x", &[0, -1]), "x", RectDomain::interior(2));
        let src = emit_c(&lower(&StencilGroup::from(s), 8), "run");
        assert!(!src.contains("#pragma"));
        assert!(src.contains("sequential: loop-carried dependence"));
    }

    #[test]
    fn red_black_union_emits_one_nest_per_rect() {
        let (red, _) = DomainUnion::red_black(2);
        let s = Stencil::new(
            Expr::read_at("x", &[0, 1]) + Expr::read_at("x", &[0, -1]),
            "x",
            red,
        );
        let src = emit_c(&lower(&StencilGroup::from(s), 10), "run");
        // Two strided rectangles -> two loop nests with stride 2.
        assert_eq!(src.matches("i0 += 2").count(), 2);
        assert_eq!(src.matches("i1 += 2").count(), 2);
    }

    #[test]
    fn index_arithmetic_folds_strides() {
        let s = Stencil::new(Expr::read_at("x", &[1, -1]), "y", RectDomain::interior(2));
        let src = emit_c(&lower(&StencilGroup::from(s), 8), "run");
        // shape 8x8 -> strides [8,1]; offset (1,-1) -> delta 8-1=7.
        assert!(src.contains("g0[i0*8 + i1 + 7]"), "{src}");
        assert!(src.contains("g1[i0*8 + i1] ="), "{src}");
    }

    #[test]
    fn specialized_kernel_emits_simd_and_left_fold() {
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let mut lowered = lower(&group, 8);
        crate::specialize::specialize_lowered(&mut lowered);
        let src = emit_c(&lowered, "run");
        assert!(src.contains("#pragma omp simd"), "{src}");
        assert!(src.contains("#pragma omp parallel for schedule(static)"));
        // Left-folded linear form (starts from the bias), not the tree.
        assert!(src.contains("(0.0 + "), "{src}");
    }

    #[test]
    fn sequential_linear_record_keeps_its_arithmetic_but_not_simd() {
        let s = Stencil::new(
            Expr::read_at("x", &[0, -1]) * 0.5,
            "x",
            RectDomain::interior(2),
        );
        let mut lowered = lower(&StencilGroup::from(s), 8);
        crate::specialize::specialize_lowered(&mut lowered);
        let src = emit_c(&lowered, "run");
        assert!(!src.contains("#pragma"), "{src}");
        assert!(src.contains("(0.0 + 0.5*g0["), "{src}");
    }

    #[test]
    fn tape_kernels_render_the_source_tree_with_simd() {
        let x = |j: i64| Expr::read_at("x", &[0, j]);
        let s = Stencil::new(x(0) * (x(1) - x(-1)), "y", RectDomain::interior(2));
        let mut lowered = lower(&StencilGroup::from(s), 8);
        crate::specialize::specialize_lowered(&mut lowered);
        let g = lowered.grid_names.iter().position(|n| n == "x").unwrap();
        let src = emit_c(&lowered, "run");
        assert!(src.contains("#pragma omp simd"), "{src}");
        let tree = format!("(g{g}[i0*8 + i1] * (g{g}[i0*8 + i1 + 1] - g{g}[i0*8 + i1 + -1]))");
        assert!(src.contains(&tree), "{src}");
    }

    #[test]
    fn float_literals_roundtrip() {
        assert_eq!(c_f64(2.0), "2.0");
        assert_eq!(c_f64(-4.0), "-4.0");
        assert_eq!(c_f64(0.1), "0.1");
        assert_eq!(c_f64(2.0 / 3.0), format!("{}", 2.0f64 / 3.0));
        assert_eq!(c_f64(-1e300), "-1e300");
        assert_eq!(c_f64(f64::INFINITY), "(1.0/0.0)");
    }
}
