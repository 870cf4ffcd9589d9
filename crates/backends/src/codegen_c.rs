//! C99 + OpenMP source emission: the code the paper's OpenMP
//! micro-compiler renders.
//!
//! One C function is generated per compiled stencil group, and its body
//! is one `#pragma omp parallel` region: the group runs on one thread
//! team however many kernels and phases it has. Inside the region:
//!
//! - every loop nest of a parallel-safe kernel is an
//!   `#pragma omp for schedule(static) nowait` worksharing loop,
//!   collapsed over every dimension but the innermost, so degenerate
//!   outer extents (boundary faces) still share their work;
//! - a kernel that is not parallel-safe runs its nests in union order
//!   under `#pragma omp single nowait`;
//! - consecutive barrier phases are separated by `#pragma omp barrier`,
//!   so dependent kernels never overlap while the kernels of one phase
//!   (independent by construction) run concurrently.
//!
//! The nests come from `nests`. A parallel-safe color union whose
//! members' outer lattices tile their hull exactly (every hull row belongs
//! to exactly one member, as in red-black and multicolor unions) is one
//! nest: the paper's multicolor reordering. Its outer loops step over the
//! hull and each member's innermost loop runs under that member's
//! outer-congruence guard, so one pass over memory serves every color
//! member instead of one pass per member. Any other union keeps one nest
//! per member; a single rectangle is the one-member nest with no guard.
//!
//! The generated code is consumed by [`crate::cjit::CJitBackend`], which
//! compiles it with the system C compiler and `dlopen`s the result —
//! reproducing the paper's JIT pipeline end to end.

use std::fmt::Write as _;

use snowflake_grid::Region;
use snowflake_ir::spec::{SpecForm, TapeOp};
use snowflake_ir::{Lowered, LoweredKernel};

use crate::exec::{nests, Nest};

/// Emit a complete C99 translation unit for a lowered group.
///
/// The entry point has signature `void <func>(double** g)` where `g[i]` is
/// the base pointer of grid `i` in the lowering's dense order
/// (`lowered.grid_names`).
pub fn emit_c(lowered: &Lowered, func: &str) -> String {
    let mut out = String::new();
    let grids: Vec<String> = lowered.grid_names.iter().map(|n| comment_safe(n)).collect();
    let _ = writeln!(
        out,
        "/* Generated by snowflake-backends::codegen_c.\n\
         * Grids (dense order): [{}]\n\
         * Phases: {:?}\n\
         */",
        grids.join(", "),
        lowered.phases
    );
    out.push_str("#include <stddef.h>\n\n");
    let bind: String = (0..lowered.grid_names.len())
        .map(|i| format!("        double* restrict g{i} = g[{i}];\n"))
        .collect();
    emit_team(&mut out, lowered, func, &bind, |out, _, kernel| {
        emit_kernel(out, kernel);
    });
    out
}

/// The function shape of both generated units (this module's C and
/// [`crate::codegen_ocl`]'s driver): `void <func>(double** g)`, whose body
/// is one `#pragma omp parallel` region opened by `prologue`, with each
/// phase's kernels in order behind their [`kernel_marker`]s, written by
/// `kernel(out, index, kernel)`, and one `#pragma omp barrier` between
/// consecutive phases. The plan check audits this contract.
pub(crate) fn emit_team(
    out: &mut String,
    lowered: &Lowered,
    func: &str,
    prologue: &str,
    mut kernel: impl FnMut(&mut String, usize, &LoweredKernel),
) {
    let _ = writeln!(
        out,
        "void {func}(double** g)\n{{\n#pragma omp parallel\n    {{"
    );
    out.push_str(prologue);
    for (pi, phase) in lowered.phases.iter().enumerate() {
        if pi > 0 {
            out.push_str("        #pragma omp barrier\n");
        }
        let _ = writeln!(out, "\n        /* ===== phase {pi} ===== */");
        for &ki in phase {
            let _ = writeln!(out, "        {}", kernel_marker(ki, &lowered.kernels[ki]));
            kernel(out, ki, &lowered.kernels[ki]);
        }
    }
    out.push_str("    }\n}\n");
}

/// `text` as it may appear inside a C comment: quoted and escaped like a
/// Rust string literal, with `*/` written `*\/`. The result cannot end
/// the comment or contain a line break, and distinct names stay distinct
/// (no Rust escape sequence starts `\/`).
pub(crate) fn comment_safe(text: &str) -> String {
    format!("{text:?}").replace("*/", "*\\/")
}

/// The comment that opens kernel `index`'s code. The index makes it unique
/// in the source even when two stencils share a name.
pub(crate) fn kernel_marker(index: usize, kernel: &LoweredKernel) -> String {
    format!(
        "/* kernel {index} {} ({}) */",
        comment_safe(&kernel.name),
        if kernel.parallel_safe {
            "parallel-safe"
        } else {
            "sequential: loop-carried dependence"
        }
    )
}

/// Emit every nest of one kernel inside the group's parallel region:
/// worksharing loops for a parallel-safe kernel, one `single` block for
/// a sequential one.
fn emit_kernel(out: &mut String, kernel: &LoweredKernel) {
    let store = format!(
        "g{}[{}] = {};",
        kernel.out_grid,
        index_string(kernel, kernel.out_class, kernel.out_delta),
        value_string(kernel)
    );
    let inner = |member: &Region| {
        let k = member.ndim() - 1;
        let (lo, hi, step) = (member.lo[k], member.hi[k], member.stride[k]);
        let header = format!("for (long i{k} = {lo}; i{k} < {hi}; i{k} += {step})");
        (header, store.clone())
    };
    if kernel.parallel_safe {
        for nest in nests(kernel) {
            emit_nest(out, &nest, true, 2, inner);
        }
    } else {
        out.push_str("        #pragma omp single nowait\n        {\n");
        for nest in nests(kernel) {
            emit_nest(out, &nest, false, 3, inner);
        }
        out.push_str("        }\n");
    }
}

/// `n` levels of indentation.
pub(crate) fn indent(n: usize) -> String {
    "    ".repeat(n)
}

/// Write `nest` at indentation `depth`: its worksharing pragma when
/// `parallel`, its outer loops `i0, i1, …`, and under each member's
/// outer-congruence guard its innermost loop, `inner(member)` = (the
/// loop's `for (…)` header, its one statement).
pub(crate) fn emit_nest(
    out: &mut String,
    nest: &Nest,
    parallel: bool,
    depth: usize,
    mut inner: impl FnMut(&Region) -> (String, String),
) {
    let outer = &nest.outer;
    let k = outer.ndim();
    if parallel {
        let collapse = if k > 1 {
            format!(" collapse({k})")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{}#pragma omp for schedule(static) nowait{collapse}",
            indent(depth)
        );
    }
    for d in 0..k {
        let _ = writeln!(
            out,
            "{}for (long i{d} = {}; i{d} < {}; i{d} += {}) {{",
            indent(depth + d),
            outer.lo[d],
            outer.hi[d],
            outer.stride[d]
        );
    }
    let body = depth + k;
    for member in &nest.members {
        let guard: Vec<String> = (0..k)
            .filter(|&d| member.stride[d] != outer.stride[d])
            .map(|d| format!("(i{d} - {}) % {} == 0", member.lo[d], member.stride[d]))
            .collect();
        let level = body + usize::from(!guard.is_empty());
        if !guard.is_empty() {
            let _ = writeln!(out, "{}if ({}) {{", indent(body), guard.join(" && "));
        }
        // A parallel-safe body has no loop-carried state, so the innermost
        // loop is explicitly vectorizable.
        if parallel && k > 0 {
            let _ = writeln!(out, "{}#pragma omp simd", indent(level));
        }
        let (header, stmt) = inner(member);
        let _ = writeln!(
            out,
            "{0}{header} {{\n{1}{stmt}\n{0}}}",
            indent(level),
            indent(level + 1)
        );
        if !guard.is_empty() {
            let _ = writeln!(out, "{}}}", indent(body));
        }
    }
    for d in (0..k).rev() {
        let _ = writeln!(out, "{}}}", indent(depth + d));
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
    fn emits_one_parallel_region_with_a_worksharing_nest() {
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let src = emit_c(&lower(&group, 8), "snowflake_run");
        assert_eq!(src.matches("#pragma omp parallel").count(), 1, "{src}");
        assert_eq!(
            src.matches("#pragma omp for schedule(static) nowait\n")
                .count(),
            1,
            "{src}"
        );
        assert!(!src.contains("#pragma omp single"), "{src}");
        assert!(!src.contains("#pragma omp barrier"), "{src}");
        assert!(src.contains("void snowflake_run(double** g)"));
        assert!(src.contains("double* restrict g0"));
        assert!(src.contains("for (long i0 = 1; i0 < 7; i0 += 1)"));
        // Laplacian center coefficient appears.
        assert!(src.contains("-4.0") || src.contains("* -4.0") || src.contains("-4"));
    }

    #[test]
    fn sequential_kernel_runs_under_single_in_union_order() {
        // Lexicographic in-place propagation over two rows, listed bottom
        // row first: one `single` block, no worksharing, union order kept.
        let rows = DomainUnion::new(vec![
            RectDomain::new(&[4, 1], &[5, -1], &[1, 1]),
            RectDomain::new(&[2, 1], &[3, -1], &[1, 1]),
        ]);
        let s = Stencil::new(Expr::read_at("x", &[0, -1]), "x", rows);
        let src = emit_c(&lower(&StencilGroup::from(s), 8), "run");
        assert!(src.contains("sequential: loop-carried dependence"), "{src}");
        assert_eq!(src.matches("#pragma omp single nowait").count(), 1, "{src}");
        assert!(!src.contains("#pragma omp for"), "{src}");
        assert!(!src.contains("#pragma omp simd"), "{src}");
        let single = src.find("#pragma omp single").unwrap();
        let first = src.find("for (long i0 = 4; i0 < 5; i0 += 1)").unwrap();
        let second = src.find("for (long i0 = 2; i0 < 3; i0 += 1)").unwrap();
        assert!(single < first && first < second, "{src}");
    }

    #[test]
    fn red_black_color_is_one_guarded_nest() {
        let mut m = ShapeMap::new();
        m.insert("x".to_string(), vec![10, 10, 10]);
        let (red, _) = DomainUnion::red_black(3);
        let s = Stencil::new(
            Expr::read_at("x", &[0, 0, 1]) + Expr::read_at("x", &[0, 0, -1]),
            "x",
            red,
        );
        let lowered = lower_group(&StencilGroup::from(s), &m, &LowerOptions::default()).unwrap();
        let src = emit_c(&lowered, "run");
        assert_eq!(nests(&lowered.kernels[0]).len(), 1);
        assert_eq!(
            src.matches("#pragma omp for schedule(static) nowait collapse(2)")
                .count(),
            1,
            "{src}"
        );
        // The outer loops sweep the hull row by row, once.
        assert_eq!(src.matches("for (long i0 = 1; i0 < 9; i0 += 1)").count(), 1);
        assert_eq!(src.matches("for (long i1 = 1; i1 < 9; i1 += 1)").count(), 1);
        // Four members, each an innermost loop under its guard.
        assert_eq!(src.matches("if ((i0 - ").count(), 4, "{src}");
        assert_eq!(src.matches("#pragma omp simd").count(), 4, "{src}");
        assert_eq!(src.matches("i2 += 2)").count(), 4, "{src}");
    }

    #[test]
    fn disjoint_rectangles_keep_one_nest_each() {
        // Two unit-stride blocks side by side share every congruence class:
        // no guard can tell their rows apart, so each keeps its own nest.
        let blocks = RectDomain::new(&[1, 1], &[4, -1], &[1, 1])
            + RectDomain::new(&[4, 1], &[-1, -1], &[1, 1]);
        let s = Stencil::new(Expr::read_at("x", &[0, 0]) * 2.0, "y", blocks);
        let lowered = lower(&StencilGroup::from(s), 8);
        let src = emit_c(&lowered, "run");
        assert_eq!(nests(&lowered.kernels[0]).len(), 2);
        assert_eq!(src.matches("#pragma omp for").count(), 2, "{src}");
        assert!(!src.contains("if ("), "{src}");
    }

    #[test]
    fn names_cannot_close_the_comments_they_are_rendered_in() {
        assert_eq!(comment_safe("a */ b"), r#""a *\/ b""#);
        assert_eq!(comment_safe("g*/h\n*/"), r#""g*\/h\n*\/""#);
        let s = Stencil::new(
            Expr::read_at("g*/h", &[0, 0]) * 2.0,
            "y",
            RectDomain::all(2),
        )
        .named("a */ b");
        let mut m = ShapeMap::new();
        m.insert("g*/h".to_string(), vec![4, 4]);
        m.insert("y".to_string(), vec![4, 4]);
        let lowered = lower_group(&StencilGroup::from(s), &m, &LowerOptions::default()).unwrap();
        let src = emit_c(&lowered, "run");
        // With the comments cut the way C cuts them, no quoted name is left
        // in the code.
        let (mut code, mut rest) = (String::new(), src.as_str());
        while let Some(open) = rest.find("/*") {
            code.push_str(&rest[..open]);
            let close = rest[open..].find("*/").expect("unterminated comment");
            rest = &rest[open + close + 2..];
        }
        code.push_str(rest);
        assert!(!code.contains('"'), "{code}");
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
        assert!(src.contains("#pragma omp for schedule(static) nowait"));
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
        assert!(!src.contains("#pragma omp simd"), "{src}");
        assert!(src.contains("#pragma omp single"), "{src}");
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
