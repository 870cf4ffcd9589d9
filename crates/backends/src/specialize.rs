//! The closed-form pass and the row executors that run its records.
//!
//! [`specialize_lowered`] is the step of lowering that extracts each
//! kernel's closed form ([`snowflake_ir::spec`]): constant-coefficient
//! linear stencils (7-point/27-point Laplacians, restriction and
//! interpolation weights, boundary reflections) and bounded sums of
//! products (variable-coefficient GSRB smooth). Every backend runs it on
//! every lowered group, so the record is the one arithmetic description the
//! executors below, the `checked` sanitizer and the C generator share.
//!
//! Parallel safety picks only the loop shape: rows of parallel-safe kernels
//! run through tight chunked loops over contiguous slices (unit stride) or
//! strided index chains, which LLVM auto-vectorizes; rows of sequential
//! kernels run point by point in canonical order, since a later point may
//! read what an earlier one wrote.
//!
//! **Bitwise contract**: every executor here performs, per output element,
//! the operation sequence of [`SpecKernel::eval`]. Chunking only reorders
//! work *across* independent elements of parallel-safe kernels — never
//! within one element — so all loop shapes agree bitwise with the
//! per-point reference. `tests/specialize_equivalence.rs` asserts this
//! against `checked` on the full HPGMG V-cycles.

#![allow(clippy::needless_range_loop)] // chunk indices address parallel fixed arrays

use std::convert::Infallible;

use snowflake_ir::spec::{SpecForm, SpecKernel, SpecLinear, SpecPoly};
use snowflake_ir::Lowered;

use crate::exec::MAX_CLASSES;
use crate::view::GridPtrs;

/// Row chunk length of the chunked executors: long enough to amortize
/// per-term loop overhead, short enough that acc/prod scratch stays in L1.
pub(crate) const CHUNK: usize = 128;

/// Largest term count monomorphized into a fused fixed-arity inner loop;
/// wider linear kernels use the dynamic-arity pass executor (bitwise
/// identical, just less completely unrolled).
const MAX_FUSED_ARITY: usize = 16;

/// Attach its closed form to every kernel whose bytecode has one, parallel
/// safe or not. Kernels with bytecode-only arithmetic keep `spec = None`.
pub fn specialize_lowered(lowered: &mut Lowered) {
    for kernel in &mut lowered.kernels {
        kernel.spec = SpecKernel::of(&kernel.program);
    }
}

/// Execute one row point by point in canonical order, each point finished
/// before the next is read.
///
/// # Safety
/// As `exec::run_kernel_region`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn run_row_spec_points(
    spec: &SpecKernel,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    count: i64,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    // count is a non-negative region extent; the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    let total = count as isize;
    for i in 0..total {
        let Ok(v) = spec.eval(|c, d| {
            let c = c as usize;
            Ok::<_, Infallible>(view.read(class_grid[c], cur[c] + d + i * inner_step[c]))
        });
        view.write(out_grid, out_start + i * out_step, v);
    }
}

/// Execute one specialized row with unit-stride cursors (all classes step
/// by 1 and the output steps by 1).
///
/// # Safety
/// As `exec::run_kernel_region`: `view` must hold valid pointers for the
/// shapes the kernel was lowered against, and no other thread may touch
/// the cells this row accesses. The kernel must be parallel-safe (the
/// chunked read-all-then-write-all order requires order-independence).
#[inline(always)]
pub(crate) unsafe fn run_row_spec_unit(
    spec: &SpecKernel,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    count: i64,
    out_grid: usize,
    out_start: isize,
) {
    // count is a non-negative region extent; the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    let total = count as usize;
    match &spec.form {
        SpecForm::Linear(sl) => {
            lin_unit_dispatch(sl, view, cur, class_grid, total, out_grid, out_start);
        }
        SpecForm::Poly(sp) => poly_unit(sp, view, cur, class_grid, total, out_grid, out_start),
    }
}

/// Execute one specialized row with arbitrary per-class strides (e.g. the
/// stride-2 red/black color rows of a GSRB smooth).
///
/// # Safety
/// As [`run_row_spec_unit`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn run_row_spec_strided(
    spec: &SpecKernel,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    count: i64,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    // count is a non-negative region extent; the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    let total = count as usize;
    match &spec.form {
        SpecForm::Linear(sl) => lin_strided(
            sl, view, cur, class_grid, inner_step, total, out_grid, out_start, out_step,
        ),
        SpecForm::Poly(sp) => poly_strided(
            sp, view, cur, class_grid, inner_step, total, out_grid, out_start, out_step,
        ),
    }
}

/// Monomorphize the fused unit-stride linear loop over the term count so
/// the inner accumulation fully unrolls and the chunk loop vectorizes.
unsafe fn lin_unit_dispatch(
    sl: &SpecLinear,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    macro_rules! arms {
        ($($n:literal),*) => {
            match sl.arity() {
                $($n => lin_unit_fixed::<$n>(sl, view, cur, class_grid, total, out_grid, out_start),)*
                _ => lin_unit_dyn(sl, view, cur, class_grid, total, out_grid, out_start),
            }
        };
    }
    arms!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16);
}

/// Fused fixed-arity unit-stride linear executor: one pass over the row
/// reading all `N` source slices, accumulating in term order per element.
unsafe fn lin_unit_fixed<const N: usize>(
    sl: &SpecLinear,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    debug_assert!(N <= MAX_FUSED_ARITY && sl.arity() == N);
    let bias = sl.bias;
    let mut coef = [0.0f64; N];
    coef.copy_from_slice(&sl.coeffs[..N]);
    let mut grid = [0usize; N];
    let mut start = [0isize; N];
    for t in 0..N {
        let c = sl.classes[t] as usize;
        grid[t] = class_grid[c];
        start[t] = cur[c] + sl.deltas[t];
    }
    let mut acc = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        {
            // Shared source-row borrows; released before the write below
            // (an in-place kernel's output row may alias a source row).
            let rows: [&[f64]; N] =
                std::array::from_fn(|t| view.row(grid[t], start[t] + done as isize, len));
            for i in 0..len {
                let mut v = bias;
                for t in 0..N {
                    v += coef[t] * *rows[t].get_unchecked(i);
                }
                acc[i] = v;
            }
        }
        let dst = view.row_mut(out_grid, out_start + done as isize, len);
        dst.copy_from_slice(&acc[..len]);
        done += len;
    }
}

/// Dynamic-arity unit-stride linear executor: per-term axpy passes over
/// the chunk (same per-element operation order as the fused form).
unsafe fn lin_unit_dyn(
    sl: &SpecLinear,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    let mut acc = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        acc[..len].fill(sl.bias);
        for t in 0..sl.arity() {
            let c = sl.classes[t] as usize;
            let k = sl.coeffs[t];
            let src = view.row(class_grid[c], cur[c] + sl.deltas[t] + done as isize, len);
            for (a, &s) in acc[..len].iter_mut().zip(src) {
                *a += k * s;
            }
        }
        let dst = view.row_mut(out_grid, out_start + done as isize, len);
        dst.copy_from_slice(&acc[..len]);
        done += len;
    }
}

/// Unit-stride sum-of-products executor: per term, a product pass over
/// the chunk then an accumulate pass, all over contiguous slices.
unsafe fn poly_unit(
    sp: &SpecPoly,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    let mut acc = [0.0f64; CHUNK];
    let mut prod = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        acc[..len].fill(sp.bias);
        let mut r = 0usize;
        for (t, &coeff) in sp.coeffs.iter().enumerate() {
            prod[..len].fill(coeff);
            for _ in 0..sp.lens[t] {
                let c = sp.read_classes[r] as usize;
                let src = view.row(
                    class_grid[c],
                    cur[c] + sp.read_deltas[r] + done as isize,
                    len,
                );
                for (p, &s) in prod[..len].iter_mut().zip(src) {
                    *p *= s;
                }
                r += 1;
            }
            for (a, &p) in acc[..len].iter_mut().zip(&prod[..len]) {
                *a += p;
            }
        }
        let dst = view.row_mut(out_grid, out_start + done as isize, len);
        dst.copy_from_slice(&acc[..len]);
        done += len;
    }
}

/// Strided linear executor: chunked axpy passes with per-term strides.
#[allow(clippy::too_many_arguments)]
unsafe fn lin_strided(
    sl: &SpecLinear,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    let mut acc = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        acc[..len].fill(sl.bias);
        for t in 0..sl.arity() {
            let c = sl.classes[t] as usize;
            let g = class_grid[c];
            let k = sl.coeffs[t];
            let st = inner_step[c];
            let start = cur[c] + sl.deltas[t] + done as isize * st;
            for i in 0..len {
                acc[i] += k * view.read(g, start + i as isize * st);
            }
        }
        for i in 0..len {
            view.write(out_grid, out_start + (done + i) as isize * out_step, acc[i]);
        }
        done += len;
    }
}

/// Strided sum-of-products executor — the GSRB red/black color rows land
/// here. Chunked per-read multiply passes break the per-point serial
/// multiply-accumulate chain of the generic path into independent
/// per-element work the compiler can pipeline and vectorize.
#[allow(clippy::too_many_arguments)]
unsafe fn poly_strided(
    sp: &SpecPoly,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    let mut acc = [0.0f64; CHUNK];
    let mut prod = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        acc[..len].fill(sp.bias);
        let mut r = 0usize;
        for (t, &coeff) in sp.coeffs.iter().enumerate() {
            prod[..len].fill(coeff);
            for _ in 0..sp.lens[t] {
                let c = sp.read_classes[r] as usize;
                let g = class_grid[c];
                let st = inner_step[c];
                let start = cur[c] + sp.read_deltas[r] + done as isize * st;
                for i in 0..len {
                    prod[i] *= view.read(g, start + i as isize * st);
                }
                r += 1;
            }
            for i in 0..len {
                acc[i] += prod[i];
            }
        }
        for i in 0..len {
            view.write(out_grid, out_start + (done + i) as isize * out_step, acc[i]);
        }
        done += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, CheckedBackend, SequentialBackend};
    use snowflake_core::{
        weights2, Component, DomainUnion, Expr, RectDomain, ShapeMap, Stencil, StencilGroup,
    };
    use snowflake_grid::{Grid, GridSet};
    use snowflake_ir::{lower_group, LowerOptions};

    /// Run `group` through `seq` (chunked, strided and per-point executors)
    /// and through `checked` (per-point `eval` with range-checked reads);
    /// every grid must come out bitwise identical.
    fn assert_seq_matches_checked(group: &StencilGroup, grids: &GridSet) {
        let shapes = grids.shapes();
        let mut seq = grids.clone();
        let mut checked = grids.clone();
        SequentialBackend::new()
            .compile(group, &shapes)
            .unwrap()
            .run(&mut seq)
            .unwrap();
        CheckedBackend::new()
            .compile(group, &shapes)
            .unwrap()
            .run(&mut checked)
            .unwrap();
        for name in grids.names() {
            assert_eq!(
                seq.get(name).unwrap().as_slice(),
                checked.get(name).unwrap().as_slice(),
                "grid {name} diverged"
            );
        }
    }

    /// Every loop shape against the per-point reference: unit linear
    /// (Laplacian), strided linear (red-black constant coefficient),
    /// strided poly (red-black variable coefficient) and a sequential
    /// in-place kernel.
    #[test]
    fn every_loop_shape_matches_per_point_evaluation() {
        let n = 18;
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let (red, black) = DomainUnion::red_black(2);
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let vc = m(0, 0)
            + Expr::read_at("beta", &[0, 0])
                * (Expr::read_at("rhs", &[0, 0]) - (m(1, 0) + m(-1, 0) + m(0, 1) + m(0, -1)));
        let groups: Vec<StencilGroup> = vec![
            StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2))),
            StencilGroup::new()
                .with(Stencil::new(m(0, 0) * 0.9 + 0.1, "mesh", red.clone()))
                .with(Stencil::new(m(0, 0) * 0.9 + 0.1, "mesh", black.clone())),
            StencilGroup::new()
                .with(Stencil::new(vc.clone(), "mesh", red))
                .with(Stencil::new(vc, "mesh", black)),
            StencilGroup::from(Stencil::new(
                m(0, -1) * 0.5 + Expr::read_at("beta", &[0, 0]) * m(-1, 0),
                "mesh",
                RectDomain::interior(2),
            )),
        ];
        let mut grids = GridSet::new();
        for (g, seed) in [("x", 1u64), ("y", 2), ("mesh", 3), ("rhs", 4), ("beta", 5)] {
            let mut grid = Grid::new(&[n, n]);
            grid.fill_random(seed, 0.5, 1.5);
            grids.insert(g, grid);
        }
        for group in &groups {
            assert_seq_matches_checked(group, &grids);
        }
    }

    #[test]
    fn closed_forms_attach_regardless_of_parallel_safety() {
        let x = |j: i64| Expr::read_at("x", &[0, j]);
        let group = StencilGroup::new()
            .with(Stencil::new(x(1) + x(-1), "y", RectDomain::interior(2)))
            .with(Stencil::new(x(-1) * 0.5, "x", RectDomain::interior(2)))
            .with(Stencil::new(x(0) * x(1), "y", RectDomain::interior(2)))
            .with(Stencil::new(
                Expr::Const(1.0) / x(0),
                "y",
                RectDomain::interior(2),
            ));
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![8, 8]);
        shapes.insert("y".into(), vec![8, 8]);
        let mut lowered = lower_group(&group, &shapes, &LowerOptions::default()).unwrap();
        assert!(lowered.kernels.iter().all(|k| k.spec.is_none()));
        specialize_lowered(&mut lowered);
        let k = &lowered.kernels;
        assert!(matches!(
            k[0].spec.as_ref().unwrap().form,
            SpecForm::Linear(_)
        ));
        assert!(!k[1].parallel_safe, "lexicographic in-place propagation");
        assert!(matches!(
            k[1].spec.as_ref().unwrap().form,
            SpecForm::Linear(_)
        ));
        assert!(matches!(
            k[2].spec.as_ref().unwrap().form,
            SpecForm::Poly(_)
        ));
        assert!(k[3].spec.is_none(), "division by a read stays bytecode");
    }

    #[test]
    fn wide_linear_kernels_use_the_dynamic_path_correctly() {
        // A full 27-point constant stencil — beyond MAX_FUSED_ARITY, so
        // the dynamic-arity executor runs. Results must stay bitwise equal.
        let mut e = Expr::Const(0.5);
        for di in -1i64..=1 {
            for dj in -1i64..=1 {
                for dk in -1i64..=1 {
                    e = e + Expr::read_at("x", &[di, dj, dk])
                        * (1.0 + (di * 9 + dj * 3 + dk) as f64 * 0.125);
                }
            }
        }
        let group = StencilGroup::from(Stencil::new(e, "y", RectDomain::interior(3)));
        let mut grids = GridSet::new();
        let mut x = Grid::new(&[10, 10, 10]);
        x.fill_random(9, -1.0, 1.0);
        grids.insert("x", x);
        grids.insert("y", Grid::new(&[10, 10, 10]));
        let mut lowered = lower_group(&group, &grids.shapes(), &LowerOptions::default()).unwrap();
        specialize_lowered(&mut lowered);
        let Some(SpecForm::Linear(sl)) = lowered.kernels[0].spec.as_ref().map(|s| &s.form) else {
            panic!("27-point stencil must linearize");
        };
        assert!(sl.arity() > MAX_FUSED_ARITY);
        assert_seq_matches_checked(&group, &grids);
    }
}
