//! The closed-form pass and the row executors that run its records.
//!
//! Lowering gives every kernel the register tape of its source tree
//! ([`snowflake_ir::spec`]). [`specialize_lowered`] is the step that swaps
//! each tape that linearizes for its constant-coefficient linear record
//! (7-point/27-point Laplacians, restriction and interpolation weights,
//! boundary reflections); the rest stay tapes (the variable-coefficient
//! GSRB smooth and residual, division by a read, anything deeply nested).
//! Every backend runs it on every lowered group, so the record is the one
//! arithmetic description the executors below, the `checked` sanitizer and
//! the C generator share.
//!
//! Parallel safety and strides pick only the loop shape; there are two
//! linear loops. A parallel-safe kernel whose cursors all step by 1 and
//! whose record has at most `MAX_FUSED_ARITY` terms runs the fused loop
//! (`lin_unit`), monomorphized over its term count. Every other linear
//! row runs the axpy passes of `lin_strided` over chunks — contiguous
//! slices for unit-stride terms, strided index chains otherwise — and a
//! sequential kernel passes a chunk of one point, since a later point may
//! read what an earlier one wrote. LLVM auto-vectorizes both loops.
//!
//! A tape runs over a lane buffer (`TapeLanes`): each row of a
//! parallel-safe kernel gathers every distinct read into the next free
//! lanes (a slice copy at unit stride, a strided gather otherwise), and
//! once `TAPE_LANES` lanes are full — a chunk may span several short rows —
//! every instruction runs as one unit-stride lane loop and the output
//! register is scattered back. A sequential kernel runs the same tape one
//! lane — one point — at a time.
//!
//! **Bitwise contract**: every executor here performs, per output element,
//! the operation sequence of [`SpecForm::eval`] — the merged fold for a
//! linear record, source-tree order for a tape. Chunking only reorders work
//! *across* independent elements of parallel-safe kernels — never within
//! one element — so all loop shapes agree bitwise with the per-point
//! reference. `tests/specialize_equivalence.rs` asserts this against
//! `checked` on the full HPGMG V-cycles.

#![allow(clippy::needless_range_loop)] // chunk indices address parallel fixed arrays

use snowflake_ir::spec::{SpecForm, SpecLinear, SpecTape, TapeOp};
use snowflake_ir::Lowered;

use crate::exec::MAX_CLASSES;
use crate::view::GridPtrs;

/// Row chunk length of the chunked linear executors: long enough to
/// amortize per-term loop overhead, short enough that the accumulator
/// scratch stays in L1.
pub(crate) const CHUNK: usize = 128;

/// Lanes per register of a parallel-safe tape kernel's buffer. The buffer
/// holds every register — 38 for the variable-coefficient GSRB update — so
/// this is kept at half of `CHUNK` to leave the buffer and the streamed
/// grid rows room in L1.
pub(crate) const TAPE_LANES: usize = 64;

/// Largest term count monomorphized into a fused fixed-arity inner loop;
/// wider linear kernels run the axpy passes of [`lin_strided`] (bitwise
/// identical, just less completely unrolled).
pub(crate) const MAX_FUSED_ARITY: usize = 16;

/// Swap every kernel's tape for its linear record when it linearizes,
/// parallel safe or not.
pub fn specialize_lowered(lowered: &mut Lowered) {
    for kernel in &mut lowered.kernels {
        if let SpecForm::Tape(tape) = &kernel.form {
            if let Some(sl) = tape.linearize() {
                kernel.form = SpecForm::Linear(sl);
            }
        }
    }
}

/// Execute one linear row of a parallel-safe kernel whose cursors all
/// step by 1 and whose record has at most `MAX_FUSED_ARITY` terms.
/// Monomorphizes the fused loop over the term count so the inner
/// accumulation fully unrolls and the chunk loop vectorizes.
///
/// # Safety
/// As `exec::run_fused_region`: `view` must hold valid pointers for the
/// shapes the kernel was lowered against, and no other thread may touch
/// the cells this row accesses. The kernel must be parallel-safe (the
/// chunked read-all-then-write-all order requires order-independence).
pub(crate) unsafe fn lin_unit(
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
                n => unreachable!("fused linear loop of arity {n} > {MAX_FUSED_ARITY}"),
            }
        };
    }
    arms!(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16);
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

/// Execute one linear row with arbitrary per-class strides (e.g. the
/// stride-2 red/black color rows of a constant-coefficient GSRB smooth):
/// per-term axpy passes over chunks of at most `chunk` points, borrowing
/// a slice for a unit-stride term. A sequential kernel passes a chunk of
/// one, so each point is written before the next one's reads.
///
/// # Safety
/// As [`lin_unit`], except that a sequential kernel is allowed when
/// `chunk == 1`; `chunk` must not exceed `CHUNK`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn lin_strided(
    sl: &SpecLinear,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    total: usize,
    chunk: usize,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    let mut buf = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = chunk.min(total - done);
        let acc = &mut buf[..len];
        acc.fill(sl.bias);
        for t in 0..sl.arity() {
            let c = sl.classes[t] as usize;
            let g = class_grid[c];
            let k = sl.coeffs[t];
            let st = inner_step[c];
            let start = cur[c] + sl.deltas[t] + done as isize * st;
            if st == 1 {
                for (a, &s) in acc.iter_mut().zip(view.row(g, start, len)) {
                    *a += k * s;
                }
            } else {
                for (i, a) in acc.iter_mut().enumerate() {
                    *a += k * view.read(g, start + i as isize * st);
                }
            }
        }
        let out = out_start + done as isize * out_step;
        if out_step == 1 {
            view.row_mut(out_grid, out, len).copy_from_slice(acc);
        } else {
            for (i, &v) in acc.iter().enumerate() {
                view.write(out_grid, out + i as isize * out_step, v);
            }
        }
        done += len;
    }
}

/// A tape kernel's lane buffer over one region: `width` lanes per
/// register, laid out register-major, with the constant registers filled
/// once. Rows are gathered into consecutive lanes — a parallel-safe
/// kernel's chunk may span several short rows — and the instructions run
/// once the lanes are full or the region ends.
pub(crate) struct TapeLanes<'k> {
    tape: &'k SpecTape,
    out_grid: usize,
    regs: Vec<f64>,
    width: usize,
    /// Lanes gathered but not yet computed and scattered.
    filled: usize,
    /// Output segments of the filled lanes, in lane order:
    /// `(first flat index, step, length)`.
    pending: Vec<(isize, isize, usize)>,
}

impl<'k> TapeLanes<'k> {
    /// Lanes for `tape`, writing `out_grid`, over chunks of at most `width`
    /// points: size it from the region (`TAPE_LANES` at most) for a
    /// parallel-safe kernel, and use one lane for a sequential kernel,
    /// whose points each complete before the next one's reads.
    pub(crate) fn new(tape: &'k SpecTape, out_grid: usize, width: usize) -> Self {
        let mut regs = vec![0.0; tape.num_regs() * width];
        let base = tape.num_reads();
        for (k, &c) in tape.consts.iter().enumerate() {
            regs[(base + k) * width..][..width].fill(c);
        }
        TapeLanes {
            tape,
            out_grid,
            regs,
            width,
            filled: 0,
            pending: Vec::new(),
        }
    }

    /// Gather the `count` points of one row into the lanes, running the
    /// tape whenever they fill up.
    ///
    /// # Safety
    /// As [`lin_unit`], except that a sequential kernel is allowed when
    /// `width == 1`; [`TapeLanes::flush`] must run before the region's
    /// cells are used elsewhere.
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn push_row(
        &mut self,
        view: &GridPtrs<'_>,
        cur: &[isize; MAX_CLASSES],
        class_grid: &[usize; MAX_CLASSES],
        inner_step: &[isize; MAX_CLASSES],
        total: usize,
        out_start: isize,
        out_step: isize,
    ) {
        let (tape, w) = (self.tape, self.width);
        let mut done = 0usize;
        while done < total {
            let (lane, len) = (self.filled, (w - self.filled).min(total - done));
            for r in 0..tape.num_reads() {
                let c = tape.read_classes[r] as usize;
                let (g, st) = (class_grid[c], inner_step[c]);
                let start = cur[c] + tape.read_deltas[r] + done as isize * st;
                let dst = &mut self.regs[r * w + lane..][..len];
                if st == 1 {
                    dst.copy_from_slice(view.row(g, start, len));
                } else {
                    for (i, d) in dst.iter_mut().enumerate() {
                        *d = view.read(g, start + i as isize * st);
                    }
                }
            }
            self.pending
                .push((out_start + done as isize * out_step, out_step, len));
            self.filled += len;
            done += len;
            if self.filled == w {
                self.flush(view);
            }
        }
    }

    /// Run the instructions over the filled lanes, then scatter the output
    /// register to the pending segments.
    ///
    /// # Safety
    /// As [`TapeLanes::push_row`].
    pub(crate) unsafe fn flush(&mut self, view: &GridPtrs<'_>) {
        let (tape, w, len) = (self.tape, self.width, self.filled);
        if len == 0 {
            return;
        }
        let instr_base = tape.num_reads() + tape.consts.len();
        for (k, ins) in tape.instrs.iter().enumerate() {
            let (src, dst) = self.regs.split_at_mut((instr_base + k) * w);
            let a = &src[ins.a as usize * w..][..len];
            let b = &src[ins.b as usize * w..][..len];
            let d = &mut dst[..len];
            match ins.op {
                TapeOp::Add => lane_op(d, a, b, |x, y| x + y),
                TapeOp::Sub => lane_op(d, a, b, |x, y| x - y),
                TapeOp::Mul => lane_op(d, a, b, |x, y| x * y),
                TapeOp::Div => lane_op(d, a, b, |x, y| x / y),
                TapeOp::Neg => lane_op(d, a, b, |x, _| -x),
            }
        }
        let mut out = &self.regs[tape.out as usize * w..][..len];
        for &(start, step, n) in &self.pending {
            let (seg, rest) = out.split_at(n);
            if step == 1 {
                view.row_mut(self.out_grid, start, n).copy_from_slice(seg);
            } else {
                for (i, &v) in seg.iter().enumerate() {
                    view.write(self.out_grid, start + i as isize * step, v);
                }
            }
            out = rest;
        }
        self.pending.clear();
        self.filled = 0;
    }
}

/// One instruction over a chunk of lanes: `d[i] = f(a[i], b[i])`.
#[inline(always)]
fn lane_op(d: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((d, &x), &y) in d.iter_mut().zip(a).zip(b) {
        *d = f(x, y);
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
    use snowflake_ir::{lower_group, LowerOptions, SpecForm};

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
    /// strided tape (red-black variable coefficient), a sequential in-place
    /// tape kernel, a unit-stride tape dividing by a read, a sequential
    /// in-place linear kernel over a two-rectangle union (axpy passes one
    /// point at a time) and a constant fill (the fused loop at arity 0).
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
            StencilGroup::from(Stencil::new(
                (Expr::read_at("x", &[0, 1]) - Expr::read_at("x", &[0, -1]))
                    / Expr::read_at("beta", &[0, 0]),
                "y",
                RectDomain::interior(2),
            )),
            StencilGroup::from(Stencil::new(
                m(0, -1) * 0.5 + m(-1, 0) * 0.25 + 0.125,
                "mesh",
                RectDomain::new(&[1, 1], &[9, -1], &[1, 1])
                    + RectDomain::new(&[9, 1], &[-1, -1], &[1, 1]),
            )),
            StencilGroup::from(Stencil::new(
                Expr::Const(0.25),
                "y",
                RectDomain::interior(2),
            )),
        ];
        let mut grids = GridSet::new();
        for (g, seed) in [("x", 1u64), ("y", 2), ("mesh", 3), ("rhs", 4), ("beta", 5)] {
            let mut grid = Grid::new(&[n, n]);
            grid.fill_random(seed, 0.5, 1.5);
            grids.insert(g, grid);
        }
        // The last two kernels take the paths no benchmark kernel does.
        let form = |group: &StencilGroup| {
            let mut lowered =
                lower_group(group, &grids.shapes(), &LowerOptions::default()).unwrap();
            specialize_lowered(&mut lowered);
            lowered.kernels.swap_remove(0)
        };
        let seq_union = form(&groups[5]);
        assert!(!seq_union.parallel_safe && seq_union.regions.len() == 2);
        assert!(matches!(seq_union.form, SpecForm::Linear(_)));
        let fill = form(&groups[6]);
        assert!(matches!(&fill.form, SpecForm::Linear(sl) if sl.arity() == 0));
        for group in &groups {
            assert_seq_matches_checked(group, &grids);
        }
    }

    #[test]
    fn tapes_linearize_regardless_of_parallel_safety() {
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
        assert!(lowered
            .kernels
            .iter()
            .all(|k| matches!(k.form, SpecForm::Tape(_))));
        specialize_lowered(&mut lowered);
        let forms: Vec<&SpecForm> = lowered.kernels.iter().map(|k| &k.form).collect();
        assert!(matches!(forms[0], SpecForm::Linear(_)));
        assert!(
            !lowered.kernels[1].parallel_safe,
            "lexicographic in-place propagation"
        );
        assert!(matches!(forms[1], SpecForm::Linear(_)));
        assert!(matches!(forms[2], SpecForm::Tape(_)), "product of reads");
        assert!(matches!(forms[3], SpecForm::Tape(_)), "division by a read");
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
        let SpecForm::Linear(sl) = &lowered.kernels[0].form else {
            panic!("27-point stencil must linearize");
        };
        assert!(sl.arity() > MAX_FUSED_ARITY);
        assert_seq_matches_checked(&group, &grids);
    }
}
