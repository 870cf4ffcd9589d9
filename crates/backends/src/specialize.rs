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
//! A linear record runs one row loop, `lin_row`, whatever the kernel's
//! parallel safety and strides: for each point it folds `bias +
//! Σ coef[t]·src[t][i·step[t]]` in term order into a register and writes
//! the point before the next point's reads, so lexicographic Gauss-Seidel
//! kernels run in it too. It is monomorphized over the term count up to
//! `MAX_FUSED_ARITY`, and wider records run the same body with the count
//! known at run time.
//!
//! A tape runs as its fused program ([`FusedTape`]), built once per kernel
//! when the plan is built, since it does not depend on the region. An
//! instruction whose single-use operand is the previous instruction
//! absorbs it into one `dst = outer(inner(x, y), z)` lane loop (22 tape
//! instructions become 13 on the variable-coefficient GSRB update),
//! constants are scalar operands, and every operand is an address with a
//! step: a lane, a constant (step 0) or a grid row read in place. Only the
//! address a read resolves to depends on the chunk (`TapeLanes`):
//!
//! * **in place** — a parallel-safe kernel's rows of at least
//!   `IN_PLACE_ROW` points run chunk by chunk within the row: the reads
//!   used more than once are gathered into lanes, the single-use reads are
//!   taken from their grids at the row's step, and the last instruction
//!   writes the output row. A sequential kernel runs one-point chunks the
//!   same way, so each point is written before the next one's reads;
//! * **packed** — shorter rows (the coarse levels) gather every read into
//!   the next free lanes, a chunk spanning several rows, and once
//!   `TAPE_LANES` lanes are full the program runs and the value is
//!   scattered back.
//!
//! **Bitwise contract**: every executor here performs, per output element,
//! the operation sequence of [`SpecForm::eval`] — the merged fold for a
//! linear record, source-tree order for a tape. A tape's chunks only
//! reorder work *across* independent elements of parallel-safe kernels —
//! never within one element — so all loop shapes agree bitwise with the
//! per-point reference. `tests/specialize_equivalence.rs` asserts this against
//! `checked` on the full HPGMG V-cycles.

#![allow(clippy::needless_range_loop)] // chunk indices address parallel fixed arrays

use snowflake_ir::spec::{SpecForm, SpecLinear, SpecTape, TapeOp};
use snowflake_ir::Lowered;

use crate::exec::MAX_CLASSES;
use crate::view::GridPtrs;

/// Lanes per register of a parallel-safe tape kernel's buffer: its chunk
/// length. The buffer holds a lane per read and per fused instruction — 29
/// for the variable-coefficient GSRB update — so this is kept small enough
/// (15 KB of lanes there) to leave the buffer and the streamed grid rows
/// room in L1.
pub(crate) const TAPE_LANES: usize = 64;

/// Shortest row of a parallel-safe tape kernel that reads in place; the
/// rows of shorter ones are packed into full chunks across rows, since a
/// chunk pays one lane-loop call per fused instruction. A 64³ colour row
/// has 32 points, a 32³ one 16; the coarser levels pack.
pub(crate) const IN_PLACE_ROW: usize = 16;

/// Largest term count [`lin_row`] is monomorphized for; wider records run
/// the same loop with the count known only at run time (bitwise identical,
/// just not unrolled).
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

/// What the row executors run for one kernel, built once per kernel when
/// the plan is built: its linear record, or its tape's fused program.
pub(crate) enum RunForm {
    Linear(SpecLinear),
    Tape(FusedTape),
}

impl RunForm {
    pub(crate) fn of(form: &SpecForm) -> Self {
        match form {
            SpecForm::Linear(sl) => RunForm::Linear(sl.clone()),
            SpecForm::Tape(tape) => RunForm::Tape(FusedTape::of(tape)),
        }
    }
}

/// Execute one linear row of `total` points: for each point `i`, fold
/// `bias + Σ coef[t]·src[t][i·step[t]]` in term order into a register and
/// write `out[i·out_step]`, before the next point's reads. Each term's row
/// and the output row are taken through [`GridPtrs::at`] once, so a debug
/// build range-checks every row. Records of at most `MAX_FUSED_ARITY`
/// terms run the loop monomorphized over their term count, so the fold
/// fully unrolls; wider ones run the same loop body with the count known
/// only at run time.
///
/// # Safety
/// As `exec::run_nest`: `view` must hold valid pointers for the shapes the
/// kernel was lowered against, and no other thread may touch the cells
/// this row accesses. Since every point is written before the next one
/// reads, a kernel that is not parallel-safe (lexicographic Gauss-Seidel)
/// runs here too.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn lin_row(
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
    // The row of term `t`.
    let src = |t: usize| {
        let c = sl.classes[t] as usize;
        let step = inner_step[c];
        Addr {
            ptr: view.at(class_grid[c], cur[c] + sl.deltas[t], step, total),
            step,
        }
    };
    let out = Addr {
        ptr: view.at(out_grid, out_start, out_step, total),
        step: out_step,
    };
    macro_rules! arms {
        ($($n:literal),*) => {
            match sl.arity() {
                $($n => {
                    let coef: [f64; $n] = std::array::from_fn(|t| sl.coeffs[t]);
                    let src: [Addr; $n] = std::array::from_fn(src);
                    fold_row(sl.bias, &coef, &src, out, total);
                })*
                n => {
                    debug_assert!(n > MAX_FUSED_ARITY);
                    let src: Vec<Addr> = (0..n).map(src).collect();
                    fold_row(sl.bias, &sl.coeffs, &src, out, total);
                }
            }
        };
    }
    arms!(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16);
}

/// The one loop of [`lin_row`], inlined into each arity.
///
/// # Safety
/// `coef` and `src` have one entry per term, and every `src[t]` and `out`
/// address `total` in-bounds elements at their steps (what `lin_row`
/// range-checks in debug builds), with the obligations of `lin_row`.
#[inline(always)]
unsafe fn fold_row(bias: f64, coef: &[f64], src: &[Addr], out: Addr, total: usize) {
    for i in 0..total {
        let mut v = bias;
        for (&k, s) in coef.iter().zip(src) {
            v += k * *s.at(i);
        }
        *out.at(i) = v;
    }
}

/// The operation codes of the monomorphized lane loops: [`TapeOp`] as a
/// const generic.
const ADD: u8 = 0;
const SUB: u8 = 1;
const MUL: u8 = 2;
const DIV: u8 = 3;
const NEG: u8 = 4;

/// One operation on one element; `b` is ignored by `NEG`.
#[inline(always)]
fn apply<const OP: u8>(a: f64, b: f64) -> f64 {
    match OP {
        ADD => a + b,
        SUB => a - b,
        MUL => a * b,
        DIV => a / b,
        _ => -a,
    }
}

/// Where a register's elements lie during one chunk: element `i` at
/// `ptr + i·step` — a lane (step 1), a grid row read in place (the row's
/// step) or a constant (step 0).
#[derive(Clone, Copy)]
struct Addr {
    ptr: *mut f64,
    step: isize,
}

impl Addr {
    #[inline(always)]
    unsafe fn at(self, i: usize) -> *mut f64 {
        self.ptr.offset(i as isize * self.step)
    }
}

/// A fused instruction's lane loop over `n` elements: `(n, dst, x, y, z)`.
type LaneFn = unsafe fn(usize, Addr, Addr, Addr, Addr);

/// `dst = op(x, y)`.
unsafe fn lanes2<const O: u8>(n: usize, d: Addr, x: Addr, y: Addr, _: Addr) {
    for i in 0..n {
        *d.at(i) = apply::<O>(*x.at(i), *y.at(i));
    }
}

/// `dst = outer(inner(x, y), z)`.
unsafe fn lanes_left<const O: u8, const I: u8>(n: usize, d: Addr, x: Addr, y: Addr, z: Addr) {
    for i in 0..n {
        *d.at(i) = apply::<O>(apply::<I>(*x.at(i), *y.at(i)), *z.at(i));
    }
}

/// `dst = outer(z, inner(x, y))`.
unsafe fn lanes_right<const O: u8, const I: u8>(n: usize, d: Addr, x: Addr, y: Addr, z: Addr) {
    for i in 0..n {
        *d.at(i) = apply::<O>(*z.at(i), apply::<I>(*x.at(i), *y.at(i)));
    }
}

/// The lane loop of `outer`, alone or absorbing `inner` on the given side
/// (`true`: the left operand).
fn lane_fn(outer: TapeOp, inner: Option<(TapeOp, bool)>) -> LaneFn {
    fn with<const O: u8>(inner: Option<(TapeOp, bool)>) -> LaneFn {
        macro_rules! pick {
            ($f:ident, $op:expr) => {
                match $op {
                    TapeOp::Add => $f::<O, ADD>,
                    TapeOp::Sub => $f::<O, SUB>,
                    TapeOp::Mul => $f::<O, MUL>,
                    TapeOp::Div => $f::<O, DIV>,
                    TapeOp::Neg => $f::<O, NEG>,
                }
            };
        }
        match inner {
            None => lanes2::<O>,
            Some((op, true)) => pick!(lanes_left, op),
            Some((op, false)) => pick!(lanes_right, op),
        }
    }
    match outer {
        TapeOp::Add => with::<ADD>(inner),
        TapeOp::Sub => with::<SUB>(inner),
        TapeOp::Mul => with::<MUL>(inner),
        TapeOp::Div => with::<DIV>(inner),
        TapeOp::Neg => with::<NEG>(inner),
    }
}

/// One instruction of a fused program: `run` over the registers `dst`,
/// `x`, `y` and `z`, numbered as the tape numbers them.
#[derive(Clone, Copy)]
struct Fused {
    run: LaneFn,
    dst: u32,
    x: u32,
    y: u32,
    z: u32,
}

/// A tape kernel's fused program, built once per kernel when the plan is
/// built.
///
/// * An instruction whose single-use operand is the previous instruction
///   absorbs it into one `dst = outer(inner(x, y), z)` lane loop (or
///   `outer(z, inner(x, y))`), so the intermediate is never stored.
/// * Constants are scalar operands (step 0), not filled lanes.
/// * A read used once is an operand in place: on a chunk that lies in one
///   row it is taken straight from its grid at the row's step. Only the
///   reads used more than once are gathered into lanes there.
///
/// Every element still performs the tape's operations in the tape's order,
/// so the program is bitwise equal to [`SpecForm::eval`].
pub struct FusedTape {
    read_classes: Vec<u32>,
    read_deltas: Vec<isize>,
    /// Reads used once: in place on an in-place chunk.
    single: Vec<u32>,
    /// Reads used more than once: always gathered.
    shared: Vec<u32>,
    consts: Vec<f64>,
    instrs: Vec<Fused>,
    /// Registers of the tape, plus one when the program adds a copy.
    regs: usize,
}

impl FusedTape {
    /// The fused program of `tape`. Its last instruction writes the value:
    /// a tape whose value is not its last instruction's (a bare read, which
    /// specialization linearizes) ends with the exact copy `-(-value)`.
    pub fn of(tape: &SpecTape) -> FusedTape {
        let reads = tape.num_reads();
        let base = reads + tape.consts.len();
        let mut uses = vec![0u32; tape.num_regs()];
        uses[tape.out as usize] += 1;
        for ins in &tape.instrs {
            uses[ins.a as usize] += 1;
            if ins.op != TapeOp::Neg {
                uses[ins.b as usize] += 1;
            }
        }
        let mut instrs: Vec<Fused> = Vec::with_capacity(tape.instrs.len());
        // The previous tape instruction, while it stands alone.
        let mut alone: Option<TapeOp> = None;
        // Registers are numbered in u32 by the tape itself.
        #[allow(clippy::cast_possible_truncation)]
        for (k, ins) in tape.instrs.iter().enumerate() {
            let dst = (base + k) as u32;
            let prev = dst.wrapping_sub(1);
            let absorb =
                alone.filter(|_| uses[prev as usize] == 1 && (ins.a == prev || ins.b == prev));
            alone = Some(ins.op);
            let fused = match absorb {
                None => Fused {
                    run: lane_fn(ins.op, None),
                    dst,
                    x: ins.a,
                    y: ins.b,
                    z: ins.a,
                },
                Some(inner) => {
                    alone = None;
                    let p = instrs.pop().expect("the absorbed instruction");
                    // A negation's one operand is `a`; its `z` is unused.
                    let left = ins.a == prev;
                    let z = match (left, ins.op) {
                        (true, TapeOp::Neg) => p.x,
                        (true, _) => ins.b,
                        (false, _) => ins.a,
                    };
                    Fused {
                        run: lane_fn(ins.op, Some((inner, left))),
                        dst,
                        x: p.x,
                        y: p.y,
                        z,
                    }
                }
            };
            instrs.push(fused);
        }
        let mut regs = tape.num_regs();
        if tape.instrs.is_empty() || tape.out as usize != regs - 1 {
            #[allow(clippy::cast_possible_truncation)]
            instrs.push(Fused {
                run: lane_fn(TapeOp::Neg, Some((TapeOp::Neg, true))),
                dst: regs as u32,
                x: tape.out,
                y: tape.out,
                z: tape.out,
            });
            regs += 1;
        }
        #[allow(clippy::cast_possible_truncation)]
        let (shared, single): (Vec<u32>, Vec<u32>) =
            (0..reads as u32).partition(|&r| uses[r as usize] > 1);
        FusedTape {
            read_classes: tape.read_classes.clone(),
            read_deltas: tape.read_deltas.clone(),
            single,
            shared,
            consts: tape.consts.clone(),
            instrs,
            regs,
        }
    }

    /// Whether a parallel-safe kernel's rows of `row` points read in place
    /// (each chunk within one row) rather than packed across rows.
    pub fn reads_in_place(row: usize) -> bool {
        row >= IN_PLACE_ROW
    }

    /// The register the program's last instruction writes: the value.
    fn root(&self) -> usize {
        self.regs - 1
    }
}

/// A tape kernel's lanes over one region: `width` lanes per read and per
/// fused instruction, and each register's address during a chunk.
///
/// * **In place** (a sequential kernel's chunk of one point, or rows of at
///   least `IN_PLACE_ROW` points): each chunk lies in one row; the
///   multi-use reads are gathered, the single-use reads are addressed in
///   their grids, and the last instruction writes the output row.
/// * **Packed** (shorter rows): rows are gathered into consecutive lanes,
///   every read of them, and the program runs once the lanes are full or
///   the region ends, then the value is scattered to the pending rows.
pub(crate) struct TapeLanes<'k> {
    prog: &'k FusedTape,
    out_grid: usize,
    in_place: bool,
    /// Backing store of the lanes; reached only through `addrs`.
    _lanes: Vec<f64>,
    addrs: Vec<Addr>,
    width: usize,
    /// Lanes gathered but not yet computed and scattered (packed only).
    filled: usize,
    /// Output segments of the filled lanes, in lane order:
    /// `(first flat index, step, length)`.
    pending: Vec<(isize, isize, usize)>,
}

impl<'k> TapeLanes<'k> {
    /// Lanes for `prog`, writing `out_grid`, over chunks of at most `width`
    /// points, read in place or packed.
    pub(crate) fn new(prog: &'k FusedTape, out_grid: usize, width: usize, in_place: bool) -> Self {
        let reads = prog.read_classes.len();
        let mut lanes = vec![0.0; (reads + prog.instrs.len()) * width];
        let base = lanes.as_mut_ptr();
        // Lane `l` starts at element `l·width` of the backing store.
        let lane = |l: usize| Addr {
            ptr: base.wrapping_add(l * width),
            step: 1,
        };
        let none = Addr {
            ptr: std::ptr::null_mut(),
            step: 0,
        };
        let mut addrs = vec![none; prog.regs];
        for r in 0..reads {
            addrs[r] = lane(r);
        }
        for (k, c) in prog.consts.iter().enumerate() {
            addrs[reads + k] = Addr {
                // Never written: no instruction's destination is a constant.
                ptr: std::ptr::from_ref(c).cast_mut(),
                step: 0,
            };
        }
        for (j, ins) in prog.instrs.iter().enumerate() {
            addrs[ins.dst as usize] = lane(reads + j);
        }
        TapeLanes {
            prog,
            out_grid,
            in_place,
            _lanes: lanes,
            addrs,
            width,
            filled: 0,
            pending: Vec::new(),
        }
    }

    /// Run the program over the `count` points of one row: chunk by chunk
    /// in place, or gathered into the lanes (running the program whenever
    /// they fill up) when packed.
    ///
    /// # Safety
    /// As [`lin_row`], except that a sequential kernel is allowed when
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
        let prog = self.prog;
        let w = self.width;
        // The grid address of read `r` at point `done` of the row.
        let read = |r: u32, done: usize, len: usize| {
            let c = prog.read_classes[r as usize] as usize;
            let st = inner_step[c];
            let start = cur[c] + prog.read_deltas[r as usize] + done as isize * st;
            Addr {
                ptr: view.at(class_grid[c], start, st, len),
                step: st,
            }
        };
        let mut done = 0usize;
        while done < total {
            if self.in_place {
                let len = w.min(total - done);
                for &r in &prog.shared {
                    gather(self.addrs[r as usize].ptr, read(r, done, len), len);
                }
                for &r in &prog.single {
                    self.addrs[r as usize] = read(r, done, len);
                }
                let out = out_start + done as isize * out_step;
                self.addrs[prog.root()] = Addr {
                    ptr: view.at(self.out_grid, out, out_step, len),
                    step: out_step,
                };
                self.run(len);
                done += len;
            } else {
                let (lane, len) = (self.filled, (w - self.filled).min(total - done));
                for &r in prog.single.iter().chain(&prog.shared) {
                    let src = read(r, done, len);
                    gather(self.addrs[r as usize].ptr.add(lane), src, len);
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
    }

    /// Run the program over the packed lanes, then scatter the value to
    /// the pending segments.
    ///
    /// # Safety
    /// As [`TapeLanes::push_row`].
    pub(crate) unsafe fn flush(&mut self, view: &GridPtrs<'_>) {
        let len = self.filled;
        if len == 0 {
            return;
        }
        self.run(len);
        let mut value = self.addrs[self.prog.root()].ptr;
        for &(start, step, n) in &self.pending {
            let dst = Addr {
                ptr: view.at(self.out_grid, start, step, n),
                step,
            };
            for i in 0..n {
                *dst.at(i) = *value.add(i);
            }
            value = value.add(n);
        }
        self.pending.clear();
        self.filled = 0;
    }

    /// Run every fused instruction over the first `len` elements.
    #[inline(always)]
    unsafe fn run(&self, len: usize) {
        let a = &self.addrs;
        for ins in &self.prog.instrs {
            let reg = |r: u32| a[r as usize];
            (ins.run)(len, reg(ins.dst), reg(ins.x), reg(ins.y), reg(ins.z));
        }
    }
}

/// Copy `len` elements at `src` into the lane at `dst`.
#[inline(always)]
unsafe fn gather(dst: *mut f64, src: Addr, len: usize) {
    if src.step == 1 {
        std::ptr::copy_nonoverlapping(src.ptr, dst, len);
    } else {
        for i in 0..len {
            *dst.add(i) = *src.at(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, CheckedBackend, SequentialBackend};
    use snowflake_core::{
        weights2, AffineMap, Component, DomainUnion, Expr, RectDomain, ShapeMap, Stencil,
        StencilGroup,
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
    /// in-place linear kernel over a two-rectangle union (each point reads
    /// the one written just before it), a constant fill (arity 0), a
    /// sequential in-place tape whose single-use read is the cell it writes,
    /// a red-black tape doing the same in parallel, a restriction (reads at
    /// scale 2, unit-stride output), an interpolation (output at stride 2:
    /// unit-stride reads of the coarse grid, and the HPGMG correction that
    /// reads the cell it writes) and a 25-term record on stride-2 rows
    /// (wider than `MAX_FUSED_ARITY`). The rows run short and long: at unit
    /// stride and at stride 2 they fall on both sides of `IN_PLACE_ROW`,
    /// the longest stride-2 rows span several tape chunks, and the longest
    /// unit-stride rows exceed 128 and 256 points.
    #[test]
    fn every_loop_shape_matches_per_point_evaluation() {
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let (red, black) = DomainUnion::red_black(2);
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let vc = m(0, 0)
            + Expr::read_at("beta", &[0, 0])
                * (Expr::read_at("rhs", &[0, 0]) - (m(1, 0) + m(-1, 0) + m(0, 1) + m(0, -1)));
        // A single-use read of the written cell, then a neighbour of the
        // other colour.
        let own = m(0, 0) * Expr::read_at("beta", &[0, 0]) - m(0, 1);
        let to_fine = |o: [i64; 2]| AffineMap::scaled(vec![2, 2], o.to_vec());
        let fine = |g: &str, o: [i64; 2]| Expr::read_mapped(g, to_fine(o));
        let restrict = (fine("x", [-1, -1]) + fine("x", [-1, 0]))
            + (fine("x", [0, -1]) + fine("x", [0, 0])) * 0.25
            + 0.125;
        let c = |j: i64| Expr::read_at("c", &[0, j]);
        let mut wide = Expr::Const(0.5);
        for i in -2i64..=2 {
            for j in -2i64..=2 {
                wide = wide + Expr::read_at("x", &[i, j]) * (1.0 + (i * 5 + j) as f64 * 0.0625);
            }
        }
        let groups: Vec<StencilGroup> = vec![
            StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2))),
            StencilGroup::new()
                .with(Stencil::new(m(0, 0) * 0.9 + 0.1, "mesh", red.clone()))
                .with(Stencil::new(m(0, 0) * 0.9 + 0.1, "mesh", black.clone())),
            StencilGroup::new()
                .with(Stencil::new(vc.clone(), "mesh", red.clone()))
                .with(Stencil::new(vc, "mesh", black.clone())),
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
            StencilGroup::from(Stencil::new(
                m(0, -1) * Expr::read_at("beta", &[0, 0]) + m(0, 0),
                "mesh",
                RectDomain::interior(2),
            )),
            StencilGroup::new()
                .with(Stencil::new(own.clone(), "mesh", red))
                .with(Stencil::new(own, "mesh", black)),
            StencilGroup::from(Stencil::new(restrict, "c", RectDomain::interior(2))),
            StencilGroup::new()
                .with(
                    Stencil::new(c(0) * 0.5 - c(1) * 0.25, "y", RectDomain::interior(2))
                        .with_out_map(to_fine([0, -1])),
                )
                .with(
                    Stencil::new(
                        fine("mesh", [-1, 0]) + c(0),
                        "mesh",
                        RectDomain::interior(2),
                    )
                    .with_out_map(to_fine([-1, 0])),
                ),
            StencilGroup::from(Stencil::new(
                wide,
                "y",
                RectDomain::new(&[2, 2], &[-2, -2], &[2, 2]),
            )),
        ];
        // `c` is the coarse grid of the restriction and interpolation:
        // its interior points `p` reach fine points `2p - 1` and `2p`.
        let grids_of = |n: usize| {
            let mut grids = GridSet::new();
            for (g, seed) in [("x", 1u64), ("y", 2), ("mesh", 3), ("rhs", 4), ("beta", 5)] {
                let mut grid = Grid::new(&[12, n]);
                grid.fill_random(seed, 0.5, 1.5);
                grids.insert(g, grid);
            }
            let mut coarse = Grid::new(&[6, (n - 2) / 2 + 2]);
            coarse.fill_random(6, 0.5, 1.5);
            grids.insert("c", coarse);
            grids
        };
        let grids = grids_of(18);
        // The sequential union, the fill and the own-cell tape take paths no
        // benchmark kernel does.
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
        let own_cell = form(&groups[7]);
        assert!(!own_cell.parallel_safe && matches!(own_cell.form, SpecForm::Tape(_)));
        let restriction = form(&groups[9]);
        assert!(matches!(&restriction.form, SpecForm::Linear(sl) if sl.arity() == 4));
        assert!(restriction.classes.iter().any(|cl| cl.step(1, 1) == 2));
        let interpolation = form(&groups[10]);
        assert!(matches!(&interpolation.form, SpecForm::Linear(sl) if sl.arity() == 2));
        let out = &interpolation.classes[interpolation.out_class as usize];
        assert_eq!(out.step(1, 1), 2, "the output steps by 2 along a row");
        let wide = form(&groups[11]);
        assert!(matches!(&wide.form, SpecForm::Linear(sl) if sl.arity() > MAX_FUSED_ARITY));
        // Interiors of IN_PLACE_ROW ± 1 points at unit stride, of 15 and 16
        // points at stride 2, of 2·TAPE_LANES + 6, and of 263 (more than
        // two 128-point spans).
        for interior in [
            IN_PLACE_ROW - 1,
            IN_PLACE_ROW + 1,
            2 * IN_PLACE_ROW - 2,
            2 * IN_PLACE_ROW,
            2 * TAPE_LANES + 6,
            263,
        ] {
            let grids = grids_of(interior + 2);
            for group in &groups {
                assert_seq_matches_checked(group, &grids);
            }
        }
    }

    /// Only an intermediate used once is absorbed: a tape (built by hand,
    /// since a source tree uses every node once) whose `x·y` feeds one
    /// instruction twice keeps it as a lane.
    #[test]
    fn only_single_use_intermediates_fuse() {
        use snowflake_ir::spec::TapeInstr;
        let ins = |op, a, b| TapeInstr { op, a, b };
        // Registers: reads 0 and 1, then one per instruction from 2.
        let tape = SpecTape {
            read_classes: vec![0, 0],
            read_deltas: vec![0, 1],
            consts: vec![],
            instrs: vec![ins(TapeOp::Mul, 0, 1), ins(TapeOp::Add, 2, 2)],
            out: 3,
        };
        assert_eq!(FusedTape::of(&tape).instrs.len(), 2);
        let chain = SpecTape {
            instrs: vec![
                ins(TapeOp::Mul, 0, 1),
                ins(TapeOp::Add, 2, 1),
                ins(TapeOp::Sub, 3, 0),
            ],
            out: 4,
            ..tape
        };
        assert_eq!(
            FusedTape::of(&chain).instrs.len(),
            2,
            "a pair absorbs nothing more"
        );
    }

    /// HPGMG's variable-coefficient GSRB update (a = 0, b = 1, h⁻² = 64)
    /// on a 64³ interior: the fused program has fewer instructions than the
    /// tape's 22, and on a long row only the one multi-use read — the
    /// centre `x` — is gathered into lanes; the 14 single-use reads are
    /// taken in place. Short rows still gather all 15.
    #[test]
    fn vc_gsrb_update_fuses_and_reads_in_place() {
        let rd = |g: &str, o: [i64; 3]| Expr::read_at(g, &o);
        let x = |o: [i64; 3]| rd("x", o);
        let flux = rd("beta_x", [1, 0, 0]) * (x([1, 0, 0]) - x([0, 0, 0]))
            - rd("beta_x", [0, 0, 0]) * (x([0, 0, 0]) - x([-1, 0, 0]))
            + rd("beta_y", [0, 1, 0]) * (x([0, 1, 0]) - x([0, 0, 0]))
            - rd("beta_y", [0, 0, 0]) * (x([0, 0, 0]) - x([0, -1, 0]))
            + rd("beta_z", [0, 0, 1]) * (x([0, 0, 1]) - x([0, 0, 0]))
            - rd("beta_z", [0, 0, 0]) * (x([0, 0, 0]) - x([0, 0, -1]));
        let ax =
            Expr::Const(0.0) * rd("alpha", [0, 0, 0]) * x([0, 0, 0]) - Expr::Const(64.0) * flux;
        let update = x([0, 0, 0]) + rd("dinv", [0, 0, 0]) * (rd("rhs", [0, 0, 0]) - ax);
        let (red, _) = DomainUnion::red_black(3);
        let group = StencilGroup::from(Stencil::new(update, "x", red));
        let mut shapes = ShapeMap::new();
        for g in ["x", "rhs", "dinv", "alpha", "beta_x", "beta_y", "beta_z"] {
            shapes.insert(g.into(), vec![66, 66, 66]);
        }
        let mut lowered = lower_group(&group, &shapes, &LowerOptions::default()).unwrap();
        specialize_lowered(&mut lowered);
        let SpecForm::Tape(tape) = &lowered.kernels[0].form else {
            panic!("the variable-coefficient update must be a tape");
        };
        assert_eq!(tape.instrs.len(), 22);
        let fused = FusedTape::of(tape);
        assert!(
            fused.instrs.len() < 22,
            "{} instructions",
            fused.instrs.len()
        );
        // A 64³ colour row has 32 points: only the shared reads gather.
        assert!(FusedTape::reads_in_place(32));
        assert_eq!(fused.shared.len(), 1);
        // Packed rows gather every read.
        assert!(!FusedTape::reads_in_place(2));
        assert_eq!(fused.read_classes.len(), 15);
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
