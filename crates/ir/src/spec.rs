//! Closed-form kernels: the one arithmetic IR of a lowered kernel.
//!
//! Every [`LoweredKernel`](crate::LoweredKernel) carries a [`SpecForm`],
//! one of two records:
//!
//! * **tape** ([`SpecTape`]) — what [`lower_group`](crate::lower_group)
//!   builds from each constant-folded source tree: a straight-line register
//!   program in tree order, with each distinct `(class, delta)` read loaded
//!   once. Variable coefficients, division by a read and arbitrarily deep
//!   nesting all fit.
//! * **linear** ([`SpecLinear`]) — a constant-coefficient combination of
//!   reads ([`SpecTape::linearize`]), stored structure-of-arrays so
//!   executors run tight unit-stride inner loops over parallel
//!   coefficient/offset tables and the C generator renders a flat left
//!   fold. The backends' specialization pass swaps every tape that
//!   linearizes for its linear record.
//!
//! **Bitwise contract**: a record fixes the floating-point operation
//! sequence per element, which [`SpecForm::eval`] spells out. A linear
//! form is the *merged fold* of the source — `acc = bias; acc += coeff·read`
//! in term order, a re-association fixed once at specialization. A tape
//! keeps the *source-tree order*: each instruction is one node of the
//! simplified expression, so a tape kernel computes exactly what the
//! tree-walking interpreter computes. Every executor (chunked, strided,
//! point by point, range-checked, generated C) performs exactly the
//! record's sequence per element, so they all agree bitwise.

/// A constant-coefficient linear stencil,
/// `bias + Σ_t coeffs[t] · grid[cursor[classes[t]] + deltas[t]]`,
/// with each per-term table stored contiguously.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecLinear {
    /// Constant bias (the accumulator's initial value).
    pub bias: f64,
    /// Cursor class per term.
    pub classes: Vec<u32>,
    /// Precomputed flat element offset per term.
    pub deltas: Vec<isize>,
    /// Coefficient per term.
    pub coeffs: Vec<f64>,
}

impl SpecLinear {
    /// Number of terms.
    pub fn arity(&self) -> usize {
        self.coeffs.len()
    }
}

/// The operation of one tape instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeOp {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `-a` (`b` is ignored).
    Neg,
}

impl TapeOp {
    /// Apply the operation to one element.
    #[inline(always)]
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            TapeOp::Add => a + b,
            TapeOp::Sub => a - b,
            TapeOp::Mul => a * b,
            TapeOp::Div => a / b,
            TapeOp::Neg => -a,
        }
    }
}

/// One tape instruction: `regs[dst] = op(regs[a], regs[b])`, where `dst`
/// is the instruction's own register (see [`SpecTape`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapeInstr {
    /// The operation.
    pub op: TapeOp,
    /// First operand register.
    pub a: u32,
    /// Second operand register (equal to `a` for `Neg`).
    pub b: u32,
}

/// A straight-line register program of a kernel's source tree.
///
/// Registers are numbered in three consecutive blocks: one per distinct
/// read (`read_classes[r]`, `read_deltas[r]`, in first-use order), one per
/// distinct constant (`consts`), then one per instruction, instruction `i`
/// writing register `num_reads() + consts.len() + i`. Operands always
/// name lower registers, so executors may evaluate the instructions in
/// order over lane buffers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpecTape {
    /// Cursor class per distinct read.
    pub read_classes: Vec<u32>,
    /// Flat element offset per distinct read.
    pub read_deltas: Vec<isize>,
    /// Distinct constants.
    pub consts: Vec<f64>,
    /// Instructions in source-tree (postfix) order.
    pub instrs: Vec<TapeInstr>,
    /// Register holding the kernel's value.
    pub out: u32,
}

impl SpecTape {
    /// Number of distinct reads.
    pub fn num_reads(&self) -> usize {
        self.read_classes.len()
    }

    /// Total registers: reads, constants and instructions.
    pub fn num_regs(&self) -> usize {
        self.num_reads() + self.consts.len() + self.instrs.len()
    }

    /// The tape as a constant-coefficient linear record, or `None` when it
    /// multiplies or divides two read-dependent values.
    ///
    /// Every register is folded, in order, into `bias + Σ coeff·read`:
    /// terms merge per distinct `(class, delta)` in first-use order, and
    /// scalars multiply into the bias and every coefficient. This fixes the
    /// record's term order and coefficient bits.
    pub fn linearize(&self) -> Option<SpecLinear> {
        /// One register's value, `bias + Σ k·grid[cursor[class] + delta]`.
        #[derive(Clone)]
        struct Sym {
            bias: f64,
            terms: Vec<(u32, isize, f64)>,
        }
        let reads = (0..self.num_reads()).map(|r| Sym {
            bias: 0.0,
            terms: vec![(self.read_classes[r], self.read_deltas[r], 1.0)],
        });
        let consts = self.consts.iter().map(|&c| Sym {
            bias: c,
            terms: vec![],
        });
        let mut regs: Vec<Sym> = reads.chain(consts).collect();
        for ins in &self.instrs {
            let mut a = regs[ins.a as usize].clone();
            let b = &regs[ins.b as usize];
            match ins.op {
                TapeOp::Add | TapeOp::Sub => {
                    let sign = if ins.op == TapeOp::Sub { -1.0 } else { 1.0 };
                    a.bias += sign * b.bias;
                    for &(c, d, k) in &b.terms {
                        merge_term(&mut a.terms, c, d, sign * k);
                    }
                }
                TapeOp::Mul => {
                    let scalar = if a.terms.is_empty() {
                        let scalar = a.bias;
                        a = b.clone();
                        scalar
                    } else if b.terms.is_empty() {
                        b.bias
                    } else {
                        return None; // read × read: not linear
                    };
                    a.bias *= scalar;
                    for t in &mut a.terms {
                        t.2 *= scalar;
                    }
                }
                TapeOp::Div => {
                    if !b.terms.is_empty() {
                        return None; // divide by a read: not linear
                    }
                    a.bias /= b.bias;
                    for t in &mut a.terms {
                        t.2 /= b.bias;
                    }
                }
                TapeOp::Neg => {
                    a.bias = -a.bias;
                    for t in &mut a.terms {
                        t.2 = -t.2;
                    }
                }
            }
            regs.push(a);
        }
        let top = &regs[self.out as usize];
        Some(SpecLinear {
            bias: top.bias,
            classes: top.terms.iter().map(|t| t.0).collect(),
            deltas: top.terms.iter().map(|t| t.1).collect(),
            coeffs: top.terms.iter().map(|t| t.2).collect(),
        })
    }
}

fn merge_term(terms: &mut Vec<(u32, isize, f64)>, class: u32, delta: isize, coeff: f64) {
    if let Some(t) = terms.iter_mut().find(|t| t.0 == class && t.1 == delta) {
        t.2 += coeff;
    } else {
        terms.push((class, delta, coeff));
    }
}

/// A kernel's closed form: the arithmetic every executor and code
/// generator runs.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecForm {
    /// Constant-coefficient linear combination of reads.
    Linear(SpecLinear),
    /// Straight-line register program of the source tree.
    Tape(SpecTape),
}

impl SpecForm {
    /// Evaluate one element in the contract's operation order, fetching
    /// each read through `read(class, delta)` — a tape fetches each
    /// distinct read once, in first-use order, before any arithmetic; the
    /// first failed read aborts the evaluation.
    #[inline(always)]
    pub fn eval<E>(&self, mut read: impl FnMut(u32, isize) -> Result<f64, E>) -> Result<f64, E> {
        match self {
            SpecForm::Linear(sl) => {
                let mut acc = sl.bias;
                for t in 0..sl.arity() {
                    acc += sl.coeffs[t] * read(sl.classes[t], sl.deltas[t])?;
                }
                Ok(acc)
            }
            SpecForm::Tape(tape) => {
                let mut regs = Vec::with_capacity(tape.num_regs());
                for r in 0..tape.num_reads() {
                    regs.push(read(tape.read_classes[r], tape.read_deltas[r])?);
                }
                regs.extend_from_slice(&tape.consts);
                for ins in &tape.instrs {
                    let v = ins.op.apply(regs[ins.a as usize], regs[ins.b as usize]);
                    regs.push(v);
                }
                Ok(regs[tape.out as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::AccessClass;
    use crate::lower::test_tape;
    use snowflake_core::Expr;

    fn tape(expr: &Expr) -> SpecTape {
        test_tape(expr).0
    }

    fn linear(expr: &Expr) -> SpecLinear {
        tape(expr)
            .linearize()
            .unwrap_or_else(|| panic!("{expr} must linearize"))
    }

    /// The record's `(class, delta, coeff)` terms, in term order.
    fn terms(sl: &SpecLinear) -> Vec<(u32, isize, f64)> {
        (0..sl.arity())
            .map(|t| (sl.classes[t], sl.deltas[t], sl.coeffs[t]))
            .collect()
    }

    /// Evaluate `form` at `cursors` (one per class).
    fn eval_at(
        form: &SpecForm,
        classes: &[AccessClass],
        cursors: &[isize],
        grids: &[&[f64]],
    ) -> f64 {
        let read = |c: u32, d: isize| {
            let c = c as usize;
            Ok::<_, ()>(grids[classes[c].grid][(cursors[c] + d) as usize])
        };
        form.eval(read).unwrap()
    }

    #[test]
    // Fixed 4x8 test grids: every index product fits isize/usize.
    #[allow(clippy::cast_possible_truncation)]
    fn tree_evaluation_matches_expr_eval() {
        let e = (Expr::read_at("x", &[0, 1]) - Expr::read_at("y", &[0, 0])) * 2.0 + 1.0;
        let (t, classes) = test_tape(&e);
        // Grids 4x8 filled with linear ramps.
        let xdata: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let ydata: Vec<f64> = (0..32).map(|i| (i * 10) as f64).collect();
        let grids: Vec<&[f64]> = vec![&xdata, &ydata];
        // Point p = (2, 3): cursors = linear index of p per class (scale 1).
        let point = [2i64, 3];
        let strides = [8i64, 1];
        let lin: isize = (0..2).map(|d| (point[d] * strides[d]) as isize).sum();
        let cursors = vec![lin; classes.len()];
        let got = eval_at(&SpecForm::Tape(t), &classes, &cursors, &grids);
        let want = e.eval(&point, &mut |g, idx| {
            let lin = (idx[0] * 8 + idx[1]) as usize;
            if g == "x" {
                xdata[lin]
            } else {
                ydata[lin]
            }
        });
        assert_eq!(got, want);
    }

    #[test]
    fn linearize_laplacian_like_sum() {
        // 2*x[+1] - 4*x[0] + 2*x[-1] + 1.5
        let e = 2.0 * Expr::read_at("x", &[0, 1]) - 4.0 * Expr::read_at("x", &[0, 0])
            + 2.0 * Expr::read_at("x", &[0, -1])
            + 1.5;
        let sl = linear(&e);
        assert_eq!(sl.bias, 1.5);
        assert_eq!(sl.arity(), 3);
        let terms = terms(&sl);
        assert!(terms.contains(&(0, 1, 2.0)));
        assert!(terms.contains(&(0, 0, -4.0)));
        assert!(terms.contains(&(0, -1, 2.0)));
    }

    #[test]
    fn linearize_keeps_first_use_term_order() {
        let e = 2.0 * Expr::read_at("x", &[0, 1])
            + 2.0 * Expr::read_at("x", &[0, -1])
            + -4.0 * Expr::read_at("y", &[0, 0])
            + 1.5;
        let sl = linear(&e);
        assert_eq!(sl.bias, 1.5);
        assert_eq!(sl.arity(), 3);
        assert_eq!(sl.classes, vec![0, 0, 1]);
        assert_eq!(sl.deltas, vec![1, -1, 0]);
        assert_eq!(sl.coeffs, vec![2.0, 2.0, -4.0]);
    }

    #[test]
    fn linearize_merges_duplicate_reads() {
        let e = Expr::read_at("x", &[0, 0]) + Expr::read_at("x", &[0, 0]);
        assert_eq!(terms(&linear(&e)), vec![(0, 0, 2.0)]);
    }

    #[test]
    fn linearize_rejects_read_product() {
        // beta * x is variable-coefficient: it runs as a tape.
        let e = Expr::read_at("y", &[0, 0]) * Expr::read_at("x", &[0, 0]);
        assert!(tape(&e).linearize().is_none());
    }

    #[test]
    fn linearize_rejects_division_by_read() {
        let e = Expr::Const(1.0) / Expr::read_at("x", &[0, 0]);
        assert!(tape(&e).linearize().is_none());
    }

    #[test]
    fn linearize_accepts_only_constant_products_and_quotients() {
        let x = || Expr::read_at("x", &[0, 0]);
        let y = || Expr::read_at("y", &[0, 1]);
        assert!(tape(&(x() * 2.0 + y())).linearize().is_some());
        assert!(tape(&(x() * y() + 1.0)).linearize().is_none());
        assert!(tape(&(x() / y())).linearize().is_none());
    }

    #[test]
    fn linearize_handles_scalar_products_and_neg() {
        let e = -((Expr::read_at("x", &[0, 0]) - 3.0) / 2.0);
        let (t, classes) = test_tape(&e);
        let sl = t.linearize().unwrap();
        assert_eq!(terms(&sl), vec![(0, 0, -0.5)]);
        assert_eq!(sl.bias, 1.5);
        // Cross-check against tree-order evaluation.
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let grids: Vec<&[f64]> = vec![&data];
        let cursors = vec![7isize; classes.len()];
        let direct = eval_at(&SpecForm::Tape(t), &classes, &cursors, &grids);
        let via_sl = sl.bias
            + terms(&sl)
                .iter()
                .map(|&(c, d, k)| k * data[(cursors[c as usize] + d) as usize])
                .sum::<f64>();
        assert!((direct - via_sl).abs() < 1e-15);
    }

    #[test]
    fn division_and_negation_lower() {
        let e = -(Expr::read_at("x", &[0, 0]) / 4.0);
        let (t, classes) = test_tape(&e);
        let data: Vec<f64> = vec![8.0; 32];
        let grids: Vec<&[f64]> = vec![&data];
        let cursors = vec![0isize; classes.len()];
        assert_eq!(
            eval_at(&SpecForm::Tape(t), &classes, &cursors, &grids),
            -2.0
        );
    }

    #[test]
    fn eval_follows_tree_order_and_stops_at_a_failed_read() {
        let x = |j| Expr::read_at("x", &[0, j]);
        let e = -(x(0) * (x(1) - Expr::read_at("y", &[0, 0])) / x(0));
        let form = SpecForm::Tape(tape(&e));
        let grid = [3.0, 5.0];
        let ok: Result<f64, ()> = form.eval(|c, d| Ok(if c == 0 { grid[d as usize] } else { 7.0 }));
        assert_eq!(ok, Ok(-(3.0 * (5.0 - 7.0) / 3.0)));
        let mut reads = 0;
        let err = form.eval(|_, d| {
            reads += 1;
            if d == 1 {
                Err(d)
            } else {
                Ok(1.0)
            }
        });
        assert_eq!((err, reads), (Err(1), 2));
    }

    #[test]
    fn deep_nesting_needs_no_stack_limit() {
        // A right-nested sum of products, 48 levels deep: one instruction
        // per node, however deep the tree.
        let mut e = Expr::read_at("x", &[0, 0]) * Expr::read_at("y", &[0, 0]);
        for j in 1..48 {
            e = Expr::read_at("x", &[0, j % 4]) + e;
        }
        let t = tape(&e);
        assert_eq!(t.num_reads(), 5);
        assert_eq!(t.instrs.len(), 48);
        let v: Result<f64, ()> = SpecForm::Tape(t).eval(|_, d| Ok(d as f64 + 1.0));
        assert_eq!(v, Ok(e.eval(&[0, 0], &mut |_, idx| idx[1] as f64 + 1.0)));
    }
}
