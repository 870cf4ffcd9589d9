//! Closed-form kernels: the arithmetic half of the lowering contract.
//!
//! [`SpecKernel::of`] gives every lowered program one of two forms:
//!
//! * **linear** ([`SpecLinear`]) — a constant-coefficient combination of
//!   reads ([`linearize`]), stored structure-of-arrays so executors run
//!   tight unit-stride inner loops over parallel coefficient/offset tables
//!   and the C generator renders a flat left fold;
//! * **tape** ([`SpecTape`]) — everything else: a straight-line register
//!   program of the constant-folded source tree, in tree order, with each
//!   distinct `(class, delta)` read loaded once. Variable coefficients,
//!   division by a read and arbitrarily deep nesting all fit.
//!
//! **Bitwise contract**: a record fixes the floating-point operation
//! sequence per element, which [`SpecKernel::eval`] spells out. A linear
//! form is the *merged fold* of the source — `acc = bias; acc += coeff·read`
//! in term order, a re-association fixed once at lowering. A tape keeps the
//! *source-tree order*: each instruction is one node of the simplified
//! expression, so a tape kernel computes exactly what the tree-walking
//! interpreter computes. Every executor (chunked, strided, point by point,
//! range-checked, generated C) performs exactly the record's sequence per
//! element, so they all agree bitwise.

use std::collections::HashMap;

use crate::bytecode::{linearize, LinearForm, Op, Program};

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
    /// Re-layout a [`LinearForm`], preserving term order.
    pub fn from_form(lf: &LinearForm) -> SpecLinear {
        SpecLinear {
            bias: lf.bias,
            classes: lf.terms.iter().map(|t| t.0).collect(),
            deltas: lf.terms.iter().map(|t| t.1).collect(),
            coeffs: lf.terms.iter().map(|t| t.2).collect(),
        }
    }

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
#[derive(Clone, Debug, PartialEq)]
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
    /// Build the tape of `program`, interning every distinct read and
    /// constant once and keeping one instruction per arithmetic node.
    // Register ids count a kernel's reads, constants and operations; u32
    // cannot truncate before the program exhausts memory.
    #[allow(clippy::cast_possible_truncation)]
    pub fn from_program(program: &Program) -> SpecTape {
        let mut reads: HashMap<(u32, isize), u32> = HashMap::new();
        let mut consts: HashMap<u64, u32> = HashMap::new();
        let mut tape = SpecTape {
            read_classes: Vec::new(),
            read_deltas: Vec::new(),
            consts: Vec::new(),
            instrs: Vec::new(),
            out: 0,
        };
        for op in &program.ops {
            match *op {
                Op::Read { class, delta } => {
                    reads.entry((class, delta)).or_insert_with(|| {
                        tape.read_classes.push(class);
                        tape.read_deltas.push(delta);
                        tape.read_classes.len() as u32 - 1
                    });
                }
                Op::Const(c) => {
                    consts.entry(c.to_bits()).or_insert_with(|| {
                        tape.consts.push(c);
                        tape.consts.len() as u32 - 1
                    });
                }
                _ => {}
            }
        }
        let const_base = tape.read_classes.len() as u32;
        let instr_base = const_base + tape.consts.len() as u32;
        let mut stack: Vec<u32> = Vec::new();
        for op in &program.ops {
            let (op, a, b) = match *op {
                Op::Read { class, delta } => {
                    stack.push(reads[&(class, delta)]);
                    continue;
                }
                Op::Const(c) => {
                    stack.push(const_base + consts[&c.to_bits()]);
                    continue;
                }
                Op::Neg => {
                    let a = stack.pop().expect("well-formed program");
                    (TapeOp::Neg, a, a)
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div => {
                    let b = stack.pop().expect("well-formed program");
                    let a = stack.pop().expect("well-formed program");
                    let op = match op {
                        Op::Add => TapeOp::Add,
                        Op::Sub => TapeOp::Sub,
                        Op::Mul => TapeOp::Mul,
                        _ => TapeOp::Div,
                    };
                    (op, a, b)
                }
            };
            stack.push(instr_base + tape.instrs.len() as u32);
            tape.instrs.push(TapeInstr { op, a, b });
        }
        debug_assert_eq!(stack.len(), 1, "program must leave exactly one value");
        tape.out = stack.pop().expect("program value");
        tape
    }

    /// Number of distinct reads.
    pub fn num_reads(&self) -> usize {
        self.read_classes.len()
    }

    /// Total registers: reads, constants and instructions.
    pub fn num_regs(&self) -> usize {
        self.num_reads() + self.consts.len() + self.instrs.len()
    }
}

/// The matched closed form.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecForm {
    /// Constant-coefficient linear combination of reads.
    Linear(SpecLinear),
    /// Straight-line register program of the source tree.
    Tape(SpecTape),
}

/// A kernel's closed form, attached to
/// [`LoweredKernel::spec`](crate::kernel::LoweredKernel::spec) by the
/// backends' specialization pass.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecKernel {
    /// The matched form.
    pub form: SpecForm,
}

impl SpecKernel {
    /// The closed form of `program`: linear when it linearizes, otherwise
    /// its tape.
    pub fn of(program: &Program) -> SpecKernel {
        let form = match linearize(program) {
            Some(lf) => SpecForm::Linear(SpecLinear::from_form(&lf)),
            None => SpecForm::Tape(SpecTape::from_program(program)),
        };
        SpecKernel { form }
    }

    /// Evaluate one element in the contract's operation order, fetching
    /// each read through `read(class, delta)` — a tape fetches each
    /// distinct read once, in first-use order, before any arithmetic; the
    /// first failed read aborts the evaluation.
    #[inline(always)]
    pub fn eval<E>(&self, mut read: impl FnMut(u32, isize) -> Result<f64, E>) -> Result<f64, E> {
        match &self.form {
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
    use crate::bytecode::{lower_expr, ClassTable};
    use snowflake_core::Expr;

    fn program(expr: &Expr) -> Program {
        let gi = |g: &str| ["x", "y"].iter().position(|n| *n == g);
        let sh = |_: usize| vec![4usize, 8];
        lower_expr(expr, &mut ClassTable::new(&gi, &sh)).unwrap()
    }

    fn tape(expr: &Expr) -> SpecTape {
        match SpecKernel::of(&program(expr)).form {
            SpecForm::Tape(t) => t,
            SpecForm::Linear(_) => panic!("{expr} must not linearize"),
        }
    }

    #[test]
    fn linear_relayout_preserves_term_order() {
        let lf = LinearForm {
            terms: vec![(0, 1, 2.0), (0, -1, 2.0), (1, 0, -4.0)],
            bias: 1.5,
        };
        let sl = SpecLinear::from_form(&lf);
        assert_eq!(sl.bias, 1.5);
        assert_eq!(sl.arity(), 3);
        assert_eq!(sl.classes, vec![0, 0, 1]);
        assert_eq!(sl.deltas, vec![1, -1, 0]);
        assert_eq!(sl.coeffs, vec![2.0, 2.0, -4.0]);
    }

    #[test]
    fn of_prefers_linear_then_tape() {
        let x = || Expr::read_at("x", &[0, 0]);
        let y = || Expr::read_at("y", &[0, 1]);
        let linear = SpecKernel::of(&program(&(x() * 2.0 + y())));
        assert!(matches!(linear.form, SpecForm::Linear(_)));
        let product = SpecKernel::of(&program(&(x() * y() + 1.0)));
        assert!(matches!(product.form, SpecForm::Tape(_)));
        let quotient = SpecKernel::of(&program(&(x() / y())));
        assert!(matches!(quotient.form, SpecForm::Tape(_)));
    }

    #[test]
    fn tape_interns_reads_and_constants_in_first_use_order() {
        // (y[0,1] * x[0,0] + 2) * (x[0,0] - 2): two reads, one constant.
        let x = || Expr::read_at("x", &[0, 0]);
        let y = || Expr::read_at("y", &[0, 1]);
        let t = tape(&((y() * x() + 2.0) * (x() - 2.0)));
        assert_eq!(
            (&t.read_classes[..], &t.read_deltas[..]),
            (&[0, 1][..], &[1, 0][..])
        );
        assert_eq!(t.consts, vec![2.0]);
        // Registers: y=0, x=1, 2.0=2, then one per instruction from 3.
        let ins = |op, a, b| TapeInstr { op, a, b };
        assert_eq!(
            t.instrs,
            vec![
                ins(TapeOp::Mul, 0, 1),
                ins(TapeOp::Add, 3, 2),
                ins(TapeOp::Sub, 1, 2),
                ins(TapeOp::Mul, 4, 5),
            ]
        );
        assert_eq!(t.out, 6);
        assert_eq!(t.num_regs(), 7);
    }

    #[test]
    fn eval_follows_tree_order_and_stops_at_a_failed_read() {
        let x = |j| Expr::read_at("x", &[0, j]);
        let e = -(x(0) * (x(1) - Expr::read_at("y", &[0, 0])) / x(0));
        let spec = SpecKernel::of(&program(&e));
        let grid = [3.0, 5.0];
        let ok: Result<f64, ()> = spec.eval(|c, d| Ok(if c == 0 { grid[d as usize] } else { 7.0 }));
        assert_eq!(ok, Ok(-(3.0 * (5.0 - 7.0) / 3.0)));
        let mut reads = 0;
        let err = spec.eval(|_, d| {
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
        let v: Result<f64, ()> = SpecKernel::of(&program(&e)).eval(|_, d| Ok(d as f64 + 1.0));
        assert_eq!(v, Ok(e.eval(&[0, 0], &mut |_, idx| idx[1] as f64 + 1.0)));
    }
}
