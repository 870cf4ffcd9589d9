//! Closed-form kernels: the arithmetic half of the lowering contract.
//!
//! [`SpecKernel::of`] matches a lowered program against the two closed
//! forms the stock stencils fall into — constant-coefficient linear
//! combinations ([`linearize`]) and bounded sums of products
//! ([`polynomialize`]) — and records the match in structure-of-arrays
//! layout, so executors run tight unit-stride inner loops over parallel
//! coefficient/offset tables (the layout LLVM's auto-vectorizer wants) and
//! the C generator renders a flat left fold. Programs matching neither
//! (division by a read, oversized expansions) stay on bytecode.
//!
//! **Bitwise contract**: a record fixes the floating-point operation
//! sequence per element — `acc = bias; acc += coeff·read` in term order for
//! linear; `prod = coeff; prod *= read…; acc += prod` for poly — which
//! [`SpecKernel::eval`] spells out. Builders preserve the term and read
//! order of the matched forms, and every executor (chunked, strided, point
//! by point, range-checked, generated C) performs exactly that sequence per
//! element, so they all agree bitwise.

use crate::bytecode::{linearize, polynomialize, LinearForm, PolyForm, Program};

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

/// A sum-of-products (variable-coefficient) stencil,
/// `bias + Σ_t coeffs[t] · Π_r grid[cursor[read_classes[r]] + read_deltas[r]]`,
/// reads stored term-major and split into parallel class/delta tables.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecPoly {
    /// Constant bias (the accumulator's initial value).
    pub bias: f64,
    /// Coefficient per term.
    pub coeffs: Vec<f64>,
    /// Reads per term, parallel to `coeffs`.
    pub lens: Vec<u32>,
    /// Cursor class per read, term-major.
    pub read_classes: Vec<u32>,
    /// Flat element offset per read, term-major.
    pub read_deltas: Vec<isize>,
}

impl SpecPoly {
    /// Re-layout a [`PolyForm`], preserving term and read order.
    pub fn from_form(pf: &PolyForm) -> SpecPoly {
        let reads = || pf.terms.iter().flat_map(|t| t.1.iter());
        SpecPoly {
            bias: pf.bias,
            coeffs: pf.terms.iter().map(|t| t.0).collect(),
            // A product term holds at most a few reads; u32 cannot truncate.
            #[allow(clippy::cast_possible_truncation)]
            lens: pf.terms.iter().map(|t| t.1.len() as u32).collect(),
            read_classes: reads().map(|r| r.0).collect(),
            read_deltas: reads().map(|r| r.1).collect(),
        }
    }

    /// Total reads across all terms.
    pub fn num_reads(&self) -> usize {
        self.read_classes.len()
    }
}

/// The matched closed form.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecForm {
    /// Constant-coefficient linear combination of reads.
    Linear(SpecLinear),
    /// Bounded sum of products of reads.
    Poly(SpecPoly),
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
    /// a sum of products; `None` when it only has bytecode.
    pub fn of(program: &Program) -> Option<SpecKernel> {
        let form = match linearize(program) {
            Some(lf) => SpecForm::Linear(SpecLinear::from_form(&lf)),
            None => SpecForm::Poly(SpecPoly::from_form(&polynomialize(program)?)),
        };
        Some(SpecKernel { form })
    }

    /// Evaluate one element in the contract's operation order, fetching
    /// each read through `read(class, delta)`; the first failed read
    /// aborts the evaluation.
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
            SpecForm::Poly(sp) => {
                let mut acc = sp.bias;
                let mut r = 0usize;
                for (t, &coeff) in sp.coeffs.iter().enumerate() {
                    let mut prod = coeff;
                    for _ in 0..sp.lens[t] {
                        prod *= read(sp.read_classes[r], sp.read_deltas[r])?;
                        r += 1;
                    }
                    acc += prod;
                }
                Ok(acc)
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
    fn poly_relayout_preserves_term_major_reads() {
        let pf = PolyForm {
            bias: 0.25,
            terms: vec![
                (3.0, vec![(0, 0), (1, 8)]),
                (-1.0, vec![(2, -1)]),
                (0.5, vec![(0, 1), (1, 0), (2, 0)]),
            ],
        };
        let sp = SpecPoly::from_form(&pf);
        assert_eq!(sp.bias, 0.25);
        assert_eq!(sp.coeffs, vec![3.0, -1.0, 0.5]);
        assert_eq!(sp.lens, vec![2, 1, 3]);
        assert_eq!(sp.read_classes, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(sp.read_deltas, vec![0, 8, -1, 1, 0, 0]);
        assert_eq!(sp.num_reads(), 6);
    }

    #[test]
    fn of_prefers_linear_then_poly_then_bytecode() {
        let x = || Expr::read_at("x", &[0, 0]);
        let y = || Expr::read_at("y", &[0, 1]);
        let linear = SpecKernel::of(&program(&(x() * 2.0 + y()))).unwrap();
        assert!(matches!(linear.form, SpecForm::Linear(_)));
        let poly = SpecKernel::of(&program(&(x() * y() + 1.0))).unwrap();
        assert!(matches!(poly.form, SpecForm::Poly(_)));
        assert!(SpecKernel::of(&program(&(x() / y()))).is_none());
    }

    #[test]
    fn eval_follows_the_contract_order_and_stops_at_a_failed_read() {
        let spec = SpecKernel {
            form: SpecForm::Poly(SpecPoly::from_form(&PolyForm {
                bias: 0.5,
                terms: vec![(2.0, vec![(0, 0), (0, 1)]), (-1.0, vec![(1, 0)])],
            })),
        };
        let grid = [3.0, 5.0];
        let ok: Result<f64, ()> = spec.eval(|c, d| Ok(if c == 0 { grid[d as usize] } else { 7.0 }));
        assert_eq!(ok, Ok((0.5 + 2.0 * 3.0 * 5.0) + -7.0));
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
}
