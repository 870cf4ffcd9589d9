//! Postfix programs for stencil expressions.
//!
//! Expressions are lowered (after constant folding) into reverse-Polish
//! programs. A read is addressed as *cursor class + constant delta*: all
//! reads sharing a `(grid, scale)` pair use one linear cursor that the
//! executor advances incrementally as the loop nest walks the region, so
//! the inner loop does no index arithmetic beyond `cursor + delta`.
//! No executor interprets a program directly: [`crate::spec`] turns each
//! one into a linear form ([`linearize`]) or a register tape.

use std::collections::HashMap;

use snowflake_core::{AffineMap, CoreError, Expr};
use snowflake_grid::grid::row_major_strides;

use crate::kernel::AccessClass;

/// One bytecode operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Push a constant.
    Const(f64),
    /// Push `grid_data[cursor[class] + delta]`.
    Read {
        /// Index into the kernel's cursor-class table.
        class: u32,
        /// Constant element offset from the class cursor.
        delta: isize,
    },
    /// Pop two, push their sum.
    Add,
    /// Pop two, push `a - b` (a pushed first).
    Sub,
    /// Pop two, push their product.
    Mul,
    /// Pop two, push `a / b` (a pushed first).
    Div,
    /// Negate the top of stack.
    Neg,
}

/// A lowered expression: RPN ops in source-tree (postfix) order.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Operations in evaluation order.
    pub ops: Vec<Op>,
}

/// Accumulates cursor classes while lowering one stencil.
pub struct ClassTable<'a> {
    grid_index: &'a dyn Fn(&str) -> Option<usize>,
    shapes: &'a dyn Fn(usize) -> Vec<usize>,
    classes: Vec<AccessClass>,
    lookup: HashMap<(usize, Vec<i64>), u32>,
}

impl<'a> ClassTable<'a> {
    /// Create a table; `grid_index` maps names to dense indices and
    /// `shapes` returns a grid's shape by index.
    pub fn new(
        grid_index: &'a dyn Fn(&str) -> Option<usize>,
        shapes: &'a dyn Fn(usize) -> Vec<usize>,
    ) -> Self {
        ClassTable {
            grid_index,
            shapes,
            classes: Vec::new(),
            lookup: HashMap::new(),
        }
    }

    /// Intern the `(grid, scale)` class of an access; returns
    /// `(class id, delta)` for the access's map.
    pub fn intern(&mut self, grid: &str, map: &AffineMap) -> Result<(u32, isize), CoreError> {
        let gi = (self.grid_index)(grid).ok_or_else(|| CoreError::UnknownGrid {
            stencil: String::new(),
            grid: grid.to_string(),
        })?;
        let shape = (self.shapes)(gi);
        let strides = row_major_strides(&shape);
        let key = (gi, map.scale.clone());
        let class = *self.lookup.entry(key).or_insert_with(|| {
            // A group lowers to a handful of access classes; u32 cannot
            // overflow before memory does.
            #[allow(clippy::cast_possible_truncation)]
            let id = self.classes.len() as u32;
            self.classes.push(AccessClass {
                grid: gi,
                scale: map.scale.clone(),
                strides: strides.clone(),
            });
            id
        });
        // Offsets are stencil radii and strides are row-major products of
        // validated extents; both fit isize on every supported target.
        #[allow(clippy::cast_possible_truncation)]
        let delta: isize = (0..map.ndim())
            .map(|d| map.offset[d] as isize * strides[d] as isize)
            .sum();
        Ok((class, delta))
    }

    /// Finish, returning the interned classes.
    pub fn finish(self) -> Vec<AccessClass> {
        self.classes
    }
}

/// Lower a (pre-simplified) expression into a [`Program`] using `table`
/// for read addressing.
pub fn lower_expr(expr: &Expr, table: &mut ClassTable<'_>) -> Result<Program, CoreError> {
    let mut ops = Vec::with_capacity(expr.size());
    emit(expr, table, &mut ops)?;
    Ok(Program { ops })
}

fn emit(expr: &Expr, table: &mut ClassTable<'_>, ops: &mut Vec<Op>) -> Result<(), CoreError> {
    match expr {
        Expr::Const(c) => ops.push(Op::Const(*c)),
        Expr::Read { grid, map } => {
            let (class, delta) = table.intern(grid, map)?;
            ops.push(Op::Read { class, delta });
        }
        Expr::Add(a, b) => {
            emit(a, table, ops)?;
            emit(b, table, ops)?;
            ops.push(Op::Add);
        }
        Expr::Sub(a, b) => {
            emit(a, table, ops)?;
            emit(b, table, ops)?;
            ops.push(Op::Sub);
        }
        Expr::Mul(a, b) => {
            emit(a, table, ops)?;
            emit(b, table, ops)?;
            ops.push(Op::Mul);
        }
        Expr::Div(a, b) => {
            emit(a, table, ops)?;
            emit(b, table, ops)?;
            ops.push(Op::Div);
        }
        Expr::Neg(a) => {
            emit(a, table, ops)?;
            ops.push(Op::Neg);
        }
    }
    Ok(())
}

/// A constant-coefficient linear combination of reads:
/// `bias + Σ coeff_i · grid[cursor[class_i] + delta_i]`.
///
/// Most scientific stencils (constant-coefficient Laplacians, Jacobi
/// smoothers, restriction, interpolation, boundary negation) lower to this
/// form; executors run its [`SpecLinear`](crate::spec::SpecLinear)
/// re-layout. Variable-coefficient operators (products of two reads) do
/// not linearize; they run as a [`SpecTape`](crate::spec::SpecTape).
#[derive(Clone, Debug, PartialEq)]
pub struct LinearForm {
    /// `(class, delta, coeff)` triples.
    pub terms: Vec<(u32, isize, f64)>,
    /// Constant bias.
    pub bias: f64,
}

/// Try to express a program as a [`LinearForm`]. Returns `None` when the
/// expression multiplies or divides two read-dependent values.
pub fn linearize(program: &Program) -> Option<LinearForm> {
    #[derive(Clone)]
    struct Sym {
        bias: f64,
        terms: Vec<(u32, isize, f64)>,
    }
    let mut stack: Vec<Sym> = Vec::new();
    for op in &program.ops {
        match *op {
            Op::Const(c) => stack.push(Sym {
                bias: c,
                terms: vec![],
            }),
            Op::Read { class, delta } => stack.push(Sym {
                bias: 0.0,
                terms: vec![(class, delta, 1.0)],
            }),
            Op::Add | Op::Sub => {
                let b = stack.pop()?;
                let mut a = stack.pop()?;
                let sign = if matches!(op, Op::Sub) { -1.0 } else { 1.0 };
                a.bias += sign * b.bias;
                for (c, d, k) in b.terms {
                    merge_term(&mut a.terms, c, d, sign * k);
                }
                stack.push(a);
            }
            Op::Mul => {
                let b = stack.pop()?;
                let a = stack.pop()?;
                let (scalar, mut lin) = if a.terms.is_empty() {
                    (a.bias, b)
                } else if b.terms.is_empty() {
                    (b.bias, a)
                } else {
                    return None; // read × read: not linear
                };
                lin.bias *= scalar;
                for t in &mut lin.terms {
                    t.2 *= scalar;
                }
                stack.push(lin);
            }
            Op::Div => {
                let b = stack.pop()?;
                let mut a = stack.pop()?;
                if !b.terms.is_empty() {
                    return None; // divide by a read: not linear
                }
                a.bias /= b.bias;
                for t in &mut a.terms {
                    t.2 /= b.bias;
                }
                stack.push(a);
            }
            Op::Neg => {
                let a = stack.last_mut()?;
                a.bias = -a.bias;
                for t in &mut a.terms {
                    t.2 = -t.2;
                }
            }
        }
    }
    let top = stack.pop()?;
    if !stack.is_empty() {
        return None;
    }
    Some(LinearForm {
        terms: top.terms,
        bias: top.bias,
    })
}

fn merge_term(terms: &mut Vec<(u32, isize, f64)>, class: u32, delta: isize, coeff: f64) {
    if let Some(t) = terms.iter_mut().find(|t| t.0 == class && t.1 == delta) {
        t.2 += coeff;
    } else {
        terms.push((class, delta, coeff));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SpecForm, SpecKernel, SpecTape};
    use snowflake_core::Expr;

    /// Evaluate `program` in source-tree order at `cursors` (one per class).
    fn eval_tree(
        program: &Program,
        classes: &[AccessClass],
        cursors: &[isize],
        grids: &[&[f64]],
    ) -> f64 {
        let tape = SpecKernel {
            form: SpecForm::Tape(SpecTape::from_program(program)),
        };
        let read = |c: u32, d: isize| {
            let c = c as usize;
            Ok::<_, ()>(grids[classes[c].grid][(cursors[c] + d) as usize])
        };
        tape.eval(read).unwrap()
    }

    fn simple_table_env() -> (Vec<String>, Vec<Vec<usize>>) {
        (
            vec!["x".to_string(), "y".to_string()],
            vec![vec![4, 8], vec![4, 8]],
        )
    }

    fn lower(expr: &Expr) -> (Program, Vec<AccessClass>) {
        let (names, shapes) = simple_table_env();
        let gi = move |g: &str| names.iter().position(|n| n == g);
        let sh = move |i: usize| shapes[i].clone();
        let mut table = ClassTable::new(&gi, &sh);
        let p = lower_expr(expr, &mut table).unwrap();
        (p, table.finish())
    }

    #[test]
    fn shared_class_for_same_grid_and_scale() {
        let e = Expr::read_at("x", &[0, 1])
            + Expr::read_at("x", &[0, -1])
            + Expr::read_at("y", &[1, 0]);
        let (p, classes) = lower(&e);
        assert_eq!(classes.len(), 2, "x-translation and y-translation");
        // Deltas: row-major strides of [4,8] are [8,1].
        let reads: Vec<_> = p
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Read { class, delta } => Some((*class, *delta)),
                _ => None,
            })
            .collect();
        assert_eq!(reads, vec![(0, 1), (0, -1), (1, 8)]);
    }

    #[test]
    fn scaled_reads_get_distinct_class() {
        let e = Expr::read_at("x", &[0, 0])
            + Expr::read_mapped(
                "x",
                snowflake_core::AffineMap::scaled(vec![2, 2], vec![0, 1]),
            );
        let (_, classes) = lower(&e);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].scale, vec![1, 1]);
        assert_eq!(classes[1].scale, vec![2, 2]);
    }

    #[test]
    // Fixed 4x8 test grids: every index product fits isize/usize.
    #[allow(clippy::cast_possible_truncation)]
    fn tree_evaluation_matches_expr_eval() {
        let e = (Expr::read_at("x", &[0, 1]) - Expr::read_at("y", &[0, 0])) * 2.0 + 1.0;
        let (p, classes) = lower(&e);
        // Grids 4x8 filled with linear ramps.
        let xdata: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let ydata: Vec<f64> = (0..32).map(|i| (i * 10) as f64).collect();
        let grids: Vec<&[f64]> = vec![&xdata, &ydata];
        // Point p = (2, 3): cursors = linear index of p per class (scale 1).
        let point = [2i64, 3];
        let strides = [8i64, 1];
        let lin: isize = (0..2).map(|d| (point[d] * strides[d]) as isize).sum();
        let cursors = vec![lin; classes.len()];
        let got = eval_tree(&p, &classes, &cursors, &grids);
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
        let (p, _) = lower(&e);
        let lf = linearize(&p).expect("linear");
        assert_eq!(lf.bias, 1.5);
        assert_eq!(lf.terms.len(), 3);
        assert!(lf.terms.contains(&(0, 1, 2.0)));
        assert!(lf.terms.contains(&(0, 0, -4.0)));
        assert!(lf.terms.contains(&(0, -1, 2.0)));
    }

    #[test]
    fn linearize_merges_duplicate_reads() {
        let e = Expr::read_at("x", &[0, 0]) + Expr::read_at("x", &[0, 0]);
        let (p, _) = lower(&e);
        let lf = linearize(&p).unwrap();
        assert_eq!(lf.terms, vec![(0, 0, 2.0)]);
    }

    #[test]
    fn linearize_rejects_read_product() {
        // beta * x is variable-coefficient: it runs as a tape.
        let e = Expr::read_at("y", &[0, 0]) * Expr::read_at("x", &[0, 0]);
        let (p, _) = lower(&e);
        assert!(linearize(&p).is_none());
    }

    #[test]
    fn linearize_rejects_division_by_read() {
        let e = Expr::Const(1.0) / Expr::read_at("x", &[0, 0]);
        let (p, _) = lower(&e);
        assert!(linearize(&p).is_none());
    }

    #[test]
    fn linearize_handles_scalar_products_and_neg() {
        let e = -((Expr::read_at("x", &[0, 0]) - 3.0) / 2.0);
        let (p, classes) = lower(&e);
        let lf = linearize(&p).unwrap();
        assert_eq!(lf.terms, vec![(0, 0, -0.5)]);
        assert_eq!(lf.bias, 1.5);
        // Cross-check against tree-order evaluation.
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let grids: Vec<&[f64]> = vec![&data];
        let cursors = vec![7isize; classes.len()];
        let direct = eval_tree(&p, &classes, &cursors, &grids);
        let via_lf = lf.bias
            + lf.terms
                .iter()
                .map(|&(c, d, k)| k * data[(cursors[c as usize] + d) as usize])
                .sum::<f64>();
        assert!((direct - via_lf).abs() < 1e-15);
    }

    #[test]
    fn division_and_negation_lower() {
        let e = -(Expr::read_at("x", &[0, 0]) / 4.0);
        let (p, classes) = lower(&e);
        let data: Vec<f64> = vec![8.0; 32];
        let grids: Vec<&[f64]> = vec![&data];
        let cursors = vec![0isize; classes.len()];
        assert_eq!(eval_tree(&p, &classes, &cursors, &grids), -2.0);
    }
}
