//! [`Component`]: a weight array bound to a named grid.
//!
//! A component is the paper's bridge between weights and meshes:
//! `Component("mesh", WeightArray(...))`. Expanding a component yields the
//! expression `Σ_o  W[o] · grid[p + o]`, where each weight entry `W[o]` is
//! itself an expression **evaluated at the write point `p`** (constants, or
//! reads of other grids for variable-coefficient operators).

use crate::expr::{AffineMap, Expr};
use crate::weights::SparseArray;

/// A weight array (dense or sparse) associated with a named grid.
///
/// ```
/// use snowflake_core::{weights2, Component};
///
/// // The classic 5-point Laplacian bound to grid "u".
/// let lap = Component::new("u", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
/// // Expansion yields Σ w·u[p+o]; evaluate it on u(i,j) = i².
/// let v = lap.expand().eval(&[3, 5], &mut |_, idx| (idx[0] * idx[0]) as f64);
/// assert_eq!(v, 2.0); // second difference of i²
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Component {
    grid: String,
    weights: SparseArray,
}

impl Component {
    /// Associate a grid with weights (dense [`crate::WeightArray`] or
    /// [`SparseArray`]).
    pub fn new(grid: &str, weights: impl Into<SparseArray>) -> Self {
        Component {
            grid: grid.to_string(),
            weights: weights.into(),
        }
    }

    /// The single-point component `grid[p]` (weight 1 at the center).
    pub fn read(grid: &str, ndim: usize) -> Self {
        Component {
            grid: grid.to_string(),
            weights: SparseArray::new(ndim).with(&vec![0i64; ndim], 1.0),
        }
    }

    /// The single-point component `grid[p + offset]`.
    pub fn read_at(grid: &str, offset: &[i64]) -> Self {
        Component {
            grid: grid.to_string(),
            weights: SparseArray::new(offset.len()).with(offset, 1.0),
        }
    }

    /// Name of the grid this component reads.
    pub fn grid(&self) -> &str {
        &self.grid
    }

    /// The weight map.
    pub fn weights(&self) -> &SparseArray {
        &self.weights
    }

    /// Dimensionality of the component.
    pub fn ndim(&self) -> usize {
        self.weights.ndim()
    }

    /// Expand into an [`Expr`]: `Σ_o W[o] · grid[p + o]`, with `W[o] = 1`
    /// collapsing to a bare read and `W[o] = 0` entries already dropped by
    /// the sparse conversion. An empty component expands to `0`.
    pub fn expand(&self) -> Expr {
        let mut acc: Option<Expr> = None;
        for (offset, w) in self.weights.iter() {
            let read = Expr::Read {
                grid: self.grid.clone(),
                map: AffineMap::translate(offset.to_vec()),
            };
            let term = match w {
                Expr::Const(c) if *c == 1.0 => read,
                Expr::Const(c) if *c == -1.0 => Expr::Neg(Box::new(read)),
                _ => Expr::Mul(Box::new(w.clone()), Box::new(read)),
            };
            acc = Some(match acc {
                None => term,
                Some(a) => Expr::Add(Box::new(a), Box::new(term)),
            });
        }
        acc.unwrap_or(Expr::Const(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights1;
    use crate::weights2;

    #[test]
    fn expand_1d_laplacian() {
        let c = Component::new("x", weights1![1.0, -2.0, 1.0]);
        let e = c.expand();
        // Evaluate on x[i] = i^2 at p=3: 4 - 2*9 + 16 = 2 (discrete 2nd diff).
        let v = e.eval(&[3], &mut |_, idx| (idx[0] * idx[0]) as f64);
        assert_eq!(v, 2.0);
    }

    #[test]
    fn unit_weight_collapses_to_bare_read() {
        let c = Component::read_at("x", &[1, 0]);
        assert_eq!(c.expand(), Expr::read_at("x", &[1, 0]));
    }

    #[test]
    fn empty_component_is_zero() {
        let c = Component::new("x", SparseArray::new(2));
        assert_eq!(c.expand(), Expr::Const(0.0));
    }

    #[test]
    fn variable_coefficient_expansion() {
        // beta[p] * x[p+1]: weight at offset (1,) is a read of beta at p.
        let beta = Component::read("beta", 1);
        let w = SparseArray::new(1).with(&[1], beta);
        let c = Component::new("x", w);
        let e = c.expand();
        let v = e.eval(&[2], &mut |g, idx| match g {
            "beta" => 10.0 + idx[0] as f64, // beta[2] = 12
            _ => idx[0] as f64,             // x[3] = 3
        });
        assert_eq!(v, 36.0);
    }

    #[test]
    fn figure4_style_algebra() {
        // difference = b - Ax; final = original + lambda * difference
        let ax = Component::new("mesh", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let b = Component::read("rhs", 2);
        let difference = b - ax;
        let original = Component::read("mesh", 2);
        let lambda = Component::read("lambda", 2);
        let fin = original + lambda * difference;
        // On mesh = 1 everywhere, Ax = 0, rhs = 2, lambda = 0.5 -> 1 + 0.5*2 = 2.
        let v = fin.eval(&[5, 5], &mut |g, _| match g {
            "mesh" => 1.0,
            "rhs" => 2.0,
            "lambda" => 0.5,
            _ => unreachable!(),
        });
        assert_eq!(v, 2.0);
    }
}
