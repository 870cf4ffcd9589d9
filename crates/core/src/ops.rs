//! A small library of classic stencil operators.
//!
//! The paper stresses that Snowflake handles "higher-order operators
//! (larger stencils)" beyond the 3-point-per-axis second-order family.
//! These builders produce the standard central-difference weight arrays of
//! 2nd and 4th order for the Laplacian and first derivatives, in any
//! supported dimension, as ordinary [`WeightArray`]s — nothing about the
//! analysis or the backends changes, which is precisely the claim.
//!
//! [`WeightArray`]: crate::WeightArray

use crate::expr::Expr;
use crate::weights::SparseArray;

/// Central-difference accuracy order (of the truncation error).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// 2nd order: 3 points per axis.
    Second,
    /// 4th order: 5 points per axis.
    Fourth,
    /// 6th order: 7 points per axis.
    Sixth,
}

impl Order {
    /// One-sided reach (offsets span `-reach..=reach` per axis).
    pub fn reach(&self) -> i64 {
        match self {
            Order::Second => 1,
            Order::Fourth => 2,
            Order::Sixth => 3,
        }
    }

    /// Central-difference weights for the second derivative (unit
    /// spacing), center first at offset 0.
    fn d2_weights(&self) -> Vec<(i64, f64)> {
        match self {
            Order::Second => vec![(0, -2.0), (1, 1.0), (-1, 1.0)],
            Order::Fourth => vec![
                (0, -5.0 / 2.0),
                (1, 4.0 / 3.0),
                (-1, 4.0 / 3.0),
                (2, -1.0 / 12.0),
                (-2, -1.0 / 12.0),
            ],
            Order::Sixth => vec![
                (0, -49.0 / 18.0),
                (1, 3.0 / 2.0),
                (-1, 3.0 / 2.0),
                (2, -3.0 / 20.0),
                (-2, -3.0 / 20.0),
                (3, 1.0 / 90.0),
                (-3, 1.0 / 90.0),
            ],
        }
    }

    /// Central-difference weights for the first derivative (unit spacing).
    fn d1_weights(&self) -> Vec<(i64, f64)> {
        match self {
            Order::Second => vec![(1, 0.5), (-1, -0.5)],
            Order::Fourth => vec![
                (1, 2.0 / 3.0),
                (-1, -2.0 / 3.0),
                (2, -1.0 / 12.0),
                (-2, 1.0 / 12.0),
            ],
            Order::Sixth => vec![
                (1, 3.0 / 4.0),
                (-1, -3.0 / 4.0),
                (2, -3.0 / 20.0),
                (-2, 3.0 / 20.0),
                (3, 1.0 / 60.0),
                (-3, -1.0 / 60.0),
            ],
        }
    }
}

/// The `ndim`-dimensional Laplacian `Σ_d ∂²/∂x_d²` at the given accuracy
/// order, as a sparse weight array over unit spacing (divide by `h²` when
/// applying on a mesh of spacing `h`).
pub fn laplacian(ndim: usize, order: Order) -> SparseArray {
    assert!((1..=snowflake_grid::MAX_DIMS).contains(&ndim));
    let mut s = SparseArray::new(ndim);
    let w = order.d2_weights();
    // Accumulate the center weight across axes.
    let mut center = 0.0;
    for d in 0..ndim {
        for &(off, coeff) in &w {
            if off == 0 {
                center += coeff;
            } else {
                let mut o = vec![0i64; ndim];
                o[d] = off;
                s.insert(o, Expr::Const(coeff));
            }
        }
        let _ = d;
    }
    s.insert(vec![0; ndim], Expr::Const(center));
    s
}

/// The first-derivative stencil along axis `axis` (unit spacing).
pub fn derivative(ndim: usize, axis: usize, order: Order) -> SparseArray {
    assert!(axis < ndim, "axis {axis} out of range for {ndim}-d");
    let mut s = SparseArray::new(ndim);
    for (off, coeff) in order.d1_weights() {
        let mut o = vec![0i64; ndim];
        o[axis] = off;
        s.insert(o, Expr::Const(coeff));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::domain::RectDomain;
    use crate::stencil::Stencil;
    use crate::ShapeMap;

    fn eval_at(s: &SparseArray, grid_fn: impl Fn(&[i64]) -> f64, p: &[i64]) -> f64 {
        let c = Component::new("g", s.clone());
        c.expand().eval(p, &mut |_, idx| grid_fn(idx))
    }

    #[test]
    fn laplacian_2nd_order_matches_classic() {
        let s = laplacian(2, Order::Second);
        assert_eq!(s.get(&[0, 0]), Some(&Expr::Const(-4.0)));
        assert_eq!(s.get(&[0, 1]), Some(&Expr::Const(1.0)));
        assert_eq!(s.len(), 5);
        let s3 = laplacian(3, Order::Second);
        assert_eq!(s3.get(&[0, 0, 0]), Some(&Expr::Const(-6.0)));
        assert_eq!(s3.len(), 7);
    }

    #[test]
    fn laplacian_4th_order_is_13_point_in_3d() {
        let s = laplacian(3, Order::Fourth);
        assert_eq!(s.len(), 13);
        let center = 3.0 * (-5.0 / 2.0);
        assert_eq!(s.get(&[0, 0, 0]), Some(&Expr::Const(center)));
        assert_eq!(s.get(&[2, 0, 0]), Some(&Expr::Const(-1.0 / 12.0)));
    }

    #[test]
    fn higher_order_is_exact_on_polynomials() {
        // 4th-order d² is exact for polynomials up to degree 5.
        let f = |idx: &[i64]| {
            let x = idx[0] as f64;
            x * x * x * x // x⁴, d²/dx² = 12x²
        };
        let s = laplacian(1, Order::Fourth);
        for p in -3i64..4 {
            let got = eval_at(&s, f, &[p]);
            let want = 12.0 * (p * p) as f64;
            assert!((got - want).abs() < 1e-9, "at {p}: {got} vs {want}");
        }
        // 2nd-order is NOT exact on x⁴ (truncation error −h²/12·f⁗ = −2).
        let s2 = laplacian(1, Order::Second);
        let got = eval_at(&s2, f, &[2]);
        assert!((got - 48.0).abs() > 1.0);
    }

    #[test]
    fn sixth_order_derivative_weights_sum_to_zero() {
        for order in [Order::Second, Order::Fourth, Order::Sixth] {
            let s = derivative(2, 1, order);
            let sum: f64 = s
                .iter()
                .map(|(_, e)| match e {
                    Expr::Const(c) => *c,
                    _ => unreachable!(),
                })
                .sum();
            assert!(sum.abs() < 1e-15, "{order:?}: {sum}");
        }
    }

    #[test]
    fn derivative_is_exact_on_low_degree() {
        // 4th-order d/dx exact through degree 4: f = x³ → f' = 3x².
        let s = derivative(1, 0, Order::Fourth);
        let f = |idx: &[i64]| (idx[0] as f64).powi(3);
        for p in -3i64..4 {
            let got = eval_at(&s, f, &[p]);
            assert!((got - 3.0 * (p * p) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn empirical_convergence_order() {
        // Apply the 1-D d² stencils to sin(x) at decreasing h; the error
        // must shrink ~h² (2nd) and ~h⁴ (4th).
        let err = |order: Order, n: usize| {
            let h = 1.0 / n as f64;
            let s = laplacian(1, order);
            let c = Component::new("g", s);
            let x0 = 0.3f64;
            let got = c
                .expand()
                .eval(&[0], &mut |_, idx| (x0 + idx[0] as f64 * h).sin())
                / (h * h);
            (got - (-(x0).sin())).abs()
        };
        for (order, expect_ratio) in [(Order::Second, 4.0), (Order::Fourth, 16.0)] {
            let e1 = err(order, 32);
            let e2 = err(order, 64);
            let ratio = e1 / e2;
            assert!(
                (ratio / expect_ratio - 1.0).abs() < 0.25,
                "{order:?}: ratio {ratio}, expected ~{expect_ratio}"
            );
        }
    }

    #[test]
    fn fourth_order_stencil_runs_through_validation() {
        // Larger reach needs a wider halo: interior must start at 2.
        let s = Stencil::new(
            Component::new("u", laplacian(2, Order::Fourth)),
            "out",
            RectDomain::new(&[2, 2], &[-2, -2], &[1, 1]),
        );
        let mut shapes = ShapeMap::new();
        shapes.insert("u".into(), vec![12, 12]);
        shapes.insert("out".into(), vec![12, 12]);
        assert!(s.validate(&shapes).is_ok());
        // A 1-cell halo is caught by validation.
        let bad = Stencil::new(
            Component::new("u", laplacian(2, Order::Fourth)),
            "out",
            RectDomain::interior(2),
        );
        assert!(bad.validate(&shapes).is_err());
    }
}
