//! The analytic test problem and per-level storage.
//!
//! We solve `a·αu − b·∇·(β∇u) = f` on `[0,1]³` with homogeneous Dirichlet
//! boundaries. To verify solvers *exactly* (independent of discretization
//! error), the right-hand side is *manufactured discretely*: pick an
//! analytic `u*`, sample it at cell centers, apply the ghost-cell boundary
//! condition, and set `f = A_h u*`. The discrete system then has `u*`
//! (sampled) as its exact solution, so solver error can be driven to
//! machine precision and the per-V-cycle residual contraction measured
//! cleanly.
//!
//! β is an analytic, strictly positive, spatially varying field in the
//! variable-coefficient configuration and exactly 1 in the constant-
//! coefficient one; each multigrid level samples β at its own face
//! centers (the reference HPGMG restricts face coefficients instead —
//! both choices yield a valid coarse operator; ours keeps setup local to a
//! level, see DESIGN.md).

use snowflake_grid::Grid;

/// Problem configuration.
#[derive(Clone, Copy, Debug)]
pub struct Problem {
    /// Interior cells per side on the finest level (power of two ≥ 4).
    pub n: usize,
    /// Variable (analytic β) or constant (β ≡ 1) coefficients.
    pub variable_coeff: bool,
    /// Coefficient of the identity term (`a·αu`). 0 for Poisson.
    pub a: f64,
    /// Coefficient of the divergence term. 1 for Poisson.
    pub b: f64,
}

impl Problem {
    /// Constant-coefficient Poisson problem.
    pub fn poisson_cc(n: usize) -> Self {
        Problem {
            n,
            variable_coeff: false,
            a: 0.0,
            b: 1.0,
        }
    }

    /// Variable-coefficient Poisson-type problem.
    pub fn poisson_vc(n: usize) -> Self {
        Problem {
            n,
            variable_coeff: true,
            a: 0.0,
            b: 1.0,
        }
    }

    /// Level sizes from finest to coarsest (each halves, stopping at
    /// [`crate::COARSEST_N`]).
    ///
    /// # Panics
    /// Panics unless `n` is a power of two with `n >= COARSEST_N`.
    pub fn level_sizes(&self) -> Vec<usize> {
        assert!(
            self.n.is_power_of_two() && self.n >= crate::COARSEST_N,
            "finest level must be a power of two >= {}, got {}",
            crate::COARSEST_N,
            self.n
        );
        let mut sizes = Vec::new();
        let mut n = self.n;
        loop {
            sizes.push(n);
            if n == crate::COARSEST_N {
                break;
            }
            n /= 2;
        }
        sizes
    }
}

/// The exact solution used for manufactured right-hand sides.
pub fn u_exact(x: f64, y: f64, z: f64) -> f64 {
    (std::f64::consts::PI * x).sin()
        * (std::f64::consts::PI * y).sin()
        * (std::f64::consts::PI * z).sin()
}

/// The analytic β field (strictly positive, smooth, non-separable).
pub fn beta_at(x: f64, y: f64, z: f64) -> f64 {
    use std::f64::consts::PI;
    1.0 + 0.45 * (2.0 * PI * x).cos() * (2.0 * PI * y).cos() * (2.0 * PI * z).cos()
}

/// The analytic α field (only read when `a != 0`).
pub fn alpha_at(x: f64, y: f64, z: f64) -> f64 {
    1.0 + 0.25 * x * y * z
}

/// All storage for one multigrid level: `(n+2)³` arrays with a one-cell
/// ghost shell; face-centered β arrays share the same allocation shape
/// (entries beyond the face range are unused).
#[derive(Clone, Debug)]
pub struct LevelData {
    /// Interior cells per side.
    pub n: usize,
    /// Whether β varies in space (false ⇒ β ≡ 1, enabling the
    /// constant-coefficient fast kernels in the hand baseline).
    pub variable_coeff: bool,
    /// Mesh spacing `1/n`.
    pub h: f64,
    /// Solution / correction.
    pub x: Grid,
    /// Right-hand side.
    pub rhs: Grid,
    /// Residual scratch.
    pub res: Grid,
    /// Inverse diagonal of the operator.
    pub dinv: Grid,
    /// α samples at cell centers.
    pub alpha: Grid,
    /// β at x-faces: `beta_x[i,j,k]` is the face between cells `i-1` and `i`.
    pub beta_x: Grid,
    /// β at y-faces.
    pub beta_y: Grid,
    /// β at z-faces.
    pub beta_z: Grid,
}

impl LevelData {
    /// Allocate and fill a level for `problem` at interior size `n`.
    pub fn build(problem: &Problem, n: usize) -> Self {
        let h = 1.0 / n as f64;
        let s = n + 2;
        let shape = [s, s, s];
        let cc = |i: usize| (i as f64 - 0.5) * h; // cell-center coordinate
        let fc = |i: usize| (i as f64 - 1.0) * h; // face coordinate

        let beta = |x: f64, y: f64, z: f64| {
            if problem.variable_coeff {
                beta_at(x, y, z)
            } else {
                1.0
            }
        };
        let beta_x = Grid::from_fn(&shape, |p| beta(fc(p[0]), cc(p[1]), cc(p[2])));
        let beta_y = Grid::from_fn(&shape, |p| beta(cc(p[0]), fc(p[1]), cc(p[2])));
        let beta_z = Grid::from_fn(&shape, |p| beta(cc(p[0]), cc(p[1]), fc(p[2])));
        let alpha = Grid::from_fn(&shape, |p| alpha_at(cc(p[0]), cc(p[1]), cc(p[2])));

        let h2inv = 1.0 / (h * h);
        let mut dinv = Grid::new(&shape);
        for i in 1..=n {
            for j in 1..=n {
                for k in 1..=n {
                    let diag = problem.a * alpha.get(&[i, j, k])
                        + problem.b
                            * h2inv
                            * (beta_x.get(&[i + 1, j, k])
                                + beta_x.get(&[i, j, k])
                                + beta_y.get(&[i, j + 1, k])
                                + beta_y.get(&[i, j, k])
                                + beta_z.get(&[i, j, k + 1])
                                + beta_z.get(&[i, j, k]));
                    dinv.set(&[i, j, k], 1.0 / diag);
                }
            }
        }

        LevelData {
            n,
            variable_coeff: problem.variable_coeff,
            h,
            x: Grid::new(&shape),
            rhs: Grid::new(&shape),
            res: Grid::new(&shape),
            dinv,
            alpha,
            beta_x,
            beta_y,
            beta_z,
        }
    }

    /// Fill a grid's interior with a function of the cell-center position.
    pub fn fill_interior(&self, grid: &mut Grid, f: impl Fn(f64, f64, f64) -> f64) {
        let h = self.h;
        for i in 1..=self.n {
            for j in 1..=self.n {
                for k in 1..=self.n {
                    grid.set(
                        &[i, j, k],
                        f(
                            (i as f64 - 0.5) * h,
                            (j as f64 - 0.5) * h,
                            (k as f64 - 0.5) * h,
                        ),
                    );
                }
            }
        }
    }
}

/// Flat indices of the `n³` interior cells of an `(n+2)³` grid, visiting
/// `i`, `j` and `k` in ascending order (row-major).
pub fn interior(n: usize) -> impl Iterator<Item = usize> {
    let s = n + 2;
    (1..=n).flat_map(move |i| {
        (1..=n).flat_map(move |j| {
            let row = (i * s + j) * s;
            row + 1..=row + n
        })
    })
}

/// Max-norm over the `n³` interior of an `(n+2)³` grid (ghost cells
/// excluded).
pub fn interior_norm_max(grid: &Grid, n: usize) -> f64 {
    let g = grid.as_slice();
    interior(n).fold(0.0, |m, c| m.max(g[c].abs()))
}

/// Max-norm of the interior difference of two `(n+2)³` grids.
pub fn interior_diff_max(a: &Grid, b: &Grid, n: usize) -> f64 {
    let (a, b) = (a.as_slice(), b.as_slice());
    interior(n).fold(0.0, |m, c| m.max((a[c] - b[c]).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_sizes_halve_to_coarsest() {
        let p = Problem::poisson_cc(32);
        assert_eq!(p.level_sizes(), vec![32, 16, 8, 4]);
        let p = Problem::poisson_cc(4);
        assert_eq!(p.level_sizes(), vec![4]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Problem::poisson_cc(12).level_sizes();
    }

    #[test]
    fn beta_is_strictly_positive() {
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..10 {
                    let (x, y, z) = (i as f64 / 10.0, j as f64 / 10.0, k as f64 / 10.0);
                    assert!(beta_at(x, y, z) > 0.5);
                }
            }
        }
    }

    #[test]
    fn cc_level_has_unit_beta_and_constant_dinv() {
        let lvl = LevelData::build(&Problem::poisson_cc(8), 8);
        assert_eq!(lvl.beta_x.get(&[3, 4, 5]), 1.0);
        // Poisson CC: dinv = h²/6 everywhere in the interior.
        let expect = lvl.h * lvl.h / 6.0;
        for i in 1..=8 {
            assert!((lvl.dinv.get(&[i, 4, 4]) - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn vc_level_dinv_matches_face_sum() {
        let p = Problem::poisson_vc(8);
        let lvl = LevelData::build(&p, 8);
        let (i, j, k) = (3usize, 5, 2);
        let h2inv = 1.0 / (lvl.h * lvl.h);
        let diag = h2inv
            * (lvl.beta_x.get(&[i + 1, j, k])
                + lvl.beta_x.get(&[i, j, k])
                + lvl.beta_y.get(&[i, j + 1, k])
                + lvl.beta_y.get(&[i, j, k])
                + lvl.beta_z.get(&[i, j, k + 1])
                + lvl.beta_z.get(&[i, j, k]));
        assert!((lvl.dinv.get(&[i, j, k]) - 1.0 / diag).abs() < 1e-15);
    }

    #[test]
    fn u_exact_vanishes_on_boundary_planes() {
        assert!(u_exact(0.0, 0.3, 0.7).abs() < 1e-15);
        assert!(u_exact(1.0, 0.3, 0.7).abs() < 1e-15);
        assert!(u_exact(0.5, 0.0, 0.7).abs() < 1e-15);
        assert!(u_exact(0.5, 0.5, 1.0).abs() < 1e-15);
        assert!(u_exact(0.5, 0.5, 0.5) > 0.9);
    }

    #[test]
    fn interior_visits_cells_in_row_major_order() {
        let g = Grid::new(&[5, 5, 5]);
        let want: Vec<usize> = (1..=3)
            .flat_map(|i| (1..=3).flat_map(move |j| (1..=3).map(move |k| [i, j, k])))
            .map(|p| g.linear(&p))
            .collect();
        assert_eq!(interior(3).collect::<Vec<_>>(), want);
    }

    #[test]
    fn fill_interior_leaves_ghosts_zero() {
        let lvl = LevelData::build(&Problem::poisson_cc(4), 4);
        let mut g = Grid::new(&[6, 6, 6]);
        lvl.fill_interior(&mut g, |_, _, _| 1.0);
        assert_eq!(g.get(&[0, 3, 3]), 0.0);
        assert_eq!(g.get(&[5, 3, 3]), 0.0);
        assert_eq!(g.get(&[3, 3, 3]), 1.0);
    }
}
