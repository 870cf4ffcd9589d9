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
//!
//! Set-up samples each field from per-axis tables: β and u* are products
//! of one factor per axis ([`beta_wave`], [`u_wave`]), evaluated once per
//! coordinate rather than once per cell, and every cell's product is taken
//! in the order of the pointwise [`beta_at`] and [`u_exact`], so the grids
//! are bitwise equal to sampling those functions cell by cell.

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

/// `sin(π·t)`, the factor of [`u_exact`] along each axis.
pub fn u_wave(t: f64) -> f64 {
    (std::f64::consts::PI * t).sin()
}

/// The exact solution used for manufactured right-hand sides.
pub fn u_exact(x: f64, y: f64, z: f64) -> f64 {
    u_wave(x) * u_wave(y) * u_wave(z)
}

/// `cos(2π·t)`, the factor of [`beta_at`] along each axis.
pub fn beta_wave(t: f64) -> f64 {
    (2.0 * std::f64::consts::PI * t).cos()
}

/// The analytic β field (strictly positive, smooth, non-separable).
pub fn beta_at(x: f64, y: f64, z: f64) -> f64 {
    1.0 + 0.45 * beta_wave(x) * beta_wave(y) * beta_wave(z)
}

/// The analytic α field (only read when `a != 0`).
pub fn alpha_at(x: f64, y: f64, z: f64) -> f64 {
    1.0 + 0.25 * x * y * z
}

/// The `s³` grid (`s = a.len()`) whose cell `(i, j, k)` is
/// `f(a[i], b[j], c[k])`, filled row by row.
fn tabulate(a: &[f64], b: &[f64], c: &[f64], f: impl Fn(f64, f64, f64) -> f64) -> Grid {
    let s = a.len();
    let mut grid = Grid::new(&[s, s, s]);
    for (plane, &x) in grid.as_mut_slice().chunks_exact_mut(s * s).zip(a) {
        for (row, &y) in plane.chunks_exact_mut(s).zip(b) {
            for (v, &z) in row.iter_mut().zip(c) {
                *v = f(x, y, z);
            }
        }
    }
    grid
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
    /// Allocate and fill a level for `problem` at interior size `n`. Every
    /// field is sampled from per-axis tables of its coordinates (and of
    /// [`beta_wave`]), with each cell's arithmetic in the order of the
    /// pointwise [`beta_at`] and [`alpha_at`], so the grids hold exactly
    /// their values.
    pub fn build(problem: &Problem, n: usize) -> Self {
        let h = 1.0 / n as f64;
        let s = n + 2;
        let shape = [s, s, s];
        let centre = cell_centres(n);
        let face: Vec<f64> = (0..s).map(|i| (i as f64 - 1.0) * h).collect();

        let (beta_x, beta_y, beta_z) = if problem.variable_coeff {
            let wc: Vec<f64> = centre.iter().map(|&t| beta_wave(t)).collect();
            let wf: Vec<f64> = face.iter().map(|&t| beta_wave(t)).collect();
            // Multiplied left to right as in `beta_at`, so each cell holds
            // exactly `beta_at`'s value.
            let beta = |a: &[f64], b: &[f64], c: &[f64]| {
                tabulate(a, b, c, |x, y, z| 1.0 + 0.45 * x * y * z)
            };
            (
                beta(&wf, &wc, &wc),
                beta(&wc, &wf, &wc),
                beta(&wc, &wc, &wf),
            )
        } else {
            let mut one = Grid::new(&shape);
            one.fill(1.0);
            (one.clone(), one.clone(), one)
        };
        let alpha = tabulate(&centre, &centre, &centre, alpha_at);

        let h2inv = 1.0 / (h * h);
        let mut dinv = Grid::new(&shape);
        let (al, bx, by, bz) = (
            alpha.as_slice(),
            beta_x.as_slice(),
            beta_y.as_slice(),
            beta_z.as_slice(),
        );
        let d = dinv.as_mut_slice();
        for c in interior(n) {
            let diag = problem.a * al[c]
                + problem.b
                    * h2inv
                    * (bx[c + s * s] + bx[c] + by[c + s] + by[c] + bz[c + 1] + bz[c]);
            d[c] = 1.0 / diag;
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

    /// [`u_exact`] sampled at the level's interior cell centres, from a
    /// per-axis table of [`u_wave`]; the ghost cells are zero.
    pub fn exact_solution(&self) -> Grid {
        let n = self.n;
        // A zero factor at both ghost ends of the table zeroes every ghost
        // cell (to +0: the interior factors are positive).
        let w: Vec<f64> = cell_centres(n)
            .into_iter()
            .enumerate()
            .map(|(i, t)| if (1..=n).contains(&i) { u_wave(t) } else { 0.0 })
            .collect();
        tabulate(&w, &w, &w, |x, y, z| x * y * z)
    }
}

/// Cell-centre coordinates `(i − ½)·h` of the `n + 2` cells along an axis
/// of a level with `n` interior cells, ghosts included.
fn cell_centres(n: usize) -> Vec<f64> {
    let h = 1.0 / n as f64;
    (0..n + 2).map(|i| (i as f64 - 0.5) * h).collect()
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

    /// The tabulated fields hold, bit for bit, the pointwise functions at
    /// every cell, ghosts included: β at its face coordinates, α and u* at
    /// cell centres (u* on the interior; its ghosts are zero).
    #[test]
    fn tables_match_the_pointwise_fields_bitwise() {
        for n in [4, 8, 64] {
            let lvl = LevelData::build(&Problem::poisson_vc(n), n);
            let u = lvl.exact_solution();
            let cc = LevelData::build(&Problem::poisson_cc(n), n);
            let h = 1.0 / n as f64;
            let c = |i: usize| (i as f64 - 0.5) * h;
            let f = |i: usize| (i as f64 - 1.0) * h;
            let bits = |g: &Grid, p: [usize; 3]| g.get(&p).to_bits();
            for i in 0..n + 2 {
                for j in 0..n + 2 {
                    for k in 0..n + 2 {
                        let p = [i, j, k];
                        let want = [
                            beta_at(f(i), c(j), c(k)),
                            beta_at(c(i), f(j), c(k)),
                            beta_at(c(i), c(j), f(k)),
                        ];
                        let got = [&lvl.beta_x, &lvl.beta_y, &lvl.beta_z];
                        for (axis, (g, w)) in got.iter().zip(want).enumerate() {
                            assert_eq!(bits(g, p), w.to_bits(), "n={n} beta[{axis}] at {p:?}");
                        }
                        for g in [&cc.beta_x, &cc.beta_y, &cc.beta_z] {
                            assert_eq!(bits(g, p), 1.0f64.to_bits(), "n={n} cc beta at {p:?}");
                        }
                        let alpha = alpha_at(c(i), c(j), c(k)).to_bits();
                        assert_eq!(bits(&lvl.alpha, p), alpha, "n={n} alpha at {p:?}");
                        assert_eq!(bits(&cc.alpha, p), alpha, "n={n} cc alpha at {p:?}");
                        let inside = p.iter().all(|&q| (1..=n).contains(&q));
                        let want = if inside {
                            u_exact(c(i), c(j), c(k))
                        } else {
                            0.0
                        };
                        assert_eq!(bits(&u, p), want.to_bits(), "n={n} u* at {p:?}");
                    }
                }
            }
        }
    }
}
