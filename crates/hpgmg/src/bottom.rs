//! BiCGStab bottom solver — reference HPGMG's default coarse-grid solve.
//!
//! The V-cycle's coarsest level is tiny, so a Krylov solve costs almost
//! nothing and converges far faster than repeated smoothing. BiCGStab is
//! pure host-side work in Snowflake terms: the operator applications go
//! through stencils, but the dot products and axpys are reductions the
//! DSL deliberately does not model — exactly as the paper's Python host
//! computed norms around the compiled stencils.

use snowflake_grid::Grid;

use crate::hand::{apply_boundary, apply_op};
use crate::problem::{interior, interior_norm_max, LevelData};

/// Result of a bottom solve.
#[derive(Clone, Copy, Debug)]
pub struct BottomStats {
    /// Iterations used.
    pub iters: usize,
    /// Final interior residual max-norm.
    pub residual: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Interior dot product of two `(n+2)³` grids (ghosts excluded).
pub fn interior_dot(a: &Grid, b: &Grid, n: usize) -> f64 {
    let (a, b) = (a.as_slice(), b.as_slice());
    interior(n).fold(0.0, |acc, c| acc + a[c] * b[c])
}

/// `dst[interior] += alpha * src[interior]`.
fn axpy(dst: &mut Grid, alpha: f64, src: &Grid, n: usize) {
    let (d, s) = (dst.as_mut_slice(), src.as_slice());
    for c in interior(n) {
        d[c] += alpha * s[c];
    }
}

/// `dst[interior] = a[interior] + alpha * b[interior]`.
fn assign_apb(dst: &mut Grid, a: &Grid, alpha: f64, b: &Grid, n: usize) {
    let (d, a, b) = (dst.as_mut_slice(), a.as_slice(), b.as_slice());
    for c in interior(n) {
        d[c] = a[c] + alpha * b[c];
    }
}

/// Apply the level operator to a correction vector: homogeneous-Dirichlet
/// ghost fill, then `out = A v`.
fn apply(out: &mut Grid, v: &mut Grid, lvl: &LevelData, a: f64, b: f64) {
    apply_boundary(v, lvl.n);
    apply_op(out, v, lvl, a, b);
}

/// The V-cycle's Krylov bottom solve: BiCGStab to a 1e-9 relative
/// residual, at most 50 iterations.
pub(crate) fn solve_bottom(lvl: &mut LevelData, a: f64, b: f64) {
    bicgstab(lvl, a, b, 50, 1e-9);
}

/// Unpreconditioned BiCGStab on `lvl`: solves `A x = rhs` in place,
/// starting from the current `lvl.x`. Returns iteration statistics.
pub fn bicgstab(lvl: &mut LevelData, a: f64, b: f64, max_iters: usize, rtol: f64) -> BottomStats {
    let n = lvl.n;
    let shape = lvl.x.shape().to_vec();
    let mut r = Grid::new(&shape);
    let mut scratch = Grid::new(&shape);

    // r = rhs − A x
    {
        let mut x = std::mem::replace(&mut lvl.x, Grid::new(&shape));
        apply(&mut scratch, &mut x, lvl, a, b);
        lvl.x = x;
    }
    assign_apb(&mut r, &lvl.rhs, -1.0, &scratch, n); // rhs + (−1)·Ax ≡ rhs − Ax
    let r0 = r.clone();
    let target = interior_norm_max(&r, n) * rtol;
    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut v = Grid::new(&shape);
    let mut p = Grid::new(&shape);
    let mut s = Grid::new(&shape);
    let mut t = Grid::new(&shape);

    let mut stats = BottomStats {
        iters: 0,
        residual: f64::INFINITY,
        converged: false,
    };
    for it in 1..=max_iters {
        stats.iters = it;
        let rho_new = interior_dot(&r0, &r, n);
        if rho_new.abs() < 1e-300 {
            break; // breakdown: return best effort
        }
        let beta = (rho_new / rho) * (alpha / omega);
        // p = r + beta (p − omega v)
        let (pd, rd, vd) = (p.as_mut_slice(), r.as_slice(), v.as_slice());
        for c in interior(n) {
            pd[c] = rd[c] + beta * (pd[c] - omega * vd[c]);
        }
        apply(&mut v, &mut p, lvl, a, b);
        let denom = interior_dot(&r0, &v, n);
        if denom.abs() < 1e-300 {
            break;
        }
        alpha = rho_new / denom;
        assign_apb(&mut s, &r, -alpha, &v, n); // s = r − alpha v
        let s_norm = interior_norm_max(&s, n);
        if s_norm <= target {
            axpy(&mut lvl.x, alpha, &p, n);
            stats.residual = s_norm;
            stats.converged = true;
            return stats;
        }
        apply(&mut t, &mut s, lvl, a, b);
        let tt = interior_dot(&t, &t, n);
        if tt.abs() < 1e-300 {
            break;
        }
        omega = interior_dot(&t, &s, n) / tt;
        // x += alpha p + omega s
        axpy(&mut lvl.x, alpha, &p, n);
        axpy(&mut lvl.x, omega, &s, n);
        // r = s − omega t
        assign_apb(&mut r, &s, -omega, &t, n);
        let r_norm = interior_norm_max(&r, n);
        stats.residual = r_norm;
        if r_norm <= target {
            stats.converged = true;
            return stats;
        }
        rho = rho_new;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hand::residual;
    use crate::problem::Problem;

    fn coarse_level(vc: bool) -> (Problem, LevelData) {
        let p = if vc {
            Problem::poisson_vc(4)
        } else {
            Problem::poisson_cc(4)
        };
        let mut lvl = LevelData::build(&p, 4);
        lvl.rhs.fill_random(5, -1.0, 1.0);
        // Project out any constant inconsistency: Dirichlet A is SPD so
        // every rhs is fine; nothing to do.
        (p, lvl)
    }

    #[test]
    fn bicgstab_solves_coarse_poisson() {
        for vc in [false, true] {
            let (p, mut lvl) = coarse_level(vc);
            let stats = bicgstab(&mut lvl, p.a, p.b, 60, 1e-10);
            assert!(stats.converged, "vc={vc}: {stats:?}");
            residual(&mut lvl, p.a, p.b);
            let r = interior_norm_max(&lvl.res, lvl.n);
            let scale = interior_norm_max(&lvl.rhs, lvl.n);
            assert!(r <= scale * 1e-9, "vc={vc}: residual {r} vs rhs {scale}");
        }
    }

    #[test]
    fn bicgstab_beats_smoothing_at_equal_operator_applications() {
        // BiCGStab uses 2 A-applications per iteration; give the smoother
        // the same budget and compare residuals.
        let (p, mut krylov) = coarse_level(true);
        let (_, mut smooth) = coarse_level(true);
        let stats = bicgstab(&mut krylov, p.a, p.b, 10, 0.0);
        let budget = 2 * stats.iters; // GSRB smooths ≈ A applications
        for _ in 0..budget {
            crate::hand::smooth_gsrb(&mut smooth, p.a, p.b);
        }
        residual(&mut krylov, p.a, p.b);
        residual(&mut smooth, p.a, p.b);
        let rk = interior_norm_max(&krylov.res, krylov.n);
        let rs = interior_norm_max(&smooth.res, smooth.n);
        assert!(
            rk < rs,
            "Krylov ({rk:.3e}) should beat smoothing ({rs:.3e}) per A-application"
        );
    }

    #[test]
    fn interior_dot_excludes_ghosts() {
        let mut a = Grid::new(&[4, 4, 4]);
        let mut b = Grid::new(&[4, 4, 4]);
        a.fill(1.0);
        b.fill(1.0);
        // interior of n=2 is 2³ = 8 cells
        assert_eq!(interior_dot(&a, &b, 2), 8.0);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let (p, mut lvl) = coarse_level(false);
        lvl.rhs.fill(0.0);
        lvl.x.fill(0.0);
        let stats = bicgstab(&mut lvl, p.a, p.b, 10, 1e-12);
        assert!(stats.iters <= 1);
    }
}
