//! The hand-optimized baseline: HPGMG written the way a human would write
//! it for this platform (fused direct loops, rayon parallelism).
//!
//! Every figure in the paper measures Snowflake-generated code against
//! hand-optimized HPGMG; this module is that comparator. The kernels are
//! fused (residual computes `rhs − Ax` in one pass, GSRB folds the
//! diagonal scale into the update), use raw row-major indexing, and
//! parallelize over `i`-planes — safe for GSRB because neighbors of a
//! color always have the opposite color.

use std::convert::Infallible;

use rayon::prelude::*;

use snowflake_grid::Grid;

use crate::cycle::{self, Step};
use crate::problem::{interior_diff_max, interior_norm_max, u_exact, LevelData, Problem};

/// Red cells have odd coordinate-parity (`(i+j+k) % 2 == 1`; the cell
/// `(1,1,1)` is red), matching `DomainUnion::red_black(3)`.
pub const RED: usize = 1;
/// Black cells have even coordinate-parity.
pub const BLACK: usize = 0;

#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: used only for plane-parallel loops whose write sets are disjoint
// by construction (each task owns a distinct i-plane).
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

#[inline(always)]
fn lin(s: usize, i: usize, j: usize, k: usize) -> usize {
    (i * s + j) * s + k
}

/// Unchecked slice read. The hand-optimized kernels index with loop
/// bounds `1..=n` into `(n+2)³` arrays, so every `lin()` index is in
/// bounds by construction; eliding the bounds checks is what a human
/// tuning this code would do (and what the generated C does for free).
#[inline(always)]
unsafe fn at(d: &[f64], c: usize) -> f64 {
    debug_assert!(c < d.len());
    *d.get_unchecked(c)
}

/// Apply the homogeneous-Dirichlet ghost fill (`ghost = −inside`) on all
/// six faces. Only faces are needed by the 7-point operator.
pub fn apply_boundary(x: &mut Grid, n: usize) {
    let s = n + 2;
    let d = x.as_mut_slice();
    for a in 1..=n {
        for b in 1..=n {
            d[lin(s, 0, a, b)] = -d[lin(s, 1, a, b)];
            d[lin(s, n + 1, a, b)] = -d[lin(s, n, a, b)];
            d[lin(s, a, 0, b)] = -d[lin(s, a, 1, b)];
            d[lin(s, a, n + 1, b)] = -d[lin(s, a, n, b)];
            d[lin(s, a, b, 0)] = -d[lin(s, a, b, 1)];
            d[lin(s, a, b, n + 1)] = -d[lin(s, a, b, n)];
        }
    }
}

/// Constant-coefficient Poisson fast path: `out = -b*lap_h(x)`. A tuned
/// HPGMG keeps dedicated CC kernels (no beta loads, constant diagonal);
/// so does this baseline.
fn apply_op_cc(out: &mut Grid, x: &Grid, lvl: &LevelData, b: f64) {
    let n = lvl.n;
    let s = n + 2;
    let bh2 = b / (lvl.h * lvl.h);
    let xd = x.as_slice();
    let out_ptr = SendPtr(out.as_mut_ptr());
    (1..=n).into_par_iter().for_each(|i| {
        // Rebind to force a whole-struct capture: edition-2021 disjoint
        // capture would otherwise grab the raw-pointer field directly,
        // bypassing SendPtr's Send/Sync impls.
        #[allow(clippy::redundant_locals)]
        let out_ptr = out_ptr;
        for j in 1..=n {
            // Slice windows over the seven input rows let the compiler
            // vectorize the unit-stride sweep (the payoff of writing the
            // kernel "by hand").
            let base = lin(s, i, j, 1);
            let ctr = &xd[base..base + n];
            let up = &xd[base + s * s..base + s * s + n];
            let dn = &xd[base - s * s..base - s * s + n];
            let no = &xd[base + s..base + s + n];
            let so = &xd[base - s..base - s + n];
            let e = &xd[base + 1..base + 1 + n];
            let w = &xd[base - 1..base - 1 + n];
            // SAFETY: each task owns its i-plane of `out`, disjoint from x.
            let o = unsafe { std::slice::from_raw_parts_mut(out_ptr.0.add(base), n) };
            for k in 0..n {
                o[k] = bh2 * (6.0 * ctr[k] - up[k] - dn[k] - no[k] - so[k] - e[k] - w[k]);
            }
        }
    });
}

fn smooth_gsrb_color_cc(lvl: &mut LevelData, parity: usize, b: f64) {
    let n = lvl.n;
    let s = n + 2;
    let bh2 = b / (lvl.h * lvl.h);
    let dinv = (lvl.h * lvl.h) / (6.0 * b);
    let rhs = lvl.rhs.as_slice();
    let x_ptr = SendPtr(lvl.x.as_mut_ptr());
    (1..=n).into_par_iter().for_each(|i| {
        // Rebind to force a whole-struct capture: edition-2021 disjoint
        // capture would otherwise grab the raw-pointer field directly,
        // bypassing SendPtr's Send/Sync impls.
        #[allow(clippy::redundant_locals)]
        let x_ptr = x_ptr;
        // SAFETY: color-disjoint writes; raw-pointer reads (see the VC
        // variant for the full argument).
        let rd = |c: usize| unsafe { *x_ptr.0.add(c) };
        for j in 1..=n {
            let k0 = 1 + (i + j + 1 + parity) % 2;
            for k in (k0..=n).step_by(2) {
                let c = lin(s, i, j, k);
                unsafe {
                    let xc = rd(c);
                    let ax = bh2
                        * (6.0 * xc
                            - rd(c + s * s)
                            - rd(c - s * s)
                            - rd(c + s)
                            - rd(c - s)
                            - rd(c + 1)
                            - rd(c - 1));
                    *x_ptr.0.add(c) = xc + dinv * (at(rhs, c) - ax);
                }
            }
        }
    });
}

fn smooth_jacobi_cc(lvl: &mut LevelData, b: f64) {
    let n = lvl.n;
    let s = n + 2;
    let bh2 = b / (lvl.h * lvl.h);
    let wdinv = (2.0 / 3.0) * (lvl.h * lvl.h) / (6.0 * b);
    let xd = lvl.x.as_slice();
    let rhs = lvl.rhs.as_slice();
    let out_ptr = SendPtr(lvl.res.as_mut_ptr());
    (1..=n).into_par_iter().for_each(|i| {
        // Rebind to force a whole-struct capture: edition-2021 disjoint
        // capture would otherwise grab the raw-pointer field directly,
        // bypassing SendPtr's Send/Sync impls.
        #[allow(clippy::redundant_locals)]
        let out_ptr = out_ptr;
        for j in 1..=n {
            let base = lin(s, i, j, 1);
            let ctr = &xd[base..base + n];
            let up = &xd[base + s * s..base + s * s + n];
            let dn = &xd[base - s * s..base - s * s + n];
            let no = &xd[base + s..base + s + n];
            let so = &xd[base - s..base - s + n];
            let e = &xd[base + 1..base + 1 + n];
            let w = &xd[base - 1..base - 1 + n];
            let f = &rhs[base..base + n];
            // SAFETY: each task owns its i-plane of `res`, disjoint from
            // x and rhs.
            let o = unsafe { std::slice::from_raw_parts_mut(out_ptr.0.add(base), n) };
            for k in 0..n {
                let ax = bh2 * (6.0 * ctr[k] - up[k] - dn[k] - no[k] - so[k] - e[k] - w[k]);
                o[k] = ctr[k] + wdinv * (f[k] - ax);
            }
        }
    });
}

/// Compute `out = A x` over the interior (ghosts of `x` must be current).
pub fn apply_op(out: &mut Grid, x: &Grid, lvl: &LevelData, a: f64, b: f64) {
    if !lvl.variable_coeff && a == 0.0 {
        return apply_op_cc(out, x, lvl, b);
    }
    let n = lvl.n;
    let s = n + 2;
    let h2inv = 1.0 / (lvl.h * lvl.h);
    let xd = x.as_slice();
    let (bx, by, bz) = (
        lvl.beta_x.as_slice(),
        lvl.beta_y.as_slice(),
        lvl.beta_z.as_slice(),
    );
    let al = lvl.alpha.as_slice();
    let out_ptr = SendPtr(out.as_mut_ptr());
    (1..=n).into_par_iter().for_each(|i| {
        // Rebind to force a whole-struct capture: edition-2021 disjoint
        // capture would otherwise grab the raw-pointer field directly,
        // bypassing SendPtr's Send/Sync impls.
        #[allow(clippy::redundant_locals)]
        let out_ptr = out_ptr;
        for j in 1..=n {
            for k in 1..=n {
                let c = lin(s, i, j, k);
                // SAFETY: indices derived from 1..=n bounds (see `at`);
                // each task writes only its own i-plane.
                unsafe {
                    let xc = at(xd, c);
                    let ax = a * at(al, c) * xc
                        - b * h2inv
                            * (at(bx, c + s * s) * (at(xd, c + s * s) - xc)
                                - at(bx, c) * (xc - at(xd, c - s * s))
                                + at(by, c + s) * (at(xd, c + s) - xc)
                                - at(by, c) * (xc - at(xd, c - s))
                                + at(bz, c + 1) * (at(xd, c + 1) - xc)
                                - at(bz, c) * (xc - at(xd, c - 1)));
                    *out_ptr.0.add(c) = ax;
                }
            }
        }
    });
}

/// Fused residual: `res = rhs − A x` (boundary applied first).
pub fn residual(lvl: &mut LevelData, a: f64, b: f64) {
    apply_boundary(&mut lvl.x, lvl.n);
    let n = lvl.n;
    let s = n + 2;
    let h2inv = 1.0 / (lvl.h * lvl.h);
    let xd = lvl.x.as_slice();
    let rhs = lvl.rhs.as_slice();
    let (bx, by, bz) = (
        lvl.beta_x.as_slice(),
        lvl.beta_y.as_slice(),
        lvl.beta_z.as_slice(),
    );
    let al = lvl.alpha.as_slice();
    let res_ptr = SendPtr(lvl.res.as_mut_ptr());
    (1..=n).into_par_iter().for_each(|i| {
        // Rebind to force a whole-struct capture: edition-2021 disjoint
        // capture would otherwise grab the raw-pointer field directly,
        // bypassing SendPtr's Send/Sync impls.
        #[allow(clippy::redundant_locals)]
        let res_ptr = res_ptr;
        for j in 1..=n {
            for k in 1..=n {
                let c = lin(s, i, j, k);
                // SAFETY: indices derived from 1..=n bounds (see `at`).
                unsafe {
                    let xc = at(xd, c);
                    let ax = a * at(al, c) * xc
                        - b * h2inv
                            * (at(bx, c + s * s) * (at(xd, c + s * s) - xc)
                                - at(bx, c) * (xc - at(xd, c - s * s))
                                + at(by, c + s) * (at(xd, c + s) - xc)
                                - at(by, c) * (xc - at(xd, c - s))
                                + at(bz, c + 1) * (at(xd, c + 1) - xc)
                                - at(bz, c) * (xc - at(xd, c - 1)));
                    *res_ptr.0.add(c) = at(rhs, c) - ax;
                }
            }
        }
    });
}

/// One GSRB color pass, in place: `x += dinv·(rhs − A x)` on cells with
/// `(i+j+k) % 2 == parity`. Plane-parallel (neighbors of a color are the
/// other color).
pub fn smooth_gsrb_color(lvl: &mut LevelData, parity: usize, a: f64, b: f64) {
    if !lvl.variable_coeff && a == 0.0 {
        return smooth_gsrb_color_cc(lvl, parity, b);
    }
    let n = lvl.n;
    let s = n + 2;
    let h2inv = 1.0 / (lvl.h * lvl.h);
    let rhs = lvl.rhs.as_slice();
    let dinv = lvl.dinv.as_slice();
    let (bx, by, bz) = (
        lvl.beta_x.as_slice(),
        lvl.beta_y.as_slice(),
        lvl.beta_z.as_slice(),
    );
    let al = lvl.alpha.as_slice();
    let x_ptr = SendPtr(lvl.x.as_mut_ptr());
    (1..=n).into_par_iter().for_each(|i| {
        // Rebind to force a whole-struct capture: edition-2021 disjoint
        // capture would otherwise grab the raw-pointer field directly,
        // bypassing SendPtr's Send/Sync impls.
        #[allow(clippy::redundant_locals)]
        let x_ptr = x_ptr;
        // SAFETY: reads of x touch only the opposite color (never written
        // this pass); writes stay in this task's color cells. No two tasks
        // share a write cell. All accesses go through the raw pointer so no
        // shared reference aliases the mutation.
        let rd = |c: usize| unsafe { *x_ptr.0.add(c) };
        for j in 1..=n {
            let k0 = 1 + (i + j + 1 + parity) % 2;
            for k in (k0..=n).step_by(2) {
                let c = lin(s, i, j, k);
                // SAFETY: indices derived from 1..=n bounds (see `at`).
                unsafe {
                    let xc = rd(c);
                    let ax = a * at(al, c) * xc
                        - b * h2inv
                            * (at(bx, c + s * s) * (rd(c + s * s) - xc)
                                - at(bx, c) * (xc - rd(c - s * s))
                                + at(by, c + s) * (rd(c + s) - xc)
                                - at(by, c) * (xc - rd(c - s))
                                + at(bz, c + 1) * (rd(c + 1) - xc)
                                - at(bz, c) * (xc - rd(c - 1)));
                    *x_ptr.0.add(c) = xc + at(dinv, c) * (at(rhs, c) - ax);
                }
            }
        }
    });
}

/// One full GSRB smooth: boundary, red, boundary, black (the paper's
/// interleaved sweep).
pub fn smooth_gsrb(lvl: &mut LevelData, a: f64, b: f64) {
    apply_boundary(&mut lvl.x, lvl.n);
    smooth_gsrb_color(lvl, RED, a, b);
    apply_boundary(&mut lvl.x, lvl.n);
    smooth_gsrb_color(lvl, BLACK, a, b);
}

/// One weighted-Jacobi sweep (ω = 2/3): `x ← x + ω·dinv·(rhs − Ax)`,
/// written out of place into `res` and swapped in.
pub fn smooth_jacobi(lvl: &mut LevelData, a: f64, b: f64) {
    apply_boundary(&mut lvl.x, lvl.n);
    if !lvl.variable_coeff && a == 0.0 {
        smooth_jacobi_cc(lvl, b);
        std::mem::swap(&mut lvl.x, &mut lvl.res);
        return;
    }
    let n = lvl.n;
    let s = n + 2;
    let h2inv = 1.0 / (lvl.h * lvl.h);
    let xd = lvl.x.as_slice();
    let rhs = lvl.rhs.as_slice();
    let dinv = lvl.dinv.as_slice();
    let (bx, by, bz) = (
        lvl.beta_x.as_slice(),
        lvl.beta_y.as_slice(),
        lvl.beta_z.as_slice(),
    );
    let al = lvl.alpha.as_slice();
    let out_ptr = SendPtr(lvl.res.as_mut_ptr());
    const OMEGA: f64 = 2.0 / 3.0;
    (1..=n).into_par_iter().for_each(|i| {
        // Rebind to force a whole-struct capture: edition-2021 disjoint
        // capture would otherwise grab the raw-pointer field directly,
        // bypassing SendPtr's Send/Sync impls.
        #[allow(clippy::redundant_locals)]
        let out_ptr = out_ptr;
        for j in 1..=n {
            for k in 1..=n {
                let c = lin(s, i, j, k);
                // SAFETY: indices derived from 1..=n bounds (see `at`).
                unsafe {
                    let xc = at(xd, c);
                    let ax = a * at(al, c) * xc
                        - b * h2inv
                            * (at(bx, c + s * s) * (at(xd, c + s * s) - xc)
                                - at(bx, c) * (xc - at(xd, c - s * s))
                                + at(by, c + s) * (at(xd, c + s) - xc)
                                - at(by, c) * (xc - at(xd, c - s))
                                + at(bz, c + 1) * (at(xd, c + 1) - xc)
                                - at(bz, c) * (xc - at(xd, c - 1)));
                    *out_ptr.0.add(c) = xc + OMEGA * at(dinv, c) * (at(rhs, c) - ax);
                }
            }
        }
    });
    std::mem::swap(&mut lvl.x, &mut lvl.res);
}

/// One degree-4 Chebyshev smooth (see [`crate::cheby`]):
/// `x_{n+1} = x_n + c1*(x_n - x_{n-1}) + c2*dinv*(rhs - A x_n)`, fused into
/// one pass per polynomial step. `lvl.tmp` carries `x_{n-1}` between steps
/// (unused on the first step, where c1 = 0).
pub fn smooth_chebyshev(lvl: &mut LevelData, a: f64, b: f64) {
    let coeffs = crate::cheby::coefficients(crate::cheby::DEGREE, crate::cheby::EIG_MAX);
    let n = lvl.n;
    let s = n + 2;
    let h2inv = 1.0 / (lvl.h * lvl.h);
    for (c1, c2) in coeffs {
        apply_boundary(&mut lvl.x, n);
        {
            let xd = lvl.x.as_slice();
            let rhs = lvl.rhs.as_slice();
            let dinv = lvl.dinv.as_slice();
            let (bx, by, bz) = (
                lvl.beta_x.as_slice(),
                lvl.beta_y.as_slice(),
                lvl.beta_z.as_slice(),
            );
            let al = lvl.alpha.as_slice();
            let tmp_ptr = SendPtr(lvl.tmp.as_mut_ptr());
            (1..=n).into_par_iter().for_each(|i| {
                // Rebind to force a whole-struct capture: edition-2021 disjoint
                // capture would otherwise grab the raw-pointer field directly,
                // bypassing SendPtr's Send/Sync impls.
                #[allow(clippy::redundant_locals)]
                let tmp_ptr = tmp_ptr;
                for j in 1..=n {
                    for k in 1..=n {
                        let c = lin(s, i, j, k);
                        // SAFETY: 1..=n indices (see `at`); tmp is read at
                        // c before being overwritten at c, and each task
                        // owns its own i-plane of tmp.
                        unsafe {
                            let xc = at(xd, c);
                            let ax = a * at(al, c) * xc
                                - b * h2inv
                                    * (at(bx, c + s * s) * (at(xd, c + s * s) - xc)
                                        - at(bx, c) * (xc - at(xd, c - s * s))
                                        + at(by, c + s) * (at(xd, c + s) - xc)
                                        - at(by, c) * (xc - at(xd, c - s))
                                        + at(bz, c + 1) * (at(xd, c + 1) - xc)
                                        - at(bz, c) * (xc - at(xd, c - 1)));
                            let prev = *tmp_ptr.0.add(c);
                            *tmp_ptr.0.add(c) =
                                xc + c1 * (xc - prev) + c2 * at(dinv, c) * (at(rhs, c) - ax);
                        }
                    }
                }
            });
        }
        // tmp now holds x_{n+1}; x holds x_n — swap so x is current and
        // tmp carries x_{n-1} for the next step.
        std::mem::swap(&mut lvl.x, &mut lvl.tmp);
    }
}

/// 8-cell-average restriction of any cell field (used for residuals in
/// V-cycles and for the right-hand side in F-cycles).
pub fn restrict_field(fine: &Grid, nf: usize, coarse: &mut Grid, nc: usize) {
    debug_assert_eq!(nf, 2 * nc);
    let sc = nc + 2;
    let sf = nf + 2;
    let fr = fine.as_slice();
    let out = coarse.as_mut_slice();
    for i in 1..=nc {
        for j in 1..=nc {
            for k in 1..=nc {
                let (fi, fj, fk) = (2 * i - 1, 2 * j - 1, 2 * k - 1);
                let mut acc = 0.0;
                for di in 0..2 {
                    for dj in 0..2 {
                        for dk in 0..2 {
                            acc += fr[lin(sf, fi + di, fj + dj, fk + dk)];
                        }
                    }
                }
                out[lin(sc, i, j, k)] = 0.125 * acc;
            }
        }
    }
}

/// Restriction: `coarse.rhs = R(fine.res)` (8-cell average) and
/// `coarse.x = 0`.
pub fn restrict(fine: &LevelData, coarse: &mut LevelData) {
    coarse.x.fill(0.0);
    restrict_field(&fine.res, fine.n, &mut coarse.rhs, coarse.n);
}

/// Piecewise-constant interpolation and correction:
/// `fine.x[2I−1+d] += coarse.x[I]` for `d ∈ {0,1}³`.
pub fn interpolate(coarse: &LevelData, fine: &mut LevelData) {
    let nc = coarse.n;
    let sc = nc + 2;
    let sf = fine.n + 2;
    let cx = coarse.x.as_slice();
    let fx = fine.x.as_mut_slice();
    for i in 1..=nc {
        for j in 1..=nc {
            for k in 1..=nc {
                let v = cx[lin(sc, i, j, k)];
                let (fi, fj, fk) = (2 * i - 1, 2 * j - 1, 2 * k - 1);
                for di in 0..2 {
                    for dj in 0..2 {
                        for dk in 0..2 {
                            fx[lin(sf, fi + di, fj + dj, fk + dk)] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Cell-centered trilinear interpolation and correction (see the
/// Snowflake builder `interpolate_linear_group` for the weight algebra).
/// Fills the coarse ghosts first so boundary children read fresh values.
// Ghost-padded index math: every ii/jj/kk and fi/fj/fk stays inside the
// padded box by construction, so the usize casts are exact.
#[allow(clippy::cast_possible_truncation)]
pub fn interpolate_linear(coarse: &mut LevelData, fine: &mut LevelData) {
    apply_boundary(&mut coarse.x, coarse.n);
    let nc = coarse.n;
    let sc = nc + 2;
    let sf = fine.n + 2;
    let cx = coarse.x.as_slice();
    let fx = fine.x.as_mut_slice();
    for i in 1..=nc {
        for j in 1..=nc {
            for k in 1..=nc {
                for ti in 0..2i64 {
                    for tj in 0..2i64 {
                        for tk in 0..2i64 {
                            let mut v = 0.0;
                            for ci in 0..2i64 {
                                for cj in 0..2i64 {
                                    for ck in 0..2i64 {
                                        let mut w = 1.0f64;
                                        let mut ii = i as i64;
                                        let mut jj = j as i64;
                                        let mut kk = k as i64;
                                        for (t, c, x) in [
                                            (ti, ci, &mut ii),
                                            (tj, cj, &mut jj),
                                            (tk, ck, &mut kk),
                                        ] {
                                            if c == 1 {
                                                w *= 0.25;
                                                *x += 2 * t - 1;
                                            } else {
                                                w *= 0.75;
                                            }
                                        }
                                        v += w * cx[lin(sc, ii as usize, jj as usize, kk as usize)];
                                    }
                                }
                            }
                            let (fi, fj, fk) = (
                                (2 * i as i64 - 1 + ti) as usize,
                                (2 * j as i64 - 1 + tj) as usize,
                                (2 * k as i64 - 1 + tk) as usize,
                            );
                            fx[lin(sf, fi, fj, fk)] += v;
                        }
                    }
                }
            }
        }
    }
}

/// The hand-optimized multigrid solver.
pub struct HandSolver {
    /// Problem configuration.
    pub problem: Problem,
    /// Levels, finest first.
    pub levels: Vec<LevelData>,
    /// The exact discrete solution on the finest level.
    pub x_true: Grid,
    /// Smoother used by the cycles.
    pub smoother: crate::Smoother,
    /// Coarse-grid solver.
    pub bottom: crate::BottomSolve,
    /// Prolongation operator.
    pub interp: crate::InterpKind,
}

impl HandSolver {
    /// Build all levels and manufacture the finest right-hand side so the
    /// discrete solution is known exactly.
    pub fn new(problem: Problem) -> Self {
        let mut levels: Vec<LevelData> = problem
            .level_sizes()
            .into_iter()
            .map(|n| LevelData::build(&problem, n))
            .collect();
        // Manufactured discrete solution: rhs = A·u* with u* sampled.
        let fine = &mut levels[0];
        let mut x_true = Grid::new(fine.x.shape());
        fine.fill_interior(&mut x_true, u_exact);
        apply_boundary(&mut x_true, fine.n);
        let mut rhs = Grid::new(fine.x.shape());
        apply_op(&mut rhs, &x_true, fine, problem.a, problem.b);
        fine.rhs = rhs;
        HandSolver {
            problem,
            levels,
            x_true,
            smoother: crate::Smoother::default(),
            bottom: crate::BottomSolve::default(),
            interp: crate::InterpKind::default(),
        }
    }

    /// Select the smoother (builder style).
    pub fn with_smoother(mut self, smoother: crate::Smoother) -> Self {
        self.smoother = smoother;
        self
    }

    /// Select the coarse-grid solver (builder style).
    pub fn with_bottom(mut self, bottom: crate::BottomSolve) -> Self {
        self.bottom = bottom;
        self
    }

    /// Select the prolongation operator (builder style).
    pub fn with_interp(mut self, interp: crate::InterpKind) -> Self {
        self.interp = interp;
        self
    }

    /// One V-cycle from level `l` down (the step sequence of
    /// [`cycle::vcycle`]).
    pub fn vcycle(&mut self, l: usize) {
        let steps = cycle::vcycle(l, self.levels.len(), self.bottom);
        cycle::run(self, steps).unwrap_or_else(|e| match e {});
    }

    /// One full-multigrid F-cycle (the step sequence of
    /// [`cycle::fcycle`]).
    pub fn fcycle(&mut self) {
        let steps = cycle::fcycle(self.levels.len(), self.bottom);
        cycle::run(self, steps).unwrap_or_else(|e| match e {});
    }

    /// Residual max-norm on the finest level.
    pub fn residual_norm(&mut self) -> f64 {
        let (a, b) = (self.problem.a, self.problem.b);
        residual(&mut self.levels[0], a, b);
        interior_norm_max(&self.levels[0].res, self.levels[0].n)
    }

    /// Solve from a zero initial guess; returns the residual norm after
    /// each cycle (prefixed by the initial norm).
    ///
    /// Accepts either a bare cycle count (`solver.solve(10)`) or a full
    /// [`crate::SolveOptions`] (F-cycle start, early-exit tolerance) —
    /// the same surface as [`crate::SnowSolver::solve`].
    pub fn solve(&mut self, opts: impl Into<crate::SolveOptions>) -> Vec<f64> {
        cycle::solve(self, opts.into()).unwrap_or_else(|e| match e {})
    }

    /// Max-norm error against the exact discrete solution.
    pub fn error_norm(&self) -> f64 {
        interior_diff_max(&self.levels[0].x, &self.x_true, self.levels[0].n)
    }
}

/// Levels `l` and `l + 1`, mutably.
fn fine_coarse(levels: &mut [LevelData], l: usize) -> (&mut LevelData, &mut LevelData) {
    let (fine, coarse) = levels.split_at_mut(l + 1);
    (&mut fine[l], &mut coarse[0])
}

impl cycle::Executor for HandSolver {
    type Error = Infallible;

    fn hierarchy(&self) -> (usize, crate::BottomSolve) {
        (self.levels.len(), self.bottom)
    }

    fn run(&mut self, step: Step) -> Result<(), Infallible> {
        let (a, b) = (self.problem.a, self.problem.b);
        match step {
            Step::Smooth(l) => match self.smoother {
                crate::Smoother::GsRb => smooth_gsrb(&mut self.levels[l], a, b),
                crate::Smoother::Chebyshev => smooth_chebyshev(&mut self.levels[l], a, b),
            },
            Step::Residual(l) => residual(&mut self.levels[l], a, b),
            Step::Restrict(l) => {
                let (fine, coarse) = fine_coarse(&mut self.levels, l);
                restrict(fine, coarse);
            }
            Step::RestrictRhs(l) => {
                let (fine, coarse) = fine_coarse(&mut self.levels, l);
                restrict_field(&fine.rhs, fine.n, &mut coarse.rhs, coarse.n);
            }
            Step::Prolong(l) => {
                let (fine, coarse) = fine_coarse(&mut self.levels, l);
                match self.interp {
                    crate::InterpKind::Constant => interpolate(coarse, fine),
                    crate::InterpKind::Linear => interpolate_linear(coarse, fine),
                }
            }
            Step::ClearX(l) => self.levels[l].x.fill(0.0),
            Step::Krylov(l) => crate::bottom::solve_bottom(&mut self.levels[l], a, b),
        }
        Ok(())
    }

    fn finest_residual_norm(&mut self) -> Result<f64, Infallible> {
        Ok(self.residual_norm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_negates_inside() {
        let mut g = Grid::new(&[6, 6, 6]);
        g.set(&[1, 3, 3], 2.0);
        g.set(&[4, 2, 2], -1.0);
        apply_boundary(&mut g, 4);
        assert_eq!(g.get(&[0, 3, 3]), -2.0);
        assert_eq!(g.get(&[5, 2, 2]), 1.0);
    }

    #[test]
    fn apply_op_is_laplacian_for_cc() {
        // A(u) with a=0,b=1,β=1 equals −Δh u; for u = x²+y²+z² (cell
        // centers), −Δh u = −6 exactly (2nd differences of quadratics are
        // exact).
        let p = Problem::poisson_cc(8);
        let lvl = LevelData::build(&p, 8);
        let mut u = Grid::new(lvl.x.shape());
        // Fill *everything* (incl. ghosts) analytically so no BC is needed.
        let h = lvl.h;
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..10 {
                    let (x, y, z) = (
                        (i as f64 - 0.5) * h,
                        (j as f64 - 0.5) * h,
                        (k as f64 - 0.5) * h,
                    );
                    u.set(&[i, j, k], x * x + y * y + z * z);
                }
            }
        }
        let mut out = Grid::new(lvl.x.shape());
        apply_op(&mut out, &u, &lvl, 0.0, 1.0);
        for i in 1..=8 {
            for j in 1..=8 {
                for k in 1..=8 {
                    assert!(
                        (out.get(&[i, j, k]) + 6.0).abs() < 1e-9,
                        "at ({i},{j},{k}): {}",
                        out.get(&[i, j, k])
                    );
                }
            }
        }
    }

    #[test]
    fn gsrb_colors_partition_interior() {
        // After one red + one black pass with rhs = A x_true the solution
        // x = x_true must be a fixed point (residual zero => no update).
        let p = Problem::poisson_vc(8);
        let mut solver = HandSolver::new(p);
        solver.levels[0].x = solver.x_true.clone();
        let before = solver.levels[0].x.clone();
        smooth_gsrb(&mut solver.levels[0], p.a, p.b);
        let after = &solver.levels[0].x;
        assert!(
            interior_diff_max(&before, after, 8) < 1e-12,
            "exact solution must be a smoother fixed point"
        );
    }

    #[test]
    fn residual_zero_at_exact_solution() {
        let p = Problem::poisson_vc(8);
        let mut solver = HandSolver::new(p);
        solver.levels[0].x = solver.x_true.clone();
        assert!(solver.residual_norm() < 1e-10);
    }

    #[test]
    fn restriction_averages_and_zeroes_coarse_x() {
        let p = Problem::poisson_cc(8);
        let mut solver = HandSolver::new(p);
        solver.levels[0].res.fill(1.0);
        solver.levels[1].x.fill(9.0);
        let (fine, coarse) = solver.levels.split_at_mut(1);
        restrict(&fine[0], &mut coarse[0]);
        assert_eq!(coarse[0].rhs.get(&[2, 3, 4]), 1.0);
        assert_eq!(coarse[0].x.norm_max(), 0.0);
    }

    #[test]
    fn interpolation_adds_coarse_values() {
        let p = Problem::poisson_cc(8);
        let mut solver = HandSolver::new(p);
        solver.levels[1].x.fill(0.0);
        solver.levels[1].x.set(&[2, 2, 2], 3.0);
        solver.levels[0].x.fill(1.0);
        let (fine, coarse) = solver.levels.split_at_mut(1);
        interpolate(&coarse[0], &mut fine[0]);
        // Fine cells (3..4)³ got +3.
        assert_eq!(fine[0].x.get(&[3, 3, 3]), 4.0);
        assert_eq!(fine[0].x.get(&[4, 4, 4]), 4.0);
        assert_eq!(fine[0].x.get(&[5, 4, 4]), 1.0);
        assert_eq!(fine[0].x.get(&[2, 3, 3]), 1.0);
    }

    #[test]
    fn vcycles_converge_cc() {
        let mut solver = HandSolver::new(Problem::poisson_cc(16));
        let norms = solver.solve(5);
        assert!(norms[0] > 0.0);
        for w in norms.windows(2) {
            assert!(w[1] < w[0] * 0.5, "must contract: {norms:?}");
        }
        assert!(
            norms[5] / norms[0] < 1e-4,
            "5 V-cycles should reduce residual by >1e4: {norms:?}"
        );
        assert!(solver.error_norm() < 1e-3);
    }

    #[test]
    fn vcycles_converge_vc() {
        let mut solver = HandSolver::new(Problem::poisson_vc(16));
        let norms = solver.solve(6);
        assert!(
            norms[6] / norms[0] < 1e-4,
            "VC multigrid should still contract: {norms:?}"
        );
    }

    #[test]
    fn dinv_a_spectrum_is_within_chebyshev_bound() {
        // Power iteration on D⁻¹A must stay below the EIG_MAX = 2 bound
        // the Chebyshev smoother assumes (Gershgorin argument).
        let p = Problem::poisson_vc(8);
        let lvl = LevelData::build(&p, 8);
        let shape = lvl.x.shape().to_vec();
        let mut v = Grid::new(&shape);
        v.fill_random(13, -1.0, 1.0);
        let mut av = Grid::new(&shape);
        let mut lambda = 0.0f64;
        for _ in 0..40 {
            apply_boundary(&mut v, 8);
            apply_op(&mut av, &v, &lvl, p.a, p.b);
            // w = dinv .* Av (interior), normalize, estimate Rayleigh-ish.
            let mut norm = 0.0f64;
            for i in 1..=8 {
                for j in 1..=8 {
                    for k in 1..=8 {
                        let w = lvl.dinv.get(&[i, j, k]) * av.get(&[i, j, k]);
                        av.set(&[i, j, k], w);
                        norm = norm.max(w.abs());
                    }
                }
            }
            lambda = norm / interior_norm_max(&v, 8).max(1e-300);
            // v = normalized(av) on the interior; ghosts refreshed above.
            v.fill(0.0);
            for i in 1..=8 {
                for j in 1..=8 {
                    for k in 1..=8 {
                        v.set(&[i, j, k], av.get(&[i, j, k]) / norm);
                    }
                }
            }
        }
        assert!(
            lambda < crate::cheby::EIG_MAX,
            "dominant eigenvalue estimate {lambda} exceeds the bound"
        );
        assert!(lambda > 1.0, "estimate should be near 2: {lambda}");
    }

    #[test]
    fn chebyshev_vcycles_converge() {
        let mut solver =
            HandSolver::new(Problem::poisson_vc(16)).with_smoother(crate::Smoother::Chebyshev);
        let norms = solver.solve(5);
        assert!(
            norms[5] / norms[0] < 1e-3,
            "Chebyshev-smoothed multigrid should contract: {norms:?}"
        );
        for w in norms.windows(2) {
            assert!(w[1] < w[0], "monotone: {norms:?}");
        }
    }

    #[test]
    fn chebyshev_smoother_reduces_residual_standalone() {
        let p = Problem::poisson_cc(8);
        let mut solver = HandSolver::new(p);
        solver.levels[0].x.fill(0.0);
        let r0 = solver.residual_norm();
        for _ in 0..5 {
            smooth_chebyshev(&mut solver.levels[0], p.a, p.b);
        }
        let r1 = solver.residual_norm();
        assert!(r1 < r0, "Chebyshev must reduce the residual: {r0} -> {r1}");
    }

    #[test]
    fn linear_interpolation_reproduces_affine_fields() {
        // Trilinear prolongation must be exact on affine functions in the
        // interior (away from the Dirichlet ghost influence).
        let p = Problem::poisson_cc(8);
        let mut solver = HandSolver::new(p);
        let f = |x: f64, y: f64, z: f64| 1.0 + 2.0 * x - 0.5 * y + 3.0 * z;
        {
            let coarse = &mut solver.levels[1];
            let mut cx = Grid::new(coarse.x.shape());
            coarse.fill_interior(&mut cx, f);
            coarse.x = cx;
        }
        solver.levels[0].x.fill(0.0);
        let (fine, coarse) = solver.levels.split_at_mut(1);
        interpolate_linear(&mut coarse[0], &mut fine[0]);
        let lvl = &fine[0];
        let h = lvl.h;
        // Children whose 8 coarse corners are all interior: fine idx 3..=6.
        for i in 3..=6usize {
            for j in 3..=6usize {
                for k in 3..=6usize {
                    let want = f(
                        (i as f64 - 0.5) * h,
                        (j as f64 - 0.5) * h,
                        (k as f64 - 0.5) * h,
                    );
                    let got = lvl.x.get(&[i, j, k]);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "at ({i},{j},{k}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_interp_fcycle_converges() {
        let p = Problem::poisson_vc(16);
        let mut solver = HandSolver::new(p).with_interp(crate::InterpKind::Linear);
        let norms = solver.solve(crate::SolveOptions::cycles(4).with_fmg(true));
        assert!(norms[4] / norms[0] < 1e-4, "{norms:?}");
    }

    #[test]
    fn fcycle_beats_single_vcycle() {
        let p = Problem::poisson_vc(16);
        let mut v = HandSolver::new(p);
        v.levels[0].x.fill(0.0);
        v.vcycle(0);
        let rv = v.residual_norm();
        let mut f = HandSolver::new(p);
        f.fcycle();
        let rf = f.residual_norm();
        // FMG seeds every level with an interpolated solution, so one
        // F-cycle must beat one zero-guess V-cycle.
        assert!(
            rf < rv,
            "F-cycle ({rf:.3e}) should beat one V-cycle ({rv:.3e})"
        );
    }

    #[test]
    fn fcycle_preserves_finest_rhs() {
        // The F-cycle restricts rhs downward but must leave the finest rhs
        // untouched.
        let p = Problem::poisson_cc(8);
        let mut solver = HandSolver::new(p);
        let rhs_before = solver.levels[0].rhs.clone();
        solver.fcycle();
        assert_eq!(solver.levels[0].rhs.max_abs_diff(&rhs_before), 0.0);
    }

    #[test]
    fn jacobi_reduces_residual() {
        let p = Problem::poisson_cc(8);
        let mut solver = HandSolver::new(p);
        solver.levels[0].x.fill(0.0);
        let r0 = solver.residual_norm();
        for _ in 0..10 {
            smooth_jacobi(&mut solver.levels[0], p.a, p.b);
        }
        let r1 = solver.residual_norm();
        assert!(
            r1 < r0 * 0.8,
            "Jacobi should damp the residual: {r0} -> {r1}"
        );
    }
}
