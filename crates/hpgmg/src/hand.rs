//! The hand-optimized baseline: HPGMG written the way a human would write
//! it for this platform (fused direct loops, rayon parallelism).
//!
//! Every figure in the paper measures Snowflake-generated code against
//! hand-optimized HPGMG; this module is that comparator. Its seven-point
//! kernels share one mechanism:
//!
//! * one operator per coefficient kind gives `(A x)[c]`: `Cc` for β ≡ 1
//!   and `a = 0` (no coefficient loads, as a tuned HPGMG keeps dedicated
//!   constant-coefficient kernels) and `Vc` for `a·α·x − b·h⁻²·Σ β∇x`;
//! * one `sweep` writes `update(c, x[c], (A x)[c])` to every interior cell
//!   or to one GSRB color, with one rayon task per `i`-plane, over raw
//!   row-major indexing.
//!
//! Each public kernel chooses an operator, the cells and a fused update:
//! residual computes `rhs − Ax` in one pass, GSRB folds the diagonal scale
//! into the update. An in-place sweep must be one GSRB color, which is safe
//! to run plane-parallel because the neighbours of a color always have the
//! opposite color.

use std::convert::Infallible;

use rayon::prelude::*;

use snowflake_grid::Grid;

use crate::cycle::{self, Step};
use crate::problem::{interior_diff_max, interior_norm_max, LevelData, Problem};

/// Red cells have odd coordinate-parity (`(i+j+k) % 2 == 1`; the cell
/// `(1,1,1)` is red), matching `DomainUnion::red_black(3)`.
pub const RED: usize = 1;
/// Black cells have even coordinate-parity.
pub const BLACK: usize = 0;

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

/// The cells of a level grid, checked once to be `(n+2)³`, so that the
/// sweeps may read any interior cell and its six neighbours with [`at`].
fn level_cells(grid: &Grid, n: usize) -> &[f64] {
    assert_eq!(
        grid.len(),
        (n + 2).pow(3),
        "level grids must be (n+2)³ cells"
    );
    grid.as_slice()
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

/// The seven-point operator of one coefficient kind on one level, with
/// its constants resolved once per sweep.
trait Operator: Sync {
    /// Interior cells per side of the operator's level.
    fn n(&self) -> usize;

    /// `(A x)[c]`, reading the operand through `x(index)`.
    ///
    /// # Safety
    /// `c` must be an interior cell of an `(n+2)³` grid.
    unsafe fn apply(&self, x: impl Fn(usize) -> f64, c: usize) -> f64;
}

/// The constant-coefficient operator `b·h⁻²·(6x − Σ neighbours)`.
struct Cc {
    n: usize,
    bh2: f64,
}

impl Cc {
    /// `lvl`'s operator when β ≡ 1 and `a = 0`; `None` otherwise.
    fn of(lvl: &LevelData, a: f64, b: f64) -> Option<Cc> {
        (!lvl.variable_coeff && a == 0.0).then(|| Cc {
            n: lvl.n,
            bh2: b / (lvl.h * lvl.h),
        })
    }
}

impl Operator for Cc {
    fn n(&self) -> usize {
        self.n
    }

    #[inline(always)]
    unsafe fn apply(&self, x: impl Fn(usize) -> f64, c: usize) -> f64 {
        let s = self.n + 2;
        let ss = s * s;
        self.bh2 * (6.0 * x(c) - x(c + ss) - x(c - ss) - x(c + s) - x(c - s) - x(c + 1) - x(c - 1))
    }
}

/// The variable-coefficient operator `a·α·x − b·h⁻²·Σ β∇x`.
struct Vc<'a> {
    n: usize,
    a: f64,
    b: f64,
    h2inv: f64,
    alpha: &'a [f64],
    beta: [&'a [f64]; 3],
}

impl<'a> Vc<'a> {
    /// The operator of the level with `n`, `h`, α and face β (x, y, z).
    /// It takes the grids rather than the level, so that a kernel can write
    /// another grid of the same level while the operator reads these.
    fn new(n: usize, h: f64, alpha: &'a Grid, beta: [&'a Grid; 3], a: f64, b: f64) -> Self {
        Vc {
            n,
            a,
            b,
            h2inv: 1.0 / (h * h),
            alpha: level_cells(alpha, n),
            beta: beta.map(|g| level_cells(g, n)),
        }
    }
}

impl Operator for Vc<'_> {
    fn n(&self) -> usize {
        self.n
    }

    #[inline(always)]
    unsafe fn apply(&self, x: impl Fn(usize) -> f64, c: usize) -> f64 {
        let s = self.n + 2;
        let ss = s * s;
        let [bx, by, bz] = self.beta;
        let xc = x(c);
        self.a * at(self.alpha, c) * xc
            - self.b
                * self.h2inv
                * (at(bx, c + ss) * (x(c + ss) - xc) - at(bx, c) * (xc - x(c - ss))
                    + at(by, c + s) * (x(c + s) - xc)
                    - at(by, c) * (xc - x(c - s))
                    + at(bz, c + 1) * (x(c + 1) - xc)
                    - at(bz, c) * (xc - x(c - 1)))
    }
}

/// The cells a sweep updates, and the grids it reads and writes.
enum Cells<'a> {
    /// Every interior cell of `out`, from `x` (a distinct grid).
    All { x: &'a Grid, out: &'a mut Grid },
    /// The cells of `x` with `(i+j+k) % 2 == parity`, in place.
    Color { x: &'a mut Grid, parity: usize },
}

/// Write `update(c, x[c], (A x)[c], &mut out[c])` to the `cells`, one
/// rayon task per `i`-plane. `update` stores the cell's new value and may
/// read its old one first. The sweep passes only interior cells, so an
/// update may read any grid from [`level_cells`] at `c` with [`at`].
fn sweep<O: Operator>(op: &O, cells: Cells<'_>, update: impl Fn(usize, f64, f64, &mut f64) + Sync) {
    #[derive(Clone, Copy)]
    struct SendPtr(*mut f64);
    // SAFETY: each task writes only cells of its own i-plane, and no task
    // reads a cell that another writes. The one condition is that an
    // in-place sweep must be a GSRB color (`Cells::Color`): the neighbours
    // of a color all have the other color, which the pass never writes.
    // An out-of-place sweep reads `x`, a grid distinct from `out`.
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}

    #[derive(Clone, Copy)]
    enum Plan<'a> {
        All(&'a [f64], SendPtr),
        Color(SendPtr, usize),
    }

    let n = op.n();
    let s = n + 2;
    let plan = match cells {
        Cells::All { x, out } => {
            level_cells(out, n);
            Plan::All(level_cells(x, n), SendPtr(out.as_mut_ptr()))
        }
        Cells::Color { x, parity } => {
            level_cells(x, n);
            Plan::Color(SendPtr(x.as_mut_ptr()), parity)
        }
    };
    (1..=n).into_par_iter().for_each(|i| {
        for j in 1..=n {
            let c0 = lin(s, i, j, 1);
            match plan {
                // SAFETY: interior row (i, j), written by this task alone.
                Plan::All(x, out) => unsafe {
                    let row = std::slice::from_raw_parts_mut(out.0.add(c0), n);
                    row_out_of_place(op, x, row, c0, &update);
                },
                // SAFETY: interior cells of this task's plane, of one color.
                Plan::Color(x, parity) => unsafe {
                    let first = c0 + (i + j + 1 + parity) % 2;
                    row_in_place(op, x.0, first, c0 + n, &update);
                },
            }
        }
    });
}

/// One row of an out-of-place sweep, from cell `c0`. `x` and `out` arrive
/// as distinct references, so LLVM knows no store changes a read and
/// vectorizes the unit-stride row.
///
/// # Safety
/// Cells `c0..c0 + out.len()` are an interior row of `op`'s level, and `x`
/// is an `(n+2)³` grid of that level.
#[inline(never)]
unsafe fn row_out_of_place<O: Operator>(
    op: &O,
    x: &[f64],
    out: &mut [f64],
    c0: usize,
    update: &impl Fn(usize, f64, f64, &mut f64),
) {
    let rd = |d: usize| at(x, d);
    for (k, o) in out.iter_mut().enumerate() {
        let c = c0 + k;
        update(c, rd(c), op.apply(rd, c), o);
    }
}

/// One row of an in-place color sweep: cells `first, first + 2, …` below
/// `end`, read and written through the one raw pointer `x`.
///
/// # Safety
/// The cells are interior cells of the `(n+2)³` grid at `x`, and no other
/// thread touches them or writes their neighbours meanwhile.
#[inline(never)]
unsafe fn row_in_place<O: Operator>(
    op: &O,
    x: *mut f64,
    first: usize,
    end: usize,
    update: &impl Fn(usize, f64, f64, &mut f64),
) {
    let rd = |d: usize| *x.add(d);
    for c in (first..end).step_by(2) {
        let (xc, ax) = (rd(c), op.apply(rd, c));
        update(c, xc, ax, &mut *x.add(c));
    }
}

/// Compute `out = A x` over the interior (ghosts of `x` must be current).
pub fn apply_op(out: &mut Grid, x: &Grid, lvl: &LevelData, a: f64, b: f64) {
    let beta = [&lvl.beta_x, &lvl.beta_y, &lvl.beta_z];
    let vc = Vc::new(lvl.n, lvl.h, &lvl.alpha, beta, a, b);
    let cells = Cells::All { x, out };
    let update = |_, _, ax, o: &mut f64| *o = ax;
    match Cc::of(lvl, a, b) {
        Some(cc) => sweep(&cc, cells, update),
        None => sweep(&vc, cells, update),
    }
}

/// Fused residual: `res = rhs − A x` (boundary applied first).
pub fn residual(lvl: &mut LevelData, a: f64, b: f64) {
    apply_boundary(&mut lvl.x, lvl.n);
    let beta = [&lvl.beta_x, &lvl.beta_y, &lvl.beta_z];
    let op = Vc::new(lvl.n, lvl.h, &lvl.alpha, beta, a, b);
    let rhs = level_cells(&lvl.rhs, lvl.n);
    let cells = Cells::All {
        x: &lvl.x,
        out: &mut lvl.res,
    };
    // SAFETY (each update below): `sweep` passes interior cells only.
    sweep(&op, cells, |c, _, ax, res| unsafe {
        *res = at(rhs, c) - ax
    });
}

/// One GSRB color pass, in place: `x += dinv·(rhs − A x)` on cells with
/// `(i+j+k) % 2 == parity`. Plane-parallel (neighbors of a color are the
/// other color).
pub fn smooth_gsrb_color(lvl: &mut LevelData, parity: usize, a: f64, b: f64) {
    let cc = Cc::of(lvl, a, b);
    let cc_dinv = (lvl.h * lvl.h) / (6.0 * b);
    let beta = [&lvl.beta_x, &lvl.beta_y, &lvl.beta_z];
    let vc = Vc::new(lvl.n, lvl.h, &lvl.alpha, beta, a, b);
    let (rhs, dinv) = (level_cells(&lvl.rhs, lvl.n), level_cells(&lvl.dinv, lvl.n));
    let cells = Cells::Color {
        x: &mut lvl.x,
        parity,
    };
    // SAFETY (each update below): `sweep` passes interior cells only.
    match cc {
        Some(cc) => sweep(&cc, cells, |c, xc, ax, x| unsafe {
            *x = xc + cc_dinv * (at(rhs, c) - ax);
        }),
        None => sweep(&vc, cells, |c, xc, ax, x| unsafe {
            *x = xc + at(dinv, c) * (at(rhs, c) - ax);
        }),
    }
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
    const OMEGA: f64 = 2.0 / 3.0;
    apply_boundary(&mut lvl.x, lvl.n);
    let cc = Cc::of(lvl, a, b);
    let cc_wdinv = OMEGA * (lvl.h * lvl.h) / (6.0 * b);
    let beta = [&lvl.beta_x, &lvl.beta_y, &lvl.beta_z];
    let vc = Vc::new(lvl.n, lvl.h, &lvl.alpha, beta, a, b);
    let (rhs, dinv) = (level_cells(&lvl.rhs, lvl.n), level_cells(&lvl.dinv, lvl.n));
    let cells = Cells::All {
        x: &lvl.x,
        out: &mut lvl.res,
    };
    // SAFETY (each update below): `sweep` passes interior cells only.
    match cc {
        Some(cc) => sweep(&cc, cells, |c, xc, ax, x| unsafe {
            *x = xc + cc_wdinv * (at(rhs, c) - ax);
        }),
        None => sweep(&vc, cells, |c, xc, ax, x| unsafe {
            *x = xc + OMEGA * at(dinv, c) * (at(rhs, c) - ax);
        }),
    }
    std::mem::swap(&mut lvl.x, &mut lvl.res);
}

/// Restriction: `coarse.rhs = R(fine.res)` (8-cell average) and
/// `coarse.x = 0`.
pub fn restrict(fine: &LevelData, coarse: &mut LevelData) {
    coarse.x.fill(0.0);
    let nc = coarse.n;
    debug_assert_eq!(fine.n, 2 * nc);
    let sc = nc + 2;
    let sf = fine.n + 2;
    let fr = fine.res.as_slice();
    let out = coarse.rhs.as_mut_slice();
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

/// The hand-optimized multigrid solver.
pub struct HandSolver {
    /// Problem configuration.
    pub problem: Problem,
    /// Levels, finest first.
    pub levels: Vec<LevelData>,
    /// The exact discrete solution on the finest level.
    pub x_true: Grid,
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
        let mut x_true = fine.exact_solution();
        apply_boundary(&mut x_true, fine.n);
        let mut rhs = Grid::new(fine.x.shape());
        apply_op(&mut rhs, &x_true, fine, problem.a, problem.b);
        fine.rhs = rhs;
        HandSolver {
            problem,
            levels,
            x_true,
        }
    }

    /// One V-cycle from level `l` down (the step sequence of
    /// [`cycle::vcycle`]).
    pub fn vcycle(&mut self, l: usize) {
        let steps = cycle::vcycle(l, self.levels.len());
        cycle::run(self, steps).unwrap_or_else(|e| match e {});
    }

    /// Residual max-norm on the finest level.
    pub fn residual_norm(&mut self) -> f64 {
        let (a, b) = (self.problem.a, self.problem.b);
        residual(&mut self.levels[0], a, b);
        interior_norm_max(&self.levels[0].res, self.levels[0].n)
    }

    /// Solve from a zero initial guess with `cycles` V-cycles; returns the
    /// residual norm after each cycle (prefixed by the initial norm).
    pub fn solve(&mut self, cycles: usize) -> Vec<f64> {
        cycle::solve(self, cycles).unwrap_or_else(|e| match e {})
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

    fn hierarchy(&self) -> usize {
        self.levels.len()
    }

    fn run(&mut self, step: Step) -> Result<(), Infallible> {
        let (a, b) = (self.problem.a, self.problem.b);
        match step {
            Step::Smooth(l) => smooth_gsrb(&mut self.levels[l], a, b),
            Step::Residual(l) => residual(&mut self.levels[l], a, b),
            Step::Restrict(l) => {
                let (fine, coarse) = fine_coarse(&mut self.levels, l);
                restrict(fine, coarse);
            }
            Step::Prolong(l) => {
                let (fine, coarse) = fine_coarse(&mut self.levels, l);
                interpolate(coarse, fine);
            }
            Step::ClearX(l) => self.levels[l].x.fill(0.0),
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
        assert!(coarse[0].x.as_slice().iter().all(|&v| v == 0.0));
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

    const GOLDEN_VC: [u64; 4] = [
        0xcc09eee06dfe77e7,
        0x1f9c706230c59607,
        0xc06fce15209c00ab,
        0x47392a85d44e96d5,
    ];
    const GOLDEN_CC: [u64; 4] = [
        0xe142d533268f7b84,
        0x57b5208d582d75f6,
        0x9dce1b845ba189b0,
        0x19887b3b3cd7641f,
    ];

    /// FNV-1a over every bit of a grid, ghosts included.
    fn fnv1a(g: &Grid) -> u64 {
        g.as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Hashes of the hand solver's grids for `p`: the manufactured rhs,
    /// `x` after one V-cycle from a seeded guess, after three Jacobi sweeps
    /// from the seeded guess, and `A x` of that guess.
    fn golden_hashes(p: Problem) -> [u64; 4] {
        let seeded = || {
            let mut s = HandSolver::new(p);
            s.levels[0].x.fill_random(7, -1.0, 1.0);
            s
        };
        let rhs = fnv1a(&HandSolver::new(p).levels[0].rhs);
        let mut v = seeded();
        v.vcycle(0);
        let mut jacobi = seeded();
        for _ in 0..3 {
            smooth_jacobi(&mut jacobi.levels[0], p.a, p.b);
        }
        let mut op = seeded();
        let fine = &mut op.levels[0];
        apply_boundary(&mut fine.x, fine.n);
        let mut ax = Grid::new(fine.x.shape());
        apply_op(&mut ax, &fine.x, fine, p.a, p.b);
        [
            rhs,
            fnv1a(&v.levels[0].x),
            fnv1a(&jacobi.levels[0].x),
            fnv1a(&ax),
        ]
    }

    #[test]
    fn hand_grids_match_golden_bits() {
        // Every bit of the hand baseline is pinned, at any rayon thread
        // count: each cell is written by one task, in a fixed order.
        let vc = golden_hashes(Problem::poisson_vc(16));
        let cc = golden_hashes(Problem::poisson_cc(16));
        assert_eq!(vc, GOLDEN_VC, "vc");
        assert_eq!(cc, GOLDEN_CC, "cc");
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
