//! The shared kernel executor: runs lowered kernels over one region.
//!
//! The CPU backends (sequential, OpenMP-like, OpenCL-simulator) build a
//! schedule of `Task`s per barrier phase and hand it to the one
//! `Phased` executor, whose tasks all funnel into [`run_fused_region`];
//! [`run_kernel_region`] is its one-kernel case. The loop nest walks the
//! region in row-major order, keeping one linear *cursor* per access
//! class, and hands every row to one dispatch:
//!
//! * a linear kernel (see [`crate::specialize`]) runs chunked over
//!   unit-stride or strided rows when it is parallel-safe, and point by
//!   point in canonical order when it is not;
//! * a tape kernel runs over a lane buffer allocated once per region:
//!   `TAPE_LANES` points at a time, gathered across rows, when it is
//!   parallel-safe; one lane (one point, in canonical order) when it is
//!   not.
//!
//! Every kernel carries a closed form; the per-element arithmetic is the
//! record's (the bitwise contract of [`snowflake_ir::spec`]).
//!
//! Execution order within a region is canonical row-major, which defines
//! the semantics of kernels that are *not* parallel-safe (lexicographic
//! Gauss-Seidel); parallel-safe kernels are order-independent by the
//! Diophantine proof, so backends may split regions freely.

#![allow(clippy::needless_range_loop)] // cursor bumps index parallel fixed arrays

use rayon::prelude::*;

use snowflake_core::{Result, ShapeMap, StencilGroup};
use snowflake_grid::{GridSet, Region};
use snowflake_ir::spec::{SpecForm, SpecKernel, SpecLinear};
use snowflake_ir::{lower_group, LowerOptions, Lowered, LoweredKernel};

use crate::metrics::KernelCounters;
use crate::specialize::{
    lin_strided, lin_unit, run_row_spec_points, specialize_lowered, TapeLanes, TAPE_LANES,
};
use crate::view::GridPtrs;
use crate::{check_and_ptrs, Executable};

/// Maximum cursor classes per kernel (grids × distinct scales).
pub const MAX_CLASSES: usize = 16;

/// Check executor limits for a kernel; backends call this at compile time
/// so `run_kernel_region` can use fixed-size scratch arrays.
pub fn check_limits(kernel: &LoweredKernel) -> Result<()> {
    if kernel.classes.len() > MAX_CLASSES {
        return Err(snowflake_core::CoreError::Backend(format!(
            "kernel {:?} uses {} access classes (limit {MAX_CLASSES})",
            kernel.name,
            kernel.classes.len()
        )));
    }
    Ok(())
}

/// Lower `group` for these executors: lowering, the executor limits and
/// the closed-form pass.
pub(crate) fn lower(
    group: &StencilGroup,
    shapes: &ShapeMap,
    options: &LowerOptions,
) -> Result<Lowered> {
    let mut lowered = lower_group(group, shapes, options)?;
    for k in &lowered.kernels {
        check_limits(k)?;
    }
    specialize_lowered(&mut lowered);
    Ok(lowered)
}

/// Execute `kernel` over `region` through `view`.
///
/// # Safety
/// The caller must guarantee:
/// * `view` holds valid pointers for every grid the kernel addresses, with
///   the shapes the kernel was lowered for (so all accesses are in
///   bounds — established by `Stencil::validate`);
/// * no other thread concurrently accesses any cell this invocation
///   touches (established by the dependence analysis / barrier phases).
pub unsafe fn run_kernel_region(kernel: &LoweredKernel, view: &GridPtrs<'_>, region: &Region) {
    run_fused_region(std::slice::from_ref(&kernel), view, region);
}

/// Execute several kernels *fused* over one shared region: a single
/// traversal of the iteration space, with every kernel's row evaluated
/// back-to-back while the data is cache-resident (§VII's "mark stencils
/// for fusion", taken to execution).
///
/// # Safety
/// As [`run_kernel_region`], for every kernel; additionally the kernels
/// must be mutually independent (same barrier phase), so any interleaving
/// of their iterations is legal.
pub unsafe fn run_fused_region(kernels: &[&LoweredKernel], view: &GridPtrs<'_>, region: &Region) {
    if region.is_empty() || kernels.is_empty() {
        return;
    }
    // A lone kernel keeps its row state on the stack.
    let mut one: [Row<'_>; 1];
    let mut many: Vec<Row<'_>>;
    let rows: &mut [Row<'_>] = if let [kernel] = kernels {
        one = [Row::new(kernel, region)];
        &mut one
    } else {
        many = kernels.iter().map(|k| Row::new(k, region)).collect();
        &mut many
    };
    let nd = region.ndim();
    let last = nd - 1;
    let e_last = region.extent(last);

    // Odometer over the outer dimensions; cursors recomputed per row (the
    // row interior is the hot path).
    let mut p: Vec<i64> = region.lo.clone();
    'rows: loop {
        for row in rows.iter_mut() {
            row.run(view, &p, e_last);
        }
        if nd == 1 {
            break;
        }
        let mut d = last - 1;
        loop {
            p[d] += region.stride[d];
            if p[d] < region.hi[d] {
                break;
            }
            p[d] = region.lo[d];
            if d == 0 {
                break 'rows;
            }
            d -= 1;
        }
    }
    for row in rows.iter_mut() {
        if let RowShape::Tape(lanes) = &mut row.shape {
            lanes.flush(view);
        }
    }
}

/// One kernel's row state over one region.
struct Row<'k> {
    kernel: &'k LoweredKernel,
    class_grid: [usize; MAX_CLASSES],
    inner_step: [isize; MAX_CLASSES],
    shape: RowShape<'k>,
}

/// The loop shape a kernel's rows run in, fixed per region: the closed
/// form picks the arithmetic, parallel safety the loop.
enum RowShape<'k> {
    /// Parallel-safe linear with every cursor at unit stride: contiguous
    /// chunks.
    LinearUnit(&'k SpecLinear),
    /// Parallel-safe linear with strided cursors: strided chunks.
    LinearStrided(&'k SpecLinear),
    /// Sequential linear: point by point.
    LinearPoints(&'k SpecKernel),
    /// A tape over its lane buffer (one lane when sequential).
    Tape(TapeLanes<'k>),
}

impl<'k> Row<'k> {
    fn new(kernel: &'k LoweredKernel, region: &Region) -> Self {
        let last = region.ndim() - 1;
        let mut class_grid = [0usize; MAX_CLASSES];
        let mut inner_step = [0isize; MAX_CLASSES];
        for (c, cl) in kernel.classes.iter().enumerate() {
            class_grid[c] = cl.grid;
            inner_step[c] = cl.step(last, region.stride[last]);
        }
        let spec = kernel.closed_form();
        let shape = match &spec.form {
            // The output class is one of the classes, so this covers its
            // step.
            SpecForm::Linear(sl)
                if kernel.parallel_safe
                    && inner_step[..kernel.classes.len()].iter().all(|&st| st == 1) =>
            {
                RowShape::LinearUnit(sl)
            }
            SpecForm::Linear(sl) if kernel.parallel_safe => RowShape::LinearStrided(sl),
            SpecForm::Linear(_) => RowShape::LinearPoints(spec),
            SpecForm::Tape(tape) => {
                // A region's point count is bounded by its grids' sizes.
                #[allow(clippy::cast_possible_truncation)]
                let points = region.num_points() as usize;
                let width = if kernel.parallel_safe {
                    TAPE_LANES.min(points)
                } else {
                    1
                };
                RowShape::Tape(TapeLanes::new(tape, kernel.out_grid, width))
            }
        };
        Row {
            kernel,
            class_grid,
            inner_step,
            shape,
        }
    }

    /// Execute the `count` points of the row starting at point `p`.
    ///
    /// # Safety
    /// As [`run_kernel_region`], with `p` a row start of the region this
    /// state was built for.
    #[inline(always)]
    unsafe fn run(&mut self, view: &GridPtrs<'_>, p: &[i64], count: i64) {
        let kernel = self.kernel;
        let mut cur = [0isize; MAX_CLASSES];
        for (c, cl) in kernel.classes.iter().enumerate() {
            cur[c] = cl.cursor_at(p);
        }
        let (grids, steps) = (&self.class_grid, &self.inner_step);
        let out_class = kernel.out_class as usize;
        let (out, out_idx, out_step) = (
            kernel.out_grid,
            cur[out_class] + kernel.out_delta,
            steps[out_class],
        );
        // count is a non-negative region extent; the cast is exact.
        #[allow(clippy::cast_possible_truncation)]
        let total = count as usize;
        match &mut self.shape {
            RowShape::LinearUnit(sl) => lin_unit(sl, view, &cur, grids, total, out, out_idx),
            RowShape::LinearStrided(sl) => {
                lin_strided(sl, view, &cur, grids, steps, total, out, out_idx, out_step);
            }
            RowShape::LinearPoints(spec) => {
                run_row_spec_points(
                    spec, view, &cur, grids, steps, count, out, out_idx, out_step,
                );
            }
            RowShape::Tape(lanes) => {
                lanes.push_row(view, &cur, grids, steps, total, out_idx, out_step);
            }
        }
    }
}

/// One schedulable unit of a phase: `kernels` (several only when fused)
/// run over each of `regions` in turn — one tile, one tile's worth of
/// every color, or the whole union of a sequential kernel in union order.
pub(crate) struct Task {
    pub(crate) kernels: Vec<usize>,
    pub(crate) regions: Vec<Region>,
}

impl Task {
    /// A one-kernel task over `regions`.
    pub(crate) fn one(kernel: usize, regions: Vec<Region>) -> Self {
        Task {
            kernels: vec![kernel],
            regions,
        }
    }

    /// Execute the task.
    ///
    /// # Safety
    /// As [`run_fused_region`], for every region of the task.
    unsafe fn run(&self, lowered: &Lowered, view: &GridPtrs<'_>) {
        if let [k] = self.kernels[..] {
            let kernel = &lowered.kernels[k];
            for region in &self.regions {
                run_kernel_region(kernel, view, region);
            }
        } else {
            let kernels: Vec<&LoweredKernel> =
                self.kernels.iter().map(|&k| &lowered.kernels[k]).collect();
            for region in &self.regions {
                run_fused_region(&kernels, view, region);
            }
        }
    }
}

/// The one executor of the schedule-building backends (`seq`, `omp`,
/// `oclsim`): the lowered program plus the tasks of each barrier phase.
/// Phases run in order; the tasks of one phase are mutually independent
/// (greedy grouping, iteration-disjoint tiles, a sequential kernel as one
/// ordered task), so they run on the thread pool when `parallel`, and in
/// order on the calling thread otherwise.
pub(crate) struct Phased {
    pub(crate) lowered: Lowered,
    pub(crate) phases: Vec<Vec<Task>>,
    pub(crate) parallel: bool,
}

impl Executable for Phased {
    fn run(&self, grids: &mut GridSet) -> Result<()> {
        let (ptrs, lens) = check_and_ptrs(&self.lowered, grids)?;
        let view = GridPtrs::new(&ptrs, &lens);
        // SAFETY: tasks within a phase are mutually independent and bounds
        // are proven by validation (see the type docs).
        let run_task = |task: &Task| unsafe { task.run(&self.lowered, &view) };
        for phase in &self.phases {
            if self.parallel {
                // The join at the end of `for_each` is the phase barrier.
                phase.par_iter().for_each(run_task);
            } else {
                phase.iter().for_each(run_task);
            }
        }
        Ok(())
    }

    /// One dispatch per task, classified by the analysis' verdict on its
    /// first kernel; the other kernels of a fused task ride along.
    fn work(&self) -> KernelCounters {
        let mut work = KernelCounters {
            points: self.lowered.num_points(),
            ..KernelCounters::default()
        };
        for task in self.phases.iter().flatten() {
            work.tiles += 1;
            work.fused += task.kernels.len() as u64 - 1;
            if self.lowered.kernels[task.kernels[0]].parallel_safe {
                work.parallel_tasks += 1;
            } else {
                work.sequential_tasks += 1;
            }
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{weights2, Component, Expr, RectDomain, ShapeMap, Stencil, StencilGroup};
    use snowflake_grid::{Grid, GridSet};
    use snowflake_ir::spec::SpecForm;

    use crate::specialize::{CHUNK, TAPE_LANES};

    fn setup(n: usize) -> (GridSet, ShapeMap) {
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[n, n]);
        x.fill_random(7, -1.0, 1.0);
        gs.insert("x", x);
        gs.insert("y", Grid::new(&[n, n]));
        let mut beta = Grid::new(&[n, n]);
        beta.fill_random(9, 0.5, 1.5);
        gs.insert("beta", beta);
        let shapes = gs.shapes();
        (gs, shapes)
    }

    fn lowered(group: &StencilGroup, gs: &GridSet) -> Lowered {
        lower(group, &gs.shapes(), &LowerOptions::default()).unwrap()
    }

    fn run_one(group: &StencilGroup, gs: &mut GridSet) {
        let lowered = lowered(group, gs);
        let (ptrs, lens) = crate::check_and_ptrs(&lowered, gs).unwrap();
        let view = GridPtrs::new(&ptrs, &lens);
        for k in &lowered.kernels {
            for r in &k.regions {
                unsafe { run_kernel_region(k, &view, r) };
            }
        }
    }

    #[test]
    // The reference loop indexes with interior points; casts are exact.
    #[allow(clippy::cast_possible_truncation)]
    fn laplacian_matches_expr_eval() {
        let n = 12;
        let (mut gs, shapes) = setup(n);
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let s = Stencil::new(lap, "y", RectDomain::interior(2));
        let expr = s.expr().clone();
        let group = StencilGroup::from(s);
        let reference = {
            let x = gs.get("x").unwrap().clone();
            let mut want = Grid::new(&[n, n]);
            let region = RectDomain::interior(2).resolve(&[n, n]).unwrap();
            for p in region.points() {
                let v = expr.eval(&p, &mut |_, idx| x.get(&[idx[0] as usize, idx[1] as usize]));
                want.set(&[p[0] as usize, p[1] as usize], v);
            }
            want
        };
        run_one(&group, &mut gs);
        assert_eq!(gs.get("y").unwrap().max_abs_diff(&reference), 0.0);
        let _ = shapes;
    }

    #[test]
    fn variable_coefficient_tape_path() {
        let n = 10;
        let (mut gs, _) = setup(n);
        // y = beta * (x[+1] - x[-1]) — not linear: a tape, in tree order.
        let e = Expr::read_at("beta", &[0, 0])
            * (Expr::read_at("x", &[0, 1]) - Expr::read_at("x", &[0, -1]));
        let s = Stencil::new(e.clone(), "y", RectDomain::interior(2));
        let group = StencilGroup::from(s);
        let spec = lowered(&group, &gs).kernels[0].spec.clone().unwrap();
        assert!(matches!(spec.form, SpecForm::Tape(_)), "must run a tape");
        let (x, beta) = (
            gs.get("x").unwrap().clone(),
            gs.get("beta").unwrap().clone(),
        );
        run_one(&group, &mut gs);
        let y = gs.get("y").unwrap();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let want = beta.get(&[i, j]) * (x.get(&[i, j + 1]) - x.get(&[i, j - 1]));
                assert_eq!(y.get(&[i, j]), want);
            }
        }
    }

    #[test]
    fn division_by_a_read_runs_a_tape() {
        let n = 10;
        let (mut gs, _) = setup(n);
        let e = Expr::read_at("x", &[0, 1]) / Expr::read_at("beta", &[0, 0]);
        let group = StencilGroup::from(Stencil::new(e, "y", RectDomain::interior(2)));
        let spec = lowered(&group, &gs).kernels[0].spec.clone().unwrap();
        assert!(matches!(spec.form, SpecForm::Tape(_)));
        let (x, beta) = (
            gs.get("x").unwrap().clone(),
            gs.get("beta").unwrap().clone(),
        );
        run_one(&group, &mut gs);
        let y = gs.get("y").unwrap();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                assert_eq!(y.get(&[i, j]), x.get(&[i, j + 1]) / beta.get(&[i, j]));
            }
        }
    }

    #[test]
    fn linear_fast_path_is_used_and_correct() {
        let n = 10;
        let (mut gs, _) = setup(n);
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let spec = lowered(&group, &gs).kernels[0].spec.clone().unwrap();
        assert!(matches!(spec.form, SpecForm::Linear(_)), "should linearize");
        let x = gs.get("x").unwrap().clone();
        run_one(&group, &mut gs);
        let y = gs.get("y").unwrap();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let want = x.get(&[i - 1, j])
                    + x.get(&[i + 1, j])
                    + x.get(&[i, j - 1])
                    + x.get(&[i, j + 1])
                    - 4.0 * x.get(&[i, j]);
                assert!((y.get(&[i, j]) - want).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn strided_region_execution() {
        let n = 9;
        let (mut gs, _) = setup(n);
        // Write 1.0 to red points only.
        let s = Stencil::new(
            Expr::Const(1.0),
            "y",
            RectDomain::new(&[1, 1], &[-1, -1], &[2, 2]),
        );
        run_one(&StencilGroup::from(s), &mut gs);
        let y = gs.get("y").unwrap();
        for i in 0..n {
            for j in 0..n {
                let expect = if i % 2 == 1 && j % 2 == 1 && i < n - 1 && j < n - 1 {
                    1.0
                } else {
                    0.0
                };
                assert_eq!(y.get(&[i, j]), expect, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn in_place_sequential_gauss_seidel_semantics() {
        // x[p] = x[p-1] over 1-D: serial semantics propagate the first cell.
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[6]);
        x.as_mut_slice()
            .copy_from_slice(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        gs.insert("x", x);
        let s = Stencil::new(
            Expr::read_at("x", &[-1]),
            "x",
            RectDomain::new(&[1], &[0], &[1]),
        );
        run_one(&StencilGroup::from(s), &mut gs);
        assert_eq!(gs.get("x").unwrap().as_slice(), &[9.0; 6]);
    }

    #[test]
    fn scaled_restriction_kernel() {
        // coarse[p] = (fine[2p] + fine[2p+1]) * 0.5 over p in [0, 4).
        let mut gs = GridSet::new();
        let fine = Grid::from_fn(&[8], |i| i[0] as f64);
        gs.insert("fine", fine);
        gs.insert("coarse", Grid::new(&[4]));
        let e = (Expr::read_mapped("fine", snowflake_core::AffineMap::scaled(vec![2], vec![0]))
            + Expr::read_mapped("fine", snowflake_core::AffineMap::scaled(vec![2], vec![1])))
            * 0.5;
        let s = Stencil::new(e, "coarse", RectDomain::new(&[0], &[0], &[1]));
        run_one(&StencilGroup::from(s), &mut gs);
        assert_eq!(gs.get("coarse").unwrap().as_slice(), &[0.5, 2.5, 4.5, 6.5]);
    }

    #[test]
    fn vectorized_rows_handle_chunk_boundaries() {
        // Rows shorter than, equal to, and longer than the CHUNK length
        // must all agree with the reference (off-by-ones at chunk seams
        // are the classic failure).
        for n in [3usize, CHUNK, CHUNK + 1, 2 * CHUNK + 7] {
            let shape = [3usize, n + 2];
            let mut gs = GridSet::new();
            let mut x = Grid::new(&shape);
            x.fill_random(n as u64, -1.0, 1.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&shape));
            // Linear kernel (unit path) over a full row.
            let e = Expr::read_at("x", &[0, 1]) * 2.0 + Expr::read_at("x", &[0, -1]);
            let s = Stencil::new(e.clone(), "y", RectDomain::interior(2));
            run_one(&StencilGroup::from(s), &mut gs);
            let xg = gs.get("x").unwrap().clone();
            let y = gs.get("y").unwrap();
            for j in 1..=n {
                let want = 2.0 * xg.get(&[1, j + 1]) + xg.get(&[1, j - 1]);
                assert_eq!(y.get(&[1, j]), want, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn tape_rows_handle_chunk_boundaries() {
        // Lanes fill across rows, so rows shorter than, equal to and
        // longer than TAPE_LANES straddle chunk seams at every offset;
        // unit-stride and stride-2 rows both gather and scatter.
        for n in [7, TAPE_LANES - 1, TAPE_LANES, TAPE_LANES + 3] {
            for stride in [1usize, 2] {
                let shape = [5usize, n + 2];
                let mut gs = GridSet::new();
                let mut x = Grid::new(&shape);
                x.fill_random(7, -1.0, 1.0);
                gs.insert("x", x);
                let mut c = Grid::new(&shape);
                c.fill_random(8, 0.5, 1.5);
                gs.insert("c", c);
                gs.insert("y", Grid::new(&shape));
                let e = Expr::read_at("c", &[0, 0]) * Expr::read_at("x", &[0, 1]);
                let dom = RectDomain::new(&[1, 1], &[-1, -1], &[1, stride as i64]);
                run_one(&StencilGroup::from(Stencil::new(e, "y", dom)), &mut gs);
                let (xg, cg) = (gs.get("x").unwrap().clone(), gs.get("c").unwrap().clone());
                let y = gs.get("y").unwrap();
                for i in 1..4 {
                    for j in 1..=n {
                        let want = if (j - 1) % stride == 0 {
                            cg.get(&[i, j]) * xg.get(&[i, j + 1])
                        } else {
                            0.0
                        };
                        assert_eq!(y.get(&[i, j]), want, "n={n} stride={stride} ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn three_d_kernel() {
        let n = 6;
        let mut gs = GridSet::new();
        let x = Grid::from_fn(&[n, n, n], |p| (p[0] + 10 * p[1] + 100 * p[2]) as f64);
        gs.insert("x", x.clone());
        gs.insert("y", Grid::new(&[n, n, n]));
        let e = Expr::read_at("x", &[1, 0, 0]) - Expr::read_at("x", &[-1, 0, 0]);
        let s = Stencil::new(e, "y", RectDomain::interior(3));
        run_one(&StencilGroup::from(s), &mut gs);
        let y = gs.get("y").unwrap();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                for k in 1..n - 1 {
                    assert_eq!(y.get(&[i, j, k]), 2.0, "at ({i},{j},{k})");
                }
            }
        }
    }
}
