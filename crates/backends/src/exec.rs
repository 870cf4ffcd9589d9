//! The shared schedule builder and kernel executor of the CPU backends.
//!
//! The schedule-building backends (sequential, OpenMP-like,
//! OpenCL-simulator) differ only in their fixed `Schedule` choices:
//! how a parallel-safe kernel is tiled, whether a union's rectangles
//! interleave tile by tile, and whether a phase's tasks run on the thread
//! pool. `Schedule::build` cuts the lowered kernels into `Task`s per
//! barrier phase with those choices, and the one `Phased` executor runs
//! every task through `run_region`.
//! The loop nest walks the region in row-major order, keeping one linear
//! *cursor* per access class, and hands every row to one dispatch:
//!
//! * a parallel-safe linear kernel of at most 16 terms whose cursors all
//!   step by 1 runs the fused fixed-arity loop (see [`crate::specialize`]);
//! * every other linear kernel runs chunked axpy passes, one point per
//!   chunk when it is not parallel-safe;
//! * a tape kernel runs its fused program, which `Schedule::build` makes
//!   once per kernel (`run_forms`), over lanes allocated once per region:
//!   in place, chunk by chunk within each row, when the kernel is
//!   parallel-safe and its rows have at least `IN_PLACE_ROW` points;
//!   packed, `TAPE_LANES` points at a time gathered across rows, when
//!   they are shorter; one point at a time, in canonical order, when it
//!   is not parallel-safe.
//!
//! Every kernel carries a closed form; the per-element arithmetic is the
//! record's (the bitwise contract of [`snowflake_ir::spec`]). A prototype
//! that built a tape's program per region instead of per kernel measured
//! the `vc` bottom solve (4³, each colour four 8-point regions) 1.55–1.99×
//! slower on `seq`.
//!
//! Execution order within a region is canonical row-major, which defines
//! the semantics of kernels that are *not* parallel-safe (lexicographic
//! Gauss-Seidel); parallel-safe kernels are order-independent by the
//! Diophantine proof, so backends may split regions freely.

#![allow(clippy::needless_range_loop)] // cursor bumps index parallel fixed arrays

use rayon::prelude::*;

use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::{GridSet, Region};
use snowflake_ir::spec::SpecLinear;
use snowflake_ir::{intersect_box, lower_group, tile_region, LowerOptions, Lowered, LoweredKernel};

use crate::metrics::KernelCounters;
use crate::specialize::{
    lin_strided, lin_unit, specialize_lowered, FusedTape, RunForm, TapeLanes, CHUNK,
    MAX_FUSED_ARITY, TAPE_LANES,
};
use crate::view::GridPtrs;
use crate::{check_and_ptrs, Executable};

/// Maximum cursor classes per kernel (grids × distinct scales).
pub const MAX_CLASSES: usize = 16;

/// The extent of a dimension left untiled: more points than any grid has.
pub(crate) const UNTILED: i64 = i64::MAX >> 1;

/// Lower `group` for these executors: lowering, the executor limits (so
/// `run_region` can use fixed-size scratch arrays) and the
/// closed-form pass.
pub(crate) fn lower(group: &StencilGroup, shapes: &ShapeMap) -> Result<Lowered> {
    let mut lowered = lower_group(group, shapes, &LowerOptions::default())?;
    if let Some(k) = lowered
        .kernels
        .iter()
        .find(|k| k.classes.len() > MAX_CLASSES)
    {
        return Err(CoreError::Backend(format!(
            "kernel {:?} uses {} access classes (limit {MAX_CLASSES})",
            k.name,
            k.classes.len()
        )));
    }
    specialize_lowered(&mut lowered);
    Ok(lowered)
}

/// One backend's fixed scheduling choices.
pub(crate) struct Schedule<'a> {
    /// The tile extents of a parallel-safe kernel, one per dimension.
    pub(crate) tile: &'a dyn Fn(&LoweredKernel) -> Result<Vec<i64>>,
    /// Interleave the rectangles of a kernel's union tile by tile
    /// (multicolor reordering).
    pub(crate) multicolor: bool,
    /// Run each phase's tasks on the thread pool.
    pub(crate) parallel: bool,
}

impl Schedule<'_> {
    /// Cut `lowered` into tasks per barrier phase: tiled and multicolor
    /// tasks for parallel-safe kernels, and one ordered task walking its
    /// regions in union order for a kernel that is not.
    pub(crate) fn build(&self, lowered: Lowered) -> Result<Phased> {
        let mut phases = Vec::with_capacity(lowered.phases.len());
        for phase in &lowered.phases {
            let mut tasks = Vec::new();
            for &ki in phase {
                let kernel = &lowered.kernels[ki];
                if !kernel.parallel_safe {
                    tasks.push(Task {
                        kernel: ki,
                        regions: kernel.regions.clone(),
                    });
                    continue;
                }
                let tile = (self.tile)(kernel)?;
                if self.multicolor && kernel.regions.len() > 1 {
                    tasks.extend(multicolor_tasks(ki, &kernel.regions, &tile));
                } else {
                    for region in &kernel.regions {
                        for t in tile_region(region, &tile) {
                            tasks.push(Task {
                                kernel: ki,
                                regions: vec![t],
                            });
                        }
                    }
                }
            }
            phases.push(tasks);
        }
        Ok(Phased {
            forms: run_forms(&lowered),
            lowered,
            phases,
            parallel: self.parallel,
        })
    }
}

/// Adapt an explicit tile shape to a kernel's rank: extra leading
/// dimensions are left untiled, missing trailing entries repeat the last
/// given extent. (A group may mix kernels of different rank — e.g. a 2-D
/// boundary plane inside a 3-D sweep — and one user-provided tile must
/// apply to all of them.) An empty tile, or one with an extent below 1,
/// is an error.
pub(crate) fn fit_tile(tile: &[i64], ndim: usize) -> Result<Vec<i64>> {
    if tile.is_empty() || tile.iter().any(|&t| t < 1) {
        return Err(CoreError::Backend(format!(
            "explicit tile shape {tile:?} must have at least one extent, each at least 1"
        )));
    }
    // Align the given extents to the innermost dimensions.
    let mut out = vec![UNTILED; ndim];
    for (d, slot) in out.iter_mut().enumerate() {
        let src = d as i64 - (ndim as i64 - tile.len() as i64);
        if src >= 0 {
            // src is a checked non-negative small index; the cast is exact.
            #[allow(clippy::cast_possible_truncation)]
            {
                *slot = tile[src as usize];
            }
        }
    }
    Ok(out)
}

/// Multicolor reordering: tile the union's bounding box and emit one task
/// per box containing every color's slice of that box.
fn multicolor_tasks(kernel: usize, regions: &[Region], tile: &[i64]) -> Vec<Task> {
    let nd = regions[0].ndim();
    let mut lo = vec![i64::MAX; nd];
    let mut hi = vec![i64::MIN; nd];
    for r in regions {
        for d in 0..nd {
            lo[d] = lo[d].min(r.lo[d]);
            hi[d] = hi[d].max(r.hi[d]);
        }
    }
    // Box extents in *index units*: tile[d] points of the coarsest stride,
    // saturating (an untiled dimension spans the whole box).
    let step: Vec<i64> = (0..nd)
        .map(|d| {
            let stride = regions.iter().map(|r| r.stride[d]).max().unwrap();
            tile[d].saturating_mul(stride)
        })
        .collect();
    let mut tasks = Vec::new();
    let mut box_lo = lo.clone();
    'boxes: loop {
        let box_hi: Vec<i64> = (0..nd)
            .map(|d| box_lo[d].saturating_add(step[d]).min(hi[d]))
            .collect();
        let subs: Vec<Region> = regions
            .iter()
            .filter_map(|r| intersect_box(r, &box_lo, &box_hi))
            .collect();
        if !subs.is_empty() {
            tasks.push(Task {
                kernel,
                regions: subs,
            });
        }
        // Advance the box odometer.
        let mut d = nd - 1;
        loop {
            box_lo[d] = box_lo[d].saturating_add(step[d]);
            if box_lo[d] < hi[d] {
                break;
            }
            box_lo[d] = lo[d];
            if d == 0 {
                break 'boxes;
            }
            d -= 1;
        }
    }
    tasks
}

/// Each kernel's [`RunForm`], built once when the plan is built: a tape's
/// fused program does not depend on the region it runs over.
pub(crate) fn run_forms(lowered: &Lowered) -> Vec<RunForm> {
    lowered
        .kernels
        .iter()
        .map(|k| RunForm::of(&k.form))
        .collect()
}

/// Execute kernel `k` of `lowered` over one region.
///
/// # Safety
/// The caller must guarantee:
/// * `view` holds valid pointers for every grid the kernel addresses, with
///   the shapes it was lowered for (so all accesses are in bounds —
///   established by `Stencil::validate`);
/// * no other thread concurrently accesses any cell this invocation
///   touches (established by the dependence analysis / barrier phases).
pub(crate) unsafe fn run_region(
    lowered: &Lowered,
    forms: &[RunForm],
    k: usize,
    view: &GridPtrs<'_>,
    region: &Region,
) {
    if region.is_empty() {
        return;
    }
    let mut row = Row::new(&lowered.kernels[k], &forms[k], region);
    let nd = region.ndim();
    let last = nd - 1;
    let e_last = region.extent(last);

    // Odometer over the outer dimensions; cursors recomputed per row (the
    // row interior is the hot path).
    let mut p: Vec<i64> = region.lo.clone();
    'rows: loop {
        row.run(view, &p, e_last);
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
    if let RowShape::Tape(lanes) = &mut row.shape {
        lanes.flush(view);
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
/// form picks the arithmetic, parallel safety and strides the loop.
enum RowShape<'k> {
    /// Parallel-safe linear of at most `MAX_FUSED_ARITY` terms with every
    /// cursor at unit stride: the fused loop over contiguous chunks.
    Fused(&'k SpecLinear),
    /// Any other linear: axpy passes over chunks of this many points (one
    /// for a sequential kernel, so each point is written before the next
    /// one's reads).
    Axpy(&'k SpecLinear, usize),
    /// A tape's fused program over its lanes (one lane when sequential).
    Tape(TapeLanes<'k>),
}

impl<'k> Row<'k> {
    fn new(kernel: &'k LoweredKernel, form: &'k RunForm, region: &Region) -> Self {
        let last = region.ndim() - 1;
        let mut class_grid = [0usize; MAX_CLASSES];
        let mut inner_step = [0isize; MAX_CLASSES];
        for (c, cl) in kernel.classes.iter().enumerate() {
            class_grid[c] = cl.grid;
            inner_step[c] = cl.step(last, region.stride[last]);
        }
        let shape = match form {
            // The output class is one of the classes, so this covers its
            // step.
            RunForm::Linear(sl)
                if kernel.parallel_safe
                    && sl.arity() <= MAX_FUSED_ARITY
                    && inner_step[..kernel.classes.len()].iter().all(|&st| st == 1) =>
            {
                RowShape::Fused(sl)
            }
            RunForm::Linear(sl) => RowShape::Axpy(sl, if kernel.parallel_safe { CHUNK } else { 1 }),
            RunForm::Tape(prog) => {
                // A region's point counts are bounded by its grids' sizes.
                #[allow(clippy::cast_possible_truncation)]
                let (row, points) = (region.extent(last) as usize, region.num_points() as usize);
                let (width, in_place) = if !kernel.parallel_safe {
                    (1, true)
                } else if FusedTape::reads_in_place(row) {
                    (TAPE_LANES.min(row), true)
                } else {
                    (TAPE_LANES.min(points), false)
                };
                RowShape::Tape(TapeLanes::new(prog, kernel.out_grid, width, in_place))
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
    /// As [`run_region`], with `p` a row start of the region this
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
            RowShape::Fused(sl) => lin_unit(sl, view, &cur, grids, total, out, out_idx),
            RowShape::Axpy(sl, chunk) => {
                lin_strided(
                    sl, view, &cur, grids, steps, total, *chunk, out, out_idx, out_step,
                );
            }
            RowShape::Tape(lanes) => {
                lanes.push_row(view, &cur, grids, steps, total, out_idx, out_step);
            }
        }
    }
}

/// One schedulable unit of a phase: `kernel` runs over each of `regions`
/// in turn — one tile, one tile's worth of every color, or the whole union
/// of a sequential kernel in union order.
struct Task {
    kernel: usize,
    regions: Vec<Region>,
}

/// The one executor of the schedule-building backends (`seq`, `omp`,
/// `oclsim`): the lowered program plus the tasks of each barrier phase.
/// Phases run in order; the tasks of one phase are mutually independent
/// (greedy grouping, iteration-disjoint tiles, a sequential kernel as one
/// ordered task), so they run on the thread pool when `parallel`, and in
/// order on the calling thread otherwise.
pub(crate) struct Phased {
    lowered: Lowered,
    /// One [`RunForm`] per kernel of `lowered`.
    forms: Vec<RunForm>,
    phases: Vec<Vec<Task>>,
    pub(crate) parallel: bool,
}

impl Executable for Phased {
    fn run(&self, grids: &mut GridSet) -> Result<()> {
        let (ptrs, lens) = check_and_ptrs(&self.lowered, grids)?;
        let view = GridPtrs::new(&ptrs, &lens);
        let run_task = |task: &Task| {
            for region in &task.regions {
                // SAFETY: tasks within a phase are mutually independent
                // and bounds are proven by validation (see the type docs).
                unsafe {
                    run_region(&self.lowered, &self.forms, task.kernel, &view, region);
                };
            }
        };
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
    /// kernel.
    fn work(&self) -> KernelCounters {
        let mut work = KernelCounters {
            points: self.lowered.num_points(),
            ..KernelCounters::default()
        };
        for task in self.phases.iter().flatten() {
            work.tiles += 1;
            if self.lowered.kernels[task.kernel].parallel_safe {
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

    use crate::specialize::{CHUNK, IN_PLACE_ROW, TAPE_LANES};

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
        lower(group, &gs.shapes()).unwrap()
    }

    fn run_one(group: &StencilGroup, gs: &mut GridSet) {
        let lowered = lowered(group, gs);
        let forms = run_forms(&lowered);
        let (ptrs, lens) = crate::check_and_ptrs(&lowered, gs).unwrap();
        let view = GridPtrs::new(&ptrs, &lens);
        for (ki, k) in lowered.kernels.iter().enumerate() {
            for r in &k.regions {
                unsafe { run_region(&lowered, &forms, ki, &view, r) };
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
        let form = lowered(&group, &gs).kernels[0].form.clone();
        assert!(matches!(form, SpecForm::Tape(_)), "must run a tape");
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
        let form = lowered(&group, &gs).kernels[0].form.clone();
        assert!(matches!(form, SpecForm::Tape(_)));
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
        let form = lowered(&group, &gs).kernels[0].form.clone();
        assert!(matches!(form, SpecForm::Linear(_)), "should linearize");
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
        // Packed lanes fill across rows, so rows shorter than, equal to and
        // longer than TAPE_LANES straddle chunk seams at every offset; rows
        // on both sides of IN_PLACE_ROW switch between packed and in-place
        // chunks, and the longest rows read in place over several chunks.
        // Unit-stride and stride-2 rows both gather and scatter; `c` is
        // read twice (gathered), `x` once (in place on long rows).
        for n in [
            7,
            IN_PLACE_ROW - 1,
            IN_PLACE_ROW,
            2 * IN_PLACE_ROW - 1,
            2 * IN_PLACE_ROW,
            TAPE_LANES - 1,
            TAPE_LANES,
            TAPE_LANES + 3,
            2 * TAPE_LANES + 5,
        ] {
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
                let e = Expr::read_at("c", &[0, 0]) * Expr::read_at("x", &[0, 1])
                    - Expr::read_at("c", &[0, 0]);
                let dom = RectDomain::new(&[1, 1], &[-1, -1], &[1, stride as i64]);
                run_one(&StencilGroup::from(Stencil::new(e, "y", dom)), &mut gs);
                let (xg, cg) = (gs.get("x").unwrap().clone(), gs.get("c").unwrap().clone());
                let y = gs.get("y").unwrap();
                for i in 1..4 {
                    for j in 1..=n {
                        let want = if (j - 1) % stride == 0 {
                            cg.get(&[i, j]) * xg.get(&[i, j + 1]) - cg.get(&[i, j])
                        } else {
                            0.0
                        };
                        assert_eq!(y.get(&[i, j]), want, "n={n} stride={stride} ({i},{j})");
                    }
                }
            }
        }
    }

    /// A raw lowering, before the closed-form pass, runs every kernel as a
    /// tape: a bare read (no instruction, so its program is the exact copy
    /// `-(-read)`) and a linear one give the values their linear records
    /// give.
    #[test]
    fn unspecialized_tapes_run_as_fused_programs() {
        let n = 2 * IN_PLACE_ROW + 2;
        let (mut gs, _) = setup(n);
        let x = gs.get("x").unwrap().clone();
        let group = StencilGroup::new()
            .with(Stencil::new(
                Expr::read_at("x", &[0, 1]),
                "y",
                RectDomain::interior(2),
            ))
            .with(Stencil::new(
                Expr::read_at("x", &[0, -1]) * 0.5 - Expr::read_at("x", &[1, 0]),
                "beta",
                RectDomain::interior(2),
            ));
        let lowered = lower_group(&group, &gs.shapes(), &LowerOptions::default()).unwrap();
        assert!(lowered
            .kernels
            .iter()
            .all(|k| matches!(k.form, SpecForm::Tape(_))));
        let forms = run_forms(&lowered);
        let (ptrs, lens) = crate::check_and_ptrs(&lowered, &mut gs).unwrap();
        let view = GridPtrs::new(&ptrs, &lens);
        for (ki, k) in lowered.kernels.iter().enumerate() {
            for r in &k.regions {
                unsafe { run_region(&lowered, &forms, ki, &view, r) };
            }
        }
        drop(ptrs);
        let (y, beta) = (gs.get("y").unwrap(), gs.get("beta").unwrap());
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                assert_eq!(y.get(&[i, j]).to_bits(), x.get(&[i, j + 1]).to_bits());
                let want = x.get(&[i, j - 1]) * 0.5 - x.get(&[i + 1, j]);
                assert_eq!(beta.get(&[i, j]), want, "({i},{j})");
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
