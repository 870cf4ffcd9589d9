//! The shared schedule builder and kernel executor of the CPU backends.
//!
//! The compiled backends run a kernel as the loop nests of `nests`: a
//! parallel-safe colour union whose members' outer lattices tile their
//! hull exactly (red-black and multicolor unions) is one nest, whose
//! outer loops step over the hull and run each row with the member whose
//! congruence guard it satisfies (the paper's multicolor reordering: one
//! pass over memory serves every colour); any other union keeps one nest
//! per member. The C generator emits these nests, the OpenCL driver and
//! the executor below walk them, and `seq`, `checked` and `cjit` count
//! one dispatch per nest.
//!
//! The schedule-building backends (sequential and OpenMP-like) differ
//! only in their fixed `Schedule` choices: how a parallel-safe kernel is
//! tiled, whether a tile box holds every member of a nest (multicolor
//! reordering) or one member alone, and whether a phase's tasks run on
//! the thread pool. `Schedule::build` cuts the lowered kernels into
//! `Task`s per barrier phase with those choices, and the one `Phased`
//! executor runs every task's nests through `run_nest`. A nest's rows lie
//! along the innermost dimension (a lone region's: the innermost one with
//! more than one point, so a boundary face runs as long strided rows, not
//! as rows of one point). The walk keeps one linear *cursor* per access
//! class and hands every row to one of two loops:
//!
//! * a linear kernel, parallel-safe or not and at any strides, runs the
//!   one row loop `lin_row` (see [`crate::specialize`]): one fold per
//!   point, each term read at its own step, the point written before the
//!   next one's reads;
//! * a tape kernel runs its fused program, which `Schedule::build` makes
//!   once per kernel (`run_forms`), over lanes allocated once per nest:
//!   in place, chunk by chunk within each row, when the kernel is
//!   parallel-safe and its rows have at least `IN_PLACE_ROW` points;
//!   packed, `TAPE_LANES` points at a time gathered across rows (and
//!   across the members of a colour union), when they are shorter; one
//!   point at a time, in canonical order, when it is not parallel-safe.
//!
//! Every kernel carries a closed form; the per-element arithmetic is the
//! record's (the bitwise contract of [`snowflake_ir::spec`]). A prototype
//! that built a tape's program per region instead of per kernel measured
//! the `vc` bottom solve (4³, each colour four 8-point regions) 1.55–1.99×
//! slower on `seq`.
//!
//! Execution order within a region is canonical row-major, which defines
//! the semantics of kernels that are *not* parallel-safe (lexicographic
//! Gauss-Seidel); such a kernel runs its regions in union order.
//! Parallel-safe kernels are order-independent by the Diophantine proof,
//! so backends may split and interleave regions freely.

#![allow(clippy::needless_range_loop)] // cursor bumps index parallel fixed arrays

use rayon::prelude::*;

use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::{GridSet, Region, MAX_DIMS};
use snowflake_ir::spec::SpecLinear;
use snowflake_ir::{intersect_box, lower_group, LowerOptions, Lowered, LoweredKernel};

use crate::metrics::KernelCounters;
use crate::specialize::{lin_row, specialize_lowered, FusedTape, RunForm, TapeLanes, TAPE_LANES};
use crate::view::GridPtrs;
use crate::{check_and_ptrs, Executable};

/// Maximum cursor classes per kernel (grids × distinct scales).
pub const MAX_CLASSES: usize = 16;

/// The extent of a dimension left untiled: more points than any grid has.
pub(crate) const UNTILED: i64 = i64::MAX >> 1;

/// Lower `group` for these executors: lowering, the executor limits (so
/// `run_nest` can use fixed-size scratch arrays) and the
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
    /// Tile each loop nest's hull box, so a colour union's members share
    /// every tile (multicolor reordering); otherwise tile each member
    /// alone.
    pub(crate) multicolor: bool,
    /// Run each phase's tasks on the thread pool.
    pub(crate) parallel: bool,
}

impl Schedule<'_> {
    /// Cut `lowered` into tasks per barrier phase: one task per tile of a
    /// parallel-safe kernel's nests (or of its members), and one ordered
    /// task walking every nest in union order for a kernel that is not.
    pub(crate) fn build(&self, lowered: Lowered) -> Result<Phased> {
        let mut phases = Vec::with_capacity(lowered.phases.len());
        for phase in &lowered.phases {
            let mut tasks = Vec::new();
            for &ki in phase {
                let kernel = &lowered.kernels[ki];
                if !kernel.parallel_safe {
                    tasks.push(Task {
                        kernel: ki,
                        nests: nests(kernel),
                    });
                    continue;
                }
                let tile = (self.tile)(kernel)?;
                let nests = if self.multicolor {
                    nests(kernel)
                } else {
                    let members = kernel.regions.iter().filter(|r| !r.is_empty());
                    members.cloned().map(Nest::of).collect()
                };
                let tiles = nests.iter().flat_map(|n| tile_nest(n, &tile));
                tasks.extend(tiles.map(|nest| Task {
                    kernel: ki,
                    nests: vec![nest],
                }));
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

/// One loop nest: outer loops over `outer` (every dimension but the
/// innermost), and inside them each member's innermost loop. The
/// generated C and OpenCL driver emit it, and [`run_nest`] walks it.
#[derive(Clone, Debug)]
pub(crate) struct Nest {
    /// Outer iteration space: the members' hull, stepping by the gcd of
    /// their strides and offsets (a lone member's own outer dimensions).
    pub outer: Region,
    /// Member regions in union order; each runs on the rows `outer`
    /// shares with its own outer lattice.
    pub members: Vec<Region>,
}

impl Nest {
    /// The one-member nest of `region`.
    fn of(region: Region) -> Nest {
        let k = region.ndim() - 1;
        let outer = Region::new(
            region.lo[..k].to_vec(),
            region.hi[..k].to_vec(),
            region.stride[..k].to_vec(),
        );
        Nest {
            outer,
            members: vec![region],
        }
    }
}

/// The loop nests that run `kernel`, in order: one nest for a
/// parallel-safe union whose members tile their hull (see
/// [`tiled_hull`]), otherwise one per non-empty region. The generated C,
/// the OpenCL driver, the `seq` and `omp` schedules, the compiled
/// backends' dispatch counters and the verifier's codegen audit read this
/// grouping.
pub(crate) fn nests(kernel: &LoweredKernel) -> Vec<Nest> {
    let members: Vec<Region> = kernel
        .regions
        .iter()
        .filter(|r| !r.is_empty())
        .cloned()
        .collect();
    if kernel.parallel_safe && members.len() > 1 {
        if let Some(outer) = tiled_hull(&members) {
            return vec![Nest { outer, members }];
        }
    }
    members.into_iter().map(Nest::of).collect()
}

/// The hull of the members' outer lattices (every dimension but the
/// innermost), if the members tile it exactly: every hull row belongs to
/// exactly one member and that member's congruence is the only one it
/// satisfies, so an outer-congruence guard selects its member.
///
/// The hull steps by the gcd `g_d` of the strides and offsets, so each
/// member lattice lies on it. Members whose congruence classes are
/// pairwise disjoint (some dimension separates every pair) cannot share a
/// row, and then equal row counts mean the members cover the hull.
fn tiled_hull(members: &[Region]) -> Option<Region> {
    let k = members.first()?.ndim().checked_sub(1)?;
    for (i, a) in members.iter().enumerate() {
        for b in &members[i + 1..] {
            if (0..k).all(|d| (a.lo[d] - b.lo[d]) % gcd(a.stride[d], b.stride[d]) == 0) {
                return None;
            }
        }
    }
    let (mut lo, mut hi, mut step) = (Vec::new(), Vec::new(), Vec::new());
    for d in 0..k {
        let l = members.iter().map(|r| r.lo[d]).min()?;
        let last = |r: &Region| r.lo[d] + (r.extent(d) - 1) * r.stride[d];
        lo.push(l);
        hi.push(members.iter().map(last).max()? + 1);
        step.push(
            members
                .iter()
                .fold(0, |g, r| gcd(gcd(g, r.stride[d]), r.lo[d] - l)),
        );
    }
    let hull = Region::new(lo, hi, step);
    let rows = |r: &Region| (0..k).map(|d| r.extent(d)).product::<i64>();
    (members.iter().map(rows).sum::<i64>() == rows(&hull)).then_some(hull)
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// Tile the bounding box of `nest`'s members with boxes of `tile[d]`
/// points of the coarsest stride (saturating: an untiled dimension spans
/// the box), and keep each box's member slices, in union order, as one
/// sub-nest over the hull rows in the box. A one-member nest's tiles
/// partition its member in row-major tile order; a colour union's keep
/// every colour of a box in one tile (multicolor reordering).
fn tile_nest(nest: &Nest, tile: &[i64]) -> Vec<Nest> {
    let members = &nest.members;
    let nd = members[0].ndim();
    let mut lo = vec![i64::MAX; nd];
    let mut hi = vec![i64::MIN; nd];
    for r in members {
        for d in 0..nd {
            lo[d] = lo[d].min(r.lo[d]);
            hi[d] = hi[d].max(r.hi[d]);
        }
    }
    // Box extents in *index units*: tile[d] points of the coarsest stride,
    // saturating (an untiled dimension spans the whole box).
    let step: Vec<i64> = (0..nd)
        .map(|d| {
            let stride = members.iter().map(|r| r.stride[d]).max().unwrap();
            tile[d].saturating_mul(stride)
        })
        .collect();
    let mut tiles = Vec::new();
    let mut box_lo = lo.clone();
    loop {
        let box_hi: Vec<i64> = (0..nd)
            .map(|d| box_lo[d].saturating_add(step[d]).min(hi[d]))
            .collect();
        let subs: Vec<Region> = members
            .iter()
            .filter_map(|r| intersect_box(r, &box_lo, &box_hi))
            .collect();
        if !subs.is_empty() {
            let outer = intersect_box(&nest.outer, &box_lo[..nd - 1], &box_hi[..nd - 1]);
            tiles.push(Nest {
                outer: outer.expect("a box holding member rows holds hull rows"),
                members: subs,
            });
        }
        if !advance(&mut box_lo, &lo, &hi, &step) {
            break;
        }
    }
    tiles
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

/// The dimension a region's rows lie along: the innermost one with more
/// than one point. Every dimension after it has one point, so walking the
/// others in row-major order around these rows is row-major order.
fn row_dim(region: &Region) -> usize {
    let nd = region.ndim();
    let long = |d: usize| region.lo[d] + region.stride[d] < region.hi[d];
    (0..nd).rev().find(|&d| long(d)).unwrap_or(nd - 1)
}

/// Execute kernel `k` of `lowered` over one loop nest.
///
/// A lone member runs as rows along its [`row_dim`], in row-major order.
/// A colour union walks its hull's rows in order, along the innermost
/// dimension, and runs each row with the member whose congruence guard
/// `(p_d − lo_d) % stride_d == 0` the row satisfies, the guard the
/// generated C uses. Members that share their inner step share one row
/// state, so packed tape lanes fill across members.
///
/// # Safety
/// The caller must guarantee:
/// * `view` holds valid pointers for every grid the kernel addresses, with
///   the shapes it was lowered for (so all accesses are in bounds —
///   established by `Stencil::validate`);
/// * no other thread concurrently accesses any cell this invocation
///   touches (established by the dependence analysis / barrier phases).
pub(crate) unsafe fn run_nest(
    lowered: &Lowered,
    forms: &[RunForm],
    k: usize,
    view: &GridPtrs<'_>,
    nest: &Nest,
) {
    let (kernel, form, members) = (&lowered.kernels[k], &forms[k], &nest.members);
    let Some(first) = members.first() else {
        return;
    };
    let nd = first.ndim();
    let mut at = [0i64; MAX_DIMS];
    let p = &mut at[..nd];
    p.copy_from_slice(&first.lo);
    if let [m] = &members[..] {
        // Cursors are recomputed per row (the row interior is the hot
        // path); the dimensions after `r` stay at their one point.
        let r = row_dim(m);
        let count = m.extent(r);
        let mut row = Row::new(kernel, form, r, std::slice::from_ref(m));
        loop {
            row.run(view, p, count);
            if !advance(&mut p[..r], &m.lo[..r], &m.hi[..r], &m.stride[..r]) {
                break;
            }
        }
        row.flush(view);
        return;
    }

    // A colour union: the hull's rows, each run by its member.
    let (outer, r) = (&nest.outer, nd - 1);
    let counts: Vec<i64> = members.iter().map(|m| m.extent(r)).collect();
    let shared = members.iter().all(|m| m.stride[r] == first.stride[r]);
    let mut rows: Vec<Row> = if shared {
        vec![Row::new(kernel, form, r, members)]
    } else {
        let state = |m| Row::new(kernel, form, r, std::slice::from_ref(m));
        members.iter().map(state).collect()
    };
    p[..r].copy_from_slice(&outer.lo);
    loop {
        for (i, m) in members.iter().enumerate() {
            if (0..r).all(|d| (p[d] - m.lo[d]) % m.stride[d] == 0) {
                p[r] = m.lo[r];
                rows[if shared { 0 } else { i }].run(view, p, counts[i]);
            }
        }
        if !advance(&mut p[..r], &outer.lo, &outer.hi, &outer.stride) {
            break;
        }
    }
    for row in &mut rows {
        row.flush(view);
    }
}

/// Step the row-major odometer `p` over the lattice `lo..hi` by `stride`
/// (saturating, so an untiled box step ends its dimension); false once it
/// wraps (at once when `p` is empty).
#[inline(always)]
fn advance(p: &mut [i64], lo: &[i64], hi: &[i64], stride: &[i64]) -> bool {
    for d in (0..p.len()).rev() {
        p[d] = p[d].saturating_add(stride[d]);
        if p[d] < hi[d] {
            return true;
        }
        p[d] = lo[d];
    }
    false
}

/// One kernel's row state over the rows of one nest.
struct Row<'k> {
    kernel: &'k LoweredKernel,
    class_grid: [usize; MAX_CLASSES],
    inner_step: [isize; MAX_CLASSES],
    shape: RowShape<'k>,
}

/// The loop a kernel's rows run in, fixed per nest by its closed form.
enum RowShape<'k> {
    /// A linear record: one fold per point at each term's own step
    /// ([`lin_row`]), parallel-safe or not.
    Linear(&'k SpecLinear),
    /// A tape's fused program over its lanes (one lane when sequential).
    Tape(TapeLanes<'k>),
}

impl<'k> Row<'k> {
    /// The state of the rows of `members`, which share their stride
    /// along the row dimension `r`.
    fn new(kernel: &'k LoweredKernel, form: &'k RunForm, r: usize, members: &[Region]) -> Self {
        let mut class_grid = [0usize; MAX_CLASSES];
        let mut inner_step = [0isize; MAX_CLASSES];
        for (c, cl) in kernel.classes.iter().enumerate() {
            class_grid[c] = cl.grid;
            inner_step[c] = cl.step(r, members[0].stride[r]);
        }
        let shape = match form {
            RunForm::Linear(sl) => RowShape::Linear(sl),
            RunForm::Tape(prog) => {
                let row = members.iter().map(|m| m.extent(r)).max().unwrap_or(0);
                let points: u64 = members.iter().map(Region::num_points).sum();
                // A nest's point counts are bounded by its grids' sizes.
                #[allow(clippy::cast_possible_truncation)]
                let (row, points) = (row as usize, points as usize);
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

    /// Write out what the rows left in packed lanes.
    ///
    /// # Safety
    /// As [`run_nest`].
    unsafe fn flush(&mut self, view: &GridPtrs<'_>) {
        if let RowShape::Tape(lanes) = &mut self.shape {
            lanes.flush(view);
        }
    }

    /// Execute the `count` points of the row starting at point `p`.
    ///
    /// # Safety
    /// As [`run_nest`], with `p` a row start of the nest this state was
    /// built for.
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
            RowShape::Linear(sl) => {
                lin_row(sl, view, &cur, grids, steps, total, out, out_idx, out_step);
            }
            RowShape::Tape(lanes) => {
                lanes.push_row(view, &cur, grids, steps, total, out_idx, out_step);
            }
        }
    }
}

/// One schedulable unit of a phase: `kernel` runs over each of `nests`
/// in turn — one tile of a parallel-safe kernel (a sub-nest of one of its
/// nests, or of one member), or every nest of a sequential kernel in
/// union order.
struct Task {
    kernel: usize,
    nests: Vec<Nest>,
}

/// The one executor of the schedule-building backends (`seq`, `omp`):
/// the lowered program plus the tasks of each barrier phase.
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
            for nest in &task.nests {
                // SAFETY: tasks within a phase are mutually independent
                // and bounds are proven by validation (see the type docs).
                unsafe {
                    run_nest(&self.lowered, &self.forms, task.kernel, &view, nest);
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

    /// One dispatch per nest a task runs, classified by the analysis'
    /// verdict on its kernel.
    fn work(&self) -> KernelCounters {
        let mut work = KernelCounters {
            points: self.lowered.num_points(),
            ..KernelCounters::default()
        };
        for task in self.phases.iter().flatten() {
            let n = task.nests.len() as u64;
            work.tiles += n;
            if self.lowered.kernels[task.kernel].parallel_safe {
                work.parallel_tasks += n;
            } else {
                work.sequential_tasks += n;
            }
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{
        weights2, Component, DomainUnion, Expr, RectDomain, ShapeMap, Stencil, StencilGroup,
    };
    use snowflake_grid::{Grid, GridSet};
    use snowflake_ir::spec::SpecForm;

    use crate::specialize::{IN_PLACE_ROW, TAPE_LANES};

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
            for nest in nests(k) {
                unsafe { run_nest(&lowered, &forms, ki, &view, &nest) };
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
        // Rows of 3, 128, 129 and 263 points must all agree with the
        // reference (off-by-ones where a vectorized loop hands over to its
        // remainder are the classic failure).
        for n in [3usize, 128, 129, 263] {
            let shape = [3usize, n + 2];
            let mut gs = GridSet::new();
            let mut x = Grid::new(&shape);
            x.fill_random(n as u64, -1.0, 1.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&shape));
            // Linear kernel over a full row.
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
            for nest in nests(k) {
                unsafe { run_nest(&lowered, &forms, ki, &view, &nest) };
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

    /// Every point of the union, visited the way the emitted nest visits
    /// it: outer rows over the hull, each member's guard, its inner loop.
    fn nest_points(nest: &Nest) -> Vec<Vec<i64>> {
        let k = nest.outer.ndim();
        let mut pts = Vec::new();
        for row in nest.outer.points() {
            for m in &nest.members {
                if (0..k).all(|d| (row[d] - m.lo[d]) % m.stride[d] == 0) {
                    let mut i = m.lo[k];
                    while i < m.hi[k] {
                        let mut p = row.clone();
                        p.push(i);
                        pts.push(p);
                        i += m.stride[k];
                    }
                }
            }
        }
        pts
    }

    #[test]
    fn nests_visit_every_union_point_exactly_once() {
        let r =
            |lo: &[i64], hi: &[i64], s: &[i64]| Region::new(lo.to_vec(), hi.to_vec(), s.to_vec());
        let (red, black) = DomainUnion::red_black(3);
        // (union, nests it emits as)
        let mut cases: Vec<(Vec<Region>, usize)> = Vec::new();
        for color in DomainUnion::multicolor(3, 3)
            .into_iter()
            .chain([red, black])
        {
            cases.push((color.resolve(&[9, 9, 9]).unwrap(), 1));
        }
        cases.extend([
            // The same congruence class in two bounded pieces, next to the
            // other class: counts match but guards could not separate the
            // pieces, so the union must not merge.
            (
                vec![
                    r(&[1, 0], &[6, 4], &[2, 1]),
                    r(&[7, 0], &[10, 4], &[2, 1]),
                    r(&[2, 0], &[9, 4], &[2, 1]),
                ],
                3,
            ),
            // Row-disjoint but not tiling (a gap at row 6).
            (
                vec![r(&[1, 0], &[8, 3], &[2, 1]), r(&[2, 0], &[5, 3], &[2, 1])],
                2,
            ),
            // Different strides tiling rows 0..12: 0 mod 2, 1 mod 4, 3 mod 4.
            (
                vec![
                    r(&[0, 0], &[12, 5], &[2, 1]),
                    r(&[1, 1], &[12, 5], &[4, 2]),
                    r(&[3, 0], &[12, 5], &[4, 3]),
                ],
                1,
            ),
            // 1-D union: no outer dimension to guard on.
            (vec![r(&[1], &[9], &[2]), r(&[2], &[9], &[2])], 2),
        ]);
        for (regions, want_nests) in cases {
            let kernel = LoweredKernel {
                name: "k".to_string(),
                ndim: regions[0].ndim(),
                classes: vec![],
                out_class: 0,
                out_delta: 0,
                form: SpecForm::Tape(Default::default()),
                regions: regions.clone(),
                parallel_safe: true,
                out_grid: 0,
            };
            assert_eq!(nests(&kernel).len(), want_nests, "{regions:?}");
            let mut seen: Vec<Vec<i64>> = nests(&kernel).iter().flat_map(nest_points).collect();
            let mut want: Vec<Vec<i64>> = regions.iter().flat_map(|r| r.points()).collect();
            seen.sort();
            want.sort();
            assert_eq!(seen, want, "{regions:?}");
        }
    }

    /// The points of `tiles`, each tile's members in order.
    fn tile_points(tiles: &[Nest]) -> Vec<Vec<i64>> {
        tiles
            .iter()
            .flat_map(|t| t.members.iter().flat_map(|m| m.points()))
            .collect()
    }

    #[test]
    fn one_member_tiles_partition_their_region() {
        let r = |lo: &[i64], hi: &[i64], s: &[i64]| {
            Nest::of(Region::new(lo.to_vec(), hi.to_vec(), s.to_vec()))
        };
        let nest = r(&[1, 1], &[17, 13], &[1, 2]);
        let mut seen = tile_points(&tile_nest(&nest, &[4, 3]));
        let want: Vec<Vec<i64>> = nest.members[0].points().collect();
        seen.sort();
        assert_eq!(seen, want);
        // Oversized tiles leave the region whole.
        let tiles = tile_nest(&nest, &[100, UNTILED]);
        assert_eq!(tiles.len(), 1);
        assert_eq!(tile_points(&tiles), want);
        // A boundary face (extent 1 in dim 0) under a bulk tile shape
        // clamps to whole-face rows, never to a storm of singletons.
        let face = r(&[0, 0], &[1, 64], &[1, 1]);
        let tiles = tile_nest(&face, &[16, 16]);
        assert_eq!(tiles.len(), 4, "64-wide face / 16-wide tiles");
        assert!(tiles.iter().all(|t| t.members[0].extent(0) == 1));
        assert_eq!(
            tile_points(&tiles),
            face.members[0].points().collect::<Vec<_>>()
        );
    }

    proptest::proptest! {
        #[test]
        fn one_member_tiles_partition_strided_regions(
            n0 in 1i64..12, n1 in 1i64..12,
            s0 in 1i64..3, s1 in 1i64..3,
            t0 in 1i64..6, t1 in 1i64..6,
        ) {
            let nest = Nest::of(Region::new(vec![0, 0], vec![n0, n1], vec![s0, s1]));
            let mut seen = tile_points(&tile_nest(&nest, &[t0, t1]));
            seen.sort();
            let want: Vec<Vec<i64>> = nest.members[0].points().collect();
            proptest::prop_assert_eq!(seen, want);
        }
    }
}
