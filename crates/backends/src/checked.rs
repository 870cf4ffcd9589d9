//! The `checked` backend: a runtime sanitizer for compiled plans.
//!
//! An instrumented interpreter over the *lowered* form — the same closed
//! forms, cursor classes, regions and barrier phases every compiled
//! backend executes — that validates at run time exactly the two
//! properties the static verifier (`crate::verify`) proves at plan time:
//!
//! * **no out-of-bounds access** — every read and write's flat index is
//!   range-checked against the dense grid allocation before it happens;
//! * **no intra-phase write overlap** — a per-phase shadow write-set
//!   records which kernel wrote each cell; a second write to the same cell
//!   within one barrier phase is a violation unless it comes from the same
//!   *sequential* kernel (an in-place kernel may legally revisit its own
//!   cells; a `parallel_safe` kernel may not, since its iterations could
//!   run concurrently).
//!
//! Execution order per point is kept **bitwise identical** to the
//! sequential backend: each point evaluates the kernel's closed form
//! through `SpecForm::eval` — the merged fold of a linear record, the
//! source-tree order of a tape, the per-element operation sequence every
//! executor follows — so `checked` ≡ `seq` exactly on every grid, and on
//! tape kernels `checked` ≡ `interp` too. The sanitizer only observes.
//! Static and dynamic analyses must agree: any plan `verify_ops`
//! certifies must run here with zero violations, and every seeded
//! violation the verifier witnesses must also trip these checks.

use std::collections::HashMap;

use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::{GridSet, Region};
use snowflake_ir::{Lowered, LoweredKernel};

use crate::metrics::KernelCounters;
use crate::{Backend, Executable};

/// The sanitizer backend ("checked" in the registry).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckedBackend;

impl CheckedBackend {
    /// The sanitizer has no knobs; `new` exists for construction
    /// uniformity with every other backend.
    pub fn new() -> Self {
        CheckedBackend
    }
}

impl Backend for CheckedBackend {
    fn name(&self) -> &'static str {
        "checked"
    }

    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        let lowered = crate::exec::lower(group, shapes)?;
        Ok(Box::new(CheckedExecutable { lowered }))
    }
}

struct CheckedExecutable {
    lowered: Lowered,
}

/// Shadow write-set for one barrier phase: `(grid, flat index) → kernel`.
type WriteSet = HashMap<(usize, usize), usize>;

fn oob_violation(
    lowered: &Lowered,
    kernel: &LoweredKernel,
    grid: usize,
    idx: isize,
    point: &[i64],
    what: &str,
) -> CoreError {
    CoreError::Backend(format!(
        "checked backend: kernel {:?} {what} out of bounds on grid {:?}: flat index {idx} \
         (allocation has {} cells) at iteration point {point:?}",
        kernel.name,
        lowered.grid_names[grid],
        lowered.grid_shapes[grid].iter().product::<usize>(),
    ))
}

/// Evaluate one iteration point with range-checked reads, in the exact
/// operation order of `crate::exec` (bitwise parity with `seq`).
fn eval_point(
    kernel: &LoweredKernel,
    cur: &[isize],
    bufs: &[Vec<f64>],
) -> std::result::Result<f64, (usize, isize)> {
    kernel.form.eval(|c, d| {
        let g = kernel.classes[c as usize].grid;
        let idx = cur[c as usize] + d;
        if idx < 0 || idx as usize >= bufs[g].len() {
            Err((g, idx))
        } else {
            Ok(bufs[g][idx as usize])
        }
    })
}

/// The iteration point for error reporting: the odometer position `p`
/// with the innermost coordinate advanced `i` steps.
fn point_at(p: &[i64], last: usize, region: &Region, i: i64) -> Vec<i64> {
    let mut w = p.to_vec();
    w[last] = region.lo[last] + i * region.stride[last];
    w
}

/// Run one kernel over one region with checked reads, checked writes and
/// shadow write-set tracking, in canonical row-major order: the order
/// `exec::run_nest` keeps for a kernel that is not parallel-safe.
fn run_region_checked(
    lowered: &Lowered,
    ki: usize,
    region: &Region,
    bufs: &mut [Vec<f64>],
    writes: &mut WriteSet,
) -> Result<()> {
    let kernel = &lowered.kernels[ki];
    if region.is_empty() {
        return Ok(());
    }
    let nd = region.ndim();
    let last = nd - 1;
    let ncls = kernel.classes.len();
    let mut inner_step = vec![0isize; ncls];
    for (c, cl) in kernel.classes.iter().enumerate() {
        inner_step[c] = cl.step(last, region.stride[last]);
    }
    let out_class = kernel.out_class as usize;
    let out_grid = kernel.out_grid;
    let out_step = inner_step[out_class];
    let e_last = region.extent(last);
    let mut p = region.lo.clone();
    let mut cur = vec![0isize; ncls];
    loop {
        for (c, cl) in kernel.classes.iter().enumerate() {
            cur[c] = cl.cursor_at(&p);
        }
        let mut out_idx = cur[out_class] + kernel.out_delta;
        for i in 0..e_last {
            let v = eval_point(kernel, &cur, bufs).map_err(|(g, idx)| {
                oob_violation(
                    lowered,
                    kernel,
                    g,
                    idx,
                    &point_at(&p, last, region, i),
                    "read",
                )
            })?;
            if out_idx < 0 || out_idx as usize >= bufs[out_grid].len() {
                return Err(oob_violation(
                    lowered,
                    kernel,
                    out_grid,
                    out_idx,
                    &point_at(&p, last, region, i),
                    "write",
                ));
            }
            let key = (out_grid, out_idx as usize);
            match writes.get(&key) {
                Some(&prev) if prev != ki || kernel.parallel_safe => {
                    return Err(CoreError::Backend(format!(
                        "checked backend: intra-phase write overlap on grid {:?} flat index \
                         {out_idx}: kernel {:?} writes a cell already written by kernel {:?} \
                         in the same barrier phase, at iteration point {:?}",
                        lowered.grid_names[out_grid],
                        kernel.name,
                        lowered.kernels[prev].name,
                        point_at(&p, last, region, i),
                    )));
                }
                Some(_) => {}
                None => {
                    writes.insert(key, ki);
                }
            }
            bufs[out_grid][out_idx as usize] = v;
            for s in 0..ncls {
                cur[s] += inner_step[s];
            }
            out_idx += out_step;
        }
        if nd == 1 {
            return Ok(());
        }
        let mut d = last - 1;
        loop {
            p[d] += region.stride[d];
            if p[d] < region.hi[d] {
                break;
            }
            p[d] = region.lo[d];
            if d == 0 {
                return Ok(());
            }
            d -= 1;
        }
    }
}

impl Executable for CheckedExecutable {
    /// Grids are snapshotted into plain vectors so every access goes
    /// through safe, range-checked indexing; the snapshots are written back
    /// only when the whole run is violation free (a failed run leaves the
    /// grid set untouched).
    fn run(&self, grids: &mut GridSet) -> Result<()> {
        let mut bufs: Vec<Vec<f64>> = Vec::with_capacity(self.lowered.grid_names.len());
        for (name, shape) in self
            .lowered
            .grid_names
            .iter()
            .zip(&self.lowered.grid_shapes)
        {
            let g = grids.get(name).ok_or_else(|| CoreError::UnknownGrid {
                stencil: String::new(),
                grid: name.clone(),
            })?;
            if g.shape() != shape.as_slice() {
                return Err(CoreError::Backend(format!(
                    "grid {name:?} has shape {:?} but group was compiled for {:?}",
                    g.shape(),
                    shape
                )));
            }
            bufs.push(g.as_slice().to_vec());
        }
        let mut writes = WriteSet::new();
        for phase in &self.lowered.phases {
            writes.clear();
            for &ki in phase {
                for region in &self.lowered.kernels[ki].regions {
                    run_region_checked(&self.lowered, ki, region, &mut bufs, &mut writes)?;
                }
            }
        }
        for (name, buf) in self.lowered.grid_names.iter().zip(&bufs) {
            grids
                .get_mut(name)
                .unwrap()
                .as_mut_slice()
                .copy_from_slice(buf);
        }
        Ok(())
    }

    /// One dispatch per loop nest, as in `seq` and `cjit`.
    fn work(&self) -> KernelCounters {
        crate::dispatch_work(&self.lowered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::lower;
    use crate::SequentialBackend;
    use snowflake_core::{AffineMap, DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::Grid;

    fn red_black_group() -> StencilGroup {
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let update = m(0, 0)
            + 0.25 * (Expr::read_at("rhs", &[0, 0]) - (m(-1, 0) + m(1, 0) + m(0, -1) + m(0, 1)));
        let (red, black) = DomainUnion::red_black(2);
        StencilGroup::new()
            .with(Stencil::new(update.clone(), "mesh", red).named("red"))
            .with(Stencil::new(update, "mesh", black).named("black"))
    }

    fn grid_set(n: usize) -> GridSet {
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[n, n]);
        x.fill_random(11, -1.0, 1.0);
        gs.insert("mesh", x);
        let mut b = Grid::new(&[n, n]);
        b.fill_random(12, -1.0, 1.0);
        gs.insert("rhs", b);
        gs
    }

    /// The sanitizer's whole contract: identical bits to `seq`, zero
    /// violations, on a real red-black smooth.
    #[test]
    fn checked_is_bitwise_identical_to_seq() {
        let group = red_black_group();
        let mut gs_seq = grid_set(10);
        let mut gs_chk = grid_set(10);
        let shapes = gs_seq.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut gs_seq)
            .unwrap();
        CheckedBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut gs_chk)
            .unwrap();
        assert_eq!(
            gs_seq.get("mesh").unwrap().as_slice(),
            gs_chk.get("mesh").unwrap().as_slice(),
            "checked must be bitwise identical to seq"
        );
    }

    /// Doctor a lowered kernel's output delta so it writes past the
    /// allocation: the sanitizer must trip with a witness point, and the
    /// grids must be left untouched.
    #[test]
    fn seeded_oob_write_is_caught_with_witness() {
        let group = StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]),
            "y",
            RectDomain::all(2),
        ));
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![6, 6]);
        shapes.insert("y".into(), vec![6, 6]);
        let mut lowered = lower(&group, &shapes).unwrap();
        lowered.kernels[0].out_delta += 1_000;
        let exe = CheckedExecutable { lowered };
        let mut gs = GridSet::new();
        gs.insert("x", Grid::from_fn(&[6, 6], |p| p[0] as f64));
        gs.insert("y", Grid::new(&[6, 6]));
        let err = exe.run(&mut gs).unwrap_err().to_string();
        assert!(err.contains("write out of bounds"), "got: {err}");
        assert!(err.contains("iteration point"), "got: {err}");
        // Failed runs must not publish partial results.
        assert!(gs.get("y").unwrap().as_slice().iter().all(|&v| v == 0.0));
    }

    /// Merge two dependent kernels into one barrier phase: the shadow
    /// write-set must flag the overlap at runtime, mirroring the static
    /// verifier's phase-hazard witness.
    #[test]
    fn seeded_intra_phase_overlap_is_caught() {
        let group = StencilGroup::new()
            .with(Stencil::new(Expr::read_at("x", &[0, 0]), "y", RectDomain::all(2)).named("first"))
            .with(
                Stencil::new(Expr::read_at("x", &[0, 0]) * 2.0, "y", RectDomain::all(2))
                    .named("second"),
            );
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![4, 4]);
        shapes.insert("y".into(), vec![4, 4]);
        let mut lowered = lower(&group, &shapes).unwrap();
        // The greedy schedule correctly separates the WAW pair; force them
        // into one phase to seed the race.
        assert_eq!(lowered.phases.len(), 2);
        lowered.phases = vec![vec![0, 1]];
        let exe = CheckedExecutable { lowered };
        let mut gs = GridSet::new();
        gs.insert("x", Grid::from_fn(&[4, 4], |p| (p[0] + p[1]) as f64));
        gs.insert("y", Grid::new(&[4, 4]));
        let err = exe.run(&mut gs).unwrap_err().to_string();
        assert!(err.contains("intra-phase write overlap"), "got: {err}");
        assert!(err.contains("\"first\""), "got: {err}");

        // One kernel whose iterations all write one cell: the analysis
        // serializes it; forge the parallel claim to seed the race.
        let race = StencilGroup::from(
            Stencil::new(Expr::read_at("x", &[0, 0]), "y", RectDomain::all(2))
                .with_out_map(AffineMap::scaled(vec![0, 0], vec![1, 1])),
        );
        let mut lowered = lower(&race, &shapes).unwrap();
        assert!(!lowered.kernels[0].parallel_safe);
        lowered.kernels[0].parallel_safe = true;
        let exe = CheckedExecutable { lowered };
        let err = exe.run(&mut gs).unwrap_err().to_string();
        assert!(err.contains("intra-phase write overlap"), "got: {err}");
    }

    #[test]
    fn in_place_sequential_kernel_is_legal() {
        // Gauss–Seidel style in-place sweep: reads and writes "x" at the
        // same cells, is not parallel-safe, and must run clean (revisits
        // are by the same sequential kernel).
        let s = Stencil::new(
            Expr::read_at("x", &[-1]) + Expr::read_at("x", &[0]),
            "x",
            RectDomain::interior(1),
        );
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![8]);
        let exe = CheckedBackend::new()
            .compile(&StencilGroup::from(s), &shapes)
            .unwrap();
        let mut gs = GridSet::new();
        gs.insert("x", Grid::from_fn(&[8], |p| p[0] as f64));
        exe.run(&mut gs).unwrap();
        // Over a two-rectangle union it is one dispatch per loop nest, as
        // in `seq`.
        let union = RectDomain::new(&[1], &[4], &[1]) + RectDomain::new(&[4], &[-1], &[1]);
        let group = StencilGroup::from(Stencil::new(Expr::read_at("x", &[-1]), "x", union));
        let work = |b: &dyn Backend| b.compile(&group, &shapes).unwrap().work();
        let checked = work(&CheckedBackend::new());
        assert_eq!((checked.tiles, checked.sequential_tasks), (2, 2));
        assert_eq!(checked, work(&SequentialBackend::new()));
    }

    #[test]
    fn report_records_backend_op_row_and_work() {
        let mut gs = grid_set(8);
        let ops = [(red_black_group(), gs.shapes())];
        let plan = crate::SolverPlan::build(Box::new(CheckedBackend::new()), &ops).unwrap();
        let mut report = crate::RunReport::new();
        plan.run_with_report(0, &mut gs, &mut report).unwrap();
        assert_eq!(report.backend, "checked");
        assert_eq!(report.ops.keys().collect::<Vec<_>>(), [&0]);
        assert_eq!(report.ops[&0].calls, 1);
        assert!(report.kernels.points > 0);
        // Red and black are two strided rectangles each in 2-D, which
        // tile their hull: one dispatch per colour's loop nest.
        assert_eq!(report.kernels.tiles, 2);
    }
}
