//! A distributed-memory execution prototype (§VII: "we're exploring the
//! development of new backends to target distributed-memory systems via
//! MPI or UPC++ … this will also provide performance on NUMA node
//! architectures by running one process per NUMA node").
//!
//! The backend decomposes the outermost dimension into `R` rank slabs.
//! Each rank owns a private copy of every grid (an *address-translation-
//! free* simulation: the communication schedule — who sends which rows to
//! whom, after which phase — is exactly what a real MPI build would
//! perform; only the storage is not physically remote). Execution then
//! follows the SPMD pattern:
//!
//! 1. **Scatter**: the global grids are copied into every rank's locals.
//! 2. Per barrier phase: every rank executes its slab of each kernel
//!    (ranks run concurrently on the thread pool), then **halo rows** of
//!    every grid written in the phase are exchanged with slab neighbors —
//!    one "message" per (grid, direction, boundary), with byte counts
//!    tracked for inspection.
//! 3. **Gather**: each rank's owned rows are copied back to the global
//!    grids.
//!
//! Prototype restrictions (checked at compile time, reported as backend
//! errors): translation-only access maps, parallel-safe kernels only, and
//! a common outermost extent across grids. The full HPGMG smoother,
//! residual and boundary groups satisfy all three.

use rayon::prelude::*;

use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::{Grid, GridSet};
use snowflake_ir::{intersect_box, LowerOptions, Lowered};

use crate::exec::run_kernel_region;
use crate::metrics::RunReport;
use crate::view::GridPtrs;
use crate::{Backend, Executable};

pub use crate::metrics::CommStats;

/// Simulated-MPI backend: rank-decomposed execution with halo exchange.
#[derive(Clone, Debug)]
pub struct DistBackend {
    /// Number of simulated ranks (≥ 1).
    pub ranks: usize,
    /// Lowering options.
    pub options: LowerOptions,
}

impl Default for DistBackend {
    /// Two simulated ranks: the smallest configuration that exercises the
    /// halo-exchange schedule.
    fn default() -> Self {
        DistBackend::new(2)
    }
}

impl DistBackend {
    /// Backend with `ranks` simulated processes.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        DistBackend {
            ranks,
            options: LowerOptions::default(),
        }
    }

    /// Set the simulated rank count (builder style).
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        self.ranks = ranks;
        self
    }

    /// Set the lowering options (builder style).
    pub fn with_options(mut self, options: LowerOptions) -> Self {
        self.options = options;
        self
    }
}

/// The compiled SPMD program (see module docs).
pub struct DistExecutable {
    lowered: Lowered,
    ranks: usize,
    /// Owned row range per rank over the shared outermost extent.
    bounds: Vec<(i64, i64)>,
    /// Halo width (rows) per grid (max |dim-0 read offset| over kernels).
    halo: Vec<i64>,
    /// Grids written per phase (dense indices).
    written: Vec<Vec<usize>>,
    stats: std::sync::Mutex<CommStats>,
}

impl Backend for DistBackend {
    fn name(&self) -> &'static str {
        "dist"
    }

    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        Ok(Box::new(self.compile_dist(group, shapes)?))
    }

    fn lower_options(&self) -> LowerOptions {
        self.options.clone()
    }
}

impl DistBackend {
    /// As [`Backend::compile`], returning the concrete executable so
    /// callers can read [`DistExecutable::comm_stats`].
    pub fn compile_dist(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<DistExecutable> {
        let lowered = crate::exec::lower(group, shapes, &self.options)?;
        // Prototype restrictions.
        let n0 = lowered.grid_shapes[0][0];
        for shape in &lowered.grid_shapes {
            if shape[0] != n0 {
                return Err(CoreError::Backend(format!(
                    "dist prototype needs one outermost extent; got {} and {n0}",
                    shape[0]
                )));
            }
        }
        let mut halo = vec![0i64; lowered.grid_names.len()];
        for kernel in &lowered.kernels {
            if !kernel.parallel_safe {
                return Err(CoreError::Backend(format!(
                    "dist prototype cannot decompose the sequential kernel {:?}",
                    kernel.name
                )));
            }
            for cl in &kernel.classes {
                if cl.scale.iter().any(|&s| s != 1) {
                    return Err(CoreError::Backend(format!(
                        "dist prototype supports translation maps only (kernel {:?})",
                        kernel.name
                    )));
                }
            }
            // Recover dim-0 offsets from the per-class deltas of each read:
            // delta = Σ off_d · stride_d; with translation maps the dim-0
            // part is delta.div_euclid(stride_0) after removing inner dims —
            // simpler and exact: walk the original program reads.
            for op in &kernel.program.ops {
                if let snowflake_ir::Op::Read { class, delta } = *op {
                    let cl = &kernel.classes[class as usize];
                    let off0 = dim0_offset(delta, &cl.strides);
                    halo[cl.grid] = halo[cl.grid].max(off0.abs());
                }
            }
            // Output must not be displaced along dim 0 (ownership).
            let out = &kernel.classes[kernel.out_class as usize];
            if dim0_offset(kernel.out_delta, &out.strides) != 0 {
                return Err(CoreError::Backend(format!(
                    "dist prototype requires dim-0-aligned writes (kernel {:?})",
                    kernel.name
                )));
            }
        }

        let ranks = self.ranks.min(n0.max(1));
        let bounds: Vec<(i64, i64)> = (0..ranks)
            .map(|r| ((r * n0 / ranks) as i64, ((r + 1) * n0 / ranks) as i64))
            .collect();
        let written = lowered
            .phases
            .iter()
            .map(|phase| {
                let mut ws: Vec<usize> =
                    phase.iter().map(|&k| lowered.kernels[k].out_grid).collect();
                ws.sort_unstable();
                ws.dedup();
                ws
            })
            .collect();
        Ok(DistExecutable {
            lowered,
            ranks,
            bounds,
            halo,
            written,
            stats: std::sync::Mutex::new(CommStats::default()),
        })
    }
}

/// Extract the dim-0 component of a linearized delta given row-major
/// strides (exact for in-range stencil offsets: the inner-dim remainder is
/// bounded by stride 0).
fn dim0_offset(delta: isize, strides: &[usize]) -> i64 {
    let s0 = strides[0] as isize;
    // Round to nearest multiple of s0: inner-dim offsets are < s0/2 in
    // magnitude for all practical stencils (reach ≪ plane size).
    let q = (delta + if delta >= 0 { s0 / 2 } else { -s0 / 2 }) / s0;
    q as i64
}

impl DistExecutable {
    /// Rows `[lo, hi)` of grid `gi` copied from `src` to `dst`.
    fn copy_rows(shape: &[usize], src: &Grid, dst: &mut Grid, lo: i64, hi: i64) -> u64 {
        if lo >= hi {
            return 0;
        }
        let plane: usize = shape[1..].iter().product();
        // lo/hi are clamped non-negative plane indices; the cast is exact.
        #[allow(clippy::cast_possible_truncation)]
        let (a, b) = (lo as usize * plane, hi as usize * plane);
        dst.as_mut_slice()[a..b].copy_from_slice(&src.as_slice()[a..b]);
        ((b - a) * std::mem::size_of::<f64>()) as u64
    }
}

impl DistExecutable {
    /// Shared execution path; instrumentation only observes, so `run` and
    /// `run_with_report` compute bitwise-identical results.
    #[allow(clippy::needless_range_loop)] // rank index addresses bounds AND locals
    fn run_impl(&self, grids: &mut GridSet, mut report: Option<&mut RunReport>) -> Result<()> {
        // Verify shapes and build the rank-local grid sets (scatter).
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
                    "grid {name:?} shape mismatch for dist group"
                )));
            }
        }
        let mut locals: Vec<Vec<Grid>> = (0..self.ranks)
            .map(|_| {
                self.lowered
                    .grid_names
                    .iter()
                    .map(|n| grids.get(n).expect("checked").clone())
                    .collect()
            })
            .collect();

        let mut stats = CommStats::default();
        for (pi, phase) in self.lowered.phases.iter().enumerate() {
            let t0 = report.as_ref().map(|_| std::time::Instant::now());
            // SPMD compute: every rank runs its slab of the phase.
            locals.par_iter_mut().enumerate().for_each(|(r, local)| {
                let (lo, hi) = self.bounds[r];
                let mut ptrs: Vec<*mut f64> = local.iter_mut().map(|g| g.as_mut_ptr()).collect();
                let lens: Vec<usize> = local.iter().map(|g| g.len()).collect();
                let view = GridPtrs::new(&ptrs, &lens);
                for &ki in phase {
                    let kernel = &self.lowered.kernels[ki];
                    for region in &kernel.regions {
                        // Clip only the outermost dimension to the rank's
                        // slab; inner dimensions keep the region's bounds.
                        let mut blo: Vec<i64> = region.lo.clone();
                        let mut bhi: Vec<i64> = region.hi.clone();
                        blo[0] = lo;
                        bhi[0] = hi;
                        if let Some(slab) = intersect_box(region, &blo, &bhi) {
                            // SAFETY: rank-private storage; in-slab
                            // disjointness follows from the kernel's
                            // parallel-safety proof.
                            unsafe { run_kernel_region(kernel, &view, &slab) };
                        }
                    }
                }
                let _ = &mut ptrs;
            });

            // Halo exchange for grids written this phase.
            for &gi in &self.written[pi] {
                let shape = &self.lowered.grid_shapes[gi];
                let h = self.halo[gi];
                if h == 0 {
                    continue;
                }
                for r in 0..self.ranks {
                    let (lo, hi) = self.bounds[r];
                    // Send my top boundary rows to rank r+1's lower halo,
                    // and my bottom boundary rows to rank r-1's upper halo.
                    if r + 1 < self.ranks {
                        let (src, rest) = locals.split_at_mut(r + 1);
                        let bytes =
                            Self::copy_rows(shape, &src[r][gi], &mut rest[0][gi], hi - h, hi);
                        stats.messages += 1;
                        stats.bytes += bytes;
                    }
                    if r > 0 {
                        let (dst, src) = locals.split_at_mut(r);
                        let bytes =
                            Self::copy_rows(shape, &src[0][gi], &mut dst[r - 1][gi], lo, lo + h);
                        stats.messages += 1;
                        stats.bytes += bytes;
                    }
                }
            }

            if let (Some(r), Some(t0)) = (report.as_deref_mut(), t0) {
                // One slab task per (rank, kernel); the phase time covers
                // both the SPMD compute and the halo exchange behind it.
                let slabs = (self.ranks * phase.len()) as u64;
                r.record_phase(pi, t0.elapsed().as_secs_f64(), slabs);
                r.kernels.tiles += slabs;
                // compile_dist rejects non-parallel-safe kernels, so every
                // slab dispatch here is a parallel one.
                r.kernels.parallel_tasks += slabs;
            }
        }

        // Gather: owned rows back to the global grids.
        for (gi, name) in self.lowered.grid_names.iter().enumerate() {
            let shape = self.lowered.grid_shapes[gi].clone();
            let dst = grids.get_mut(name).expect("checked");
            for r in 0..self.ranks {
                let (lo, hi) = self.bounds[r];
                Self::copy_rows(&shape, &locals[r][gi], dst, lo, hi);
            }
        }
        {
            let mut total = self.stats.lock().unwrap();
            total.messages += stats.messages;
            total.bytes += stats.bytes;
        }
        if let Some(r) = report {
            r.comm.messages += stats.messages;
            r.comm.bytes += stats.bytes;
        }
        Ok(())
    }
}

impl Executable for DistExecutable {
    fn run(&self, grids: &mut GridSet) -> Result<()> {
        self.run_impl(grids, None)
    }

    fn run_with_report(&self, grids: &mut GridSet, report: &mut RunReport) -> Result<()> {
        report.set_backend("dist");
        let t0 = std::time::Instant::now();
        self.run_impl(grids, Some(report))?;
        report.kernels.points += self.points_per_run();
        report.finish_run(t0.elapsed().as_secs_f64());
        Ok(())
    }

    fn points_per_run(&self) -> u64 {
        self.lowered.num_points()
    }
}

impl DistExecutable {
    /// Cumulative halo-exchange statistics.
    pub fn comm_stats(&self) -> CommStats {
        *self.stats.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialBackend;
    use snowflake_core::{weights3, Component, DomainUnion, Expr, RectDomain, Stencil};

    fn lap3(grid: &str) -> Component {
        Component::new(
            grid,
            weights3![
                [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                [[0, 1, 0], [1, -6, 1], [0, 1, 0]],
                [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
            ],
        )
    }

    fn random_grids(n: usize) -> GridSet {
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[n, n, n]);
        x.fill_random(41, -1.0, 1.0);
        gs.insert("x", x);
        gs.insert("y", Grid::new(&[n, n, n]));
        gs
    }

    #[test]
    fn dist_matches_seq_on_laplacian() {
        let group = StencilGroup::from(Stencil::new(lap3("x"), "y", RectDomain::interior(3)));
        for ranks in [1usize, 2, 3, 4] {
            let mut a = random_grids(12);
            let mut b = a.clone();
            let shapes = a.shapes();
            SequentialBackend::new()
                .compile(&group, &shapes)
                .unwrap()
                .run(&mut a)
                .unwrap();
            DistBackend::new(ranks)
                .compile(&group, &shapes)
                .unwrap()
                .run(&mut b)
                .unwrap();
            assert_eq!(
                a.get("y").unwrap().max_abs_diff(b.get("y").unwrap()),
                0.0,
                "ranks = {ranks}"
            );
        }
    }

    #[test]
    fn dist_runs_multiphase_red_black_with_exchanges() {
        // Two dependent phases force a halo exchange between them.
        let (red, black) = DomainUnion::red_black(3);
        let avg = Expr::read_at("x", &[1, 0, 0]) * 0.5 + Expr::read_at("x", &[-1, 0, 0]) * 0.5;
        let group = StencilGroup::new()
            .with(Stencil::new(avg.clone(), "x", red))
            .with(Stencil::new(avg, "x", black));
        let mut a = {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[10, 10, 10]);
            x.fill_random(3, 0.0, 1.0);
            gs.insert("x", x);
            gs
        };
        let mut b = a.clone();
        let shapes = a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        let exe = DistBackend::new(3).compile(&group, &shapes).unwrap();
        exe.run(&mut b).unwrap();
        assert_eq!(a.get("x").unwrap().max_abs_diff(b.get("x").unwrap()), 0.0);
    }

    #[test]
    fn comm_stats_track_halo_traffic() {
        let (red, black) = DomainUnion::red_black(3);
        let avg = Expr::read_at("x", &[1, 0, 0]) * 0.5 + Expr::read_at("x", &[-1, 0, 0]) * 0.5;
        let group = StencilGroup::new()
            .with(Stencil::new(avg.clone(), "x", red))
            .with(Stencil::new(avg, "x", black));
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[12, 12, 12]);
        x.fill_random(5, 0.0, 1.0);
        gs.insert("x", x);
        let exe = DistBackend::new(4)
            .compile_dist(&group, &gs.shapes())
            .unwrap();
        exe.run(&mut gs).unwrap();
        let stats = exe.comm_stats();
        // 2 phases x 1 grid x (3 internal boundaries x 2 directions).
        assert_eq!(stats.messages, 12, "{stats:?}");
        // Each message carries halo=1 row of 12x12 doubles.
        assert_eq!(stats.bytes, 12 * 12 * 12 * 8, "{stats:?}");
        // Stats accumulate across runs.
        exe.run(&mut gs).unwrap();
        assert_eq!(exe.comm_stats().messages, 24);
    }

    #[test]
    fn dist_rejects_sequential_kernels() {
        // Lexicographic in-place propagation cannot be decomposed.
        let s = Stencil::new(
            Expr::read_at("x", &[-1, 0, 0]),
            "x",
            RectDomain::interior(3),
        );
        let gs = random_grids(8);
        let err = DistBackend::new(2)
            .compile(&StencilGroup::from(s), &gs.shapes())
            .err()
            .expect("must reject");
        assert!(err.to_string().contains("sequential"), "{err}");
    }

    #[test]
    fn dist_rejects_scaled_maps() {
        let mut gs = GridSet::new();
        gs.insert("fine", Grid::new(&[8, 8, 8]));
        gs.insert("coarse", Grid::new(&[8, 8, 8]));
        let e = Expr::read_mapped(
            "fine",
            snowflake_core::AffineMap::scaled(vec![2, 2, 2], vec![0, 0, 0]),
        );
        let s = Stencil::new(
            e,
            "coarse",
            RectDomain::new(&[0, 0, 0], &[4, 4, 4], &[1, 1, 1]),
        );
        let err = DistBackend::new(2)
            .compile(&StencilGroup::from(s), &gs.shapes())
            .err()
            .expect("must reject");
        assert!(err.to_string().contains("translation"), "{err}");
    }

    #[test]
    fn more_ranks_than_rows_degrades_gracefully() {
        let group = StencilGroup::from(Stencil::new(lap3("x"), "y", RectDomain::interior(3)));
        let mut a = random_grids(6);
        let mut b = a.clone();
        let shapes = a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        DistBackend::new(64)
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        assert_eq!(a.get("y").unwrap().max_abs_diff(b.get("y").unwrap()), 0.0);
    }

    #[test]
    fn boundary_plus_interior_group_distributes() {
        // Ghost faces + interior sweep: faces land on the owning ranks.
        let mut group = StencilGroup::new();
        for s in hpgmg_like_faces() {
            group.push(s);
        }
        group.push(Stencil::new(lap3("x"), "y", RectDomain::interior(3)));
        let mut a = random_grids(9);
        let mut b = a.clone();
        let shapes = a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        DistBackend::new(3)
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        for g in ["x", "y"] {
            assert_eq!(
                a.get(g).unwrap().max_abs_diff(b.get(g).unwrap()),
                0.0,
                "{g}"
            );
        }
    }

    fn hpgmg_like_faces() -> Vec<Stencil> {
        let mut out = Vec::new();
        for d in 0..3usize {
            for (pin, inward) in [(0i64, 1i64), (-1, -1)] {
                let mut lo = [1i64; 3];
                let mut hi = [-1i64; 3];
                let mut stride = [1i64; 3];
                lo[d] = pin;
                hi[d] = pin;
                stride[d] = 0;
                let mut off = [0i64; 3];
                off[d] = inward;
                out.push(Stencil::new(
                    Expr::Neg(Box::new(Expr::read_at("x", &off))),
                    "x",
                    RectDomain::new(&lo, &hi, &stride),
                ));
            }
        }
        out
    }
}
