//! The OpenMP-like parallel backend (§IV-A of the paper), built on rayon.
//!
//! The paper's OpenMP micro-compiler (a) forms **greedy barrier groups** —
//! consecutive stencils with no mutual dependence share a phase and are
//! farmed out as tasks, with a barrier only when the next stencil depends
//! on the current group; (b) **tiles** each stencil with an
//! arbitrary-dimension blocking whose size is tunable at compile time; and
//! (c) applies **multicolor reordering**, a loop interchange that walks the
//! union of strided color domains tile-by-tile (every color inside one
//! cache-resident tile) instead of sweeping each color across all of
//! memory.
//!
//! This backend reproduces all three decisions on top of rayon's task
//! pool: phases come from `snowflake-analysis`, tiles become rayon tasks,
//! and kernels the Diophantine analysis could not prove parallel-safe run
//! as single sequential tasks with canonical ordering.

use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::{GridSet, Region};
use snowflake_ir::Lowered;

use crate::exec::{fit_tile, Phased, Schedule, UNTILED};
use crate::metrics::BackendStats;
use crate::{Backend, Executable};

/// Scheduling options for the OpenMP-like backend.
#[derive(Clone, Debug)]
pub struct OmpOptions {
    /// Tile extents (points per dimension). `None` chooses a default that
    /// chunks the outermost dimension into `~4 × threads` tasks and keeps
    /// inner dimensions whole: the pool claims tasks in guided blocks, so
    /// the surplus tasks even out uneven tiles and colors across threads.
    pub tile: Option<Vec<i64>>,
    /// Interleave the rectangles of a union domain tile-by-tile (multicolor
    /// reordering). Only applied to kernels proven parallel-safe.
    pub multicolor_reorder: bool,
    /// Consult the persisted tile auto-tuner when no explicit tile is set:
    /// time candidate tile shapes once per (program, shapes, threads,
    /// options) and serve the winner from disk thereafter. Off by default (plan builds
    /// stay deterministic-cost unless asked).
    pub tune: bool,
}

impl Default for OmpOptions {
    fn default() -> Self {
        OmpOptions {
            tile: None,
            multicolor_reorder: true,
            tune: false,
        }
    }
}

/// The OpenMP-like backend.
#[derive(Clone, Debug, Default)]
pub struct OmpBackend {
    /// Scheduling options.
    pub omp: OmpOptions,
    /// Persisted tile-decision cache (used only when `omp.tune`).
    pub tuner: crate::tune::TileTuner,
}

impl OmpBackend {
    /// Backend with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an explicit tile shape (the paper's tunable tiling size).
    pub fn with_tile(mut self, tile: Vec<i64>) -> Self {
        self.omp.tile = Some(tile);
        self
    }

    /// Enable or disable multicolor reordering.
    pub fn with_multicolor(mut self, on: bool) -> Self {
        self.omp.multicolor_reorder = on;
        self
    }

    /// Enable or disable the persisted tile auto-tuner (builder style).
    pub fn with_tune(mut self, on: bool) -> Self {
        self.omp.tune = on;
        self
    }

    /// Root the tuner's artifact cache at an explicit directory (builder
    /// style); otherwise `$SNOWFLAKE_TUNE_DIR` and the default chain apply.
    pub fn with_tune_dir(mut self, dir: std::path::PathBuf) -> Self {
        self.tuner = crate::tune::TileTuner::new(Some(dir));
        self
    }

    /// Empirically select the best tile shape among `candidates` by timing
    /// `reps` runs of the compiled group per candidate (best wall time
    /// wins) — the paper's "method of tuning tiling sizes" realized as a
    /// PATUS-style auto-tuner.
    ///
    /// Runs mutate `grids`, so pass scratch copies. Returns the winning
    /// tile; an empty candidate list is an error.
    fn autotune_tile(
        &self,
        group: &StencilGroup,
        grids: &mut GridSet,
        candidates: &[Vec<i64>],
        reps: usize,
    ) -> Result<Vec<i64>> {
        if candidates.is_empty() {
            return Err(CoreError::Backend(
                "tile auto-tuning needs at least one candidate tile".into(),
            ));
        }
        let shapes = grids.shapes();
        let mut best: Option<(f64, &Vec<i64>)> = None;
        for tile in candidates {
            let backend = OmpBackend {
                omp: OmpOptions {
                    tile: Some(tile.clone()),
                    ..self.omp.clone()
                },
                tuner: self.tuner.clone(),
            };
            let exe = backend.compile(group, &shapes)?;
            exe.run(grids)?; // warm-up
            let mut t = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let t0 = std::time::Instant::now();
                exe.run(grids)?;
                t = t.min(t0.elapsed().as_secs_f64());
            }
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, tile));
            }
        }
        Ok(best.expect("candidates checked non-empty").1.clone())
    }

    /// Resolve the tuned tile for `group` at these shapes: serve the
    /// persisted decision when one exists, otherwise time candidates on
    /// scratch grids, persist the winner, and return it. `None` when the
    /// group has no parallel-safe kernel (nothing to tile).
    fn tuned_tile(
        &self,
        group: &StencilGroup,
        shapes: &ShapeMap,
        lowered: &Lowered,
        threads: usize,
    ) -> Result<Option<Vec<i64>>> {
        let Some(kernel) = lowered.kernels.iter().find(|k| k.parallel_safe) else {
            return Ok(None);
        };
        let candidates = tune_candidates(kernel.ndim, &kernel.regions, threads);
        let key = crate::tune::TileTuner::key(group, shapes, threads, &candidates, &self.omp);
        if let Some(tile) = self.tuner.lookup(key, threads) {
            return Ok(Some(tile));
        }
        // Scratch grids at the real shapes: timing runs must never touch
        // user data, and values are irrelevant to wall time.
        let mut scratch = GridSet::new();
        for (i, (name, shape)) in shapes.iter().enumerate() {
            let mut g = snowflake_grid::Grid::new(shape);
            g.fill_random(0x5eed + i as u64, 0.5, 1.5);
            scratch.insert(name, g);
        }
        let tile = self.autotune_tile(group, &mut scratch, &candidates, 2)?;
        self.tuner.store(key, threads, &tile, candidates.len());
        Ok(Some(tile))
    }

    /// Build the task schedule with this backend's choices: the explicit,
    /// tuned or default tile, multicolor reordering as set, and parallel
    /// execution.
    fn schedule(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Phased> {
        let lowered = crate::exec::lower(group, shapes)?;
        let threads = rayon::current_num_threads().max(1);
        // Tuner consult only fills the gap left by an unset explicit tile;
        // `autotune_tile`'s probe compiles carry `tile: Some(..)` and so
        // never re-enter here.
        let tile_choice = match &self.omp.tile {
            Some(t) => Some(t.clone()),
            None if self.omp.tune => self.tuned_tile(group, shapes, &lowered, threads)?,
            None => None,
        };
        Schedule {
            tile: &|kernel| match &tile_choice {
                Some(t) => fit_tile(t, kernel.ndim),
                None => Ok(default_tile(kernel.ndim, &kernel.regions, threads)),
            },
            multicolor: self.omp.multicolor_reorder,
            parallel: true,
        }
        .build(lowered)
    }
}

/// Candidate tile shapes for the auto-tuner: the default heuristic plus
/// finer/coarser outer chunks and, in rank ≥ 2, a cache-blocked variant
/// tiling the second dimension. Deduplicated; always non-empty.
fn tune_candidates(ndim: usize, regions: &[Region], threads: usize) -> Vec<Vec<i64>> {
    let base = default_tile(ndim, regions, threads);
    let chunk = base[0];
    let mut cands = vec![base.clone()];
    for c in [(chunk / 2).max(1), chunk.saturating_mul(2), 1] {
        let mut t = base.clone();
        t[0] = c;
        if !cands.contains(&t) {
            cands.push(t);
        }
    }
    if ndim >= 2 {
        let mut t = base.clone();
        t[1] = 64;
        if !cands.contains(&t) {
            cands.push(t);
        }
    }
    cands
}

impl Backend for OmpBackend {
    fn name(&self) -> &'static str {
        "omp"
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            tune: self.tuner.stats(),
            ..BackendStats::default()
        }
    }

    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        Ok(Box::new(self.schedule(group, shapes)?))
    }
}

/// Default tiling: chunk the outermost dimension into about 4 tasks per
/// thread; keep inner dimensions whole (unit-stride runs stay long).
fn default_tile(ndim: usize, regions: &[Region], threads: usize) -> Vec<i64> {
    let max_outer = regions
        .iter()
        .map(|r| r.extent(0))
        .max()
        .unwrap_or(1)
        .max(1);
    let want_tasks = (threads * 4) as i64;
    let chunk = (max_outer + want_tasks - 1) / want_tasks;
    let mut tile = vec![UNTILED; ndim];
    tile[0] = chunk.max(1);
    tile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InterpreterBackend, SequentialBackend};
    use snowflake_core::{weights2, Component, DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::Grid;

    fn vc_gsrb_group_2d() -> StencilGroup {
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let ax = Expr::read_at("beta_x", &[1, 0]) * (m(1, 0) - m(0, 0))
            - Expr::read_at("beta_x", &[0, 0]) * (m(0, 0) - m(-1, 0))
            + Expr::read_at("beta_y", &[0, 1]) * (m(0, 1) - m(0, 0))
            - Expr::read_at("beta_y", &[0, 0]) * (m(0, 0) - m(0, -1));
        let update = m(0, 0) + 0.2 * (Expr::read_at("rhs", &[0, 0]) - ax);
        let (red, black) = DomainUnion::red_black(2);
        // Dirichlet faces between passes, as in Figure 4.
        let faces = |g: StencilGroup| -> StencilGroup {
            let mut g = g;
            let face = |dom, off: [i64; 2]| {
                Stencil::new(
                    Expr::Neg(Box::new(Expr::read_at("mesh", &off))),
                    "mesh",
                    dom,
                )
            };
            g.push(face(RectDomain::new(&[0, 1], &[0, -1], &[0, 1]), [1, 0]));
            g.push(face(RectDomain::new(&[-1, 1], &[-1, -1], &[0, 1]), [-1, 0]));
            g.push(face(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, 1]));
            g.push(face(RectDomain::new(&[1, -1], &[-1, -1], &[1, 0]), [0, -1]));
            g
        };
        let mut g = faces(StencilGroup::new());
        g.push(Stencil::new(update.clone(), "mesh", red).named("red"));
        let mut g = faces(g);
        g.push(Stencil::new(update, "mesh", black).named("black"));
        g
    }

    fn mk_grids(n: usize) -> GridSet {
        let mut gs = GridSet::new();
        for (name, seed, lo, hi) in [
            ("mesh", 3u64, -1.0, 1.0),
            ("rhs", 4, -1.0, 1.0),
            ("beta_x", 5, 0.5, 1.5),
            ("beta_y", 6, 0.5, 1.5),
        ] {
            let mut g = Grid::new(&[n, n]);
            g.fill_random(seed, lo, hi);
            gs.insert(name, g);
        }
        gs
    }

    #[test]
    fn omp_matches_interpreter_on_figure4_program() {
        let group = vc_gsrb_group_2d();
        let n = 18;
        let mut a = mk_grids(n);
        let mut b = mk_grids(n);
        let shapes = a.shapes();
        InterpreterBackend
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        OmpBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        assert_eq!(
            a.get("mesh").unwrap().as_slice(),
            b.get("mesh").unwrap().as_slice()
        );
    }

    #[test]
    fn multicolor_reordering_preserves_results() {
        let group = vc_gsrb_group_2d();
        let n = 20;
        let mut a = mk_grids(n);
        let mut b = mk_grids(n);
        let shapes = a.shapes();
        OmpBackend::new()
            .with_multicolor(false)
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        OmpBackend::new()
            .with_multicolor(true)
            .with_tile(vec![4, 4])
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        assert_eq!(
            a.get("mesh").unwrap().as_slice(),
            b.get("mesh").unwrap().as_slice()
        );
    }

    #[test]
    fn explicit_tiny_tiles_match_seq() {
        let n = 16;
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let mut gs_a = GridSet::new();
        let mut x = Grid::new(&[n, n]);
        x.fill_random(1, -2.0, 2.0);
        gs_a.insert("x", x);
        gs_a.insert("y", Grid::new(&[n, n]));
        let mut gs_b = gs_a.clone();
        let shapes = gs_a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut gs_a)
            .unwrap();
        OmpBackend::new()
            .with_tile(vec![3, 5])
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut gs_b)
            .unwrap();
        assert_eq!(
            gs_a.get("y").unwrap().max_abs_diff(gs_b.get("y").unwrap()),
            0.0
        );
    }

    #[test]
    fn serial_in_place_kernel_keeps_canonical_order() {
        // Lexicographic in-place propagation must behave identically under
        // the parallel backend (which must detect it is not parallel-safe).
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[8]);
        x.as_mut_slice()
            .copy_from_slice(&[7.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        gs.insert("x", x);
        let s = Stencil::new(
            Expr::read_at("x", &[-1]),
            "x",
            RectDomain::new(&[1], &[0], &[1]),
        );
        OmpBackend::new()
            .compile(&StencilGroup::from(s), &gs.shapes())
            .unwrap()
            .run(&mut gs)
            .unwrap();
        assert_eq!(gs.get("x").unwrap().as_slice(), &[7.0; 8]);
    }

    #[test]
    fn fit_tile_aligns_to_innermost_dims() {
        assert_eq!(fit_tile(&[4, 8], 2).unwrap(), vec![4, 8]);
        // Shorter tile: outer dims untiled.
        let t = fit_tile(&[4, 8], 3).unwrap();
        assert!(t[0] > 1 << 40);
        assert_eq!(&t[1..], &[4, 8]);
        // Longer tile: innermost entries win.
        assert_eq!(fit_tile(&[2, 4, 8], 2).unwrap(), vec![4, 8]);
    }

    #[test]
    fn empty_explicit_tile_is_a_typed_error() {
        // A red-black union takes the multicolor path, a rectangle the
        // plain tiling: neither may panic or spin on a tile without a
        // positive extent.
        let avg = Expr::read_at("mesh", &[0, 1]) * 0.5 + Expr::read_at("mesh", &[0, -1]) * 0.5;
        let (red, black) = DomainUnion::red_black(2);
        let union = StencilGroup::new()
            .with(Stencil::new(avg.clone(), "mesh", red))
            .with(Stencil::new(avg.clone(), "mesh", black));
        let rect = StencilGroup::from(Stencil::new(avg, "rhs", RectDomain::interior(2)));
        let shapes = mk_grids(10).shapes();
        for group in [union, rect] {
            for tile in [vec![], vec![0, 4], vec![-2, 4]] {
                let omp = OmpBackend::new().with_tile(tile.clone());
                let Err(err) = omp.compile(&group, &shapes) else {
                    panic!("tile {tile:?} must not compile");
                };
                assert!(matches!(err, CoreError::Backend(_)), "{err:?}");
                assert!(err.to_string().contains("tile"), "{err}");
            }
        }
    }

    #[test]
    fn options_reach_the_constructed_backend() {
        let omp = OmpBackend::new()
            .with_tile(vec![4, 4])
            .with_multicolor(false);
        assert_eq!(omp.name(), "omp");
        assert_eq!(omp.omp.tile, Some(vec![4, 4]));
        assert!(!omp.omp.multicolor_reorder);
    }

    #[test]
    fn autotuning_without_candidates_is_a_typed_error() {
        let group = vc_gsrb_group_2d();
        let mut grids = mk_grids(10);
        let Err(err) = OmpBackend::new().autotune_tile(&group, &mut grids, &[], 1) else {
            panic!("no candidates must be an error");
        };
        assert!(matches!(err, CoreError::Backend(_)), "{err:?}");
        assert!(err.to_string().contains("candidate"), "{err}");
    }

    #[test]
    fn explicit_tile_applies_to_mixed_rank_kernels() {
        // 3-D group with a fixed 2-D tile must compile and match seq.
        let e = Expr::read_at("x", &[0, 0, 1]) + Expr::read_at("x", &[0, 0, -1]);
        let group = StencilGroup::from(Stencil::new(e, "y", RectDomain::interior(3)));
        let mut a = GridSet::new();
        let mut x = Grid::new(&[10, 10, 10]);
        x.fill_random(9, -1.0, 1.0);
        a.insert("x", x);
        a.insert("y", Grid::new(&[10, 10, 10]));
        let mut b = a.clone();
        let shapes = a.shapes();
        crate::SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        OmpBackend::new()
            .with_tile(vec![3, 5])
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        assert_eq!(a.get("y").unwrap().max_abs_diff(b.get("y").unwrap()), 0.0);
    }

    #[test]
    fn autotuner_returns_candidate_and_correct_results() {
        let n = 16;
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[n, n]);
        x.fill_random(21, -1.0, 1.0);
        gs.insert("x", x);
        gs.insert("y", Grid::new(&[n, n]));
        let mut scratch = gs.clone();
        let candidates = vec![vec![2i64, 2], vec![4, 8], vec![16, 16]];
        let tile = OmpBackend::new()
            .autotune_tile(&group, &mut scratch, &candidates, 2)
            .unwrap();
        assert!(candidates.contains(&tile), "winner must be a candidate");
        // The winning tile computes the same answer as seq.
        let mut tuned = gs.clone();
        OmpBackend::new()
            .with_tile(tile)
            .compile(&group, &gs.shapes())
            .unwrap()
            .run(&mut tuned)
            .unwrap();
        crate::SequentialBackend::new()
            .compile(&group, &gs.shapes())
            .unwrap()
            .run(&mut gs)
            .unwrap();
        assert_eq!(
            gs.get("y").unwrap().max_abs_diff(tuned.get("y").unwrap()),
            0.0
        );
    }

    #[test]
    fn persisted_tuner_reuses_decision_and_preserves_results() {
        let dir = std::env::temp_dir().join(format!("snowflake-omp-tune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let group = vc_gsrb_group_2d();
        let n = 18;
        let mut a = mk_grids(n);
        let mut b = mk_grids(n);
        let shapes = a.shapes();
        let cold = OmpBackend::new().with_tune(true).with_tune_dir(dir.clone());
        cold.compile(&group, &shapes).unwrap().run(&mut a).unwrap();
        let cs = cold.stats().tune;
        assert_eq!(
            (cs.disk_hits, cs.disk_misses),
            (0, 1),
            "cold: timed and stored"
        );
        assert!(cs.candidates_timed >= 2, "several candidates timed");
        // A fresh backend (≅ a new process) over the same directory serves
        // the decision from disk without re-timing.
        let warm = OmpBackend::new().with_tune(true).with_tune_dir(dir.clone());
        warm.compile(&group, &shapes).unwrap().run(&mut b).unwrap();
        let ws = warm.stats().tune;
        assert_eq!(
            (ws.disk_hits, ws.disk_misses),
            (1, 0),
            "warm: served from disk"
        );
        // Tuned schedules compute bitwise-identical results to the default.
        let mut c = mk_grids(n);
        OmpBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut c)
            .unwrap();
        assert_eq!(
            a.get("mesh").unwrap().max_abs_diff(b.get("mesh").unwrap()),
            0.0
        );
        assert_eq!(
            a.get("mesh").unwrap().max_abs_diff(c.get("mesh").unwrap()),
            0.0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuner_decisions_are_keyed_on_the_schedule_options() {
        // A decision timed with multicolor reordering on is not served to
        // a build with it off: the two time different task shapes.
        let dir =
            std::env::temp_dir().join(format!("snowflake-omp-tune-mc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let group = vc_gsrb_group_2d();
        let shapes = mk_grids(18).shapes();
        let tuned = |multicolor| {
            let omp = OmpBackend::new()
                .with_multicolor(multicolor)
                .with_tune(true)
                .with_tune_dir(dir.clone());
            omp.compile(&group, &shapes).unwrap();
            let s = omp.stats().tune;
            (s.disk_hits, s.disk_misses)
        };
        assert_eq!(tuned(true), (0, 1), "cold: timed and stored");
        assert_eq!(tuned(false), (0, 1), "other options: a miss");
        assert_eq!(tuned(false), (1, 0), "same options: served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scheduling_ablation_serial_tasks_match() {
        let group = vc_gsrb_group_2d();
        let n = 14;
        let mut a = mk_grids(n);
        let mut b = mk_grids(n);
        let shapes = a.shapes();
        // The identical schedule, executed on the calling thread.
        let mut serial = OmpBackend::new().schedule(&group, &shapes).unwrap();
        serial.parallel = false;
        serial.run(&mut a).unwrap();
        OmpBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        assert_eq!(
            a.get("mesh").unwrap().as_slice(),
            b.get("mesh").unwrap().as_slice()
        );
    }
}
