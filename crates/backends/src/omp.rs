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
//! pool: phases come from `snowflake-analysis`, and tiles become rayon
//! tasks. With multicolor reordering on (the default), each tile is a box
//! of a loop nest's hull (`exec::nests`, the nests the generated C runs):
//! a colour union's member slices in the box form one sub-nest, whose
//! hull rows run in order, each with its colour's member. With it off,
//! each member rectangle is tiled alone. Kernels the Diophantine analysis
//! could not prove parallel-safe run as single sequential tasks with
//! canonical ordering.

use snowflake_core::{Result, ShapeMap, StencilGroup};
use snowflake_grid::Region;

use crate::exec::{fit_tile, Phased, Schedule, UNTILED};
use crate::{Backend, Executable};

/// Scheduling options for the OpenMP-like backend.
#[derive(Clone, Debug)]
pub struct OmpOptions {
    /// Tile extents (points per dimension). `None` chooses a default that
    /// chunks the outermost dimension into `~4 × threads` tasks and keeps
    /// inner dimensions whole: the pool claims tasks in guided blocks, so
    /// the surplus tasks even out uneven tiles and colors across threads.
    pub tile: Option<Vec<i64>>,
    /// Tile a colour union's hull, so every tile holds each colour's slice
    /// and walks them in hull-row order (multicolor reordering); otherwise
    /// tile each rectangle alone. Only applied to kernels proven
    /// parallel-safe.
    pub multicolor_reorder: bool,
}

impl Default for OmpOptions {
    fn default() -> Self {
        OmpOptions {
            tile: None,
            multicolor_reorder: true,
        }
    }
}

/// The OpenMP-like backend.
#[derive(Clone, Debug, Default)]
pub struct OmpBackend {
    /// Scheduling options.
    pub omp: OmpOptions,
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

    /// Build the task schedule with this backend's choices: the explicit
    /// or default tile, multicolor reordering as set, and parallel
    /// execution.
    fn schedule(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Phased> {
        let lowered = crate::exec::lower(group, shapes)?;
        let threads = rayon::current_num_threads().max(1);
        Schedule {
            tile: &|kernel| match &self.omp.tile {
                Some(t) => fit_tile(t, kernel.ndim),
                None => Ok(default_tile(kernel.ndim, &kernel.regions, threads)),
            },
            multicolor: self.omp.multicolor_reorder,
            parallel: true,
        }
        .build(lowered)
    }
}

impl Backend for OmpBackend {
    fn name(&self) -> &'static str {
        "omp"
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
    use snowflake_core::{weights2, Component, CoreError, DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::{Grid, GridSet};

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
