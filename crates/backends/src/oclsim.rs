//! The OpenCL backend (§IV-B), compiled as C and run on CPU threads.
//!
//! The paper's OpenCL micro-compiler uses a **tall-skinny blocking**: the
//! iteration space is cut into work-groups over the fastest two
//! dimensions, and each work-item "rolls" upward through the remaining
//! (outer) dimension(s). [`crate::codegen_ocl`] emits those kernels as
//! OpenCL C and a CPU host driver in C; this backend compiles the shim,
//! the kernels and the driver as one C99 unit through cjit's pipeline
//! (the toolchain probe, the same flags with `-ffp-contract=off`, the
//! persistent artifact cache and `-z nodelete` loading) and runs the
//! driver: one OpenMP team per op, on cjit's loop nests with a row's
//! work-items innermost and one plane per kernel call, as a CPU OpenCL
//! runtime runs work-groups. A kernel that is not parallel-safe is one
//! work-item per region, launched in union order by one thread. No GPU
//! or OpenCL runtime is assumed to exist (see DESIGN.md, substitutions).
//!
//! Like cjit, the backend needs a C compiler: without one, `compile`
//! returns `CoreError::Backend`.

use std::path::PathBuf;

use snowflake_core::{Result, ShapeMap, StencilGroup};

use crate::codegen_ocl::ocl_unit;
use crate::metrics::CacheStats;
use crate::{Backend, CJitBackend, Executable};

/// The OpenCL backend: `codegen_ocl`'s program, compiled by cjit's
/// toolchain.
#[derive(Clone, Debug, Default)]
pub struct OclSimBackend {
    /// The compiler, artifact cache and cache counters it builds with.
    jit: CJitBackend,
}

impl OclSimBackend {
    /// Backend with default options (cjit's compiler and cache chain).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin the persistent artifact cache to `dir` (builder style).
    pub fn with_cache_dir(self, dir: impl Into<PathBuf>) -> Self {
        OclSimBackend {
            jit: self.jit.with_cache_dir(dir),
        }
    }
}

impl Backend for OclSimBackend {
    fn name(&self) -> &'static str {
        "oclsim"
    }

    /// The artifact cache's hits and misses, as for cjit.
    fn stats(&self) -> CacheStats {
        self.jit.stats()
    }

    /// One dispatch per loop nest of each kernel, as in cjit.
    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        self.jit.compile_with(group, shapes, ocl_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunReport, SequentialBackend, SolverPlan};
    use snowflake_core::{weights3, Component, CoreError, DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::{Grid, GridSet};

    fn require_cc() -> bool {
        if !CJitBackend::available() {
            eprintln!("skipping: no C compiler");
            return false;
        }
        true
    }

    /// Run `group` on `grids` with `seq` and with `oclsim` (through a plan,
    /// 20 times, so a nondeterministic interleaving has room to show) and
    /// require every grid to come out bitwise identical on every run;
    /// `check` sees what the plan's one op dispatched on each run.
    fn assert_oclsim_matches_seq(
        group: &StencilGroup,
        grids: &GridSet,
        check: impl Fn(&RunReport),
    ) {
        let shapes = grids.shapes();
        let mut want = grids.clone();
        SequentialBackend::new()
            .compile(group, &shapes)
            .unwrap()
            .run(&mut want)
            .unwrap();
        let ops = [(group.clone(), shapes.clone())];
        let plan = SolverPlan::build(Box::new(OclSimBackend::new()), &ops).unwrap();
        for _ in 0..20 {
            let mut got = grids.clone();
            let mut report = RunReport::new();
            plan.run_with_report(0, &mut got, &mut report).unwrap();
            for name in shapes.keys() {
                let bits = |g: &GridSet| -> Vec<u64> {
                    let v = g.get(name).unwrap().as_slice();
                    v.iter().map(|x| x.to_bits()).collect()
                };
                let (a, b) = (bits(&want), bits(&got));
                let first_diff = a.iter().zip(&b).position(|(a, b)| a != b);
                assert_eq!(first_diff, None, "grid {name:?}: oclsim diverged from seq");
            }
            check(&report);
        }
    }

    /// The ordered dispatches `seq` books for `group`: one per loop nest.
    fn seq_sequential_tasks(group: &StencilGroup, grids: &GridSet) -> u64 {
        let exe = SequentialBackend::new().compile(group, &grids.shapes());
        exe.unwrap().work().sequential_tasks
    }

    fn random_grid(shape: &[usize], seed: u64) -> Grid {
        let mut g = Grid::new(shape);
        g.fill_random(seed, -1.0, 1.0);
        g
    }

    #[test]
    fn oclsim_matches_seq_on_3d_laplacian() {
        if !require_cc() {
            return;
        }
        let n = 20;
        let lap = Component::new(
            "x",
            weights3![
                [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                [[0, 1, 0], [1, -6, 1], [0, 1, 0]],
                [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
            ],
        );
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(3)));
        let mut grids = GridSet::new();
        grids.insert("x", random_grid(&[n, n, n], 11));
        grids.insert("y", Grid::new(&[n, n, n]));
        // One loop nest, as in cjit: 18 × 18 rows of 18 work-items.
        assert_oclsim_matches_seq(&group, &grids, |report| {
            assert_eq!(report.kernels.parallel_tasks, 1)
        });
    }

    #[test]
    fn oclsim_red_black_in_place() {
        if !require_cc() {
            return;
        }
        let avg = Expr::read_at("x", &[0, 1]) * 0.5 + Expr::read_at("x", &[0, -1]) * 0.5;
        let (red, black) = DomainUnion::red_black(2);
        let group = StencilGroup::new()
            .with(Stencil::new(avg.clone(), "x", red))
            .with(Stencil::new(avg, "x", black));
        let mut grids = GridSet::new();
        grids.insert("x", random_grid(&[12, 12], 2));
        assert_oclsim_matches_seq(&group, &grids, |_| {});
    }

    /// The ranks the shim's work-item and plane parameters must cover: a
    /// 1-D kernel (one work-item id, nothing rolled), a 2-D one (two ids)
    /// and a 4-D one (two ids, two rolled planes), each a rectangle and an
    /// in-place red-black colour pair.
    #[test]
    fn kernels_of_every_rank_match_seq_bitwise() {
        if !require_cc() {
            return;
        }
        for shape in [vec![203], vec![23, 70], vec![6, 7, 8, 69]] {
            let nd = shape.len();
            let at = |d: usize, o: i64| {
                let mut off = vec![0; nd];
                off[d] = o;
                Expr::read_at("x", &off)
            };
            let spread = (0..nd).fold(at(0, 0) * 0.5, |e, d| {
                e + at(d, -1) * 0.125 + at(d, 1) * 0.25
            });
            let (red, black) = DomainUnion::red_black(nd);
            let group = StencilGroup::new()
                .with(Stencil::new(spread.clone(), "y", RectDomain::interior(nd)))
                .with(Stencil::new(spread.clone(), "x", red))
                .with(Stencil::new(spread, "x", black));
            let mut grids = GridSet::new();
            grids.insert("x", random_grid(&shape, 7));
            grids.insert("y", Grid::new(&shape));
            // One loop nest per kernel: a 1-D colour is one strided
            // piece, and a wider one's pieces tile one hull.
            assert_oclsim_matches_seq(&group, &grids, |report| {
                assert_eq!(report.kernels.parallel_tasks, 3);
                assert_eq!(report.kernels.sequential_tasks, 0);
            });
        }
    }

    /// A union whose pieces `tiled_hull` refuses to merge (two pieces of
    /// one row congruence class beside the other class) keeps one nest
    /// per piece, each calling its own region's kernel.
    #[test]
    fn union_of_unmerged_pieces_matches_seq_bitwise() {
        if !require_cc() {
            return;
        }
        let union = RectDomain::new(&[1, 0], &[6, 4], &[2, 1])
            + RectDomain::new(&[7, 0], &[10, 4], &[2, 1])
            + RectDomain::new(&[2, 0], &[9, 4], &[2, 1]);
        let x = |i: i64, j: i64| Expr::read_at("x", &[i, j]);
        let update = x(-1, 0) * 0.5 + x(1, 0) * 0.25 + x(0, 1);
        let group = StencilGroup::from(Stencil::new(update, "y", union));
        let mut grids = GridSet::new();
        grids.insert("x", random_grid(&[11, 5], 8));
        grids.insert("y", random_grid(&[11, 5], 9));
        assert_oclsim_matches_seq(&group, &grids, |report| {
            assert_eq!(report.kernels.parallel_tasks, 3)
        });
    }

    /// An in-place kernel that is not parallel-safe runs each region as one
    /// work-item rolling all of its dimensions in row-major order, and the
    /// regions in union order, so each point reads what the points before
    /// it wrote, exactly as in `seq`. A kernel body that computes one point
    /// per work-item (launched with a single work-item, it updates one
    /// column) diverges at the first point. Here, 1-D `x[p] = x[p - 1]`
    /// over a union whose second piece reads the first piece's last write.
    #[test]
    fn sequential_kernel_over_a_union_runs_as_one_ordered_task() {
        if !require_cc() {
            return;
        }
        let n = 65_536usize;
        let half = (n / 2) as i64;
        let union = RectDomain::new(&[1], &[half], &[1]) + RectDomain::new(&[half], &[0], &[1]);
        let group = StencilGroup::from(Stencil::new(Expr::read_at("x", &[-1]), "x", union));
        let mut grids = GridSet::new();
        grids.insert("x", random_grid(&[n], 5));
        let seq_tasks = seq_sequential_tasks(&group, &grids);
        assert_oclsim_matches_seq(&group, &grids, |report| {
            assert_eq!(report.kernels.sequential_tasks, seq_tasks);
            assert_eq!(report.kernels.parallel_tasks, 0);
        });
    }

    /// The same in 2-D: a lexicographic Gauss-Seidel over two row blocks,
    /// the lower block listed first.
    #[test]
    fn lexicographic_gauss_seidel_over_a_union_matches_seq_bitwise() {
        if !require_cc() {
            return;
        }
        let x = |i: i64, j: i64| Expr::read_at("x", &[i, j]);
        let update = x(0, 0) * 0.2 + (x(-1, 0) + x(0, -1) + x(1, 0) + x(0, 1)) * 0.2;
        let rows = RectDomain::new(&[9, 1], &[-1, -1], &[1, 1])
            + RectDomain::new(&[1, 1], &[9, -1], &[1, 1]);
        let group = StencilGroup::from(Stencil::new(update, "x", rows).named("lex"));
        let mut grids = GridSet::new();
        grids.insert("x", random_grid(&[17, 70], 6));
        let seq_tasks = seq_sequential_tasks(&group, &grids);
        assert_oclsim_matches_seq(&group, &grids, |report| {
            assert_eq!(report.kernels.sequential_tasks, seq_tasks)
        });
    }

    #[test]
    fn missing_compiler_is_a_typed_backend_error() {
        let backend = OclSimBackend {
            jit: CJitBackend::new().with_cc("/nonexistent/snowflake-cc"),
        };
        let group = StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]) * 2.0,
            "y",
            RectDomain::interior(2),
        ));
        let mut grids = GridSet::new();
        grids.insert("x", Grid::new(&[8, 8]));
        grids.insert("y", Grid::new(&[8, 8]));
        match backend.compile(&group, &grids.shapes()) {
            Err(CoreError::Backend(msg)) => assert!(msg.contains("not available"), "{msg}"),
            Err(other) => panic!("expected CoreError::Backend, got {other:?}"),
            Ok(_) => panic!("compiled without a compiler"),
        }
        assert_eq!(backend.stats(), CacheStats::default());
    }
}
