//! The OpenCL-style backend (§IV-B), executed on CPU threads.
//!
//! The paper's OpenCL micro-compiler uses a **tall-skinny blocking**: the
//! iteration space is cut into two-dimensional tiles over the fastest two
//! dimensions, and each work-group "rolls" its tile upward through the
//! remaining (outer) dimension(s). This backend reproduces exactly that
//! decomposition — one task per work-group tile, each task marching
//! through the outer dimension — so the *shape* of the GPU schedule (many
//! small independent blocks, long strided walks per block) is observable
//! on CPU hardware. The true OpenCL *source* for the same decomposition is
//! emitted by [`crate::codegen_ocl`]; no GPU runtime is assumed to exist
//! in this environment (see DESIGN.md, substitutions).

use snowflake_core::{Result, ShapeMap, StencilGroup};
use snowflake_ir::{tile_region, LowerOptions};

use crate::exec::{Phased, Task};
use crate::{Backend, Executable};

/// Work-group tile extents over the two fastest dimensions.
#[derive(Clone, Copy, Debug)]
pub struct WorkGroupShape {
    /// Points along the second-fastest dimension (the "tall" edge).
    pub tall: i64,
    /// Points along the fastest (unit-stride) dimension (the "skinny"
    /// edge kept wide for coalescing — 64 work-items in the paper's
    /// terms).
    pub wide: i64,
}

impl Default for WorkGroupShape {
    fn default() -> Self {
        WorkGroupShape { tall: 4, wide: 64 }
    }
}

/// OpenCL execution-model simulator backend.
#[derive(Clone, Debug, Default)]
pub struct OclSimBackend {
    /// Lowering options.
    pub options: LowerOptions,
    /// Work-group tile shape.
    pub workgroup: WorkGroupShape,
}

impl OclSimBackend {
    /// Backend with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the work-group tile shape.
    pub fn with_workgroup(mut self, tall: i64, wide: i64) -> Self {
        self.workgroup = WorkGroupShape { tall, wide };
        self
    }
}

impl Backend for OclSimBackend {
    fn name(&self) -> &'static str {
        "oclsim"
    }

    fn lower_options(&self) -> LowerOptions {
        self.options.clone()
    }

    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        let lowered = crate::exec::lower(group, shapes, &self.options)?;
        let mut phases = Vec::with_capacity(lowered.phases.len());
        for phase in &lowered.phases {
            let mut tasks = Vec::new();
            for &ki in phase {
                let kernel = &lowered.kernels[ki];
                if !kernel.parallel_safe {
                    // The GPU model has no ordered fallback; serialize the
                    // kernel as one task walking its regions in union order
                    // (a single "work-item", as a real port would be
                    // forced to do).
                    tasks.push(Task::one(ki, kernel.regions.clone()));
                    continue;
                }
                // Tall-skinny: tile the two fastest dims, keep outer dims
                // whole so the work-group rolls through them.
                let tile = tall_skinny_tile(kernel.ndim, self.workgroup);
                for region in &kernel.regions {
                    tasks.extend(
                        tile_region(region, &tile)
                            .into_iter()
                            .map(|t| Task::one(ki, vec![t])),
                    );
                }
            }
            // Every phase is one "kernel launch batch"; the phase barrier
            // is the inter-launch dependency the OpenCL queue would enforce.
            phases.push(tasks);
        }
        Ok(Box::new(Phased {
            lowered,
            phases,
            parallel: true,
        }))
    }
}

fn tall_skinny_tile(ndim: usize, wg: WorkGroupShape) -> Vec<i64> {
    let mut tile = vec![i64::MAX >> 1; ndim];
    match ndim {
        0 => {}
        1 => tile[0] = wg.wide,
        _ => {
            tile[ndim - 1] = wg.wide;
            tile[ndim - 2] = wg.tall;
        }
    }
    tile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunReport, SequentialBackend, SolverPlan};
    use snowflake_core::{weights3, Component, DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::{Grid, GridSet};

    #[test]
    fn tall_skinny_tile_shapes() {
        let wg = WorkGroupShape { tall: 4, wide: 64 };
        assert_eq!(tall_skinny_tile(3, wg)[1..], [4, 64]);
        assert_eq!(tall_skinny_tile(2, wg), vec![4, 64]);
        assert_eq!(tall_skinny_tile(1, wg), vec![64]);
        // Outer dim of 3-D is unbounded (rolled through).
        assert!(tall_skinny_tile(3, wg)[0] > 1 << 40);
    }

    #[test]
    fn oclsim_matches_seq_on_3d_laplacian() {
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
        let mut a = GridSet::new();
        let mut x = Grid::new(&[n, n, n]);
        x.fill_random(11, -1.0, 1.0);
        a.insert("x", x);
        a.insert("y", Grid::new(&[n, n, n]));
        let mut b = a.clone();
        let shapes = a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        OclSimBackend::new()
            .with_workgroup(2, 8)
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        assert_eq!(a.get("y").unwrap().max_abs_diff(b.get("y").unwrap()), 0.0);
    }

    #[test]
    fn oclsim_red_black_in_place() {
        let n = 12;
        let avg = Expr::read_at("x", &[0, 1]) * 0.5 + Expr::read_at("x", &[0, -1]) * 0.5;
        let (red, black) = DomainUnion::red_black(2);
        let group = StencilGroup::new()
            .with(Stencil::new(avg.clone(), "x", red))
            .with(Stencil::new(avg, "x", black));
        let mut a = GridSet::new();
        let mut x = Grid::new(&[n, n]);
        x.fill_random(2, 0.0, 1.0);
        a.insert("x", x);
        let mut b = a.clone();
        let shapes = a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        OclSimBackend::new()
            .with_workgroup(3, 5)
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        assert_eq!(a.get("x").unwrap().max_abs_diff(b.get("x").unwrap()), 0.0);
    }

    /// A kernel that is not parallel-safe runs as one task walking its
    /// regions in union order, so the second region reads what the first
    /// one wrote, exactly as in `seq`.
    #[test]
    fn sequential_kernel_over_a_union_runs_as_one_ordered_task() {
        let n = 65_536usize;
        let half = (n / 2) as i64;
        let union = RectDomain::new(&[1], &[half], &[1]) + RectDomain::new(&[half], &[0], &[1]);
        let group = StencilGroup::from(Stencil::new(Expr::read_at("x", &[-1]), "x", union));
        let mut base = GridSet::new();
        let mut x = Grid::new(&[n]);
        x.fill_random(5, 0.0, 1.0);
        base.insert("x", x);
        let shapes = base.shapes();
        let mut want = base.clone();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut want)
            .unwrap();
        let plan = SolverPlan::build(Box::new(OclSimBackend::new()), &[(group, shapes)]).unwrap();
        for _ in 0..20 {
            let mut got = base.clone();
            let mut report = RunReport::new();
            plan.run_with_report(0, &mut got, &mut report).unwrap();
            let (got, want) = (got.get("x").unwrap(), want.get("x").unwrap());
            let first_diff = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .position(|(a, b)| a != b);
            assert_eq!(first_diff, None, "oclsim diverged from seq");
            assert_eq!(report.kernels.sequential_tasks, 1);
        }
    }
}
