//! The OpenCL-style backend (§IV-B), executed on CPU threads.
//!
//! The paper's OpenCL micro-compiler uses a **tall-skinny blocking**: the
//! iteration space is cut into two-dimensional tiles over the fastest two
//! dimensions, and each work-group "rolls" its tile upward through the
//! remaining (outer) dimension(s). This backend reproduces exactly that
//! decomposition — one task per work-group tile, each task marching
//! through the outer dimension — so the *shape* of the GPU schedule (many
//! small independent blocks, long strided walks per block) is observable
//! on CPU hardware. The GPU model has no fusion or multicolor reordering,
//! and a kernel that is not parallel-safe runs as one task (a single
//! "work-item", as a real port would be forced to do). The true OpenCL
//! *source* for the same decomposition is emitted by
//! [`crate::codegen_ocl`]; no GPU runtime is assumed to exist in this
//! environment (see DESIGN.md, substitutions).

use snowflake_core::{Result, ShapeMap, StencilGroup};

use crate::exec::{fit_tile, Schedule};
use crate::{Backend, Executable};

/// The work-group tile: 4 points along the second-fastest dimension (the
/// "tall" edge) by 64 along the fastest, unit-stride one (the "skinny"
/// edge kept wide for coalescing — 64 work-items in the paper's terms).
const WORK_GROUP: [i64; 2] = [4, 64];

/// OpenCL execution-model simulator backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct OclSimBackend;

impl OclSimBackend {
    /// The simulator's work-group tile is fixed; `new` exists for
    /// construction uniformity with every other backend.
    pub fn new() -> Self {
        OclSimBackend
    }
}

impl Backend for OclSimBackend {
    fn name(&self) -> &'static str {
        "oclsim"
    }

    /// Every phase is one "kernel launch batch"; the phase barrier is the
    /// inter-launch dependency the OpenCL queue would enforce.
    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        let schedule = Schedule {
            tile: &|kernel| fit_tile(&WORK_GROUP, kernel.ndim),
            fuse: false,
            multicolor: false,
            parallel: true,
        };
        Ok(Box::new(
            schedule.build(crate::exec::lower(group, shapes)?)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunReport, SequentialBackend, SolverPlan};
    use snowflake_core::{weights3, Component, DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::{Grid, GridSet};

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
