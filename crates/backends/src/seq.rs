//! The sequential compiled backend: lowered kernels, one thread.
//!
//! The counterpart of the paper's plain-C micro-compiler: full lowering
//! (constant folding, closed-form extraction, cursor addressing) with no
//! parallel scheduling. Its `exec::Schedule` leaves kernels untiled and
//! runs every phase on the calling thread: kernels in program order, one
//! task per loop nest (`exec::nests`, the nests the generated C runs), so
//! a colour union walks its hull's rows once, in order, each row with its
//! colour's member. A sequential kernel runs its regions in union order
//! and its points in row-major order — the canonical semantics.

use snowflake_core::{Result, ShapeMap, StencilGroup};

use crate::exec::{Schedule, UNTILED};
use crate::{Backend, Executable};

/// Single-threaded compiled backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialBackend;

impl SequentialBackend {
    /// The sequential backend has no knobs; `new` exists for construction
    /// uniformity with every other backend.
    pub fn new() -> Self {
        SequentialBackend
    }
}

impl Backend for SequentialBackend {
    fn name(&self) -> &'static str {
        "seq"
    }

    /// One task per loop nest of a parallel-safe kernel (its one untiled
    /// box) and one ordered task per sequential kernel, run serially; the
    /// work is one dispatch per nest, as in cjit. The greedy
    /// schedule groups *consecutive* kernels, so walking the phases in
    /// order is exactly program order.
    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        let schedule = Schedule {
            tile: &|kernel| Ok(vec![UNTILED; kernel.ndim]),
            multicolor: true,
            parallel: false,
        };
        Ok(Box::new(
            schedule.build(crate::exec::lower(group, shapes)?)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InterpreterBackend;
    use snowflake_core::{weights3, Component, DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::{Grid, GridSet};

    /// Build the paper's Figure 4-style 2-D VC red-black smooth and check
    /// seq ≡ interp exactly.
    #[test]
    fn seq_matches_interpreter_on_vc_red_black() {
        let n = 10;
        let mk_gs = || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[n, n]);
            x.fill_random(3, -1.0, 1.0);
            gs.insert("mesh", x);
            let mut b = Grid::new(&[n, n]);
            b.fill_random(4, -1.0, 1.0);
            gs.insert("rhs", b);
            let mut bx = Grid::new(&[n, n]);
            bx.fill_random(5, 0.5, 1.5);
            gs.insert("beta_x", bx);
            let mut by = Grid::new(&[n, n]);
            by.fill_random(6, 0.5, 1.5);
            gs.insert("beta_y", by);
            gs
        };
        // A(x) with variable coefficients (divergence form, 2-D).
        let bxp = Expr::read_at("beta_x", &[1, 0]);
        let bx = Expr::read_at("beta_x", &[0, 0]);
        let byp = Expr::read_at("beta_y", &[0, 1]);
        let by = Expr::read_at("beta_y", &[0, 0]);
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let ax = bxp.clone() * (m(1, 0) - m(0, 0)) - bx.clone() * (m(0, 0) - m(-1, 0))
            + byp.clone() * (m(0, 1) - m(0, 0))
            - by.clone() * (m(0, 0) - m(0, -1));
        let lambda = 0.25;
        let update = m(0, 0) + lambda * (Expr::read_at("rhs", &[0, 0]) - ax);
        let (red, black) = DomainUnion::red_black(2);
        let group = StencilGroup::new()
            .with(Stencil::new(update.clone(), "mesh", red).named("red"))
            .with(Stencil::new(update, "mesh", black).named("black"));

        let mut gs_a = mk_gs();
        let mut gs_b = mk_gs();
        let shapes = gs_a.shapes();
        InterpreterBackend
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut gs_a)
            .unwrap();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut gs_b)
            .unwrap();
        // The compiled tape evaluates the source tree's operations in
        // order, so it agrees with the tree interpreter bitwise.
        assert_eq!(
            gs_a.get("mesh").unwrap().as_slice(),
            gs_b.get("mesh").unwrap().as_slice()
        );
    }

    #[test]
    fn seq_3d_seven_point() {
        let n = 8;
        let mut gs = GridSet::new();
        gs.insert(
            "x",
            Grid::from_fn(&[n, n, n], |p| (p[0] * p[0] + p[1] * p[1] + p[2]) as f64),
        );
        gs.insert("y", Grid::new(&[n, n, n]));
        let lap = Component::new(
            "x",
            weights3![
                [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                [[0, 1, 0], [1, -6, 1], [0, 1, 0]],
                [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
            ],
        );
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(3)));
        let exe = SequentialBackend::new()
            .compile(&group, &gs.shapes())
            .unwrap();
        exe.run(&mut gs).unwrap();
        let y = gs.get("y").unwrap();
        // Laplacian of i² + j² + k = 4.
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                for k in 1..n - 1 {
                    assert_eq!(y.get(&[i, j, k]), 4.0);
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected_at_run() {
        let group = StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]),
            "y",
            RectDomain::interior(2),
        ));
        let mut shapes = snowflake_core::ShapeMap::new();
        shapes.insert("x".into(), vec![8, 8]);
        shapes.insert("y".into(), vec![8, 8]);
        let exe = SequentialBackend::new().compile(&group, &shapes).unwrap();
        let mut gs = GridSet::new();
        gs.insert("x", Grid::new(&[4, 4]));
        gs.insert("y", Grid::new(&[4, 4]));
        assert!(exe.run(&mut gs).is_err());
    }
}
