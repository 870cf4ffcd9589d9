//! The interpreter backend: canonical reference semantics.
//!
//! Mirrors the paper's bundled pure-Python backend — no lowering, no
//! unsafe, no parallelism. Each stencil is executed by walking its
//! expression tree at every domain point in canonical order, double-
//! buffering nothing (in-place semantics are sequential by definition).
//! Every other backend is property-tested against this one.

use snowflake_core::{CoreError, Expr, Result, ShapeMap, Stencil, StencilGroup};
use snowflake_grid::{GridSet, Region};

use crate::metrics::KernelCounters;
use crate::{Backend, Executable};

/// Reference tree-walking backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct InterpreterBackend;

impl InterpreterBackend {
    /// The interpreter has no knobs; `new` exists for construction
    /// uniformity with every other backend.
    pub fn new() -> Self {
        InterpreterBackend
    }
}

impl Backend for InterpreterBackend {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        group.validate(shapes)?;
        let mut stencils = Vec::with_capacity(group.len());
        let mut points = 0u64;
        for s in group.stencils() {
            let regions = s.resolve(shapes)?;
            points += regions.iter().map(|r| r.num_points()).sum::<u64>();
            stencils.push((s.clone(), regions));
        }
        Ok(Box::new(InterpExecutable { stencils, points }))
    }
}

struct InterpExecutable {
    stencils: Vec<(Stencil, Vec<Region>)>,
    points: u64,
}

impl Executable for InterpExecutable {
    fn run(&self, grids: &mut GridSet) -> Result<()> {
        for (stencil, regions) in &self.stencils {
            run_stencil(stencil, regions, grids)?;
        }
        Ok(())
    }

    /// No barrier analysis: every region of every stencil is one
    /// sequential dispatch in canonical order.
    fn work(&self) -> KernelCounters {
        let regions: u64 = self.stencils.iter().map(|(_, r)| r.len() as u64).sum();
        KernelCounters {
            points: self.points,
            tiles: regions,
            sequential_tasks: regions,
            ..KernelCounters::default()
        }
    }
}

fn run_stencil(stencil: &Stencil, regions: &[Region], grids: &mut GridSet) -> Result<()> {
    let expr: &Expr = stencil.expr();
    let out_name = stencil.output().to_string();
    let out_map = stencil.out_map().clone();
    // Interpret strictly in canonical order: regions in union order, points
    // row-major. Reads see all previous writes (in-place semantics).
    for region in regions {
        for p in region.points() {
            let value = {
                let grids_ref: &GridSet = grids;
                let mut read = |g: &str, idx: &[i64]| {
                    let grid = grids_ref.get(g).expect("validated grid");
                    // Resolution proved every access index non-negative.
                    #[allow(clippy::cast_possible_truncation)]
                    let uidx: Vec<usize> = idx.iter().map(|&v| v as usize).collect();
                    grid.get(&uidx)
                };
                expr.eval(&p, &mut read)
            };
            let widx = out_map.apply(&p);
            // Resolution proved every write index non-negative.
            #[allow(clippy::cast_possible_truncation)]
            let uw: Vec<usize> = widx.iter().map(|&v| v as usize).collect();
            grids
                .get_mut(&out_name)
                .ok_or_else(|| CoreError::UnknownGrid {
                    stencil: stencil.name().to_string(),
                    grid: out_name.clone(),
                })?
                .set(&uw, value);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{weights2, Component, DomainUnion, RectDomain};
    use snowflake_grid::Grid;

    #[test]
    fn out_of_place_laplacian() {
        let n = 8;
        let mut gs = GridSet::new();
        gs.insert("x", Grid::from_fn(&[n, n], |p| (p[0] * p[0] + p[1]) as f64));
        gs.insert("y", Grid::new(&[n, n]));
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let exe = InterpreterBackend.compile(&group, &gs.shapes()).unwrap();
        exe.run(&mut gs).unwrap();
        // Discrete Laplacian of i^2 + j is 2.
        let y = gs.get("y").unwrap();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                assert_eq!(y.get(&[i, j]), 2.0);
            }
        }
        assert_eq!(exe.work().points, 36);
    }

    #[test]
    fn in_place_red_black_order_respected() {
        // Red pass then black pass must equal a hand GSRB sweep.
        let n = 6;
        let mut gs = GridSet::new();
        gs.insert("x", Grid::from_fn(&[n, n], |p| (p[0] + p[1]) as f64));
        let avg = Component::new(
            "x",
            weights2![[0, 0.25, 0], [0.25, 0.0, 0.25], [0, 0.25, 0]],
        );
        let (red, black) = DomainUnion::red_black(2);
        let group = StencilGroup::new()
            .with(Stencil::new(avg.clone(), "x", red))
            .with(Stencil::new(avg, "x", black));
        // Hand version.
        let mut hand = gs.get("x").unwrap().clone();
        for color in [0usize, 1] {
            let mut next = hand.clone();
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    if (i + j) % 2 == color {
                        let v = 0.25
                            * (hand.get(&[i - 1, j])
                                + hand.get(&[i + 1, j])
                                + hand.get(&[i, j - 1])
                                + hand.get(&[i, j + 1]));
                        next.set(&[i, j], v);
                    }
                }
            }
            hand = next;
        }
        let exe = InterpreterBackend.compile(&group, &gs.shapes()).unwrap();
        exe.run(&mut gs).unwrap();
        assert!(gs.get("x").unwrap().max_abs_diff(&hand) < 1e-15);
    }

    #[test]
    fn compile_rejects_invalid_group() {
        let gs = {
            let mut g = GridSet::new();
            g.insert("y", Grid::new(&[4, 4]));
            g
        };
        let group = StencilGroup::from(Stencil::new(
            Expr::read_at("missing", &[0, 0]),
            "y",
            RectDomain::interior(2),
        ));
        assert!(InterpreterBackend.compile(&group, &gs.shapes()).is_err());
    }
}
