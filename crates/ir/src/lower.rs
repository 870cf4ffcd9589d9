//! Whole-group lowering: the front half of the JIT micro-compiler.
//!
//! `lower_group` validates a [`StencilGroup`] against concrete shapes, runs
//! the Diophantine analysis (parallel-safety per stencil, greedy barrier
//! phases across stencils, optional dead-stencil elimination) and lowers
//! each surviving stencil to a [`LoweredKernel`]. The result is the entire
//! platform-agnostic "contract" a backend needs — the narrow interface the
//! paper credits for making new backends easy to add.

use snowflake_core::{CoreError, ShapeMap, StencilGroup};

use snowflake_analysis::{
    dead_stencils, greedy_phases, is_parallel_safe, reorder_minimize_barriers, ResolvedStencil,
};

use crate::bytecode::{lower_expr, ClassTable};
use crate::kernel::LoweredKernel;

/// Options controlling lowering.
#[derive(Clone, Debug, Default)]
pub struct LowerOptions {
    /// When `Some`, stencils whose writes can never reach these grids (via
    /// later reads) are eliminated. `None` disables dead-stencil
    /// elimination (every stencil is kept).
    pub live_outputs: Option<Vec<String>>,
    /// Reorder independent stencils (list-scheduling the dependence DAG)
    /// to widen phases and reduce barriers, instead of the paper's
    /// program-order greedy grouping. Always legal; defaults to off so the
    /// default schedule matches the paper's backend.
    pub reorder: bool,
}

/// A fully lowered stencil group.
#[derive(Clone, Debug)]
pub struct Lowered {
    /// Dense grid-name table; kernels address grids by index into this.
    pub grid_names: Vec<String>,
    /// The shapes the group was lowered against (executables verify the
    /// runtime `GridSet` matches).
    pub grid_shapes: Vec<Vec<usize>>,
    /// Lowered kernels in program order (dead stencils removed).
    pub kernels: Vec<LoweredKernel>,
    /// Barrier phases over `kernels` (indices into `kernels`).
    pub phases: Vec<Vec<usize>>,
    /// Number of stencils removed by dead-stencil elimination.
    pub eliminated: usize,
}

impl Lowered {
    /// Total iteration points per full execution of the group.
    pub fn num_points(&self) -> u64 {
        self.kernels.iter().map(|k| k.num_points()).sum()
    }
}

/// Lower a stencil group against concrete shapes.
pub fn lower_group(
    group: &StencilGroup,
    shapes: &ShapeMap,
    opts: &LowerOptions,
) -> Result<Lowered, CoreError> {
    // Dense grid table in first-appearance order.
    let grid_names = group.grids();
    let grid_shapes: Vec<Vec<usize>> = grid_names
        .iter()
        .map(|g| {
            shapes
                .get(g)
                .cloned()
                .ok_or_else(|| CoreError::UnknownGrid {
                    stencil: String::new(),
                    grid: g.clone(),
                })
        })
        .collect::<Result<_, _>>()?;

    // Resolve + validate every stencil.
    let mut resolved: Vec<ResolvedStencil> = Vec::with_capacity(group.len());
    for s in group.stencils() {
        resolved.push(ResolvedStencil::resolve(s, shapes)?);
    }

    // Dead-stencil elimination (optional).
    let keep = match &opts.live_outputs {
        Some(live) => dead_stencils(&resolved, live),
        None => vec![true; resolved.len()],
    };
    let eliminated = keep.iter().filter(|&&k| !k).count();
    let resolved: Vec<ResolvedStencil> = resolved
        .into_iter()
        .zip(&keep)
        .filter_map(|(r, &k)| k.then_some(r))
        .collect();

    // Barrier phases: the paper's greedy program-order grouping, or the
    // §VII reordering optimization when requested.
    let schedule = if opts.reorder {
        reorder_minimize_barriers(&resolved)
    } else {
        greedy_phases(&resolved)
    };

    // Lower each kernel.
    let gi = |g: &str| grid_names.iter().position(|n| n == g);
    let sh = |i: usize| grid_shapes[i].clone();
    let mut kernels = Vec::with_capacity(resolved.len());
    for rs in &resolved {
        let mut table = ClassTable::new(&gi, &sh);
        let expr = rs.stencil.expr().simplify();
        let program = lower_expr(&expr, &mut table)?;
        let (out_grid_name, out_map) = rs.write();
        let (out_class, out_delta) = table.intern(&out_grid_name, &out_map)?;
        let classes = table.finish();
        let parallel_safe = is_parallel_safe(rs);
        kernels.push(LoweredKernel {
            name: rs.stencil.name().to_string(),
            ndim: rs.stencil.ndim(),
            classes,
            out_class,
            out_delta,
            program,
            spec: None,
            regions: rs.regions.clone(),
            parallel_safe,
            out_grid: gi(&out_grid_name).expect("output grid interned"),
        });
    }

    Ok(Lowered {
        grid_names,
        grid_shapes,
        kernels,
        phases: schedule.phases,
        eliminated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{weights2, Component, DomainUnion, Expr, RectDomain, Stencil};

    fn shapes(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        for g in ["x", "y", "z", "rhs"] {
            m.insert(g.to_string(), vec![n, n]);
        }
        m
    }

    fn lap(grid: &str) -> Expr {
        Component::new(grid, weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]).expand()
    }

    #[test]
    fn lower_single_stencil() {
        let g = StencilGroup::from(Stencil::new(lap("x"), "y", RectDomain::interior(2)));
        let low = lower_group(&g, &shapes(8), &LowerOptions::default()).unwrap();
        assert_eq!(low.grid_names, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(low.kernels.len(), 1);
        let k = &low.kernels[0];
        assert!(k.parallel_safe);
        assert_eq!(k.num_points(), 36);
        assert_eq!(low.phases, vec![vec![0]]);
        // Output class: grid y, identity scale, delta 0.
        assert_eq!(k.classes[k.out_class as usize].grid, 1);
        assert_eq!(k.out_delta, 0);
    }

    #[test]
    fn lexicographic_in_place_flagged_unsafe() {
        let g = StencilGroup::from(Stencil::new(lap("x"), "x", RectDomain::interior(2)));
        let low = lower_group(&g, &shapes(8), &LowerOptions::default()).unwrap();
        assert!(!low.kernels[0].parallel_safe);
    }

    #[test]
    fn red_black_kernels_safe_with_barrier() {
        let (red, black) = DomainUnion::red_black(2);
        let g = StencilGroup::new()
            .with(Stencil::new(lap("x"), "x", red))
            .with(Stencil::new(lap("x"), "x", black));
        let low = lower_group(&g, &shapes(10), &LowerOptions::default()).unwrap();
        assert!(low.kernels[0].parallel_safe);
        assert!(low.kernels[1].parallel_safe);
        assert_eq!(low.phases.len(), 2, "colors need a barrier between them");
        // Together the two colors cover the full interior.
        assert_eq!(low.num_points(), 64);
    }

    #[test]
    fn dead_elimination_drops_kernels_and_reindexes_phases() {
        let g = StencilGroup::new()
            .with(Stencil::new(lap("x"), "y", RectDomain::interior(2)))
            .with(Stencil::new(lap("x"), "z", RectDomain::interior(2)));
        let low = lower_group(
            &g,
            &shapes(8),
            &LowerOptions {
                live_outputs: Some(vec!["z".to_string()]),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(low.eliminated, 1);
        assert_eq!(low.kernels.len(), 1);
        assert_eq!(
            low.kernels[0].out_grid,
            low.grid_names.iter().position(|g| g == "z").unwrap()
        );
        assert_eq!(low.phases, vec![vec![0]]);
    }

    #[test]
    fn reordering_produces_fewer_or_equal_phases() {
        // Interleaved independent chains: A B A' B'.
        let g = StencilGroup::new()
            .with(Stencil::new(lap("x"), "y", RectDomain::interior(2)))
            .with(Stencil::new(lap("y"), "rhs", RectDomain::interior(2)))
            .with(Stencil::new(lap("x"), "z", RectDomain::interior(2)));
        let plain = lower_group(&g, &shapes(8), &LowerOptions::default()).unwrap();
        let reordered = lower_group(
            &g,
            &shapes(8),
            &LowerOptions {
                reorder: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(reordered.phases.len() <= plain.phases.len());
        assert_eq!(reordered.phases, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn validation_failure_propagates() {
        let g = StencilGroup::from(Stencil::new(
            Expr::read_at("missing", &[0, 0]),
            "y",
            RectDomain::interior(2),
        ));
        assert!(lower_group(&g, &shapes(8), &LowerOptions::default()).is_err());
    }

    #[test]
    fn shapes_recorded_for_runtime_verification() {
        let g = StencilGroup::from(Stencil::new(lap("x"), "y", RectDomain::interior(2)));
        let low = lower_group(&g, &shapes(8), &LowerOptions::default()).unwrap();
        assert_eq!(low.grid_shapes, vec![vec![8, 8], vec![8, 8]]);
    }
}
