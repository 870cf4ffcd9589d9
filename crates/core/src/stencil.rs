//! [`Stencil`] and [`StencilGroup`]: the executable units of the DSL.
//!
//! A stencil associates an expression, an output grid (possibly one of the
//! inputs — in-place stencils like GSRB are first-class), and a domain
//! union. A stencil group is a *serial* sequence of stencils; the analysis
//! crate discovers which of those serial steps may actually run
//! concurrently, and the backends exploit it.

use snowflake_grid::Region;

use crate::domain::DomainUnion;
use crate::error::CoreError;
use crate::expr::{AffineMap, Expr};
use crate::{Result, ShapeMap};

/// A single stencil: `output[out_map(p)] = expr(p)` for all `p` in `domain`.
///
/// ```
/// use snowflake_core::{weights2, Component, RectDomain, ShapeMap, Stencil};
///
/// let lap = Component::new("u", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
/// let s = Stencil::new(lap, "out", RectDomain::interior(2)).named("laplacian");
/// assert!(!s.is_in_place());
///
/// // Validation proves every access in bounds for concrete shapes.
/// let mut shapes = ShapeMap::new();
/// shapes.insert("u".into(), vec![8, 8]);
/// shapes.insert("out".into(), vec![8, 8]);
/// assert!(s.validate(&shapes).is_ok());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Stencil {
    name: String,
    expr: Expr,
    output: String,
    out_map: AffineMap,
    domain: DomainUnion,
}

impl Stencil {
    /// Create a stencil writing `output[p] = expr(p)` over `domain`.
    ///
    /// Mirrors the paper's `Stencil(final, "mesh", red)` constructor.
    ///
    /// # Panics
    /// Panics if the expression and domain disagree on rank (a programming
    /// error in the DSL program).
    pub fn new(
        expr: impl crate::expr::IntoExpr,
        output: &str,
        domain: impl Into<DomainUnion>,
    ) -> Self {
        let expr = expr.into_expr();
        let domain = domain.into();
        if let Some(nd) = expr.ndim() {
            assert_eq!(
                nd,
                domain.ndim(),
                "stencil expression rank {nd} != domain rank {}",
                domain.ndim()
            );
        }
        let ndim = domain.ndim();
        Stencil {
            name: format!("stencil_{output}"),
            expr,
            output: output.to_string(),
            out_map: AffineMap::identity(ndim),
            domain,
        }
    }

    /// Attach a human-readable name (appears in errors and generated code).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Replace the output index map (default identity). Used by
    /// interpolation, which writes `fine[2p + o]` from a coarse domain.
    ///
    /// # Panics
    /// Panics on rank mismatch.
    pub fn with_out_map(mut self, map: AffineMap) -> Self {
        assert_eq!(map.ndim(), self.domain.ndim(), "out_map rank mismatch");
        self.out_map = map;
        self
    }

    /// Stencil name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The right-hand-side expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Output grid name.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Output index map.
    pub fn out_map(&self) -> &AffineMap {
        &self.out_map
    }

    /// Iteration domain.
    pub fn domain(&self) -> &DomainUnion {
        &self.domain
    }

    /// Rank of the iteration space.
    pub fn ndim(&self) -> usize {
        self.domain.ndim()
    }

    /// Is this stencil in-place (its output grid also appears in the
    /// expression)?
    pub fn is_in_place(&self) -> bool {
        self.expr.grids().iter().any(|g| g == &self.output)
    }

    /// All grid names touched (reads ∪ output), output last if not read.
    pub fn grids(&self) -> Vec<String> {
        let mut gs = self.expr.grids();
        if !gs.iter().any(|g| g == &self.output) {
            gs.push(self.output.clone());
        }
        gs
    }

    /// Resolve the domain against the *output grid's* shape.
    ///
    /// The paper resolves relative bounds against "the grid"; since a
    /// stencil's iteration space indexes its output (identity out-map) we
    /// use the output grid's shape. Stencils with non-identity out-maps
    /// (interpolation) iterate a domain sized for the *source*; for those,
    /// relative bounds refer to the smallest read grid — callers then use
    /// [`Stencil::resolve_with`] naming the anchor grid explicitly.
    pub fn resolve(&self, shapes: &ShapeMap) -> Result<Vec<Region>> {
        let anchor = if self.out_map.is_translation() {
            self.output.clone()
        } else {
            // Non-identity output scale: anchor on the first-read grid whose
            // map is a translation, falling back to the output.
            let mut anchor = None;
            self.expr.visit_reads(&mut |g, m| {
                if anchor.is_none() && m.is_translation() {
                    anchor = Some(g.to_string());
                }
            });
            anchor.unwrap_or_else(|| self.output.clone())
        };
        self.resolve_with(shapes, &anchor)
    }

    /// Resolve the domain using `anchor`'s shape for relative bounds.
    pub fn resolve_with(&self, shapes: &ShapeMap, anchor: &str) -> Result<Vec<Region>> {
        let shape = shapes.get(anchor).ok_or_else(|| CoreError::UnknownGrid {
            stencil: self.name.clone(),
            grid: anchor.to_string(),
        })?;
        self.domain.resolve(shape).map_err(|e| match e {
            CoreError::DomainOutOfBounds { detail, .. } => CoreError::DomainOutOfBounds {
                stencil: self.name.clone(),
                detail,
            },
            other => other,
        })
    }

    /// Validate the stencil against concrete shapes and return its resolved
    /// domain: every grid exists, ranks agree, and every read and write
    /// stays in bounds for every point of the domain.
    ///
    /// This is the one source-level bounds proof. For each access, member
    /// rectangle and dimension, the extreme images `a·lo + b` and
    /// `a·last + b` must land in `[0, extent)`; this is exact because an
    /// affine image of a strided range attains its extrema at the
    /// endpoints, and the arithmetic is done in `i128`, so no scale or
    /// offset can wrap an image back into range. A refusal is a
    /// [`CoreError::AccessOutOfBounds`] naming the dimension and a witness:
    /// the cell accessed by a domain point whose image leaves the grid
    /// (omitted when that cell's index does not fit in an `i64`).
    pub fn validate(&self, shapes: &ShapeMap) -> Result<Vec<Region>> {
        // Rank consistency.
        if let Err((a, b)) = self.expr.consistent_ndim() {
            return Err(CoreError::DimMismatch {
                context: format!("stencil {:?} expression", self.name),
                expected: a,
                got: b,
            });
        }
        for grid in self.grids() {
            let shape = shapes.get(&grid).ok_or_else(|| CoreError::UnknownGrid {
                stencil: self.name.clone(),
                grid: grid.clone(),
            })?;
            if shape.len() != self.ndim() {
                return Err(CoreError::DimMismatch {
                    context: format!("stencil {:?} grid {grid:?}", self.name),
                    expected: self.ndim(),
                    got: shape.len(),
                });
            }
        }
        let regions = self.resolve(shapes)?;
        let mut accesses = Vec::new();
        self.expr
            .visit_reads(&mut |g, m| accesses.push(("read", g.to_string(), m.clone())));
        accesses.push(("write", self.output.clone(), self.out_map.clone()));
        for (what, grid, map) in &accesses {
            for region in regions.iter().filter(|r| !r.is_empty()) {
                self.check_access(what, grid, map, region, &shapes[grid])?;
            }
        }
        Ok(regions)
    }

    /// Prove one access over one non-empty region in bounds, dimension by
    /// dimension.
    fn check_access(
        &self,
        what: &str,
        grid: &str,
        map: &AffineMap,
        region: &Region,
        shape: &[usize],
    ) -> Result<()> {
        let image = |d: usize, p: i128| i128::from(map.scale[d]) * p + i128::from(map.offset[d]);
        for (d, &extent) in shape.iter().enumerate() {
            let lo = i128::from(region.lo[d]);
            let last = lo + i128::from(region.extent(d) - 1) * i128::from(region.stride[d]);
            let (first, final_) = (image(d, lo), image(d, last));
            let (mn, mx) = (first.min(final_), first.max(final_));
            if mn >= 0 && mx < extent as i128 {
                continue;
            }
            // The domain point attaining the violating extreme, other
            // dimensions pinned at their lows.
            let bad = if mn < 0 { mn } else { mx };
            let mut point: Vec<i128> = region.lo.iter().map(|&c| i128::from(c)).collect();
            point[d] = if first == bad { lo } else { last };
            let witness = point
                .iter()
                .enumerate()
                .map(|(e, &p)| i64::try_from(image(e, p)).ok())
                .collect();
            return Err(CoreError::AccessOutOfBounds {
                stencil: self.name.clone(),
                grid: grid.to_string(),
                dim: d,
                witness,
                detail: format!("{what} spans [{mn}, {mx}] but the extent is {extent}"),
            });
        }
        Ok(())
    }
}

/// A serial sequence of stencils compiled and executed as a unit, enabling
/// cross-stencil analysis and optimization (§IV of the paper).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StencilGroup {
    stencils: Vec<Stencil>,
}

impl StencilGroup {
    /// Empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a stencil (serial order).
    pub fn push(&mut self, s: Stencil) {
        self.stencils.push(s);
    }

    /// Builder-style append.
    pub fn with(mut self, s: Stencil) -> Self {
        self.push(s);
        self
    }

    /// The stencils in serial order.
    pub fn stencils(&self) -> &[Stencil] {
        &self.stencils
    }

    /// Number of stencils.
    pub fn len(&self) -> usize {
        self.stencils.len()
    }

    /// True when the group is empty.
    pub fn is_empty(&self) -> bool {
        self.stencils.is_empty()
    }

    /// All grids touched by any stencil, in first-appearance order.
    pub fn grids(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.stencils {
            for g in s.grids() {
                if !out.contains(&g) {
                    out.push(g);
                }
            }
        }
        out
    }

    /// Validate every stencil.
    pub fn validate(&self, shapes: &ShapeMap) -> Result<()> {
        for s in &self.stencils {
            s.validate(shapes)?;
        }
        Ok(())
    }
}

impl From<Stencil> for StencilGroup {
    fn from(s: Stencil) -> Self {
        StencilGroup { stencils: vec![s] }
    }
}

impl FromIterator<Stencil> for StencilGroup {
    fn from_iter<T: IntoIterator<Item = Stencil>>(iter: T) -> Self {
        StencilGroup {
            stencils: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::domain::RectDomain;
    use crate::weights2;

    fn shapes2(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        m.insert("x".into(), vec![n, n]);
        m.insert("y".into(), vec![n, n]);
        m
    }

    fn laplacian() -> Expr {
        Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]).expand()
    }

    #[test]
    fn basic_stencil_properties() {
        let s = Stencil::new(laplacian(), "y", RectDomain::interior(2)).named("lap");
        assert_eq!(s.name(), "lap");
        assert_eq!(s.output(), "y");
        assert!(!s.is_in_place());
        assert_eq!(s.grids(), vec!["x".to_string(), "y".to_string()]);
        assert!(s.validate(&shapes2(8)).is_ok());
    }

    #[test]
    fn in_place_detected() {
        let s = Stencil::new(laplacian(), "x", RectDomain::interior(2));
        assert!(s.is_in_place());
    }

    #[test]
    fn validate_rejects_unknown_grid() {
        let s = Stencil::new(laplacian(), "z", RectDomain::interior(2));
        let e = s.validate(&shapes2(8)).unwrap_err();
        assert!(matches!(e, CoreError::UnknownGrid { .. }));
    }

    #[test]
    fn validate_rejects_out_of_bounds_read() {
        // Reading offset -1 from a domain starting at 0 escapes the grid.
        let s = Stencil::new(
            Expr::read_at("x", &[-1, 0]),
            "y",
            RectDomain::new(&[0, 0], &[0, 0], &[1, 1]),
        );
        let e = s.validate(&shapes2(8)).unwrap_err();
        let CoreError::AccessOutOfBounds {
            grid, dim, witness, ..
        } = &e
        else {
            panic!("{e}");
        };
        assert_eq!((grid.as_str(), *dim), ("x", 0), "{e}");
        assert_eq!(witness.as_deref(), Some(&[-1, 0][..]), "{e}");
    }

    #[test]
    fn validate_never_wraps_an_image_into_range() {
        // x[2^62·i + 5] at i = 4 is cell 2^64 + 5: an i64 product wraps it
        // to cell 5, inside the grid.
        let mut m = ShapeMap::new();
        m.insert("x".into(), vec![10]);
        let far = Expr::read_mapped("x", AffineMap::scaled(vec![1 << 62], vec![5]));
        let s = Stencil::new(far, "x", RectDomain::new(&[4], &[5], &[1]));
        let e = s.validate(&m).unwrap_err();
        let CoreError::AccessOutOfBounds { dim, witness, .. } = &e else {
            panic!("{e}");
        };
        assert_eq!((*dim, witness), (0, &None), "{e}");
    }

    #[test]
    fn validate_accepts_boundary_stencil_with_large_offset() {
        // Ghost column 0 reads the interior column 1: x[p + (0,1)] over a
        // pinned-column domain.
        let s = Stencil::new(
            Expr::Neg(Box::new(Expr::read_at("x", &[0, 1]))),
            "x",
            RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]),
        );
        assert!(s.validate(&shapes2(8)).is_ok());
    }

    #[test]
    fn validate_checks_rank_against_grids() {
        let mut m = ShapeMap::new();
        m.insert("x".into(), vec![8]);
        m.insert("y".into(), vec![8, 8]);
        let s = Stencil::new(Expr::read_at("x", &[0, 0]), "y", RectDomain::interior(2));
        assert!(matches!(s.validate(&m), Err(CoreError::DimMismatch { .. })));
    }

    #[test]
    fn resolution_uses_output_shape() {
        let mut m = shapes2(8);
        m.insert("big".into(), vec![16, 16]);
        let s = Stencil::new(Expr::read_at("big", &[0, 0]), "y", RectDomain::interior(2));
        let r = s.resolve(&m).unwrap();
        assert_eq!(r[0].hi, vec![7, 7]); // y is 8x8
    }

    #[test]
    fn scaled_write_validates_against_both_grids() {
        // Interpolation-style: fine[2p] = coarse[p] over coarse interior.
        let mut m = ShapeMap::new();
        m.insert("coarse".into(), vec![6]);
        m.insert("fine".into(), vec![10]);
        let s = Stencil::new(
            Expr::read("coarse", 1),
            "fine",
            RectDomain::new(&[1], &[-1], &[1]),
        )
        .with_out_map(AffineMap::scaled(vec![2], vec![0]));
        // Domain anchored on coarse (first translation read): p in 1..5,
        // writes fine[2..10 step 2] — wait, fine[2*4]=fine[8] ok, reads
        // coarse[1..5) ok.
        assert!(s.validate(&m).is_ok(), "{:?}", s.validate(&m));
    }

    #[test]
    fn group_collects_grids_in_order() {
        let g = StencilGroup::new()
            .with(Stencil::new(laplacian(), "y", RectDomain::interior(2)))
            .with(Stencil::new(
                Expr::read_at("y", &[0, 0]),
                "x",
                RectDomain::interior(2),
            ));
        assert_eq!(g.grids(), vec!["x".to_string(), "y".to_string()]);
        assert_eq!(g.len(), 2);
        assert!(g.validate(&shapes2(8)).is_ok());
    }
}
