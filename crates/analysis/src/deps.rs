//! Stencil-level dependence questions.
//!
//! These functions lift the 1-D/N-D conflict machinery to whole stencils:
//! is a stencil safe to apply in parallel over its (possibly multi-color)
//! domain union, and does one stencil in a group depend on another
//! (read-after-write, write-after-read, or write-after-write)?
//!
//! [`depends`] is the one hazard search. The scheduler builds phases and
//! the dependence DAG from it, dead-stencil elimination and the linter's
//! liveness pass ask it for read-after-write hazards, and the verifier
//! certifies phases with its witness cells.

use snowflake_core::{AffineMap, ShapeMap, Stencil};
use snowflake_grid::Region;

use crate::conflict::{access_conflict, self_conflict};
use crate::verify::Finding;

/// A stencil paired with its domain resolved against concrete shapes —
/// the unit the analysis and the backends operate on.
#[derive(Clone, Debug)]
pub struct ResolvedStencil {
    /// The DSL stencil.
    pub stencil: Stencil,
    /// Its domain union, resolved (one region per member rectangle).
    pub regions: Vec<Region>,
}

impl ResolvedStencil {
    /// Resolve a stencil against shapes, keeping the regions
    /// [`Stencil::validate`] proved every access in bounds over.
    pub fn resolve(stencil: &Stencil, shapes: &ShapeMap) -> snowflake_core::Result<Self> {
        Ok(ResolvedStencil {
            stencil: stencil.clone(),
            regions: stencil.validate(shapes)?,
        })
    }

    /// All read accesses `(grid, map)` of the stencil (duplicates removed).
    pub fn reads(&self) -> Vec<(String, AffineMap)> {
        let mut out: Vec<(String, AffineMap)> = Vec::new();
        self.stencil.expr().visit_reads(&mut |g, m| {
            if !out.iter().any(|(og, om)| og == g && om == m) {
                out.push((g.to_string(), m.clone()));
            }
        });
        out
    }

    /// The write access `(grid, map)`.
    pub fn write(&self) -> (String, AffineMap) {
        (
            self.stencil.output().to_string(),
            self.stencil.out_map().clone(),
        )
    }

    /// Total number of iteration points across the domain union.
    pub fn num_points(&self) -> u64 {
        self.regions.iter().map(|r| r.num_points()).sum()
    }
}

/// Kind of cross-stencil dependence, in program order `a` before `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepKind {
    /// `b` reads what `a` wrote.
    ReadAfterWrite,
    /// `b` overwrites what `a` read.
    WriteAfterRead,
    /// `b` overwrites what `a` wrote.
    WriteAfterWrite,
}

/// A concrete cross-stencil hazard: the dependence kind plus a grid cell
/// both accesses touch.
#[derive(Clone, Debug, PartialEq)]
pub struct Hazard {
    /// The dependence kind (in program order of the two stencils).
    pub kind: DepKind,
    /// The grid both accesses touch.
    pub grid: String,
    /// A cell of `grid` both accesses touch.
    pub cell: Vec<i64>,
}

/// Is the stencil safe to apply fully in parallel over its domain union?
///
/// True iff no iteration's write can alias a *different* iteration's read
/// of the output grid, across every pair of member rectangles. Stencils
/// that never read their own output are trivially safe; in-place stencils
/// like the red pass of GSRB are proven safe because their reads land on
/// the opposite color.
pub fn is_parallel_safe(rs: &ResolvedStencil) -> bool {
    let (out_grid, wmap) = rs.write();
    let reads_of_output: Vec<AffineMap> = rs
        .reads()
        .into_iter()
        .filter(|(g, _)| *g == out_grid)
        .map(|(_, m)| m)
        .collect();
    if reads_of_output.is_empty() {
        return writes_disjoint(rs);
    }
    for (i, r1) in rs.regions.iter().enumerate() {
        for rmap in &reads_of_output {
            // Within one rectangle: exclude the diagonal.
            if self_conflict(r1, &wmap, rmap) {
                return false;
            }
            // Across distinct rectangles of the union: any aliasing counts.
            for r2 in rs.regions.iter().skip(i + 1) {
                if access_conflict(r1, &wmap, r2, rmap) != Ok(None)
                    || access_conflict(r2, &wmap, r1, rmap) != Ok(None)
                {
                    return false;
                }
            }
        }
    }
    writes_disjoint(rs)
}

/// Does every iteration of the stencil write its own cell (no
/// write-after-write hazard *within* the stencil)? Checked between
/// distinct iterations of each member rectangle (a non-injective write
/// map, e.g. a zero scale over an extent > 1) and across rectangles.
pub fn writes_disjoint(rs: &ResolvedStencil) -> bool {
    let (_, wmap) = rs.write();
    for (i, r1) in rs.regions.iter().enumerate() {
        if self_conflict(r1, &wmap, &wmap) {
            return false;
        }
        for r2 in rs.regions.iter().skip(i + 1) {
            if access_conflict(r1, &wmap, r2, &wmap) != Ok(None) {
                return false;
            }
        }
    }
    true
}

/// Does stencil `b` (later in program order) depend on stencil `a`
/// (earlier)? Hazards are searched in the order in which they constrain
/// scheduling: read-after-write, then write-after-write, then
/// write-after-read; the first one found is returned with a witness cell.
///
/// `Ok(None)` proves the stencils independent. `Err` is a rank mismatch
/// between their accesses (attributed to `a`), which no caller may read as
/// independence: the scheduler orders such a pair, and the verifier
/// reports it.
pub fn depends(a: &ResolvedStencil, b: &ResolvedStencil) -> Result<Option<Hazard>, Finding> {
    // The first cell `a`'s access `ma` and `b`'s access `mb` both touch.
    let witness = |ma: &AffineMap, mb: &AffineMap| -> Result<Option<Vec<i64>>, Finding> {
        for r1 in &a.regions {
            for r2 in &b.regions {
                let cell =
                    access_conflict(r1, ma, r2, mb).map_err(|e| e.stencil(a.stencil.name()))?;
                if cell.is_some() {
                    return Ok(cell);
                }
            }
        }
        Ok(None)
    };
    let (aw_grid, aw_map) = a.write();
    let (bw_grid, bw_map) = b.write();
    for (grid, rmap) in b.reads() {
        if grid == aw_grid {
            if let Some(cell) = witness(&aw_map, &rmap)? {
                let kind = DepKind::ReadAfterWrite;
                return Ok(Some(Hazard { kind, grid, cell }));
            }
        }
    }
    if aw_grid == bw_grid {
        if let Some(cell) = witness(&aw_map, &bw_map)? {
            let (kind, grid) = (DepKind::WriteAfterWrite, bw_grid);
            return Ok(Some(Hazard { kind, grid, cell }));
        }
    }
    // `a`'s reads are only needed once no RAW or WAW hazard was found.
    for (grid, rmap) in a.reads() {
        if grid == bw_grid {
            if let Some(cell) = witness(&rmap, &bw_map)? {
                let kind = DepKind::WriteAfterRead;
                return Ok(Some(Hazard { kind, grid, cell }));
            }
        }
    }
    Ok(None)
}

/// Does `reader` read a cell `writer` writes (a read-after-write hazard
/// from `writer` to `reader`)? A rank mismatch counts as yes.
pub(crate) fn reads_after_write(writer: &ResolvedStencil, reader: &ResolvedStencil) -> bool {
    match depends(writer, reader) {
        Ok(hazard) => hazard.is_some_and(|h| h.kind == DepKind::ReadAfterWrite),
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{weights2, Component, DomainUnion, Expr, RectDomain};

    fn shapes(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        for g in ["x", "y", "rhs", "beta"] {
            m.insert(g.to_string(), vec![n, n]);
        }
        m
    }

    fn laplacian(grid: &str) -> Expr {
        Component::new(grid, weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]).expand()
    }

    // By-value keeps the many test call sites terse.
    #[allow(clippy::needless_pass_by_value)]
    fn resolved(s: Stencil, n: usize) -> ResolvedStencil {
        ResolvedStencil::resolve(&s, &shapes(n)).unwrap()
    }

    /// The hazard kind `depends` finds, checking its witness cell is a real
    /// cell of the hazard grid both stencils touch.
    fn dep_kind(a: &ResolvedStencil, b: &ResolvedStencil) -> Option<DepKind> {
        let h = depends(a, b).unwrap()?;
        let touches = |rs: &ResolvedStencil, write: bool| {
            let mut maps = Vec::new();
            if write {
                maps.push(rs.write().1);
            } else {
                maps.extend(
                    rs.reads()
                        .into_iter()
                        .filter(|(g, _)| *g == h.grid)
                        .map(|(_, m)| m),
                );
            }
            rs.regions.iter().any(|r| {
                r.points()
                    .any(|p| maps.iter().any(|m| m.apply(&p) == h.cell))
            })
        };
        let (a_writes, b_writes) = match h.kind {
            DepKind::ReadAfterWrite => (true, false),
            DepKind::WriteAfterWrite => (true, true),
            DepKind::WriteAfterRead => (false, true),
        };
        assert!(touches(a, a_writes) && touches(b, b_writes), "{h:?}");
        Some(h.kind)
    }

    #[test]
    fn out_of_place_stencil_is_parallel_safe() {
        let s = Stencil::new(laplacian("x"), "y", RectDomain::interior(2));
        assert!(is_parallel_safe(&resolved(s, 16)));
    }

    #[test]
    fn in_place_lexicographic_gs_is_unsafe() {
        // Gauss-Seidel over the whole interior, in place: loop-carried.
        let s = Stencil::new(laplacian("x"), "x", RectDomain::interior(2));
        assert!(!is_parallel_safe(&resolved(s, 16)));
    }

    #[test]
    fn gsrb_red_pass_is_safe() {
        // Red pass: in-place, but all neighbor reads land on black points.
        let (red, _black) = DomainUnion::red_black(2);
        let s = Stencil::new(laplacian("x"), "x", red);
        assert!(is_parallel_safe(&resolved(s, 16)));
    }

    #[test]
    fn in_place_center_only_update_is_safe() {
        // x[p] = x[p] * 2 + rhs[p]: diagonal dependence only.
        let e = Expr::read_at("x", &[0, 0]) * 2.0 + Expr::read_at("rhs", &[0, 0]);
        let s = Stencil::new(e, "x", RectDomain::interior(2));
        assert!(is_parallel_safe(&resolved(s, 16)));
    }

    #[test]
    fn four_coloring_makes_nine_point_update_safe() {
        // Figure 3b: a 3×3-neighborhood in-place update is NOT safe on a
        // red/black coloring (diagonal reads hit the same color), but IS
        // safe on each class of the 4-color tiling.
        let nine_point =
            Component::new("x", weights2![[1, 1, 1], [1, 1, 1], [1, 1, 1]]).expand() * (1.0 / 9.0);
        let (red, _) = DomainUnion::red_black(2);
        let rb = resolved(Stencil::new(nine_point.clone(), "x", red), 16);
        assert!(
            !is_parallel_safe(&rb),
            "diagonal reads reach the same color under red/black"
        );
        for color in DomainUnion::multicolor(2, 2) {
            let rs = resolved(Stencil::new(nine_point.clone(), "x", color), 16);
            assert!(is_parallel_safe(&rs), "4-coloring isolates 3x3 reads");
        }
    }

    #[test]
    fn overlapping_union_writes_are_unsafe() {
        // Two overlapping rectangles both writing y: WAW within the union.
        let u = RectDomain::new(&[1, 1], &[8, 8], &[1, 1])
            + RectDomain::new(&[4, 4], &[12, 12], &[1, 1]);
        let s = Stencil::new(Expr::read_at("x", &[0, 0]), "y", u);
        let rs = resolved(s, 16);
        assert!(!writes_disjoint(&rs));
        assert!(!is_parallel_safe(&rs));
    }

    #[test]
    fn non_injective_write_is_unsafe() {
        // y[3] = x[p] over the interior: every iteration writes one cell.
        let s = Stencil::new(Expr::read_at("x", &[0, 0]), "y", RectDomain::interior(2))
            .with_out_map(AffineMap::scaled(vec![0, 1], vec![3, 0]));
        let rs = resolved(s, 16);
        assert!(!writes_disjoint(&rs));
        assert!(!is_parallel_safe(&rs));
        // A scale-0 dimension over a single point stays injective.
        let one_row = RectDomain::new(&[5, 1], &[6, -1], &[1, 1]);
        let s = Stencil::new(Expr::read_at("x", &[0, 0]), "y", one_row)
            .with_out_map(AffineMap::scaled(vec![0, 1], vec![3, 0]));
        assert!(is_parallel_safe(&resolved(s, 16)));
    }

    #[test]
    fn raw_dependence_detected() {
        let a = Stencil::new(laplacian("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(laplacian("y"), "x", RectDomain::interior(2));
        let (ra, rb) = (resolved(a, 16), resolved(b, 16));
        assert_eq!(dep_kind(&ra, &rb), Some(DepKind::ReadAfterWrite));
    }

    #[test]
    fn independent_stencils_have_no_dependence() {
        // Write disjoint grids from a shared input: freely reorderable.
        let a = Stencil::new(laplacian("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(laplacian("x"), "rhs", RectDomain::interior(2));
        let (ra, rb) = (resolved(a, 16), resolved(b, 16));
        assert_eq!(dep_kind(&ra, &rb), None);
        assert_eq!(dep_kind(&rb, &ra), None);
    }

    #[test]
    fn war_dependence_detected() {
        // a reads x; b overwrites x.
        let a = Stencil::new(laplacian("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(Expr::read_at("rhs", &[0, 0]), "x", RectDomain::interior(2));
        let (ra, rb) = (resolved(a, 16), resolved(b, 16));
        assert_eq!(dep_kind(&ra, &rb), Some(DepKind::WriteAfterRead));
    }

    #[test]
    fn waw_dependence_detected() {
        let a = Stencil::new(Expr::read_at("x", &[0, 0]), "y", RectDomain::interior(2));
        let b = Stencil::new(Expr::read_at("rhs", &[0, 0]), "y", RectDomain::interior(2));
        let (ra, rb) = (resolved(a, 16), resolved(b, 16));
        assert_eq!(dep_kind(&ra, &rb), Some(DepKind::WriteAfterWrite));
    }

    #[test]
    fn ghost_faces_are_mutually_independent() {
        // Four Dirichlet faces of a 2-D grid: no pair conflicts, so the
        // scheduler may run all four concurrently (the finite-domain win).
        let n = 16usize;
        let mk = |dom: RectDomain, off: [i64; 2]| {
            Stencil::new(Expr::Neg(Box::new(Expr::read_at("x", &off))), "x", dom)
        };
        let faces = vec![
            mk(RectDomain::new(&[0, 1], &[0, -1], &[0, 1]), [1, 0]),
            mk(RectDomain::new(&[-1, 1], &[-1, -1], &[0, 1]), [-1, 0]),
            mk(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, 1]),
            mk(RectDomain::new(&[1, -1], &[-1, -1], &[1, 0]), [0, -1]),
        ];
        let rs: Vec<_> = faces.into_iter().map(|s| resolved(s, n)).collect();
        for i in 0..rs.len() {
            for j in 0..rs.len() {
                if i != j {
                    assert_eq!(
                        dep_kind(&rs[i], &rs[j]),
                        None,
                        "faces {i} and {j} should be independent"
                    );
                }
            }
        }
    }

    #[test]
    fn red_pass_depends_on_black_pass() {
        let (red, black) = DomainUnion::red_black(2);
        let r = Stencil::new(laplacian("x"), "x", red);
        let b = Stencil::new(laplacian("x"), "x", black);
        let (rr, rb) = (resolved(r, 16), resolved(b, 16));
        assert_eq!(dep_kind(&rr, &rb), Some(DepKind::ReadAfterWrite));
    }

    #[test]
    fn restriction_write_independent_of_fine_smooth_read_when_grids_differ() {
        let mut m = shapes(16);
        m.insert("coarse".to_string(), vec![9, 9]);
        // coarse[p] = 0.25 * (fine reads at 2p + {0,1}^2)
        let e = (Expr::read_mapped("x", AffineMap::scaled(vec![2, 2], vec![0, 0]))
            + Expr::read_mapped("x", AffineMap::scaled(vec![2, 2], vec![0, 1]))
            + Expr::read_mapped("x", AffineMap::scaled(vec![2, 2], vec![1, 0]))
            + Expr::read_mapped("x", AffineMap::scaled(vec![2, 2], vec![1, 1])))
            * 0.25;
        let restrict = Stencil::new(e, "coarse", RectDomain::new(&[1, 1], &[8, 8], &[1, 1]));
        let rs = ResolvedStencil::resolve(&restrict, &m).unwrap();
        assert!(is_parallel_safe(&rs));
    }
}
