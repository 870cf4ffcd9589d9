//! N-dimensional access conflict tests.
//!
//! A stencil access is an [`AffineMap`] applied to every point of a
//! [`Region`]. Two accesses *conflict* when some pair of iteration points
//! maps to the same grid cell. Because regions are products of per-
//! dimension strided ranges and affine maps act dimension-wise, the N-d
//! question decomposes into independent 1-D bounded Diophantine problems:
//! the accesses conflict iff **every** dimension's images intersect, and
//! the per-dimension intersections compose into an exact witness cell.
//!
//! [`access_conflict`] is the one conflict test: the scheduler, the
//! verifier and the linter all read its witness, and a rank mismatch is a
//! typed [`RankMismatch`] diagnostic rather than a verdict.
//!
//! [`RankMismatch`]: crate::verify::DiagnosticKind::RankMismatch

use snowflake_core::AffineMap;
use snowflake_grid::Region;

use crate::dio::{intersect, StridedRange};
use crate::math::coord;
use crate::verify::{rank_mismatch, Diagnostic};

/// The image of region dimension `d` under map dimension `d`, as a strided
/// range.
pub(crate) fn access_range(region: &Region, map: &AffineMap, d: usize) -> StridedRange {
    let n = region.extent(d) as i128;
    let start = map.scale[d] as i128 * region.lo[d] as i128 + map.offset[d] as i128;
    let step = map.scale[d] as i128 * region.stride[d] as i128;
    StridedRange::new(start, n, step)
}

/// Can accesses `(r1, m1)` and `(r2, m2)` (on the same grid) touch the same
/// cell? Any pair of iteration points counts, including a shared point when
/// the regions overlap.
///
/// `Ok(Some(cell))` names a cell both accesses touch: per dimension, the
/// first value the two access images share. `Ok(None)` proves the images
/// disjoint. `Err` reports a rank mismatch between the regions and maps,
/// which is never a proof of independence: callers either report it or
/// treat the pair as conflicting.
pub fn access_conflict(
    r1: &Region,
    m1: &AffineMap,
    r2: &Region,
    m2: &AffineMap,
) -> Result<Option<Vec<i64>>, Diagnostic> {
    let nd = r1.ndim();
    for (context, got) in [
        ("second region vs first region", r2.ndim()),
        ("first access map vs its region", m1.ndim()),
        ("second access map vs its region", m2.ndim()),
    ] {
        if got != nd {
            return Err(rank_mismatch(context, nd, got));
        }
    }
    if r1.is_empty() || r2.is_empty() {
        return Ok(None);
    }
    let mut cell = Vec::new();
    for d in 0..nd {
        let shared = intersect(access_range(r1, m1, d), access_range(r2, m2, d));
        if shared.is_empty() {
            return Ok(None);
        }
        cell.push(coord(shared.start));
    }
    Ok(Some(cell))
}

/// Do two regions share an iteration point? (Identity-map conflict.)
pub fn regions_overlap(r1: &Region, r2: &Region) -> bool {
    let id = AffineMap::identity(r1.ndim());
    access_conflict(r1, &id, r2, &id) != Ok(None)
}

/// Can a write through `wmap` at iteration `p1` alias a read through `rmap`
/// at a **different** iteration `p2`, both ranging over the *same* region?
///
/// This is the self-interference question deciding whether an in-place
/// stencil may be applied in parallel over one rectangle of its domain:
/// the same iteration reading its own write point is harmless (the read
/// happens before the write within the iteration), so the diagonal
/// `p1 == p2` must be excluded.
///
/// Exact when the two maps share a scale vector (the overwhelmingly common
/// case: both translations, or both scale-k multigrid maps); conservative
/// (may report a conflict that only the diagonal realizes) otherwise.
pub fn self_conflict(region: &Region, wmap: &AffineMap, rmap: &AffineMap) -> bool {
    if region.is_empty() {
        return false;
    }
    let nd = region.ndim();
    if wmap.scale == rmap.scale {
        // a·p1 + bw == a·p2 + br  ⇔  a·t·(k1 − k2) = br − bw per dimension.
        // The per-dimension difference q_d = k1 − k2 is forced (or free when
        // the coefficient is zero); a conflict needs all dimensions feasible
        // and at least one dimension able to make the iterations distinct.
        let mut distinct_possible = false;
        for d in 0..nd {
            let coef = wmap.scale[d] as i128 * region.stride[d] as i128;
            let delta = rmap.offset[d] as i128 - wmap.offset[d] as i128;
            let n = region.extent(d) as i128;
            if coef == 0 {
                if delta != 0 {
                    return false; // infeasible in this dimension
                }
                if n > 1 {
                    distinct_possible = true; // free dimension
                }
            } else {
                if delta % coef != 0 {
                    return false;
                }
                let q = delta / coef;
                if q.abs() > n - 1 {
                    return false;
                }
                if q != 0 {
                    distinct_possible = true;
                }
            }
        }
        distinct_possible
    } else {
        // Different scales on the same grid within one stencil is exotic
        // (e.g. reading both x[p] and x[2p]); fall back to the general test,
        // which is conservative because it cannot exclude the diagonal.
        access_conflict(region, wmap, region, rmap) != Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn region(lo: &[i64], hi: &[i64], stride: &[i64]) -> Region {
        Region::new(lo.to_vec(), hi.to_vec(), stride.to_vec())
    }

    fn translate(off: &[i64]) -> AffineMap {
        AffineMap::translate(off.to_vec())
    }

    fn conflicts(r1: &Region, m1: &AffineMap, r2: &Region, m2: &AffineMap) -> bool {
        access_conflict(r1, m1, r2, m2).unwrap().is_some()
    }

    // --- access_conflict -------------------------------------------------

    #[test]
    fn red_write_never_hits_black_write() {
        // 1-D red {1,3,..} vs black {2,4,..}: identity maps never alias.
        let red = region(&[1], &[15], &[2]);
        let black = region(&[2], &[15], &[2]);
        let id = AffineMap::identity(1);
        assert!(!conflicts(&red, &id, &black, &id));
        // But black's ±1 neighborhood does read red points.
        assert!(conflicts(&red, &id, &black, &translate(&[-1])));
        assert!(conflicts(&red, &id, &black, &translate(&[1])));
    }

    #[test]
    fn faces_do_not_interfere_finite_domain() {
        // Left ghost column (pinned j=0) vs right ghost column (j=n-1):
        // the finite-domain analysis proves independence that an
        // infinite-domain analysis cannot.
        let n = 16i64;
        let left = region(&[1, 0], &[n - 1, 1], &[1, 1]);
        let right = region(&[1, n - 1], &[n - 1, n], &[1, 1]);
        let id = AffineMap::identity(2);
        assert!(!conflicts(&left, &id, &right, &id));
        // Each face reads one cell inward; still independent of the other.
        assert!(!conflicts(&left, &id, &right, &translate(&[0, -1])));
        assert!(!conflicts(&right, &id, &left, &translate(&[0, 1])));
    }

    #[test]
    fn interior_vs_ghost_face_dependence_detected() {
        // Interior stencil reads offset (0,-1): it reaches the ghost column
        // that the boundary stencil writes.
        let n = 10i64;
        let ghost_left = region(&[1, 0], &[n - 1, 1], &[1, 1]);
        let interior = region(&[1, 1], &[n - 1, n - 1], &[1, 1]);
        let id = AffineMap::identity(2);
        assert!(conflicts(&ghost_left, &id, &interior, &translate(&[0, -1])));
        // A shrunken interior starting at column 2 does NOT reach it.
        let inner = region(&[1, 2], &[n - 1, n - 1], &[1, 1]);
        assert!(!conflicts(&ghost_left, &id, &inner, &translate(&[0, -1])));
    }

    #[test]
    fn scaled_restriction_access() {
        // Coarse p in [1,5) reading fine[2p]: touches fine {2,4,6,8}.
        let coarse = region(&[1], &[5], &[1]);
        let fine_read = AffineMap::scaled(vec![2], vec![0]);
        // A fine-grid write over odd points {1,3,5,7,9} never aliases.
        let odd = region(&[1], &[10], &[2]);
        let id = AffineMap::identity(1);
        assert!(!conflicts(&coarse, &fine_read, &odd, &id));
        let even = region(&[2], &[10], &[2]);
        assert!(conflicts(&coarse, &fine_read, &even, &id));
    }

    #[test]
    fn empty_regions_never_conflict() {
        let e = region(&[3], &[3], &[1]);
        let f = region(&[0], &[10], &[1]);
        let id = AffineMap::identity(1);
        assert!(!conflicts(&e, &id, &f, &id));
        assert!(!self_conflict(&e, &id, &translate(&[1])));
    }

    #[test]
    fn regions_overlap_basic() {
        let a = region(&[0, 0], &[4, 4], &[1, 1]);
        let b = region(&[3, 3], &[6, 6], &[1, 1]);
        let c = region(&[4, 0], &[6, 4], &[1, 1]);
        assert!(regions_overlap(&a, &b));
        assert!(!regions_overlap(&a, &c));
    }

    // --- self_conflict ----------------------------------------------------

    #[test]
    fn jacobi_in_place_center_read_is_safe() {
        // x[p] = f(x[p]): diagonal only — parallel safe.
        let r = region(&[1, 1], &[9, 9], &[1, 1]);
        let id = AffineMap::identity(2);
        assert!(!self_conflict(&r, &id, &id));
    }

    #[test]
    fn in_place_neighbor_read_is_unsafe() {
        // x[p] = f(x[p+1]) over a unit-stride range: classic loop-carried
        // dependence.
        let r = region(&[1], &[9], &[1]);
        let id = AffineMap::identity(1);
        assert!(self_conflict(&r, &id, &translate(&[1])));
        assert!(self_conflict(&r, &id, &translate(&[-1])));
    }

    #[test]
    fn stride_two_makes_neighbor_read_safe() {
        // Over the red points only, reading ±1 touches black points — no
        // red point reads another red point.
        let red = region(&[1], &[9], &[2]);
        let id = AffineMap::identity(1);
        assert!(!self_conflict(&red, &id, &translate(&[1])));
        assert!(!self_conflict(&red, &id, &translate(&[-1])));
        // Reading ±2 is a red-red dependence.
        assert!(self_conflict(&red, &id, &translate(&[2])));
    }

    #[test]
    fn offset_write_with_matching_read_is_diagonal_only() {
        // write x[p+1], read x[p+1]: same cell, same iteration — safe.
        let r = region(&[0], &[8], &[1]);
        let m = translate(&[1]);
        assert!(!self_conflict(&r, &m, &m));
        // write x[p+1], read x[p]: distinct iterations collide — unsafe.
        assert!(self_conflict(&r, &m, &translate(&[0])));
    }

    #[test]
    fn single_point_region_is_always_safe() {
        let r = region(&[4, 4], &[5, 5], &[1, 1]);
        let id = AffineMap::identity(2);
        assert!(!self_conflict(&r, &id, &translate(&[1, 0])));
    }

    #[test]
    fn delta_beyond_extent_is_safe() {
        // Range has 3 points spaced 1; reading offset 5 lands outside the
        // write set of any other iteration.
        let r = region(&[0], &[3], &[1]);
        let id = AffineMap::identity(1);
        assert!(!self_conflict(&r, &id, &translate(&[5])));
        assert!(self_conflict(&r, &id, &translate(&[2])));
    }

    // --- property tests against brute force -------------------------------

    /// Brute force: does any pair of points conflict?
    fn brute_access_conflict(r1: &Region, m1: &AffineMap, r2: &Region, m2: &AffineMap) -> bool {
        r1.points().any(|p1| {
            let w = m1.apply(&p1);
            r2.points().any(|p2| m2.apply(&p2) == w)
        })
    }

    fn brute_self_conflict(r: &Region, wm: &AffineMap, rm: &AffineMap) -> bool {
        r.points().any(|p1| {
            let w = wm.apply(&p1);
            r.points().any(|p2| p2 != p1 && rm.apply(&p2) == w)
        })
    }

    /// Fixed-rank (2-D) region strategy.
    fn region2() -> impl Strategy<Value = Region> {
        proptest::collection::vec((-3i64..4, 1i64..6, 1i64..4), 2).prop_map(|dims| {
            let lo: Vec<i64> = dims.iter().map(|d| d.0).collect();
            let hi: Vec<i64> = dims.iter().map(|d| d.0 + d.1).collect();
            let st: Vec<i64> = dims.iter().map(|d| d.2).collect();
            Region::new(lo, hi, st)
        })
    }

    fn map2() -> impl Strategy<Value = AffineMap> {
        (
            proptest::collection::vec(-2i64..3, 2),
            proptest::collection::vec(-4i64..5, 2),
        )
            .prop_map(|(s, o)| AffineMap::scaled(s, o))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]
        #[test]
        fn access_conflict_matches_brute(
            r1 in region2(), r2 in region2(), m1 in map2(), m2 in map2(),
        ) {
            let witness = access_conflict(&r1, &m1, &r2, &m2).unwrap();
            prop_assert_eq!(
                witness.is_some(),
                brute_access_conflict(&r1, &m1, &r2, &m2),
                "r1={:?} m1={:?} r2={:?} m2={:?}", r1, m1, r2, m2
            );
            if let Some(cell) = witness {
                prop_assert!(r1.points().any(|p| m1.apply(&p) == cell), "{:?}", cell);
                prop_assert!(r2.points().any(|p| m2.apply(&p) == cell), "{:?}", cell);
            }
        }

        #[test]
        fn self_conflict_matches_brute_translations(
            r in region2(),
            wo in proptest::collection::vec(-3i64..4, 2),
            ro in proptest::collection::vec(-3i64..4, 2),
        ) {
            let wm = AffineMap::translate(wo);
            let rm = AffineMap::translate(ro);
            prop_assert_eq!(
                self_conflict(&r, &wm, &rm),
                brute_self_conflict(&r, &wm, &rm),
                "r={:?} wm={:?} rm={:?}", r, wm, rm
            );
        }

        #[test]
        fn self_conflict_shared_scale_matches_brute(
            r in region2(),
            scale in proptest::collection::vec(1i64..3, 2),
            wo in proptest::collection::vec(-3i64..4, 2),
            ro in proptest::collection::vec(-3i64..4, 2),
        ) {
            let wm = AffineMap::scaled(scale.clone(), wo);
            let rm = AffineMap::scaled(scale, ro);
            prop_assert_eq!(
                self_conflict(&r, &wm, &rm),
                brute_self_conflict(&r, &wm, &rm),
                "r={:?} wm={:?} rm={:?}", r, wm, rm
            );
        }

        #[test]
        fn self_conflict_mixed_scale_is_conservative(
            r in region2(),
            wo in proptest::collection::vec(-2i64..3, 2),
            ro in proptest::collection::vec(-2i64..3, 2),
        ) {
            // Different scales: result may over-approximate but must never
            // miss a real conflict.
            let wm = AffineMap::scaled(vec![1, 2], wo);
            let rm = AffineMap::scaled(vec![2, 1], ro);
            if brute_self_conflict(&r, &wm, &rm) {
                prop_assert!(self_conflict(&r, &wm, &rm));
            }
        }
    }
}
