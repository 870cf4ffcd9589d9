//! Box intersection, the one cut of every tile.
//!
//! The OpenMP backend blocks iteration spaces with arbitrary-dimension
//! tiles ("tiling is an arbitrary-dimension blocking algorithm" — §IV-A)
//! by intersecting every member of a loop nest with a shared grid of tile
//! boxes: a lone rectangle's boxes are its tiles, and a colour union's
//! (*multicolor reordering*) keep every colour of one cache-sized block of
//! memory in one tile, so the block is visited once for all colours
//! instead of once per colour.

use snowflake_grid::Region;

/// Intersect a strided region with an axis-aligned half-open box
/// `[box_lo, box_hi)`, preserving the stride lattice. Returns `None` when
/// the intersection is empty.
pub fn intersect_box(region: &Region, box_lo: &[i64], box_hi: &[i64]) -> Option<Region> {
    let nd = region.ndim();
    assert!(
        box_lo.len() == nd && box_hi.len() == nd,
        "box rank mismatch"
    );
    let mut lo = Vec::with_capacity(nd);
    let mut hi = Vec::with_capacity(nd);
    for d in 0..nd {
        let s = region.stride[d];
        // Smallest lattice point >= max(region.lo, box_lo).
        let base = region.lo[d];
        let want = base.max(box_lo[d]);
        let k = (want - base + s - 1).div_euclid(s);
        let l = base + k * s;
        let h = region.hi[d].min(box_hi[d]);
        if l >= h {
            return None;
        }
        lo.push(l);
        hi.push(h);
    }
    Some(Region::new(lo, hi, region.stride.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn r(lo: &[i64], hi: &[i64], s: &[i64]) -> Region {
        Region::new(lo.to_vec(), hi.to_vec(), s.to_vec())
    }

    #[test]
    fn intersect_box_respects_lattice() {
        // Red points 1,3,5,7,9 clipped to box [4, 8) -> 5,7.
        let reg = r(&[1], &[10], &[2]);
        let got = intersect_box(&reg, &[4], &[8]).unwrap();
        let pts: Vec<_> = got.points().map(|p| p[0]).collect();
        assert_eq!(pts, vec![5, 7]);
    }

    #[test]
    fn intersect_box_empty() {
        let reg = r(&[1], &[10], &[2]);
        assert!(intersect_box(&reg, &[10], &[20]).is_none());
        // Box covering only even coordinates between two odd lattice points.
        assert!(intersect_box(&reg, &[4], &[5]).is_none());
    }

    #[test]
    fn multicolor_tiles_cover_all_colors() {
        // Two colors (odd/even) intersected with a common 4-wide tiling
        // must reproduce every interior point exactly once.
        let red = r(&[1, 1], &[9, 9], &[2, 2]);
        let red2 = r(&[2, 2], &[9, 9], &[2, 2]);
        let mut seen = HashSet::new();
        for ti in (1..9).step_by(4) {
            for tj in (1..9).step_by(4) {
                for reg in [&red, &red2] {
                    if let Some(sub) =
                        intersect_box(reg, &[ti, tj], &[(ti + 4).min(9), (tj + 4).min(9)])
                    {
                        for p in sub.points() {
                            assert!(seen.insert(p));
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len() as u64, red.num_points() + red2.num_points());
    }

    proptest! {
        #[test]
        fn intersect_box_matches_filter(
            lo in -5i64..5, len in 1i64..20, s in 1i64..4,
            blo in -8i64..8, blen in 0i64..20,
        ) {
            let reg = r(&[lo], &[lo + len], &[s]);
            let (bl, bh) = (blo, blo + blen);
            let expect: Vec<i64> = reg
                .points()
                .map(|p| p[0])
                .filter(|&v| v >= bl && v < bh)
                .collect();
            match intersect_box(&reg, &[bl], &[bh]) {
                None => prop_assert!(expect.is_empty()),
                Some(sub) => {
                    let got: Vec<i64> = sub.points().map(|p| p[0]).collect();
                    prop_assert_eq!(got, expect);
                }
            }
        }
    }
}
