//! Bounded linear Diophantine equations over strided index ranges.
//!
//! The central question of Snowflake's analysis: given two 1-D affine
//! accesses, each sweeping a finite strided range, can they produce the
//! same index? Writing the ranges as `v1 = s1 + k1·t1` (`0 <= k1 < n1`) and
//! `v2 = s2 + k2·t2` (`0 <= k2 < n2`), equality is the linear Diophantine
//! equation `t1·k1 − t2·k2 = s2 − s1`, solvable with the extended Euclidean
//! algorithm; the *finite-domain* part then restricts the one-parameter
//! solution family to the bounds — that restriction is what lets the
//! analysis prove (for example) that Dirichlet ghost faces cannot interfere
//! with each other.
//!
//! [`intersect`] is the crate's only solver. It returns the exact set of
//! shared values as another strided range, so one routine answers every
//! question built on it: the ranges meet exactly when the intersection is
//! non-empty, its `start` is a witness value, and its `count` is how many
//! values they share. The scheduler, the verifier and the linter all ask
//! it, through [`access_conflict`](crate::conflict::access_conflict) or
//! directly.

use crate::math::{div_ceil, egcd};

/// A finite 1-D arithmetic progression: `start + k·step` for `0 <= k < count`.
///
/// `step` may be zero or negative; a zero step with `count > 1` denotes a
/// degenerate access that reads the same index repeatedly (it arises when
/// an access map has scale 0 in some dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StridedRange {
    /// First value.
    pub start: i128,
    /// Number of values (may be zero, meaning the range is empty).
    pub count: i128,
    /// Increment between consecutive values.
    pub step: i128,
}

impl StridedRange {
    /// Construct a range.
    pub fn new(start: i128, count: i128, step: i128) -> Self {
        StridedRange { start, count, step }
    }

    /// Is the range empty?
    pub fn is_empty(&self) -> bool {
        self.count <= 0
    }

    /// Value at position `k` (unchecked).
    pub fn at(&self, k: i128) -> i128 {
        self.start + k * self.step
    }

    /// The same value *set* in ascending order with `step >= 1`: zero-step
    /// and single-value ranges collapse to one value, and every empty range
    /// becomes `start 0, count 0, step 1`.
    #[must_use]
    pub fn normalized(self) -> StridedRange {
        if self.is_empty() {
            StridedRange::new(0, 0, 1)
        } else if self.step == 0 || self.count == 1 {
            StridedRange::new(self.start, 1, 1)
        } else if self.step < 0 {
            StridedRange::new(self.at(self.count - 1), self.count, -self.step)
        } else {
            self
        }
    }
}

/// The exact intersection of two strided ranges, as a normalized strided
/// range (ascending, `step >= 1`; empty when they share no value).
///
/// Shared values `a.start + i·a.step == b.start + j·b.step` exist iff
/// `gcd(a.step, b.step)` divides `b.start − a.start`; the solutions for `i`
/// then form one residue class modulo `b.step / g` (CRT on the two
/// congruence classes), whose values step by `lcm(a.step, b.step)`. Clamping
/// that progression to both ranges' bounds is the finite-domain part.
pub fn intersect(a: StridedRange, b: StridedRange) -> StridedRange {
    let (a, b) = (a.normalized(), b.normalized());
    let empty = StridedRange::new(0, 0, 1);
    if a.is_empty() || b.is_empty() {
        return empty;
    }
    let (g, x0, _) = egcd(a.step, b.step);
    let c = b.start - a.start;
    if c % g != 0 {
        return empty;
    }
    let m = b.step / g;
    let i0 = ((x0 % m) * ((c / g) % m) % m + m) % m;
    let lcm = a.step * m;
    let first = a.start + i0 * a.step;
    let lo_bound = a.start.max(b.start);
    let hi_bound = a.at(a.count - 1).min(b.at(b.count - 1));
    let first_v = if first >= lo_bound {
        first
    } else {
        first + div_ceil(lo_bound - first, lcm) * lcm
    };
    if first_v > hi_bound {
        return empty;
    }
    StridedRange::new(first_v, (hi_bound - first_v) / lcm + 1, lcm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn meet(r1: StridedRange, r2: StridedRange) -> bool {
        !intersect(r1, r2).is_empty()
    }

    /// The brute-force oracle: the intersection must be exactly the sorted
    /// set of values both ranges enumerate.
    fn check_exact(r1: StridedRange, r2: StridedRange) -> Result<(), String> {
        let values = |r: StridedRange| (0..r.count.max(0)).map(move |k| r.at(k));
        let mut expect: Vec<i128> = values(r1).filter(|v| values(r2).any(|w| w == *v)).collect();
        expect.sort_unstable();
        expect.dedup();
        let got = intersect(r1, r2);
        let got_values: Vec<i128> = values(got).collect();
        if got_values != expect {
            return Err(format!(
                "r1={r1:?} r2={r2:?}: got {got:?} = {got_values:?}, expected {expect:?}"
            ));
        }
        if got.step < 1 {
            return Err(format!("r1={r1:?} r2={r2:?}: {got:?} is not normalized"));
        }
        Ok(())
    }

    #[test]
    fn disjoint_parities_never_intersect() {
        // Red vs black in 1-D: evens vs odds.
        let red = StridedRange::new(1, 50, 2);
        let black = StridedRange::new(2, 50, 2);
        assert!(!meet(red, black));
        assert!(meet(red, red));
    }

    #[test]
    fn offset_shifts_parity() {
        // Black shifted by -1 lands on red.
        let red = StridedRange::new(1, 4, 2); // 1 3 5 7
        let black_m1 = StridedRange::new(1, 4, 2); // (2..8 step 2) - 1
        assert!(meet(red, black_m1));
    }

    #[test]
    fn bounded_no_solution_even_when_unbounded_has_one() {
        // 3k1 == 5k2 + 1 has integer solutions (k1=2,k2=1), but not within
        // k1 < 2.
        let r1 = StridedRange::new(0, 2, 3); // 0 3
        let r2 = StridedRange::new(1, 2, 5); // 1 6
        assert!(!meet(r1, r2));
        let r1 = StridedRange::new(0, 3, 3); // 0 3 6
        assert_eq!(intersect(r1, r2), StridedRange::new(6, 1, 15));
    }

    #[test]
    fn zero_steps() {
        let a = StridedRange::new(4, 3, 0);
        let b = StridedRange::new(4, 1, 7);
        assert!(meet(a, b));
        let c = StridedRange::new(5, 1, 0);
        assert!(!meet(a, c));
        assert!(meet(StridedRange::new(8, 10, -1), a)); // 8,7,..,-1 hits 4
    }

    #[test]
    fn empty_ranges_never_intersect() {
        let e = StridedRange::new(0, 0, 1);
        let f = StridedRange::new(0, 10, 1);
        assert!(!meet(e, f));
        assert!(!meet(f, e));
    }

    #[test]
    fn negative_steps() {
        let down = StridedRange::new(10, 5, -2); // 10 8 6 4 2
        let up = StridedRange::new(1, 5, 2); // 1 3 5 7 9
        assert!(!meet(down, up));
        let up2 = StridedRange::new(0, 5, 2); // 0 2 4 6 8
        assert_eq!(intersect(down, up2), StridedRange::new(2, 4, 2));
    }

    #[test]
    fn witness_is_valid() {
        let r1 = StridedRange::new(0, 100, 3);
        let r2 = StridedRange::new(1, 100, 7);
        let shared = intersect(r1, r2);
        assert!(!shared.is_empty());
        for r in [r1, r2] {
            let k = (shared.start - r.start) / r.step;
            assert_eq!(r.at(k), shared.start);
        }
    }

    #[test]
    fn fixed_cases_match_brute_force() {
        let cases = [
            (StridedRange::new(1, 8, 2), StridedRange::new(2, 8, 2)),
            (StridedRange::new(0, 10, 3), StridedRange::new(1, 10, 5)),
            (StridedRange::new(5, 1, 1), StridedRange::new(0, 10, 3)),
            (StridedRange::new(0, 20, 1), StridedRange::new(4, 4, 4)),
            (StridedRange::new(10, 5, -2), StridedRange::new(1, 9, 1)),
        ];
        for (a, b) in cases {
            check_exact(a, b).unwrap();
            check_exact(b, a).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn matches_brute_force(
            s1 in -20i128..20, n1 in 0i128..12, t1 in -6i128..6,
            s2 in -20i128..20, n2 in 0i128..12, t2 in -6i128..6,
        ) {
            let r1 = StridedRange::new(s1, n1, t1);
            let r2 = StridedRange::new(s2, n2, t2);
            if let Err(msg) = check_exact(r1, r2) {
                prop_assert!(false, "{}", msg);
            }
        }

        #[test]
        fn large_ranges_dont_overflow(
            s1 in -1_000_000i128..1_000_000, t1 in 1i128..1000,
            s2 in -1_000_000i128..1_000_000, t2 in 1i128..1000,
        ) {
            let r1 = StridedRange::new(s1, 1_000_000, t1);
            let r2 = StridedRange::new(s2, 1_000_000, t2);
            // Must not panic, and any witness must lie in both ranges.
            let shared = intersect(r1, r2);
            if !shared.is_empty() {
                for r in [r1, r2] {
                    let d = shared.start - r.start;
                    prop_assert!(d % r.step == 0 && (0..r.count).contains(&(d / r.step)));
                }
            }
        }
    }
}
