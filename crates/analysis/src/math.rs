//! Integer arithmetic primitives: extended GCD and ceiling division, the
//! tools the paper's SymPy layer provides.
//!
//! Everything is computed in `i128` so that products of grid extents,
//! strides and access scales cannot overflow for any realistic mesh.

/// Extended greatest common divisor.
///
/// Returns `(g, x, y)` with `g = gcd(|a|, |b|) >= 0` and `a·x + b·y = g`.
/// `egcd(0, 0)` returns `(0, 0, 0)`.
pub fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        if a == 0 {
            (0, 0, 0)
        } else if a > 0 {
            (a, 1, 0)
        } else {
            (-a, -1, 0)
        }
    } else {
        let (g, x, y) = egcd(b, a.rem_euclid(b));
        // a = q*b + r with r = a.rem_euclid(b), q = (a - r) / b
        let q = (a - a.rem_euclid(b)) / b;
        (g, y, x - q * y)
    }
}

/// Ceiling division: the smallest `q` with `q * b >= a`. Panics on `b == 0`.
pub fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Narrow an `i128` intermediate back to a grid coordinate. Coordinates
/// are images of `i64` points under `i64` affine maps; the `i128`
/// widening only keeps intermediate products overflow-free.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn coord(v: i128) -> i64 {
    v as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn egcd_basics() {
        assert_eq!(egcd(0, 0), (0, 0, 0));
        let (g, x, y) = egcd(12, 18);
        assert_eq!(g, 6);
        assert_eq!(12 * x + 18 * y, 6);
        let (g, x, y) = egcd(-12, 18);
        assert_eq!(g, 6);
        assert_eq!(-12 * x + 18 * y, 6);
        let (g, x, y) = egcd(7, 0);
        assert_eq!((g, 7 * x), (7, 7));
        assert_eq!(y, 0);
        let (g, x, _) = egcd(-7, 0);
        assert_eq!((g, -7 * x), (7, 7));
    }

    #[test]
    fn div_ceil_examples() {
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(7, -2), -3);
        assert_eq!(div_ceil(-7, -2), 4);
        assert_eq!(div_ceil(6, 3), 2);
    }

    proptest! {
        #[test]
        fn egcd_identity_holds(a in -10_000i128..10_000, b in -10_000i128..10_000) {
            let (g, x, y) = egcd(a, b);
            prop_assert_eq!(a * x + b * y, g);
            if a != 0 || b != 0 {
                prop_assert!(g > 0);
                prop_assert_eq!(a % g, 0);
                prop_assert_eq!(b % g, 0);
            }
        }

        #[test]
        fn div_ceil_is_ceil(a in -1_000i128..1_000, b in -50i128..50) {
            prop_assume!(b != 0);
            let q = div_ceil(a, b);
            // Ceiling division: q*b - a lies in [0, b) for b > 0 and in
            // (b, 0] for b < 0.
            let r = q * b - a;
            if b > 0 {
                prop_assert!(r >= 0 && r < b);
            } else {
                prop_assert!(r <= 0 && r > b);
            }
        }
    }
}
