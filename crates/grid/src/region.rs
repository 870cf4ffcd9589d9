//! Strided hyper-rectangular index regions.
//!
//! A [`Region`] is the runtime counterpart of a *resolved* DSL `RectDomain`:
//! concrete per-dimension ranges `lo, lo+s, lo+2s, … < hi`. The interpreter
//! backend and many tests iterate regions point-by-point; the optimizing
//! backends tile them.

/// A concrete strided hyper-rectangle of grid indices.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Region {
    /// Inclusive lower bound per dimension.
    pub lo: Vec<i64>,
    /// Exclusive upper bound per dimension.
    pub hi: Vec<i64>,
    /// Positive stride per dimension.
    pub stride: Vec<i64>,
}

impl Region {
    /// Construct a region.
    ///
    /// # Panics
    /// Panics if rank is inconsistent or any stride is non-positive.
    pub fn new(lo: Vec<i64>, hi: Vec<i64>, stride: Vec<i64>) -> Self {
        assert!(
            lo.len() == hi.len() && hi.len() == stride.len(),
            "region rank mismatch: lo={lo:?} hi={hi:?} stride={stride:?}"
        );
        assert!(
            stride.iter().all(|&s| s > 0),
            "region strides must be positive, got {stride:?}"
        );
        Region { lo, hi, stride }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.lo.len()
    }

    /// Number of points along dimension `d` (zero when empty).
    pub fn extent(&self, d: usize) -> i64 {
        if self.hi[d] <= self.lo[d] {
            0
        } else {
            (self.hi[d] - self.lo[d] + self.stride[d] - 1) / self.stride[d]
        }
    }

    /// Total number of points in the region.
    pub fn num_points(&self) -> u64 {
        (0..self.ndim()).map(|d| self.extent(d) as u64).product()
    }

    /// True when the region contains no points.
    pub fn is_empty(&self) -> bool {
        (0..self.ndim()).any(|d| self.extent(d) == 0)
    }

    /// Does the region contain the point `p`?
    pub fn contains(&self, p: &[i64]) -> bool {
        p.len() == self.ndim()
            && (0..self.ndim()).all(|d| {
                p[d] >= self.lo[d] && p[d] < self.hi[d] && (p[d] - self.lo[d]) % self.stride[d] == 0
            })
    }

    /// Iterate all points in row-major order.
    pub fn points(&self) -> RegionIter<'_> {
        RegionIter {
            region: self,
            cur: if self.is_empty() {
                None
            } else {
                Some(self.lo.clone())
            },
        }
    }
}

/// Row-major point iterator over a [`Region`].
pub struct RegionIter<'a> {
    region: &'a Region,
    cur: Option<Vec<i64>>,
}

impl Iterator for RegionIter<'_> {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        let cur = self.cur.as_mut()?;
        let out = cur.clone();
        // Odometer increment.
        let r = self.region;
        let mut d = r.ndim();
        loop {
            if d == 0 {
                self.cur = None;
                break;
            }
            d -= 1;
            cur[d] += r.stride[d];
            if cur[d] < r.hi[d] {
                break;
            }
            cur[d] = r.lo[d];
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: &[i64], hi: &[i64], s: &[i64]) -> Region {
        Region::new(lo.to_vec(), hi.to_vec(), s.to_vec())
    }

    #[test]
    fn extent_and_count() {
        let reg = r(&[1, 1], &[7, 8], &[2, 3]);
        assert_eq!(reg.extent(0), 3); // 1,3,5
        assert_eq!(reg.extent(1), 3); // 1,4,7
        assert_eq!(reg.num_points(), 9);
        assert!(!reg.is_empty());
    }

    #[test]
    fn empty_region() {
        let reg = r(&[5], &[5], &[1]);
        assert!(reg.is_empty());
        assert_eq!(reg.points().count(), 0);
        assert_eq!(reg.num_points(), 0);
    }

    #[test]
    fn points_row_major_strided() {
        let reg = r(&[0, 1], &[4, 4], &[2, 2]);
        let pts: Vec<_> = reg.points().collect();
        assert_eq!(pts, vec![vec![0, 1], vec![0, 3], vec![2, 1], vec![2, 3]]);
    }

    #[test]
    fn contains_respects_stride_and_bounds() {
        let reg = r(&[1, 1], &[9, 9], &[2, 2]);
        assert!(reg.contains(&[3, 5]));
        assert!(!reg.contains(&[2, 5])); // off-stride
        assert!(!reg.contains(&[3, 9])); // out of bounds
        assert!(!reg.contains(&[0, 1])); // below lo
    }

    #[test]
    fn iterator_count_matches_num_points() {
        let reg = r(&[0, 0, 0], &[3, 4, 5], &[1, 2, 3]);
        assert_eq!(reg.points().count() as u64, reg.num_points());
    }
}
