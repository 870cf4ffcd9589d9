//! The [`Grid`] type: an owned, row-major N-dimensional array of `f64`.

use crate::rng::SplitMix64;
use crate::MAX_DIMS;

/// An owned, dense, row-major N-dimensional array of `f64` values.
///
/// This is the "mesh" the Snowflake paper's stencils operate on. Ghost zones
/// are not special: a grid that needs a 1-cell halo is simply allocated with
/// `n + 2` cells per side, and the DSL's relative domain bounds address the
/// interior as `(1, -1)`.
///
/// Indexing is row-major (C order): the last dimension is contiguous.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid {
    shape: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f64>,
}

/// Compute row-major strides for a shape.
pub fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * shape[d + 1];
    }
    strides
}

impl Grid {
    /// Allocate a zero-filled grid with the given shape.
    ///
    /// # Panics
    /// Panics if the shape is empty, has more than [`MAX_DIMS`] dimensions,
    /// or contains a zero extent.
    pub fn new(shape: &[usize]) -> Self {
        assert!(
            !shape.is_empty() && shape.len() <= MAX_DIMS,
            "grid rank must be in 1..={MAX_DIMS}, got {}",
            shape.len()
        );
        assert!(
            shape.iter().all(|&n| n > 0),
            "grid extents must be positive, got {shape:?}"
        );
        let len: usize = shape.iter().product();
        Grid {
            shape: shape.to_vec(),
            strides: row_major_strides(shape),
            data: vec![0.0; len],
        }
    }

    /// Allocate a grid and fill it point-wise from a function of the index.
    #[inline]
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut g = Grid::new(shape);
        let mut idx = vec![0usize; shape.len()];
        for lin in 0..g.data.len() {
            g.data[lin] = f(&idx);
            // Odometer increment in row-major order.
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
            let _ = lin;
        }
        g
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Extents per dimension.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Row-major strides (in elements) per dimension.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid has zero elements (cannot occur for constructed
    /// grids, but required by clippy's `len_without_is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view of the underlying storage (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view of the underlying storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Raw mutable pointer to element 0. Used by the kernel executors, which
    /// guarantee in-bounds access via compile-time domain/offset checking.
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.data.as_mut_ptr()
    }

    /// Linearize a multi-index.
    ///
    /// # Panics
    /// Debug-panics when the index rank mismatches or is out of bounds.
    #[inline]
    pub fn linear(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut lin = 0usize;
        for d in 0..idx.len() {
            debug_assert!(
                idx[d] < self.shape[d],
                "index {idx:?} out of bounds for shape {:?}",
                self.shape
            );
            lin += idx[d] * self.strides[d];
        }
        lin
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.linear(idx)]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let lin = self.linear(idx);
        self.data[lin] = v;
    }

    /// Fill every element with a constant.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Fill with deterministic pseudo-random values in `[lo, hi)`.
    pub fn fill_random(&mut self, seed: u64, lo: f64, hi: f64) {
        let mut rng = SplitMix64::new(seed);
        for x in &mut self.data {
            *x = rng.next_range(lo, hi);
        }
    }

    /// Euclidean (L2) norm over all elements.
    pub fn norm_l2(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Dot product with another grid of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn dot(&self, other: &Grid) -> f64 {
        assert_eq!(self.shape, other.shape, "dot: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Element-wise maximum absolute difference with another grid of the
    /// same shape. Used to compare backend outputs.
    pub fn max_abs_diff(&self, other: &Grid) -> f64 {
        assert_eq!(self.shape, other.shape, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        assert_eq!(row_major_strides(&[4, 5, 6]), vec![30, 6, 1]);
        assert_eq!(row_major_strides(&[7]), vec![1]);
        assert_eq!(row_major_strides(&[2, 3]), vec![3, 1]);
    }

    #[test]
    fn new_is_zeroed() {
        let g = Grid::new(&[3, 4]);
        assert_eq!(g.len(), 12);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(g.ndim(), 2);
    }

    #[test]
    #[should_panic(expected = "grid extents must be positive")]
    fn zero_extent_rejected() {
        Grid::new(&[3, 0]);
    }

    #[test]
    #[should_panic(expected = "grid rank must be in")]
    fn excess_rank_rejected() {
        Grid::new(&[2, 2, 2, 2, 2]);
    }

    #[test]
    fn from_fn_row_major_order() {
        let g = Grid::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(g.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut g = Grid::new(&[3, 3, 3]);
        g.set(&[1, 2, 0], 7.5);
        assert_eq!(g.get(&[1, 2, 0]), 7.5);
        assert_eq!(g.linear(&[1, 2, 0]), 9 + 6);
    }

    #[test]
    fn norms() {
        let mut g = Grid::new(&[2, 2]);
        g.as_mut_slice().copy_from_slice(&[3.0, -4.0, 0.0, 0.0]);
        assert!((g.norm_l2() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn dot_product() {
        let mut a = Grid::new(&[4]);
        let mut b = Grid::new(&[4]);
        a.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        b.as_mut_slice().copy_from_slice(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.dot(&b), 20.0);
    }

    #[test]
    fn fill_random_is_deterministic_and_bounded() {
        let mut a = Grid::new(&[5, 5]);
        let mut b = Grid::new(&[5, 5]);
        a.fill_random(99, -1.0, 2.0);
        b.fill_random(99, -1.0, 2.0);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (-1.0..2.0).contains(&x)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn linear_index_is_bijective(
                shape in proptest::collection::vec(1usize..6, 1..4),
            ) {
                let g = Grid::new(&shape);
                let mut seen = std::collections::HashSet::new();
                let mut idx = vec![0usize; shape.len()];
                for _ in 0..g.len() {
                    prop_assert!(seen.insert(g.linear(&idx)));
                    for d in (0..shape.len()).rev() {
                        idx[d] += 1;
                        if idx[d] < shape[d] {
                            break;
                        }
                        idx[d] = 0;
                    }
                }
                prop_assert_eq!(seen.len(), g.len());
                prop_assert!(seen.iter().all(|&l| l < g.len()));
            }

            #[test]
            fn from_fn_agrees_with_get(
                n0 in 1usize..5, n1 in 1usize..5,
            ) {
                let g = Grid::from_fn(&[n0, n1], |p| (p[0] * 100 + p[1]) as f64);
                for i in 0..n0 {
                    for j in 0..n1 {
                        prop_assert_eq!(g.get(&[i, j]), (i * 100 + j) as f64);
                    }
                }
            }

            #[test]
            fn dot_is_symmetric_and_l2_consistent(
                data in proptest::collection::vec(-10.0f64..10.0, 8),
            ) {
                let mut a = Grid::new(&[8]);
                a.as_mut_slice().copy_from_slice(&data);
                let b = a.clone();
                let d = a.dot(&b);
                prop_assert!((d - b.dot(&a)).abs() < 1e-12);
                prop_assert!((d.sqrt() - a.norm_l2()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let mut a = Grid::new(&[3, 3]);
        a.fill_random(1, 0.0, 1.0);
        let b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }
}
