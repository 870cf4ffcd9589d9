//! The modified STREAM benchmark (Figure 6 of the paper).
//!
//! ```c
//! #pragma omp parallel for reduction(+:beta)
//! for (j = 0; j < N; j++)
//!     beta += a[j] * b[j];
//! ```
//!
//! Two read streams, one scalar reduction: the read-dominated pattern
//! endemic to stencils. We run the same kernel with rayon's parallel
//! reduction, take the best of several timed repetitions after an untimed
//! warm-up (the paper's protocol), and report bytes/second.

use std::time::Instant;

use rayon::prelude::*;

/// Result of a bandwidth measurement.
#[derive(Clone, Copy, Debug)]
pub struct StreamResult {
    /// Elements per array.
    pub n: usize,
    /// Best observed bandwidth in bytes/second.
    pub bytes_per_sec: f64,
    /// The reduction value (returned so the work cannot be optimized out).
    pub checksum: f64,
}

impl StreamResult {
    /// Bandwidth in GB/s (10⁹ bytes per second, STREAM convention).
    pub fn gbs(&self) -> f64 {
        self.bytes_per_sec / 1e9
    }
}

/// One dot-product pass over the two arrays (parallel reduction).
pub fn dot_pass(a: &[f64], b: &[f64]) -> f64 {
    a.par_iter().zip(b.par_iter()).map(|(&x, &y)| x * y).sum()
}

/// Measure read bandwidth with the modified-STREAM dot kernel.
///
/// `n` is the per-array element count (use an array size far larger than
/// the last-level cache for a DRAM figure), `reps` the number of timed
/// passes (best is reported) after one untimed warm-up pass.
pub fn measure_dot_bandwidth(n: usize, reps: usize) -> StreamResult {
    assert!(n > 0 && reps > 0);
    let a: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let b: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64).collect();
    // Untimed warm-up (faults pages, warms caches & the rayon pool).
    let mut checksum = dot_pass(&a, &b);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        checksum += dot_pass(&a, &b);
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
    }
    let bytes = (2 * n * std::mem::size_of::<f64>()) as f64;
    StreamResult {
        n,
        bytes_per_sec: bytes / best,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_pass_is_a_dot_product() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot_pass(&a, &b), 32.0);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let n = 10_000;
        let a: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.25).collect();
        let b: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.5).collect();
        let p = dot_pass(&a, &b);
        let s: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        assert!((p - s).abs() < 1e-6 * s.abs().max(1.0));
    }

    #[test]
    fn measurement_reports_positive_bandwidth() {
        let r = measure_dot_bandwidth(1 << 16, 2);
        assert!(r.bytes_per_sec > 0.0);
        assert!(r.gbs() > 0.0);
        assert!(r.checksum.is_finite());
        assert_eq!(r.n, 1 << 16);
    }
}
