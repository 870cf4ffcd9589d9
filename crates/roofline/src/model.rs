//! The Roofline performance bound for stencil operators (§V-B).
//!
//! For each operator the paper counts the *asymptotic compulsory memory
//! traffic per stencil application* — assuming no capacity/conflict misses
//! and a write-allocate cache (store misses read the line first):
//!
//! | Operator | Traffic | Accounting |
//! |---|---|---|
//! | CC 7-point Laplacian | 24 B | read x (8) + write-allocate y (8) + write y (8) |
//! | CC Jacobi | 40 B | read x, rhs (16) + write-allocate + write x_next (16) + amortized extras (8) |
//! | VC GSRB | 64 B | read x, rhs, dinv, βx, βy, βz at the updated points + write-allocate + write x |
//!
//! (24/40/64 are the paper's figures; we adopt them verbatim.) The bound
//! in stencils/second is `bandwidth / bytes_per_stencil`.

/// The three operators Figure 7/8 qualify against the Roofline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StencilKind {
    /// Constant-coefficient 7-point Laplacian application.
    Cc7pt,
    /// Constant-coefficient weighted-Jacobi smooth.
    CcJacobi,
    /// Variable-coefficient Gauss-Seidel red-black smooth.
    VcGsrb,
}

impl StencilKind {
    /// Compulsory DRAM traffic per stencil application, in bytes (the
    /// paper's 24/40/64).
    pub fn bytes_per_stencil(&self) -> f64 {
        match self {
            StencilKind::Cc7pt => 24.0,
            StencilKind::CcJacobi => 40.0,
            StencilKind::VcGsrb => 64.0,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            StencilKind::Cc7pt => "CC 7pt Stencil",
            StencilKind::CcJacobi => "CC Jacobi",
            StencilKind::VcGsrb => "VC GSRB",
        }
    }

    /// All kinds in figure order.
    pub fn all() -> [StencilKind; 3] {
        [
            StencilKind::Cc7pt,
            StencilKind::CcJacobi,
            StencilKind::VcGsrb,
        ]
    }
}

/// A Roofline model parameterized by measured bandwidth.
#[derive(Clone, Copy, Debug)]
pub struct Roofline {
    /// Sustained read-dominated bandwidth, bytes/second.
    pub bytes_per_sec: f64,
}

impl Roofline {
    /// Model from a bandwidth in bytes/second.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        Roofline { bytes_per_sec }
    }

    /// Speed-of-light bound in stencils/second for an operator.
    pub fn bound_stencils_per_sec(&self, kind: StencilKind) -> f64 {
        self.bytes_per_sec / kind.bytes_per_stencil()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_byte_counts() {
        assert_eq!(StencilKind::Cc7pt.bytes_per_stencil(), 24.0);
        assert_eq!(StencilKind::CcJacobi.bytes_per_stencil(), 40.0);
        assert_eq!(StencilKind::VcGsrb.bytes_per_stencil(), 64.0);
    }

    #[test]
    fn paper_cpu_roofline_reproduced() {
        // The paper's CPU: 22.2 GB/s STREAM → 22.2e9/24 ≈ 0.925 G
        // stencils/s for the CC 7-pt operator — consistent with the ~0.9
        // roofline bar in Figure 7.
        let r = Roofline::new(22.2e9);
        let bound = r.bound_stencils_per_sec(StencilKind::Cc7pt);
        assert!((bound - 0.925e9).abs() / 0.925e9 < 0.01);
        // GPU: 127 GB/s → VC GSRB bound ≈ 1.98 G stencils/s.
        let g = Roofline::new(127e9);
        let bound = g.bound_stencils_per_sec(StencilKind::VcGsrb);
        assert!((bound - 1.984e9).abs() / 1.984e9 < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        Roofline::new(0.0);
    }
}
