//! Lowered stencil kernels.

use snowflake_grid::Region;

use crate::bytecode::Program;

/// A cursor class: every read sharing a `(grid, scale)` pair advances one
/// linear cursor. The executor initializes the cursor to
/// `Σ_d scale_d · p_d · stride_d` for the region's first point and bumps it
/// by `scale_d · region_stride_d · stride_d` when dimension `d` steps.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessClass {
    /// Dense grid index (into the lowering's `grid_names`).
    pub grid: usize,
    /// Per-dimension access scale.
    pub scale: Vec<i64>,
    /// Row-major element strides of the grid.
    pub strides: Vec<usize>,
}

impl AccessClass {
    /// Linear cursor value at iteration point `p`.
    // Scaled points and row-major strides index validated allocations;
    // the verifier proves the products fit the address space.
    #[allow(clippy::cast_possible_truncation)]
    pub fn cursor_at(&self, p: &[i64]) -> isize {
        (0..p.len())
            .map(|d| (self.scale[d] * p[d]) as isize * self.strides[d] as isize)
            .sum()
    }

    /// Cursor increment when dimension `d` advances by `region_stride`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn step(&self, d: usize, region_stride: i64) -> isize {
        (self.scale[d] * region_stride) as isize * self.strides[d] as isize
    }
}

/// One stencil, fully lowered for a concrete set of shapes.
#[derive(Clone, Debug)]
pub struct LoweredKernel {
    /// Stencil name (diagnostics, generated-code comments).
    pub name: String,
    /// Iteration-space rank.
    pub ndim: usize,
    /// Cursor classes used by the program and the output access.
    pub classes: Vec<AccessClass>,
    /// Class of the output access.
    pub out_class: u32,
    /// Constant delta of the output access.
    pub out_delta: isize,
    /// The arithmetic program producing the value to store.
    pub program: Program,
    /// The closed form of `program` (linear or tape), attached by the
    /// backends' specialization pass to every kernel. `None` only straight
    /// out of [`lower_group`](crate::lower_group).
    pub spec: Option<crate::spec::SpecKernel>,
    /// Resolved iteration regions (one per member of the domain union).
    pub regions: Vec<Region>,
    /// May iterations run concurrently (Diophantine verdict)?
    pub parallel_safe: bool,
    /// Dense index of the output grid.
    pub out_grid: usize,
}

impl LoweredKernel {
    /// The kernel's closed form.
    ///
    /// # Panics
    /// If the specialization pass has not run on this kernel.
    pub fn closed_form(&self) -> &crate::spec::SpecKernel {
        self.spec
            .as_ref()
            .expect("specialize_lowered attaches a closed form to every kernel")
    }

    /// Total iteration points across the union.
    pub fn num_points(&self) -> u64 {
        self.regions.iter().map(|r| r.num_points()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_math() {
        let c = AccessClass {
            grid: 0,
            scale: vec![1, 1],
            strides: vec![8, 1],
        };
        assert_eq!(c.cursor_at(&[2, 3]), 19);
        assert_eq!(c.step(0, 1), 8);
        assert_eq!(c.step(1, 2), 2);
    }

    #[test]
    fn scaled_cursor_math() {
        // Restriction class: scale 2 on a fine grid with strides [16, 1].
        let c = AccessClass {
            grid: 1,
            scale: vec![2, 2],
            strides: vec![16, 1],
        };
        // Coarse point (1, 3) reads fine (2, 6): 2*16 + 6 = 38.
        assert_eq!(c.cursor_at(&[1, 3]), 38);
        // Stepping the coarse column by 1 moves the fine cursor by 2.
        assert_eq!(c.step(1, 1), 2);
        assert_eq!(c.step(0, 1), 32);
    }
}
