//! Raw grid views shared across kernel worker threads.
//!
//! Compiled kernels write through raw pointers because several threads may
//! update disjoint cells of the *same* grid (in-place stencils), which the
//! borrow checker cannot express with `&mut` splitting across strided
//! lattices. Safety rests on two compile-time guarantees:
//!
//! 1. **Bounds**: `Stencil::validate` proves every access of every domain
//!    point lies inside its grid, so `ptr.offset(idx)` is always in
//!    bounds (debug builds re-check against `lens`).
//! 2. **Races**: the Diophantine analysis proves that concurrently
//!    executed iterations never write a cell another iteration touches
//!    (kernels failing the proof run sequentially, and barrier phases
//!    separate dependent kernels).
//!
//! This is the same contract the paper's generated C/OpenMP code relies
//! on — there the compiler emits the pointer arithmetic directly.

/// A table of raw grid base pointers (dense lowered order) shareable
/// across threads for the duration of one executable run.
#[derive(Clone, Copy)]
pub struct GridPtrs<'a> {
    ptrs: &'a [*mut f64],
    lens: &'a [usize],
}

// SAFETY: see module docs — disjointness of concurrent accesses is
// established statically by the analysis before any thread is spawned, and
// the pointers outlive every worker because `run` borrows the GridSet
// mutably for the whole call.
unsafe impl Send for GridPtrs<'_> {}
unsafe impl Sync for GridPtrs<'_> {}

impl<'a> GridPtrs<'a> {
    /// Wrap pointer and length tables.
    pub fn new(ptrs: &'a [*mut f64], lens: &'a [usize]) -> Self {
        GridPtrs { ptrs, lens }
    }

    /// Number of grids.
    pub fn len(&self) -> usize {
        self.ptrs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ptrs.is_empty()
    }

    /// Read element `idx` of grid `grid`.
    ///
    /// # Safety
    /// `idx` must be in bounds for the grid (guaranteed by stencil
    /// validation for indices produced by lowered kernels).
    #[inline(always)]
    pub unsafe fn read(&self, grid: usize, idx: isize) -> f64 {
        debug_assert!(
            idx >= 0 && (idx as usize) < self.lens[grid],
            "read out of bounds: grid {grid} idx {idx} len {}",
            self.lens[grid]
        );
        *self.ptrs[grid].offset(idx)
    }

    /// Borrow `len` contiguous elements of grid `grid` starting at `start`.
    ///
    /// # Safety
    /// The range must be in bounds and not concurrently written by any
    /// other thread (both established by the analysis for vectorized rows).
    #[inline(always)]
    pub unsafe fn row(&self, grid: usize, start: isize, len: usize) -> &[f64] {
        debug_assert!(
            start >= 0 && (start as usize) + len <= self.lens[grid],
            "row out of bounds: grid {grid} start {start} len {len}"
        );
        std::slice::from_raw_parts(self.ptrs[grid].offset(start), len)
    }

    /// Mutably borrow `len` contiguous elements of grid `grid`.
    ///
    /// # Safety
    /// As [`GridPtrs::row`], and the caller must be the only accessor of
    /// the range for the borrow's duration.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, grid: usize, start: isize, len: usize) -> &mut [f64] {
        debug_assert!(
            start >= 0 && (start as usize) + len <= self.lens[grid],
            "row_mut out of bounds: grid {grid} start {start} len {len}"
        );
        std::slice::from_raw_parts_mut(self.ptrs[grid].offset(start), len)
    }

    /// Raw pointer to element `start` of grid `grid`, the first of `len`
    /// elements `step` apart.
    ///
    /// # Safety
    /// Those `len` elements must be in bounds; accesses through the
    /// pointer carry the obligations of [`GridPtrs::read`] and
    /// [`GridPtrs::write`].
    #[inline(always)]
    pub unsafe fn at(&self, grid: usize, start: isize, step: isize, len: usize) -> *mut f64 {
        debug_assert!(
            len == 0 || {
                let last = start + (len as isize - 1) * step;
                start.min(last) >= 0 && (start.max(last) as usize) < self.lens[grid]
            },
            "range out of bounds: grid {grid} start {start} step {step} len {len}"
        );
        self.ptrs[grid].offset(start)
    }

    /// Write element `idx` of grid `grid`.
    ///
    /// # Safety
    /// `idx` must be in bounds, and no other thread may concurrently
    /// access the same element (guaranteed by the dependence analysis).
    #[inline(always)]
    pub unsafe fn write(&self, grid: usize, idx: isize, v: f64) {
        debug_assert!(
            idx >= 0 && (idx as usize) < self.lens[grid],
            "write out of bounds: grid {grid} idx {idx} len {}",
            self.lens[grid]
        );
        *self.ptrs[grid].offset(idx) = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_grid::{Grid, GridSet};

    /// Every grid's storage, in insertion order.
    fn raw_ptrs(set: &mut GridSet) -> Vec<*mut f64> {
        let names = set.names().to_vec();
        names
            .iter()
            .map(|n| set.get_mut(n).unwrap().as_mut_ptr())
            .collect()
    }

    #[test]
    fn read_write_roundtrip() {
        let mut set = GridSet::new();
        set.insert("a", Grid::new(&[4]));
        set.insert("b", Grid::new(&[4]));
        let ptrs = raw_ptrs(&mut set);
        let lens = vec![4usize, 4];
        let view = GridPtrs::new(&ptrs, &lens);
        unsafe {
            view.write(0, 2, 5.0);
            view.write(1, 0, -1.0);
            assert_eq!(view.read(0, 2), 5.0);
            assert_eq!(view.read(1, 0), -1.0);
        }
        drop(ptrs);
        assert_eq!(set.get("a").unwrap().get(&[2]), 5.0);
        assert_eq!(set.get("b").unwrap().get(&[0]), -1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn debug_bounds_check_fires() {
        let mut set = GridSet::new();
        set.insert("a", Grid::new(&[4]));
        let ptrs = raw_ptrs(&mut set);
        let lens = vec![4usize];
        let view = GridPtrs::new(&ptrs, &lens);
        unsafe {
            view.read(0, 9);
        }
    }
}
