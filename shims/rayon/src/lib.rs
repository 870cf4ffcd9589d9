//! A hermetic, dependency-free stand-in for the subset of [rayon] this
//! workspace uses, built on `std::thread::scope`.
//!
//! The container building this repo has no registry access, so the real
//! rayon cannot be fetched; this shim keeps the same API shape (traits in
//! a `prelude`, `par_iter` / `par_iter_mut` / `into_par_iter`, the
//! `for_each` / `map` / `zip` / `enumerate` / `sum` adapters, and
//! [`current_num_threads`]) with genuinely parallel execution: sources are
//! indexed, split into per-thread chunks, and driven on scoped threads.
//!
//! Semantics match rayon where the workspace depends on them:
//! * `for_each` runs every item exactly once, concurrently, and joins
//!   before returning (the "barrier" the backends rely on);
//! * `sum` reduces per-chunk partials then folds them (floating-point
//!   reassociation is allowed, exactly as with rayon);
//! * single-CPU machines (or length-≤1 inputs) degrade to inline
//!   sequential execution with no thread spawns.
//!
//! [rayon]: https://docs.rs/rayon

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Number of worker threads a parallel operation may use: a positive
/// `RAYON_NUM_THREADS`, as with rayon's global pool, otherwise the
/// machine's available parallelism. Read once per process, as rayon sizes
/// its pool once.
pub fn current_num_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        threads_from_env(std::env::var("RAYON_NUM_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Parse a `RAYON_NUM_THREADS` value: a positive integer, else `None`.
fn threads_from_env(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n| n > 0)
}

/// The traits user code imports with `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator,
    };
}

/// An indexed parallel iterator: a fixed-length source whose items can be
/// produced independently per index, plus the adapters the workspace uses.
///
/// Unlike rayon's producer/consumer machinery, this shim drives every
/// pipeline through `(length, get_unchecked)` — enough for slices, ranges
/// and their `map`/`zip`/`enumerate` compositions.
pub trait ParallelIterator: Sized {
    /// Item produced per index.
    type Item: Send;

    /// Number of items.
    fn length(&self) -> usize;

    /// Produce the item at `index`.
    ///
    /// # Safety
    /// `index < self.length()`, and each index must be consumed at most
    /// once across all threads (mutable sources hand out `&mut` items).
    unsafe fn get_unchecked(&self, index: usize) -> Self::Item;

    /// Run `f` on every item, in parallel; returns after all items are
    /// processed (a full barrier, as in rayon).
    fn for_each<F>(self, f: F)
    where
        Self: Sync,
        F: Fn(Self::Item) + Sync,
    {
        let n = self.length();
        run_chunked(n, &|lo, hi| {
            for i in lo..hi {
                // SAFETY: chunks partition 0..n; each index visited once.
                f(unsafe { self.get_unchecked(i) });
            }
        });
    }

    /// Map each item through `f`.
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Pair each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Zip with another parallel iterator (length = the shorter of the
    /// two, as with standard iterators).
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Sum all items (per-chunk partial sums folded at the end).
    fn sum<S>(self) -> S
    where
        Self: Sync,
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let n = self.length();
        let partials = std::sync::Mutex::new(Vec::<S>::new());
        run_chunked(n, &|lo, hi| {
            // SAFETY: chunks partition 0..n; each index visited once.
            let part: S = (lo..hi).map(|i| unsafe { self.get_unchecked(i) }).sum();
            partials.lock().unwrap().push(part);
        });
        partials.into_inner().unwrap().into_iter().sum()
    }
}

/// Split `0..n` into one contiguous chunk per available thread and run
/// `body(lo, hi)` for each chunk on scoped threads; inline when threading
/// cannot help.
fn run_chunked(n: usize, body: &(dyn Fn(usize, usize) + Sync)) {
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        body(0, n);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for t in 1..threads {
            let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));
            if lo >= hi {
                break;
            }
            scope.spawn(move || body(lo, hi));
        }
        // The first chunk runs on the calling thread.
        body(0, chunk.min(n));
    });
}

/// By-reference parallel iteration (`.par_iter()`).
pub trait IntoParallelRefIterator<'data> {
    /// The iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrowed item type.
    type Item: Send + 'data;
    /// Parallel iterator over `&self`.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = ParSlice<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = ParSlice<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

/// By-mutable-reference parallel iteration (`.par_iter_mut()`).
pub trait IntoParallelRefMutIterator<'data> {
    /// The iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Mutably borrowed item type.
    type Item: Send + 'data;
    /// Parallel iterator over `&mut self`.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Iter = ParSliceMut<'data, T>;
    type Item = &'data mut T;
    fn par_iter_mut(&'data mut self) -> ParSliceMut<'data, T> {
        ParSliceMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: PhantomData,
        }
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Iter = ParSliceMut<'data, T>;
    type Item = &'data mut T;
    fn par_iter_mut(&'data mut self) -> ParSliceMut<'data, T> {
        self.as_mut_slice().par_iter_mut()
    }
}

/// By-value parallel iteration (`.into_par_iter()`).
pub trait IntoParallelIterator {
    /// The iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item: Send;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    type Item = usize;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

impl IntoParallelIterator for RangeInclusive<usize> {
    type Iter = ParRange;
    type Item = usize;
    fn into_par_iter(self) -> ParRange {
        let (start, end) = (*self.start(), *self.end());
        ParRange {
            start,
            len: if start <= end { end - start + 1 } else { 0 },
        }
    }
}

/// Parallel iterator over a shared slice.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;
    fn length(&self) -> usize {
        self.slice.len()
    }
    unsafe fn get_unchecked(&self, index: usize) -> &'a T {
        self.slice.get_unchecked(index)
    }
}

/// Parallel iterator over a mutable slice (each index yielded once, so the
/// `&mut` items never alias).
pub struct ParSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the driver hands each index to exactly one thread, so distinct
// threads receive references to distinct elements.
unsafe impl<T: Send> Sync for ParSliceMut<'_, T> {}
unsafe impl<T: Send> Send for ParSliceMut<'_, T> {}

impl<'a, T: Send + 'a> ParallelIterator for ParSliceMut<'a, T> {
    type Item = &'a mut T;
    fn length(&self) -> usize {
        self.len
    }
    unsafe fn get_unchecked(&self, index: usize) -> &'a mut T {
        &mut *self.ptr.add(index)
    }
}

/// Parallel iterator over a `usize` range.
pub struct ParRange {
    start: usize,
    len: usize,
}

impl ParallelIterator for ParRange {
    type Item = usize;
    fn length(&self) -> usize {
        self.len
    }
    unsafe fn get_unchecked(&self, index: usize) -> usize {
        self.start + index
    }
}

/// Adapter: map each item through a function.
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync,
    R: Send,
{
    type Item = R;
    fn length(&self) -> usize {
        self.base.length()
    }
    unsafe fn get_unchecked(&self, index: usize) -> R {
        (self.f)(self.base.get_unchecked(index))
    }
}

/// Adapter: pair items with their indices.
pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn length(&self) -> usize {
        self.base.length()
    }
    unsafe fn get_unchecked(&self, index: usize) -> (usize, I::Item) {
        (index, self.base.get_unchecked(index))
    }
}

/// Adapter: lockstep pairing of two iterators.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn length(&self) -> usize {
        self.a.length().min(self.b.length())
    }
    unsafe fn get_unchecked(&self, index: usize) -> (A::Item, B::Item) {
        (self.a.get_unchecked(index), self.b.get_unchecked(index))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn thread_count_env_accepts_only_positive_integers() {
        use super::threads_from_env;
        assert_eq!(threads_from_env(Some("2")), Some(2));
        assert_eq!(threads_from_env(Some(" 16 ")), Some(16));
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("-3")), None);
        assert_eq!(threads_from_env(Some("two")), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(None), None);
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        (0..1000usize).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn inclusive_range_covers_both_ends() {
        let sum = std::sync::Mutex::new(0usize);
        (1..=10usize).into_par_iter().for_each(|i| {
            *sum.lock().unwrap() += i;
        });
        assert_eq!(*sum.lock().unwrap(), 55);
    }

    #[test]
    fn zip_map_sum_is_a_dot_product() {
        let a: Vec<f64> = (0..257).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..257).map(|i| (i % 3) as f64).collect();
        let par: f64 = a.par_iter().zip(b.par_iter()).map(|(&x, &y)| x * y).sum();
        let seq: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        assert!((par - seq).abs() < 1e-9);
    }

    #[test]
    fn par_iter_mut_enumerate_writes_disjoint_slots() {
        let mut v = vec![0usize; 513];
        v.par_iter_mut()
            .enumerate()
            .for_each(|(i, slot)| *slot = i * 2);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn empty_inputs_are_fine() {
        let v: Vec<u32> = Vec::new();
        v.par_iter().for_each(|_| panic!("no items expected"));
        let s: u32 = v.par_iter().map(|&x| x).sum();
        assert_eq!(s, 0);
    }
}
