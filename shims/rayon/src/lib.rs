//! A hermetic, dependency-free stand-in for the subset of [rayon] this
//! workspace uses, driven by a persistent thread-per-core pool.
//!
//! The container building this repo has no registry access, so the real
//! rayon cannot be fetched; this shim keeps the same API shape (traits in
//! a `prelude`, `par_iter` / `par_iter_mut` / `into_par_iter`, the
//! `for_each` / `map` / `zip` / `enumerate` / `sum` adapters, and
//! [`current_num_threads`]) with genuinely parallel execution.
//!
//! The pool is spawned once, on the first parallel call, with
//! `current_num_threads() - 1` workers; the calling thread is the last
//! member of the team. Workers park on a condition variable between jobs
//! (they never spin), so an idle pool costs no CPU time and does not
//! compete with another runtime's threads (the C JIT's OpenMP team). A job
//! is one borrowed share closure: the caller publishes it, wakes the
//! workers, runs the share itself, then waits until every worker that
//! joined has left it. Shares *claim* work from an atomic cursor, so a job
//! is complete whichever members show up — a worker that wakes after the
//! caller has drained the cursor never enters it.
//!
//! Semantics match rayon where the workspace depends on them:
//! * `for_each` runs every item exactly once, concurrently, and joins
//!   before returning (the "barrier" the backends rely on). Items are
//!   claimed in *guided* contiguous blocks of `⌈remaining / (2·threads)⌉`,
//!   which balances uneven items while keeping each block a contiguous
//!   run of indices;
//! * `sum` reduces a *static* contiguous partition (one chunk per thread)
//!   and folds the partials in chunk order, so a float sum is the same
//!   bits on every call whichever thread ran which chunk;
//! * a call made from inside a job runs inline on the calling thread;
//!   concurrent callers on independent threads take turns on the pool;
//! * a panic in any share is re-raised on the caller after every share
//!   has finished, and the pool stays usable;
//! * single-thread configurations (and length-≤1 `for_each` inputs) run
//!   inline and never start the pool.
//!
//! [rayon]: https://docs.rs/rayon

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Number of worker threads a parallel operation may use: a positive
/// `RAYON_NUM_THREADS`, as with rayon's global pool, otherwise the
/// machine's available parallelism. Read once per process, as rayon sizes
/// its pool once.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
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
        run_guided(self.length(), &|lo, hi| {
            for i in lo..hi {
                // SAFETY: guided blocks partition 0..n; each index visited once.
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

    /// Sum all items: one partial sum per static contiguous chunk, folded
    /// in chunk order.
    fn sum<S>(self) -> S
    where
        Self: Sync,
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let n = self.length();
        let chunk = n.div_ceil(current_num_threads()).max(1);
        let chunks = n.div_ceil(chunk).max(1);
        let partials: Vec<Mutex<Option<S>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        run_shares(chunks, &|| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                return;
            }
            let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
            // SAFETY: chunks partition 0..n and each is claimed once.
            let part: S = (lo..hi).map(|i| unsafe { self.get_unchecked(i) }).sum();
            *partials[c].lock().expect("a partial slot is written once") = Some(part);
        });
        partials
            .into_iter()
            .map(|p| {
                p.into_inner()
                    .expect("the pool joins every share before returning")
                    .expect("every chunk was claimed")
            })
            .sum()
    }
}

/// Run `body(lo, hi)` over guided contiguous blocks covering `0..n`
/// exactly once.
fn run_guided(n: usize, body: &(dyn Fn(usize, usize) + Sync)) {
    let divisor = 2 * current_num_threads();
    // The cursor only hands out index ranges; the data the blocks touch
    // is published to and from the workers by the pool's state lock.
    let cursor = AtomicUsize::new(0);
    run_shares(n, &|| {
        let mut lo = cursor.load(Ordering::Relaxed);
        while lo < n {
            let hi = lo + (n - lo).div_ceil(divisor);
            match cursor.compare_exchange_weak(lo, hi, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    body(lo, hi);
                    lo = cursor.load(Ordering::Relaxed);
                }
                Err(current) => lo = current,
            }
        }
    });
}

/// Run `share` on the calling thread and on every pool worker that joins
/// before the caller's own share returns; return once all of them have
/// finished. `share` must claim its `units` of work, so that any number
/// of concurrent invocations, one included, covers the job exactly once.
/// Inline (the caller's share alone) for at most one unit, with a single
/// thread, or when called from inside a job.
fn run_shares(units: usize, share: &(dyn Fn() + Sync)) {
    if units <= 1 || current_num_threads() <= 1 || IN_JOB.get() {
        share();
        return;
    }
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::spawn(current_num_threads() - 1))
        .run(share);
}

thread_local! {
    /// Set on pool workers, and on a caller while it runs its own share:
    /// parallel calls made here run inline instead of re-entering the pool.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Worker threads started by this process; all of them are started on
/// the pool's first use.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// What the caller and the workers coordinate on, under [`Pool::state`].
struct State {
    /// Bumped once per published job; a worker enters each job at most once.
    epoch: u64,
    /// The open job's share, its borrow lifetime erased so that parked
    /// workers can hold it; `None` once its caller has finished its own
    /// share.
    job: Option<&'static (dyn Fn() + Sync)>,
    /// Workers currently inside `job`.
    active: usize,
    /// The first panic raised by a worker's share in the current job.
    panic: Option<Box<dyn Any + Send>>,
}

/// The persistent team: parked workers plus the publish/join protocol.
struct Pool {
    /// Held by a caller for the whole of its job: independent callers take
    /// turns, and each job has the whole team. (So a share must not wait on
    /// another thread's parallel call.)
    submit: Mutex<()>,
    state: Mutex<State>,
    /// Signalled when a job is published.
    work: Condvar,
    /// Signalled when the last active worker leaves a closed job.
    done: Condvar,
}

impl Pool {
    /// Start `workers` parked threads. A worker that fails to start only
    /// shrinks the team: jobs complete with whichever members join.
    fn spawn(workers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            submit: Mutex::new(()),
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                panic: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }));
        for w in 0..workers {
            // Workers live as long as the process and catch every share's
            // panic, so their handles are never joined.
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-{w}"))
                .spawn(move || pool.work_loop());
            if spawned.is_ok() {
                SPAWNED.fetch_add(1, Ordering::Relaxed);
            }
        }
        pool
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("pool state lock: no user code runs while it is held")
    }

    /// A worker's life: park until a new job is published, join it if it
    /// is still open, run the share, leave, repeat.
    fn work_loop(&self) {
        IN_JOB.set(true);
        let mut seen = 0;
        loop {
            let job = {
                let mut st = self.lock();
                while st.epoch == seen {
                    st = self.work.wait(st).expect("pool state lock poisoned");
                }
                seen = st.epoch;
                let Some(job) = st.job else { continue };
                st.active += 1;
                job
            };
            let result = catch_unwind(AssertUnwindSafe(job));
            let mut st = self.lock();
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            st.active -= 1;
            if st.active == 0 && st.job.is_none() {
                self.done.notify_one();
            }
        }
    }

    /// Publish `share`, run it on the caller, close the job and wait for
    /// every worker that joined it; then re-raise the first panic.
    fn run(&self, share: &(dyn Fn() + Sync)) {
        let submit = self
            .submit
            .lock()
            .expect("submit lock: released before any panic is re-raised");
        // SAFETY: the erased borrow outlives every use of it: workers
        // only reach `share` through `State::job`, which is cleared below
        // before waiting until no worker is still inside it, and the
        // caller's own share runs under `catch_unwind`, so even a panic
        // cannot leave this frame before that wait.
        let job =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(share) };
        {
            let mut st = self.lock();
            st.epoch += 1;
            st.job = Some(job);
        }
        self.work.notify_all();
        IN_JOB.set(true);
        let mine = catch_unwind(AssertUnwindSafe(share));
        IN_JOB.set(false);
        let theirs = {
            let mut st = self.lock();
            st.job = None;
            while st.active > 0 {
                st = self.done.wait(st).expect("pool state lock poisoned");
            }
            st.panic.take()
        };
        drop(submit);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            resume_unwind(payload);
        }
    }
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
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier, Mutex};

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
    fn nested_for_each_runs_inline_and_covers_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..16 * 64).map(|_| AtomicUsize::new(0)).collect();
        (0..16usize).into_par_iter().for_each(|i| {
            (0..64usize).into_par_iter().for_each(|j| {
                hits[i * 64 + j].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn independent_callers_each_get_exactly_once_coverage() {
        const CALLERS: usize = 8;
        let start = Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            for _ in 0..CALLERS {
                scope.spawn(|| {
                    let hits: Vec<AtomicUsize> = (0..777).map(|_| AtomicUsize::new(0)).collect();
                    start.wait();
                    for _ in 0..20 {
                        (0..777usize).into_par_iter().for_each(|i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 20));
                });
            }
        });
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_survives() {
        let caller = std::thread::current().id();
        let parallel = super::current_num_threads() > 1;
        // The caller's first item waits until a worker has entered the job,
        // so a worker share is guaranteed to run (and panic).
        let (tx, rx) = mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let waited = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            (0..1000usize).into_par_iter().for_each(|_| {
                if !parallel {
                    panic!("inline share panics");
                }
                if std::thread::current().id() != caller {
                    tx.lock().unwrap().send(()).unwrap();
                    panic!("worker share panics");
                }
                if !waited.swap(true, Ordering::Relaxed) {
                    rx.lock().unwrap().recv().unwrap();
                }
            });
        }));
        let payload = result.expect_err("the share's panic must reach the caller");
        let message = payload.downcast_ref::<&str>().copied();
        let expected = if parallel {
            "worker share panics"
        } else {
            "inline share panics"
        };
        assert_eq!(message, Some(expected));
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        (0..1000usize).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn float_sum_is_the_static_partition_result_on_every_call() {
        let v: Vec<f64> = (0..10_007u64)
            .map(|i| (i * 7919 % 1000) as f64 * 1e-3 + [1e10, -1e10, 0.1][(i % 3) as usize])
            .collect();
        let chunk = v.len().div_ceil(super::current_num_threads());
        let expected: f64 = v.chunks(chunk).map(|c| c.iter().sum::<f64>()).sum();
        for _ in 0..100 {
            let got: f64 = v.par_iter().map(|&x| x).sum();
            assert_eq!(got.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn short_inputs_never_enter_the_pool() {
        let in_job = || super::IN_JOB.get();
        (0..0usize).into_par_iter().for_each(|_| unreachable!());
        (0..1usize).into_par_iter().for_each(|_| assert!(!in_job()));
        // Contrast: two items are a pool job whenever there are threads.
        let parallel = super::current_num_threads() > 1;
        (0..2usize)
            .into_par_iter()
            .for_each(|_| assert_eq!(in_job(), parallel));
    }

    #[test]
    fn threads_are_spawned_once_on_first_use() {
        (0..100usize).into_par_iter().for_each(|_| {});
        let spawned = super::SPAWNED.load(Ordering::Relaxed);
        assert_eq!(spawned, super::current_num_threads() - 1);
        for _ in 0..50 {
            (0..100usize).into_par_iter().for_each(|_| {});
            let _: usize = (0..100usize).into_par_iter().sum();
        }
        assert_eq!(super::SPAWNED.load(Ordering::Relaxed), spawned);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let v: Vec<u32> = Vec::new();
        v.par_iter().for_each(|_| panic!("no items expected"));
        let s: u32 = v.par_iter().map(|&x| x).sum();
        assert_eq!(s, 0);
    }
}
