//! Compilation caching: the paper's "call-ables are cached, for subsequent
//! use".
//!
//! A multigrid solver compiles the same smoother for every level shape and
//! re-runs it hundreds of times; the cache keys on the structural identity
//! of (group, shapes) so each distinct (program, size) pair is compiled
//! once per backend.
//!
//! The map and its hit/miss/insert counters live behind **one** mutex
//! ([`CacheState`]), and `get_or_compile` holds that lock across the whole
//! lookup-or-compile-or-insert sequence. This guarantees exactly one
//! compile per key under concurrency and tear-free counters — the previous
//! design (separate `map`/`hits`/`misses` locks with an unlocked compile
//! in between) let two racing callers both miss and compile the same key
//! twice. The cost is that concurrent compiles of *different* keys
//! serialize; compiles here are milliseconds (or one `cc` invocation) and
//! correctness of the counters is what the solver's reuse accounting
//! relies on, so the trade is deliberate.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use snowflake_core::{Result, ShapeMap, StencilGroup};
use snowflake_grid::GridSet;

use crate::metrics::{CacheStats, RunReport};
use crate::{Backend, Executable};

/// Map + counters, guarded together so they can never disagree.
struct CacheState {
    map: HashMap<String, Arc<dyn Executable>>,
    stats: CacheStats,
}

/// A memoizing wrapper around a backend.
pub struct CompileCache {
    backend: Box<dyn Backend>,
    state: Mutex<CacheState>,
}

impl CompileCache {
    /// Wrap a backend.
    pub fn new(backend: Box<dyn Backend>) -> Self {
        CompileCache {
            backend,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Name of the wrapped backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Lowering options of the wrapped backend (see
    /// [`crate::Backend::lower_options`]); the static verifier replays
    /// these to certify the exact schedule the backend will execute.
    pub fn lower_options(&self) -> snowflake_ir::LowerOptions {
        self.backend.lower_options()
    }

    /// Fetch or compile the executable for (group, shapes).
    ///
    /// Holds the cache lock across the compile, so N racing callers of the
    /// same key produce exactly one compile (the rest block, then hit).
    pub fn get_or_compile(
        &self,
        group: &StencilGroup,
        shapes: &ShapeMap,
    ) -> Result<Arc<dyn Executable>> {
        let key = cache_key(group, shapes);
        let mut state = self.state.lock().unwrap();
        if let Some(exe) = state.map.get(&key) {
            let exe = exe.clone();
            state.stats.hits += 1;
            return Ok(exe);
        }
        state.stats.misses += 1;
        let exe: Arc<dyn Executable> = Arc::from(self.backend.compile(group, shapes)?);
        state.stats.inserts += 1;
        state.map.insert(key, exe.clone());
        Ok(exe)
    }

    /// Compile (cached) and run once.
    pub fn run(&self, group: &StencilGroup, grids: &mut GridSet) -> Result<()> {
        let exe = self.get_or_compile(group, &grids.shapes())?;
        exe.run(grids)
    }

    /// As [`CompileCache::run`], profiling into `report`: cache/compile
    /// time lands in `compile_seconds`, the cache counters are
    /// snapshotted, and the executable fills phases and kernel counters.
    pub fn run_with_report(
        &self,
        group: &StencilGroup,
        grids: &mut GridSet,
        report: &mut RunReport,
    ) -> Result<()> {
        let t0 = std::time::Instant::now();
        let exe = self.get_or_compile(group, &grids.shapes())?;
        report.compile_seconds += t0.elapsed().as_secs_f64();
        report.set_backend(self.backend.name());
        let result = exe.run_with_report(grids, report);
        report.cache = self.cache_stats();
        result
    }

    /// `(hits, misses)` counters (kept for existing callers; see
    /// [`CompileCache::cache_stats`] for the full set).
    pub fn stats(&self) -> (u64, u64) {
        let s = self.cache_stats();
        (s.hits, s.misses)
    }

    /// Hit/miss/insert counters, read atomically under the cache lock,
    /// plus the wrapped backend's on-disk artifact counters (non-zero only
    /// for the C JIT backend).
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.state.lock().unwrap().stats;
        let backend = self.backend.stats();
        stats.disk_hits = backend.disk_hits;
        stats.disk_misses = backend.disk_misses;
        stats
    }

    /// The wrapped backend's own counters (see [`crate::Backend::stats`]).
    pub fn backend_stats(&self) -> crate::metrics::BackendStats {
        self.backend.stats()
    }
}

/// Structural cache key: the debug rendering of the group plus the sorted
/// shape bindings. Expressions, domains and maps all derive `Debug`
/// deterministically, so equal programs produce equal keys.
fn cache_key(group: &StencilGroup, shapes: &ShapeMap) -> String {
    let mut entries: Vec<(&String, &Vec<usize>)> = shapes.iter().collect();
    entries.sort();
    format!("{group:?}|{entries:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialBackend;
    use snowflake_core::{Expr, RectDomain, Stencil};
    use snowflake_grid::Grid;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn group() -> StencilGroup {
        StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]) * 2.0,
            "y",
            RectDomain::interior(2),
        ))
    }

    #[test]
    fn second_compile_hits_cache() {
        let cache = CompileCache::new(Box::new(SequentialBackend::new()));
        let mut gs = GridSet::new();
        gs.insert("x", Grid::new(&[8, 8]));
        gs.insert("y", Grid::new(&[8, 8]));
        cache.run(&group(), &mut gs).unwrap();
        cache.run(&group(), &mut gs).unwrap();
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.cache_stats().inserts, 1);
    }

    #[test]
    fn different_shapes_compile_separately() {
        let cache = CompileCache::new(Box::new(SequentialBackend::new()));
        for n in [8usize, 16] {
            let mut gs = GridSet::new();
            gs.insert("x", Grid::new(&[n, n]));
            gs.insert("y", Grid::new(&[n, n]));
            cache.run(&group(), &mut gs).unwrap();
        }
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn different_groups_compile_separately() {
        let cache = CompileCache::new(Box::new(SequentialBackend::new()));
        let g2 = StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]) * 3.0,
            "y",
            RectDomain::interior(2),
        ));
        let mut gs = GridSet::new();
        gs.insert("x", Grid::new(&[8, 8]));
        gs.insert("y", Grid::new(&[8, 8]));
        cache.run(&group(), &mut gs).unwrap();
        cache.run(&g2, &mut gs).unwrap();
        assert_eq!(cache.stats(), (0, 2));
    }

    /// A backend that counts compiles and dawdles inside each one, so the
    /// old check-then-insert race (compile outside any lock) would
    /// reliably produce duplicate compiles here.
    struct CountingBackend {
        inner: SequentialBackend,
        compiles: AtomicU64,
    }

    impl Backend for CountingBackend {
        fn name(&self) -> &'static str {
            "counting-seq"
        }
        fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
            self.compiles.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(25));
            self.inner.compile(group, shapes)
        }
    }

    #[test]
    fn racing_callers_compile_each_key_exactly_once() {
        let counting = Arc::new(CountingBackend {
            inner: SequentialBackend::new(),
            compiles: AtomicU64::new(0),
        });
        struct Shared(Arc<CountingBackend>);
        impl Backend for Shared {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn compile(
                &self,
                group: &StencilGroup,
                shapes: &ShapeMap,
            ) -> Result<Box<dyn Executable>> {
                self.0.compile(group, shapes)
            }
        }
        let cache = CompileCache::new(Box::new(Shared(counting.clone())));
        let g = group();
        let shapes = {
            let mut gs = GridSet::new();
            gs.insert("x", Grid::new(&[8, 8]));
            gs.insert("y", Grid::new(&[8, 8]));
            gs.shapes()
        };

        const RACERS: usize = 8;
        std::thread::scope(|scope| {
            for _ in 0..RACERS {
                scope.spawn(|| {
                    cache.get_or_compile(&g, &shapes).expect("compile ok");
                });
            }
        });

        assert_eq!(
            counting.compiles.load(Ordering::SeqCst),
            1,
            "N racing callers must trigger exactly one compile"
        );
        let stats = cache.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.hits, (RACERS - 1) as u64);
        assert_eq!(stats.hits + stats.misses, RACERS as u64, "no torn counts");
    }
}
