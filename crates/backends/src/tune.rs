//! Persisted tile auto-tuning: plan-time tile selection with zero
//! steady-state cost.
//!
//! The paper leaves tile sizes "tunable at compile time"; the OpenMP-like
//! backend already carries a PATUS-style empirical tuner
//! ([`crate::omp::OmpBackend::autotune_tile`]) that times candidate tile
//! shapes and keeps the winner. This module makes that decision *sticky*:
//! the winning tile for each `(kernel-group signature, grid shapes,
//! thread count, candidate list, executor sources)` key is persisted as a tiny JSON artifact in an
//! FNV-keyed directory chain (the same resolution scheme as the C JIT's
//! artifact cache), so the first plan build of a given configuration pays
//! for the timing runs once and every later process serves the decision
//! from disk.
//!
//! Directory resolution order:
//! 1. an explicit directory handed to [`TileTuner::new`];
//! 2. `$SNOWFLAKE_TUNE_DIR`;
//! 3. `snowflake-tune-cache/` next to the current executable;
//! 4. `snowflake-tune-cache/` under the system temp directory.
//!
//! Artifacts are written atomically (staging file + rename), so racing
//! processes at worst both time candidates and one rename wins. Tuner
//! activity is surfaced through [`TuneStats`] into `RunReport` metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snowflake_core::{ShapeMap, StencilGroup};

use crate::metrics::{json, TuneStats};

/// Tile entries meaning "untiled" (`i64::MAX >> 1` in memory) are encoded
/// as `0` on disk: the in-memory sentinel is not exactly representable in
/// JSON's f64 number space, `0` is never a legal tile extent, and the
/// artifact stays human-readable.
const UNTILED: i64 = i64::MAX >> 1;

/// Artifact schema version; bump when the encoding changes so stale
/// artifacts are ignored rather than misread.
const VERSION: u64 = 1;

/// FNV-1a of the executor and scheduler sources, fixed at compile time: a
/// persisted decision was timed on one build's executor and thread pool,
/// so any change to the code that runs the tiles invalidates it without a
/// hand-bumped constant.
const CODE_SALT: u64 = {
    let h = fnv1a(FNV_OFFSET, include_str!("exec.rs").as_bytes());
    let h = fnv1a(h, include_str!("specialize.rs").as_bytes());
    let h = fnv1a(h, include_str!("omp.rs").as_bytes());
    fnv1a(
        h,
        include_str!("../../../shims/rayon/src/lib.rs").as_bytes(),
    )
};

#[derive(Debug, Default)]
struct TuneCounters {
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    candidates_timed: AtomicU64,
}

/// A persisted tile-decision cache. Cloning shares the counters (clones
/// of one backend report one tuner's activity).
#[derive(Clone, Debug)]
pub struct TileTuner {
    dir: PathBuf,
    counters: Arc<TuneCounters>,
}

impl Default for TileTuner {
    fn default() -> Self {
        Self::new(None)
    }
}

impl TileTuner {
    /// A tuner rooted at `dir`, or at the resolved default directory
    /// chain (see module docs) when `None`.
    pub fn new(dir: Option<PathBuf>) -> Self {
        TileTuner {
            dir: dir.unwrap_or_else(resolve_tune_dir),
            counters: Arc::new(TuneCounters::default()),
        }
    }

    /// The directory artifacts live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Structural tuning key: FNV-1a over the group's debug rendering,
    /// the sorted shape bindings, the thread count and the candidate tiles
    /// timed, salted with the executor sources of this build. Equal
    /// programs at equal sizes and parallelism, tuned over the same
    /// candidates by the same executor, share one decision.
    pub fn key(
        group: &StencilGroup,
        shapes: &ShapeMap,
        threads: usize,
        candidates: &[Vec<i64>],
    ) -> u64 {
        let mut entries: Vec<(&String, &Vec<usize>)> = shapes.iter().collect();
        entries.sort();
        let mut h = fnv1a(CODE_SALT, format!("{group:?}").as_bytes());
        h = fnv1a(h, format!("{entries:?}").as_bytes());
        h = fnv1a(h, format!("threads={threads}").as_bytes());
        fnv1a(h, format!("candidates={candidates:?}").as_bytes())
    }

    /// Look up a persisted decision. Counts a disk hit when found.
    pub fn lookup(&self, key: u64, threads: usize) -> Option<Vec<i64>> {
        let tile = read_artifact(&self.artifact_path(key, threads), threads)?;
        self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(tile)
    }

    /// Persist a freshly timed decision and count the miss that produced
    /// it (`candidates` = number of tile shapes timed).
    pub fn store(&self, key: u64, threads: usize, tile: &[i64], candidates: usize) {
        self.counters.disk_misses.fetch_add(1, Ordering::Relaxed);
        self.counters
            .candidates_timed
            .fetch_add(candidates as u64, Ordering::Relaxed);
        let body = render_artifact(threads, tile);
        let path = self.artifact_path(key, threads);
        // Best effort: a read-only cache dir degrades to tuning every
        // process, never to an error.
        let _ = persist_atomic(&path, &body);
    }

    /// Snapshot of the tuner counters.
    pub fn stats(&self) -> TuneStats {
        TuneStats {
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.counters.disk_misses.load(Ordering::Relaxed),
            candidates_timed: self.counters.candidates_timed.load(Ordering::Relaxed),
        }
    }

    fn artifact_path(&self, key: u64, threads: usize) -> PathBuf {
        self.dir.join(format!("tile-{key:016x}-t{threads}.json"))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit (same constants as the cjit artifact keyer); `const` so
/// [`CODE_SALT`] is computed by the compiler.
const fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(PRIME);
        i += 1;
    }
    hash
}

fn resolve_tune_dir() -> PathBuf {
    if let Some(dir) = crate::env_dir("SNOWFLAKE_TUNE_DIR") {
        return dir;
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(parent) = exe.parent() {
            return parent.join("snowflake-tune-cache");
        }
    }
    std::env::temp_dir().join("snowflake-tune-cache")
}

fn render_artifact(threads: usize, tile: &[i64]) -> String {
    let entries: Vec<String> = tile
        .iter()
        .map(|&t| (if t >= UNTILED { 0 } else { t }).to_string())
        .collect();
    format!(
        "{{\"version\":{VERSION},\"threads\":{threads},\"tile\":[{}]}}\n",
        entries.join(",")
    )
}

fn read_artifact(path: &Path, threads: usize) -> Option<Vec<i64>> {
    let body = std::fs::read_to_string(path).ok()?;
    let doc = json::parse(&body).ok()?;
    if doc.get("version")?.as_u64()? != VERSION {
        return None;
    }
    if doc.get("threads")?.as_u64()? != threads as u64 {
        return None;
    }
    let tile: Option<Vec<i64>> = doc
        .get("tile")?
        .as_array()?
        .iter()
        .map(|v| {
            let t = i64::try_from(v.as_u64()?).ok()?;
            Some(if t == 0 { UNTILED } else { t })
        })
        .collect();
    tile.filter(|t| !t.is_empty())
}

/// Write via a staging file in the same directory, then rename: readers
/// never observe a torn artifact.
fn persist_atomic(path: &Path, body: &str) -> std::io::Result<()> {
    let dir = path.parent().expect("artifact path has a parent");
    std::fs::create_dir_all(dir)?;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let staging = dir.join(format!(
        ".staging_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&staging, body)?;
    match std::fs::rename(&staging, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&staging);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{Expr, RectDomain, Stencil};

    fn group(factor: f64) -> StencilGroup {
        StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]) * factor,
            "y",
            RectDomain::interior(2),
        ))
    }

    fn shapes(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        m.insert("x".into(), vec![n, n]);
        m.insert("y".into(), vec![n, n]);
        m
    }

    fn tmp_tuner(tag: &str) -> TileTuner {
        let dir =
            std::env::temp_dir().join(format!("snowflake-tune-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TileTuner::new(Some(dir))
    }

    fn cands() -> Vec<Vec<i64>> {
        vec![vec![4, UNTILED], vec![2, UNTILED]]
    }

    #[test]
    fn code_salt_covers_the_thread_pool_that_runs_the_tiles() {
        let backend_only = fnv1a(
            fnv1a(
                fnv1a(FNV_OFFSET, include_str!("exec.rs").as_bytes()),
                include_str!("specialize.rs").as_bytes(),
            ),
            include_str!("omp.rs").as_bytes(),
        );
        assert_ne!(CODE_SALT, backend_only);
    }

    #[test]
    fn store_then_lookup_round_trips_with_untiled_encoding() {
        let tuner = tmp_tuner("roundtrip");
        let key = TileTuner::key(&group(2.0), &shapes(16), 4, &cands());
        assert_eq!(tuner.lookup(key, 4), None, "cold cache");
        tuner.store(key, 4, &[8, UNTILED, 64], 3);
        assert_eq!(tuner.lookup(key, 4), Some(vec![8, UNTILED, 64]));
        let stats = tuner.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.disk_misses, 1);
        assert_eq!(stats.candidates_timed, 3);
        // A second tuner over the same directory serves the artifact with
        // fresh counters — the cross-process steady state.
        let warm = TileTuner::new(Some(tuner.dir().to_path_buf()));
        assert_eq!(warm.lookup(key, 4), Some(vec![8, UNTILED, 64]));
        assert_eq!(warm.stats().disk_hits, 1);
        assert_eq!(warm.stats().disk_misses, 0);
        let _ = std::fs::remove_dir_all(tuner.dir());
    }

    #[test]
    fn key_separates_programs_shapes_and_threads() {
        let k = TileTuner::key(&group(2.0), &shapes(16), 4, &cands());
        assert_ne!(k, TileTuner::key(&group(3.0), &shapes(16), 4, &cands()));
        assert_ne!(k, TileTuner::key(&group(2.0), &shapes(32), 4, &cands()));
        assert_ne!(k, TileTuner::key(&group(2.0), &shapes(16), 8, &cands()));
        assert_eq!(k, TileTuner::key(&group(2.0), &shapes(16), 4, &cands()));
    }

    #[test]
    fn key_changes_with_the_candidate_list() {
        let k = TileTuner::key(&group(2.0), &shapes(16), 4, &cands());
        let mut more = cands();
        more.push(vec![1, UNTILED]);
        assert_ne!(k, TileTuner::key(&group(2.0), &shapes(16), 4, &more));
        let mut reordered = cands();
        reordered.reverse();
        assert_ne!(k, TileTuner::key(&group(2.0), &shapes(16), 4, &reordered));
        assert_ne!(
            k,
            TileTuner::key(&group(2.0), &shapes(16), 4, &cands()[..1])
        );
    }

    #[test]
    fn thread_count_mismatch_and_garbage_are_misses() {
        let tuner = tmp_tuner("mismatch");
        let key = TileTuner::key(&group(2.0), &shapes(16), 4, &cands());
        tuner.store(key, 4, &[8, 8], 2);
        assert_eq!(tuner.lookup(key, 8), None, "different thread count");
        // Corrupt artifact: must be treated as a miss, not a panic.
        std::fs::write(tuner.artifact_path(key, 4), "not json").unwrap();
        assert_eq!(tuner.lookup(key, 4), None);
        let _ = std::fs::remove_dir_all(tuner.dir());
    }
}
