//! The C JIT backend: the paper's actual micro-compiler pipeline.
//!
//! Snowflake renders the analyzed stencil group into C99 with OpenMP
//! pragmas (see [`crate::codegen_c`]), hands it to the system C compiler
//! (`cc -O3 -fPIC -shared`, plus `-fopenmp` when available), loads the
//! shared object, and wraps the entry point in an [`Executable`] — the
//! Rust equivalent of the paper's GCC + Python-FFI flow.
//!
//! Objects are linked with `-z nodelete`, so `dlclose` never unmaps them:
//! an OpenMP artifact's worker threads stay parked in the OpenMP runtime
//! after a run, and unloading it under them (the last artifact dropped
//! releasing libgomp) would crash the next parallel region.
//!
//! The backend degrades gracefully: [`CJitBackend::available`] reports
//! whether a working C compiler exists, and `compile` returns a
//! `CoreError::Backend` otherwise, so callers (benchmarks, examples) can
//! fall back to the pure-Rust backends.
//!
//! ## Persistent artifact cache
//!
//! Every successful compile is persisted as a shared object keyed by the
//! FNV-1a content hash of (compiler, its complete argument list, emitted
//! C99). A later compile of the same key — in this process or any future
//! one — `dlopen`s the cached `.so` and skips `cc` entirely, so repeated
//! figure runs pay compilation once per machine, not once per process.
//! Artifacts live in a `target/`-local directory next to the running
//! binary (override with `$SNOWFLAKE_CACHE_DIR` or
//! [`CJitBackend::with_cache_dir`]); artifact writes are atomic (write to a
//! unique staging name, then rename) and **any** IO error simply falls
//! back to the in-process compile path. Hit/miss counters surface as
//! `disk_hits`/`disk_misses` in [`crate::metrics::CacheStats`].

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::GridSet;
use snowflake_ir::{lower_group, LowerOptions, Lowered};

use crate::codegen_c::emit_c;
use crate::metrics::{BackendStats, KernelCounters};
use crate::tune::{fnv1a, persist_atomic, FNV_OFFSET};
use crate::{check_and_ptrs, Backend, Executable};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// JIT-compile generated C through the system compiler.
#[derive(Clone, Debug)]
pub struct CJitBackend {
    /// Lowering options.
    pub options: LowerOptions,
    /// C compiler binary (default `cc`, override with `$SNOWFLAKE_CC`).
    pub cc: String,
    /// Extra optimization flags.
    pub opt_flags: Vec<String>,
    /// Persistent artifact cache directory; `None` resolves to a non-empty
    /// `$SNOWFLAKE_CACHE_DIR`, else a `snowflake-cjit-cache/` directory
    /// next to the running binary (i.e. inside `target/`).
    pub cache_dir: Option<PathBuf>,
    /// Use the persistent artifact cache (on by default).
    pub disk_cache: bool,
    /// Compiles served from the artifact cache (shared across clones).
    disk_hits: Arc<AtomicU64>,
    /// Compiles that invoked the C compiler (shared across clones).
    disk_misses: Arc<AtomicU64>,
}

impl Default for CJitBackend {
    fn default() -> Self {
        CJitBackend {
            options: LowerOptions::default(),
            cc: std::env::var("SNOWFLAKE_CC").unwrap_or_else(|_| "cc".to_string()),
            // `-ffp-contract=off` pins the no-FMA evaluation the bitwise
            // specialization contract assumes (gcc already disables
            // contraction under `-std=c99`; clang does not).
            opt_flags: vec![
                "-O3".to_string(),
                "-march=native".to_string(),
                "-ffp-contract=off".to_string(),
            ],
            cache_dir: None,
            disk_cache: true,
            disk_hits: Arc::new(AtomicU64::new(0)),
            disk_misses: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl CJitBackend {
    /// Backend with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the C compiler binary (builder style).
    pub fn with_cc(mut self, cc: impl Into<String>) -> Self {
        self.cc = cc.into();
        self
    }

    /// Replace the optimization flag set (builder style).
    pub fn with_opt_flags(mut self, flags: Vec<String>) -> Self {
        self.opt_flags = flags;
        self
    }

    /// Pin the persistent artifact cache to `dir` (builder style).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Enable or disable the persistent artifact cache (builder style).
    pub fn with_disk_cache(mut self, on: bool) -> Self {
        self.disk_cache = on;
        self
    }

    /// `(hits, misses)` of the persistent artifact cache, accumulated
    /// across this backend and all its clones.
    pub fn disk_stats(&self) -> (u64, u64) {
        (
            self.disk_hits.load(Ordering::Relaxed),
            self.disk_misses.load(Ordering::Relaxed),
        )
    }

    /// Is a working C compiler present on this machine?
    pub fn available() -> bool {
        *availability().get_or_init(|| {
            Command::new(std::env::var("SNOWFLAKE_CC").unwrap_or_else(|_| "cc".to_string()))
                .arg("--version")
                .output()
                .map(|o| o.status.success())
                .unwrap_or(false)
        })
    }

    /// Does the compiler accept `-fopenmp` (checked once per process)?
    pub fn openmp_available(&self) -> bool {
        *openmp_flag().get_or_init(|| {
            let dir = std::env::temp_dir();
            let id = COUNTER.fetch_add(1, Ordering::Relaxed);
            let src = dir.join(format!("snowflake_omp_probe_{}_{id}.c", std::process::id()));
            let out = dir.join(format!(
                "snowflake_omp_probe_{}_{id}.so",
                std::process::id()
            ));
            let ok = std::fs::write(
                &src,
                "#include <omp.h>\nint snowflake_probe(void){return omp_get_max_threads();}\n",
            )
            .is_ok()
                && Command::new(&self.cc)
                    .args(["-fopenmp", "-shared", "-fPIC", "-o"])
                    .arg(&out)
                    .arg(&src)
                    .output()
                    .map(|o| o.status.success())
                    .unwrap_or(false);
            let _ = std::fs::remove_file(&src);
            let _ = std::fs::remove_file(&out);
            ok
        })
    }

    /// Cache directory after applying the override chain (explicit field →
    /// `$SNOWFLAKE_CACHE_DIR` unless empty → next to the running binary →
    /// temp dir).
    pub fn resolved_cache_dir(&self) -> PathBuf {
        if let Some(dir) = &self.cache_dir {
            return dir.clone();
        }
        if let Some(dir) = crate::env_dir("SNOWFLAKE_CACHE_DIR") {
            return dir;
        }
        std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("snowflake-cjit-cache")))
            .unwrap_or_else(|| std::env::temp_dir().join("snowflake-cjit-cache"))
    }

    /// Every argument passed to the C compiler before the output and
    /// input paths.
    fn cc_args(&self) -> Vec<&str> {
        let mut args: Vec<&str> = self.opt_flags.iter().map(String::as_str).collect();
        args.extend(["-std=c99", "-fPIC", "-shared", "-Wl,-z,nodelete"]);
        if self.openmp_available() {
            args.push("-fopenmp");
        }
        args
    }

    /// Content hash of everything that determines the built artifact: the
    /// compiler, the exact argument list it runs with and the emitted
    /// source. Changing any of them invalidates the cached `.so`.
    fn artifact_key(&self, args: &[&str], source: &str) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.cc.as_bytes());
        for arg in args {
            h = fnv1a(h, b"\0");
            h = fnv1a(h, arg.as_bytes());
        }
        h = fnv1a(h, b"\0");
        fnv1a(h, source.as_bytes())
    }

    fn build(&self, source: &str) -> Result<libloading::Library> {
        let args = self.cc_args();
        let cached: Option<PathBuf> = self.disk_cache.then(|| {
            self.resolved_cache_dir().join(format!(
                "cjit_{:016x}_{}.so",
                self.artifact_key(&args, source),
                source.len()
            ))
        });
        if let Some(path) = &cached {
            if path.exists() {
                // SAFETY: the artifact was produced by a previous run of
                // this same pipeline from identical source and flags (the
                // content hash is the file name); its only export is the
                // kernel entry point.
                if let Ok(lib) = unsafe { libloading::Library::new(path) } {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(lib);
                }
                // Unloadable (torn disk, wrong arch, …): evict and rebuild.
                let _ = std::fs::remove_file(path);
            }
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
        }

        let dir = std::env::temp_dir();
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let stem = format!("snowflake_jit_{}_{id}", std::process::id());
        let c_path: PathBuf = dir.join(format!("{stem}.c"));
        let so_path: PathBuf = dir.join(format!("{stem}.so"));
        std::fs::write(&c_path, source)
            .map_err(|e| CoreError::Backend(format!("writing JIT source: {e}")))?;

        let output = Command::new(&self.cc)
            .args(&args)
            .arg("-o")
            .arg(&so_path)
            .arg(&c_path)
            .output()
            .map_err(|e| CoreError::Backend(format!("running {}: {e}", self.cc)))?;
        if !output.status.success() {
            let _ = std::fs::remove_file(&c_path);
            return Err(CoreError::Backend(format!(
                "C compilation failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            )));
        }
        // Persist for future processes; IO failure only costs the reuse.
        if let Some(path) = &cached {
            let _ = std::fs::read(&so_path).and_then(|so| persist_atomic(path, &so));
        }
        // SAFETY: the library was just produced by the C compiler from our
        // generated source; its only export is the kernel entry point.
        let lib = unsafe { libloading::Library::new(&so_path) }
            .map_err(|e| CoreError::Backend(format!("dlopen: {e}")))?;
        // The file can be unlinked once mapped (POSIX semantics).
        let _ = std::fs::remove_file(&c_path);
        let _ = std::fs::remove_file(&so_path);
        Ok(lib)
    }
}

fn availability() -> &'static OnceLock<bool> {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    &AVAILABLE
}

fn openmp_flag() -> &'static OnceLock<bool> {
    static OPENMP: OnceLock<bool> = OnceLock::new();
    &OPENMP
}

type EntryFn = unsafe extern "C" fn(*mut *mut f64);

struct CJitExecutable {
    /// Keeps the shared object mapped; `entry` points into it.
    _lib: libloading::Library,
    entry: EntryFn,
    lowered: Lowered,
}

impl Backend for CJitBackend {
    fn name(&self) -> &'static str {
        "cjit"
    }

    fn stats(&self) -> BackendStats {
        let (disk_hits, disk_misses) = self.disk_stats();
        BackendStats {
            disk_hits,
            disk_misses,
            ..BackendStats::default()
        }
    }

    fn lower_options(&self) -> LowerOptions {
        self.options.clone()
    }

    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        if !Self::available() {
            return Err(CoreError::Backend(format!(
                "C compiler {:?} not available",
                self.cc
            )));
        }
        let mut lowered = lower_group(group, shapes, &self.options)?;
        crate::specialize::specialize_lowered(&mut lowered);
        let source = emit_c(&lowered, "snowflake_run");
        let lib = self.build(&source)?;
        // SAFETY: the symbol exists in the generated translation unit with
        // exactly this signature.
        let entry: EntryFn = unsafe {
            *lib.get::<EntryFn>(b"snowflake_run\0")
                .map_err(|e| CoreError::Backend(format!("dlsym: {e}")))?
        };
        Ok(Box::new(CJitExecutable {
            _lib: lib,
            entry,
            lowered,
        }))
    }
}

impl Executable for CJitExecutable {
    fn run(&self, grids: &mut GridSet) -> Result<()> {
        let (mut ptrs, _lens) = check_and_ptrs(&self.lowered, grids)?;
        // SAFETY: pointers are valid for the duration of the call; the
        // generated code only touches indices proven in bounds, with the
        // OpenMP schedule mirroring the analysis verdicts.
        unsafe { (self.entry)(ptrs.as_mut_ptr()) };
        Ok(())
    }

    /// The generated C runs one loop nest per (kernel, region).
    fn work(&self) -> KernelCounters {
        crate::per_region_work(&self.lowered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialBackend;
    use snowflake_core::{weights2, Component, DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::Grid;

    fn require_cc() -> bool {
        if !CJitBackend::available() {
            eprintln!("skipping: no C compiler");
            return false;
        }
        true
    }

    #[test]
    fn cjit_matches_seq_on_laplacian() {
        if !require_cc() {
            return;
        }
        let n = 16;
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let mut a = GridSet::new();
        let mut x = Grid::new(&[n, n]);
        x.fill_random(42, -1.0, 1.0);
        a.insert("x", x);
        a.insert("y", Grid::new(&[n, n]));
        let mut b = a.clone();
        let shapes = a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        CJitBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        assert_eq!(a.get("y").unwrap().max_abs_diff(b.get("y").unwrap()), 0.0);
    }

    /// Integral constants of 1e15 and more and folded infinities reach
    /// the C source as exact double literals.
    #[test]
    fn huge_and_infinite_constants_match_seq_bitwise() {
        if !require_cc() {
            return;
        }
        let x = |j: i64| Expr::read_at("x", &[0, j]);
        let exprs = [
            x(1) * 1e20,
            x(-1) * -1e300,
            // 1e300 * 1e10 folds to +inf at lowering.
            x(0) * x(1) + Expr::Const(1e300) * 1e10,
        ];
        for e in exprs {
            let group = StencilGroup::from(Stencil::new(e.clone(), "y", RectDomain::interior(2)));
            let mut a = GridSet::new();
            let mut xg = Grid::new(&[8, 8]);
            xg.fill_random(7, 0.5, 1.5);
            a.insert("x", xg);
            a.insert("y", Grid::new(&[8, 8]));
            let mut b = a.clone();
            let shapes = a.shapes();
            SequentialBackend::new()
                .compile(&group, &shapes)
                .unwrap()
                .run(&mut a)
                .unwrap();
            CJitBackend::new()
                .compile(&group, &shapes)
                .unwrap()
                .run(&mut b)
                .unwrap();
            let bits = |g: &GridSet| -> Vec<u64> {
                let y = g.get("y").unwrap().as_slice();
                y.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b), "{e}");
        }
    }

    #[test]
    fn cjit_runs_in_place_red_black_with_variable_coefficients() {
        if !require_cc() {
            return;
        }
        let n = 14;
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let ax = Expr::read_at("beta", &[1, 0]) * (m(1, 0) - m(0, 0))
            - Expr::read_at("beta", &[0, 0]) * (m(0, 0) - m(-1, 0));
        let update = m(0, 0) + 0.3 * (Expr::read_at("rhs", &[0, 0]) - ax);
        let (red, black) = DomainUnion::red_black(2);
        let group = StencilGroup::new()
            .with(Stencil::new(update.clone(), "mesh", red))
            .with(Stencil::new(update, "mesh", black));
        let mut a = GridSet::new();
        for (name, seed) in [("mesh", 1u64), ("rhs", 2), ("beta", 3)] {
            let mut g = Grid::new(&[n, n]);
            g.fill_random(seed, 0.5, 1.5);
            a.insert(name, g);
        }
        let mut b = a.clone();
        let shapes = a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        CJitBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        let diff = a.get("mesh").unwrap().max_abs_diff(b.get("mesh").unwrap());
        assert!(diff < 1e-13, "cjit deviates by {diff}");
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        if !require_cc() {
            return;
        }
        let group = StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]) * 0.5,
            "y",
            RectDomain::interior(2),
        ));
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[8, 8]);
        x.fill_random(5, 0.0, 1.0);
        gs.insert("x", x);
        gs.insert("y", Grid::new(&[8, 8]));
        let exe = CJitBackend::new().compile(&group, &gs.shapes()).unwrap();
        exe.run(&mut gs).unwrap();
        let first = gs.get("y").unwrap().clone();
        exe.run(&mut gs).unwrap();
        assert_eq!(gs.get("y").unwrap().max_abs_diff(&first), 0.0);
    }
}
