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
//! The OpenCL backend ([`crate::oclsim`]) compiles its OpenCL-as-C unit
//! through this same pipeline, toolchain probe and artifact cache.
//!
//! The backend degrades gracefully: [`CJitBackend::available`] reports
//! whether a working C compiler exists, and `compile` returns a
//! `CoreError::Backend` otherwise, so callers (benchmarks, examples) can
//! fall back to the pure-Rust backends.
//!
//! ## Persistent artifact cache
//!
//! Every successful compile is persisted as a shared object keyed by the
//! FNV-1a content hash of (compiler, its `--version` banner and
//! `-march=native` predefined macros, its complete argument list, emitted
//! C99), so neither a compiler upgrade nor a cache directory shared with
//! another CPU can serve a stale or illegal-instruction artifact. A later
//! compile of the same key — in this process or any future one —
//! `dlopen`s the cached `.so` and skips `cc` entirely, so repeated figure
//! runs pay compilation once per machine, not once per process.
//! Artifacts live in a `target/`-local directory next to the running
//! binary (override with `$SNOWFLAKE_CACHE_DIR` or
//! [`CJitBackend::with_cache_dir`]); artifact writes are atomic (write to a
//! unique staging name, then rename) and **any** IO error simply falls
//! back to the in-process compile path. Hit/miss counters surface as
//! `disk_hits`/`disk_misses` in [`crate::metrics::CacheStats`].

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::GridSet;
use snowflake_ir::{lower_group, LowerOptions, Lowered};

use crate::codegen_c::emit_c;
use crate::metrics::{BackendStats, KernelCounters};
use crate::tune::{fnv1a, persist_atomic, FNV_OFFSET};
use crate::{check_and_ptrs, dispatch_work, Backend, Executable};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Optimization flags of every compile. `-ffp-contract=off` pins the
/// no-FMA evaluation the bitwise specialization contract assumes (gcc
/// already disables contraction under `-std=c99`; clang does not).
const OPT_FLAGS: [&str; 3] = ["-O3", "-march=native", "-ffp-contract=off"];

/// The entry point every generated unit exports, with signature
/// `void snowflake_run(double** g)`.
const ENTRY: &str = "snowflake_run";

/// JIT-compile generated C through the system compiler.
#[derive(Clone, Debug)]
pub struct CJitBackend {
    /// C compiler binary (default `cc`, override with `$SNOWFLAKE_CC`).
    pub cc: String,
    /// Persistent artifact cache directory; `None` resolves to a non-empty
    /// `$SNOWFLAKE_CACHE_DIR`, else a `snowflake-cjit-cache/` directory
    /// next to the running binary (i.e. inside `target/`).
    pub cache_dir: Option<PathBuf>,
    /// Compiles served from the artifact cache (shared across clones).
    disk_hits: Arc<AtomicU64>,
    /// Compiles that invoked the C compiler (shared across clones).
    disk_misses: Arc<AtomicU64>,
}

impl Default for CJitBackend {
    fn default() -> Self {
        CJitBackend {
            cc: default_cc(),
            cache_dir: None,
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

    /// Pin the persistent artifact cache to `dir` (builder style).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Is a working default C compiler (`$SNOWFLAKE_CC`, else `cc`)
    /// present on this machine?
    pub fn available() -> bool {
        toolchain(&default_cc()).available
    }

    /// Does the compiler accept `-fopenmp` (probed once per process per
    /// compiler)?
    pub fn openmp_available(&self) -> bool {
        toolchain(&self.cc).openmp
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
        let mut args = OPT_FLAGS.to_vec();
        args.extend(["-std=c99", "-fPIC", "-shared", "-Wl,-z,nodelete"]);
        if self.openmp_available() {
            args.push("-fopenmp");
        }
        args
    }

    /// Content hash of everything that determines the built artifact: the
    /// compiler, its version and target CPU, the exact argument list it
    /// runs with and the emitted source. Changing any of them invalidates
    /// the cached `.so`.
    fn artifact_key(&self, args: &[&str], source: &str) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.cc.as_bytes());
        h = fnv1a(h, &toolchain(&self.cc).fingerprint.to_le_bytes());
        for arg in args {
            h = fnv1a(h, b"\0");
            h = fnv1a(h, arg.as_bytes());
        }
        h = fnv1a(h, b"\0");
        fnv1a(h, source.as_bytes())
    }

    fn build(&self, source: &str) -> Result<libloading::Library> {
        let args = self.cc_args();
        let cached = self.resolved_cache_dir().join(format!(
            "cjit_{:016x}_{}.so",
            self.artifact_key(&args, source),
            source.len()
        ));
        if cached.exists() {
            // SAFETY: the artifact was produced by a previous run of this
            // same pipeline from identical source, flags and compiler (the
            // content hash is the file name); its only export is the
            // kernel entry point.
            if let Ok(lib) = unsafe { libloading::Library::new(&cached) } {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(lib);
            }
            // Unloadable (torn disk, …): evict and rebuild.
            let _ = std::fs::remove_file(&cached);
        }
        self.disk_misses.fetch_add(1, Ordering::Relaxed);

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
        let _ = std::fs::read(&so_path).and_then(|so| persist_atomic(&cached, &so));
        // SAFETY: the library was just produced by the C compiler from our
        // generated source; its only export is the kernel entry point.
        let lib = unsafe { libloading::Library::new(&so_path) }
            .map_err(|e| CoreError::Backend(format!("dlopen: {e}")))?;
        // The file can be unlinked once mapped (POSIX semantics).
        let _ = std::fs::remove_file(&c_path);
        let _ = std::fs::remove_file(&so_path);
        Ok(lib)
    }

    /// The compile path of every backend that runs generated C: lower
    /// and specialize `group`, emit the unit `emit(lowered, entry)`, build
    /// it (through the artifact cache) and load its entry point. The
    /// executable runs one dispatch per loop nest of each kernel.
    pub(crate) fn compile_with(
        &self,
        group: &StencilGroup,
        shapes: &ShapeMap,
        emit: fn(&Lowered, &str) -> String,
    ) -> Result<Box<dyn Executable>> {
        if !toolchain(&self.cc).available {
            return Err(CoreError::Backend(format!(
                "C compiler {:?} not available",
                self.cc
            )));
        }
        let mut lowered = lower_group(group, shapes, &LowerOptions::default())?;
        crate::specialize::specialize_lowered(&mut lowered);
        let lib = self.build(&emit(&lowered, ENTRY))?;
        // SAFETY: every emitter defines the entry point with exactly this
        // signature.
        let entry: EntryFn = unsafe {
            *lib.get::<EntryFn>(format!("{ENTRY}\0").as_bytes())
                .map_err(|e| CoreError::Backend(format!("dlsym: {e}")))?
        };
        Ok(Box::new(CJitExecutable {
            _lib: lib,
            entry,
            work: dispatch_work(&lowered),
            lowered,
        }))
    }
}

/// The compiler a new backend uses: `$SNOWFLAKE_CC`, else `cc`.
fn default_cc() -> String {
    std::env::var("SNOWFLAKE_CC").unwrap_or_else(|_| "cc".to_string())
}

/// What a C compiler reports about itself.
#[derive(Clone, Copy)]
struct Toolchain {
    /// Does `cc --version` run and succeed?
    available: bool,
    /// Does it accept `-fopenmp`?
    openmp: bool,
    /// FNV-1a of its `--version` banner and of the macros it predefines
    /// under `-march=native` (the CPU features the artifacts target).
    fingerprint: u64,
}

/// The [`Toolchain`] of `cc`, probed once per process per compiler.
fn toolchain(cc: &str) -> Toolchain {
    static PROBED: Mutex<BTreeMap<String, Toolchain>> = Mutex::new(BTreeMap::new());
    // A probe that panicked inserted nothing, so the map is still valid.
    let mut probed = PROBED.lock().unwrap_or_else(PoisonError::into_inner);
    *probed.entry(cc.to_string()).or_insert_with(|| probe(cc))
}

fn probe(cc: &str) -> Toolchain {
    let run = |args: &[&str]| Command::new(cc).args(args).output().ok();
    let Some(version) = run(&["--version"]).filter(|o| o.status.success()) else {
        return Toolchain {
            available: false,
            openmp: false,
            fingerprint: 0,
        };
    };
    let macros = run(&["-march=native", "-dM", "-E", "-x", "c", "/dev/null"]);
    Toolchain {
        available: true,
        openmp: probe_openmp(cc),
        fingerprint: fnv1a(
            fnv1a(FNV_OFFSET, &version.stdout),
            &macros.map(|o| o.stdout).unwrap_or_default(),
        ),
    }
}

/// Compile a one-line OpenMP translation unit with `cc -fopenmp`.
fn probe_openmp(cc: &str) -> bool {
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
        && Command::new(cc)
            .args(["-fopenmp", "-shared", "-fPIC", "-o"])
            .arg(&out)
            .arg(&src)
            .output()
            .is_ok_and(|o| o.status.success());
    let _ = std::fs::remove_file(&src);
    let _ = std::fs::remove_file(&out);
    ok
}

type EntryFn = unsafe extern "C" fn(*mut *mut f64);

struct CJitExecutable {
    /// Keeps the shared object mapped; `entry` points into it.
    _lib: libloading::Library,
    entry: EntryFn,
    lowered: Lowered,
    /// What one run dispatches, fixed by the emitted source.
    work: KernelCounters,
}

impl Backend for CJitBackend {
    fn name(&self) -> &'static str {
        "cjit"
    }

    /// The persistent artifact cache's hits and misses, accumulated
    /// across this backend and all its clones.
    fn stats(&self) -> BackendStats {
        BackendStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            ..BackendStats::default()
        }
    }

    /// One dispatch per emitted loop nest: a tiled color union is one.
    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        self.compile_with(group, shapes, emit_c)
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

    fn work(&self) -> KernelCounters {
        self.work
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

    /// Run `group` on `grids` with `seq` and with `cjit` and require every
    /// grid to come out bitwise identical.
    fn assert_cjit_matches_seq(group: &StencilGroup, grids: &GridSet) {
        let shapes = grids.shapes();
        let run = |backend: &dyn Backend| {
            let mut g = grids.clone();
            backend
                .compile(group, &shapes)
                .unwrap()
                .run(&mut g)
                .unwrap();
            g
        };
        let (a, b) = (run(&SequentialBackend::new()), run(&CJitBackend::new()));
        for name in shapes.keys() {
            let bits = |g: &GridSet| -> Vec<u64> {
                let v = g.get(name).unwrap().as_slice();
                v.iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b), "grid {name:?}");
        }
    }

    fn random_grids(names: &[&str], shape: &[usize]) -> GridSet {
        let mut gs = GridSet::new();
        for (seed, name) in names.iter().enumerate() {
            let mut g = Grid::new(shape);
            g.fill_random(seed as u64 + 1, 0.5, 1.5);
            gs.insert(name, g);
        }
        gs
    }

    #[test]
    fn cjit_matches_seq_on_laplacian() {
        if !require_cc() {
            return;
        }
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        assert_cjit_matches_seq(&group, &random_grids(&["x", "y"], &[16, 16]));
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
            let group = StencilGroup::from(Stencil::new(e, "y", RectDomain::interior(2)));
            assert_cjit_matches_seq(&group, &random_grids(&["x", "y"], &[8, 8]));
        }
    }

    #[test]
    fn names_that_would_close_a_c_comment_compile() {
        if !require_cc() {
            return;
        }
        let s = Stencil::new(
            Expr::read_at("g*/h", &[0, 1]) * 3.0,
            "y",
            RectDomain::interior(2),
        )
        .named("a */ b");
        assert_cjit_matches_seq(
            &StencilGroup::from(s),
            &random_grids(&["g*/h", "y"], &[8, 8]),
        );
    }

    #[test]
    fn cjit_runs_in_place_red_black_with_variable_coefficients() {
        if !require_cc() {
            return;
        }
        // A red-black smooth (one guarded nest per color), then an
        // in-place lexicographic sweep (a `single` block).
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let ax = Expr::read_at("beta", &[1, 0]) * (m(1, 0) - m(0, 0))
            - Expr::read_at("beta", &[0, 0]) * (m(0, 0) - m(-1, 0));
        let update = m(0, 0) + 0.3 * (Expr::read_at("rhs", &[0, 0]) - ax);
        let (red, black) = DomainUnion::red_black(2);
        let group = StencilGroup::new()
            .with(Stencil::new(update.clone(), "mesh", red))
            .with(Stencil::new(update, "mesh", black))
            .with(Stencil::new(
                m(0, -1) * m(-1, 0),
                "mesh",
                RectDomain::interior(2),
            ));
        assert_cjit_matches_seq(&group, &random_grids(&["mesh", "rhs", "beta"], &[14, 13]));
    }

    #[test]
    fn one_dimensional_kernels_compile() {
        if !require_cc() {
            return;
        }
        // A two-member union (one worksharing nest per member: there is no
        // outer dimension to guard on), then an in-place sweep.
        let odd_even = RectDomain::new(&[1], &[-1], &[2]) + RectDomain::new(&[2], &[-1], &[2]);
        let x = |j: i64| Expr::read_at("x", &[j]);
        let group = StencilGroup::new()
            .with(Stencil::new(x(-1) - x(1) * 0.5, "y", odd_even))
            .with(Stencil::new(x(-1) + x(0), "x", RectDomain::interior(1)));
        assert_cjit_matches_seq(&group, &random_grids(&["x", "y"], &[17]));
    }

    #[test]
    fn multicolor_reordering_matches_seq_bitwise() {
        if !require_cc() {
            return;
        }
        // One in-place update per color of a 2x2 multicoloring, then two
        // out-of-place stencils over two-color unions (row 1 and row 2
        // colors tile the interior rows, so each union is one nest).
        let x = |i: i64, j: i64| Expr::read_at("x", &[i, j]);
        let update = x(0, 0) + 0.25 * (x(-1, 0) + x(1, 0) + x(0, -1) + x(0, 1) - 4.0 * x(0, 0));
        let colors = DomainUnion::multicolor(2, 2);
        let mut group = StencilGroup::new();
        for color in &colors {
            group = group.with(Stencil::new(update.clone(), "x", color.clone()));
        }
        let union = |a: usize, b: usize| {
            DomainUnion::new(
                [&colors[a], &colors[b]]
                    .map(|c| c.rects()[0].clone())
                    .to_vec(),
            )
        };
        group = group
            .with(Stencil::new(x(0, 1) * x(1, 0), "y", union(0, 1)))
            .with(Stencil::new(x(0, -1) - x(-1, 0), "y", union(2, 3)));
        let grids = random_grids(&["x", "y"], &[12, 10]);
        let lowered = lower_group(&group, &grids.shapes(), &LowerOptions::default()).unwrap();
        let merged = lowered.kernels.iter().filter(|k| k.regions.len() == 2);
        assert!(merged.map(crate::exec::nests).all(|n| n.len() == 1));
        assert_cjit_matches_seq(&group, &grids);
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
