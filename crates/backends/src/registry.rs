//! Backend construction by name: one narrow entry point instead of
//! duplicated `match` arms in every driver.
//!
//! [`backend_from_name`] builds any of the six backends from a string and
//! a single [`BackendOptions`] bag of shared knobs (tiling, fusion,
//! multicolor reordering, work-group shape, C toolchain, tile tuner).
//! Unknown names are a structured [`CoreError::UnknownBackend`] listing
//! [`available_backends`], never a panic — a figure binary can print the
//! error verbatim and exit cleanly.

use std::path::PathBuf;

use snowflake_core::{CoreError, Result};
use snowflake_ir::LowerOptions;

use crate::oclsim::WorkGroupShape;
use crate::omp::OmpOptions;
use crate::{
    Backend, CJitBackend, CheckedBackend, InterpreterBackend, OclSimBackend, OmpBackend,
    SequentialBackend,
};

/// Every name [`backend_from_name`] resolves, in documentation order.
const NAMES: [&str; 6] = ["interp", "seq", "omp", "oclsim", "cjit", "checked"];

/// The registered backend names.
pub fn available_backends() -> &'static [&'static str] {
    &NAMES
}

/// Shared construction knobs, applied to whichever backend understands
/// them (the rest ignore them). One options bag covers every backend so
/// drivers thread a single struct instead of per-backend configuration.
#[derive(Clone, Debug)]
pub struct BackendOptions {
    /// Lowering options (dead-stencil elimination, phase reordering).
    pub lower: LowerOptions,
    /// Tile extents for the OpenMP-like backend (`None` = auto).
    pub tile: Option<Vec<i64>>,
    /// Fuse same-phase, same-region kernels into one traversal (omp).
    pub fuse: bool,
    /// Multicolor tile-interleaved reordering (omp).
    pub multicolor: bool,
    /// Work-group tile shape (oclsim).
    pub workgroup: WorkGroupShape,
    /// C compiler override (cjit; `None` keeps `$SNOWFLAKE_CC`/`cc`).
    pub cc: Option<String>,
    /// Optimization flag override (cjit).
    pub opt_flags: Option<Vec<String>>,
    /// Persistent artifact cache directory override (cjit).
    pub cache_dir: Option<PathBuf>,
    /// Use the persistent artifact cache (cjit; on by default).
    pub disk_cache: bool,
    /// Consult the persisted tile auto-tuner at compile time (omp; only
    /// effective when no explicit tile is set).
    pub tune: bool,
    /// Tuner artifact directory override (`None` = `$SNOWFLAKE_TUNE_DIR`
    /// / default chain; see `crate::tune`).
    pub tune_dir: Option<PathBuf>,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            lower: LowerOptions::default(),
            tile: None,
            fuse: true,
            multicolor: true,
            workgroup: WorkGroupShape::default(),
            cc: None,
            opt_flags: None,
            cache_dir: None,
            disk_cache: true,
            tune: false,
            tune_dir: None,
        }
    }
}

impl BackendOptions {
    /// Set an explicit tile shape (builder style).
    pub fn with_tile(mut self, tile: Vec<i64>) -> Self {
        self.tile = Some(tile);
        self
    }

    /// Enable or disable kernel fusion (builder style).
    pub fn with_fusion(mut self, on: bool) -> Self {
        self.fuse = on;
        self
    }

    /// Enable or disable multicolor reordering (builder style).
    pub fn with_multicolor(mut self, on: bool) -> Self {
        self.multicolor = on;
        self
    }

    /// Set the work-group shape (builder style).
    pub fn with_workgroup(mut self, tall: i64, wide: i64) -> Self {
        self.workgroup = WorkGroupShape { tall, wide };
        self
    }

    /// Pin the cjit artifact cache directory (builder style).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Enable or disable the persisted tile auto-tuner (builder style).
    pub fn with_tune(mut self, on: bool) -> Self {
        self.tune = on;
        self
    }

    /// Pin the tuner artifact directory (builder style).
    pub fn with_tune_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.tune_dir = Some(dir.into());
        self
    }
}

/// Construct the backend registered under `name`, configured from `opts`.
///
/// Returns [`CoreError::UnknownBackend`] (listing every valid name) when
/// `name` is not registered. Construction always succeeds for registered
/// names — an unusable toolchain (cjit without `cc`) surfaces later, from
/// `compile`, exactly as when the backend is built directly.
pub fn backend_from_name(name: &str, opts: &BackendOptions) -> Result<Box<dyn Backend>> {
    match name {
        "interp" => Ok(Box::new(InterpreterBackend)),
        "seq" => Ok(Box::new(SequentialBackend {
            options: opts.lower.clone(),
        })),
        "omp" => Ok(Box::new(OmpBackend {
            options: opts.lower.clone(),
            omp: OmpOptions {
                tile: opts.tile.clone(),
                multicolor_reorder: opts.multicolor,
                fuse: opts.fuse,
                tune: opts.tune,
            },
            tuner: crate::tune::TileTuner::new(opts.tune_dir.clone()),
        })),
        "oclsim" => Ok(Box::new(OclSimBackend {
            options: opts.lower.clone(),
            workgroup: opts.workgroup,
        })),
        "cjit" => {
            let mut backend = CJitBackend::new().with_disk_cache(opts.disk_cache);
            backend.options = opts.lower.clone();
            if let Some(cc) = &opts.cc {
                backend = backend.with_cc(cc.clone());
            }
            if let Some(flags) = &opts.opt_flags {
                backend = backend.with_opt_flags(flags.clone());
            }
            if let Some(dir) = &opts.cache_dir {
                backend = backend.with_cache_dir(dir.clone());
            }
            Ok(Box::new(backend))
        }
        "checked" => Ok(Box::new(CheckedBackend {
            options: opts.lower.clone(),
        })),
        _ => Err(CoreError::UnknownBackend {
            name: name.to_string(),
            available: NAMES.iter().map(|s| s.to_string()).collect(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_constructs_and_reports_its_own_name() {
        let opts = BackendOptions::default();
        for &name in available_backends() {
            let backend = backend_from_name(name, &opts).expect("registered name");
            assert_eq!(backend.name(), name);
        }
    }

    #[test]
    fn unknown_name_is_a_structured_error() {
        let Err(err) = backend_from_name("cuda", &BackendOptions::default()) else {
            panic!("unknown name must be rejected");
        };
        match err {
            CoreError::UnknownBackend { name, available } => {
                assert_eq!(name, "cuda");
                assert_eq!(available.len(), NAMES.len());
            }
            other => panic!("expected UnknownBackend, got {other:?}"),
        }
    }

    #[test]
    fn tune_knobs_reach_the_omp_backend() {
        let dir =
            std::env::temp_dir().join(format!("snowflake-registry-tune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = BackendOptions::default()
            .with_tune(true)
            .with_tune_dir(dir.clone());
        let omp = backend_from_name("omp", &opts).unwrap();
        let group = snowflake_core::StencilGroup::from(snowflake_core::Stencil::new(
            snowflake_core::Expr::read_at("x", &[0, 0]) * 2.0,
            "y",
            snowflake_core::RectDomain::interior(2),
        ));
        let mut shapes = snowflake_core::ShapeMap::new();
        shapes.insert("x".into(), vec![12, 12]);
        shapes.insert("y".into(), vec![12, 12]);
        omp.compile(&group, &shapes).unwrap();
        let stats = omp.stats().tune;
        assert_eq!(stats.disk_misses, 1, "tuner engaged through registry knobs");
        assert!(stats.candidates_timed >= 2);
        assert!(
            dir.read_dir().unwrap().count() >= 1,
            "artifact persisted in the pinned directory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_reach_the_constructed_backend() {
        let opts = BackendOptions::default()
            .with_tile(vec![4, 4])
            .with_multicolor(false)
            .with_workgroup(2, 8);
        let omp = backend_from_name("omp", &opts).unwrap();
        assert_eq!(omp.name(), "omp");
        let oclsim = backend_from_name("oclsim", &opts).unwrap();
        assert_eq!(oclsim.name(), "oclsim");
    }
}
