//! Backend construction by name: one narrow entry point instead of
//! duplicated `match` arms in every driver.
//!
//! [`backend_from_name`] builds any of the six backends from a string: each
//! from its defaults plus the three knobs drivers set through
//! [`BackendOptions`] (the artifact cache directory of the two compiled
//! backends, cjit and oclsim, and the omp tile tuner). Other knobs are the
//! backends' own `with_*` builders. Unknown names are a structured
//! [`CoreError::UnknownBackend`] listing [`available_backends`], never a
//! panic — a figure binary can print the error verbatim and exit cleanly.

use std::path::PathBuf;

use snowflake_core::{CoreError, Result};

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

/// Can the backend registered under `name` compile on this machine? The
/// compiled backends, cjit and oclsim, need a working C compiler
/// ([`CJitBackend::available`]); every other backend always can.
pub fn backend_available(name: &str) -> bool {
    !matches!(name, "cjit" | "oclsim") || CJitBackend::available()
}

/// The construction knobs drivers set by name: each applies to the one
/// backend that understands it, and every other setting is that
/// backend's default.
#[derive(Clone, Debug, Default)]
pub struct BackendOptions {
    /// Persistent artifact cache directory override (cjit and oclsim).
    pub cache_dir: Option<PathBuf>,
    /// Consult the persisted tile auto-tuner at compile time (omp).
    pub tune: bool,
    /// Tuner artifact directory override (`None` = `$SNOWFLAKE_TUNE_DIR`
    /// / default chain; see `crate::tune`).
    pub tune_dir: Option<PathBuf>,
}

impl BackendOptions {
    /// Pin the cjit and oclsim artifact cache directory (builder style).
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
/// names — an unusable toolchain (cjit or oclsim without `cc`) surfaces
/// later, from `compile`, exactly as when the backend is built directly.
pub fn backend_from_name(name: &str, opts: &BackendOptions) -> Result<Box<dyn Backend>> {
    match name {
        "interp" => Ok(Box::new(InterpreterBackend)),
        "seq" => Ok(Box::new(SequentialBackend::new())),
        "omp" => Ok(Box::new(OmpBackend {
            tuner: crate::tune::TileTuner::new(opts.tune_dir.clone()),
            ..OmpBackend::new().with_tune(opts.tune)
        })),
        "oclsim" => Ok(Box::new(match &opts.cache_dir {
            Some(dir) => OclSimBackend::new().with_cache_dir(dir.clone()),
            None => OclSimBackend::new(),
        })),
        "cjit" => Ok(Box::new(match &opts.cache_dir {
            Some(dir) => CJitBackend::new().with_cache_dir(dir.clone()),
            None => CJitBackend::new(),
        })),
        "checked" => Ok(Box::new(CheckedBackend::new())),
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
}
