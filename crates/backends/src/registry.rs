//! Backend construction by name: one narrow entry point instead of
//! duplicated `match` arms in every driver.
//!
//! [`backend_from_name`] builds any of the six backends from a string: each
//! from its defaults plus the one knob drivers set through
//! [`BackendOptions`] (the artifact cache directory of the two compiled
//! backends, cjit and oclsim). Other knobs are the backends' own `with_*`
//! builders. Unknown names are a structured [`CoreError::UnknownBackend`]
//! listing [`available_backends`], never a panic — a figure binary can
//! print the error verbatim and exit cleanly.

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
}

impl BackendOptions {
    /// Pin the cjit and oclsim artifact cache directory (builder style).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Inert: returns `self` unchanged. omp tiles with its default tile
    /// (or a `with_tile` tile) and searches none; kept because the solver
    /// benchmark's compile ledger calls it.
    pub fn with_tune(self, _on: bool) -> Self {
        self
    }

    /// Inert, as [`BackendOptions::with_tune`]: nothing is written under
    /// `_dir`.
    pub fn with_tune_dir(self, _dir: impl Into<PathBuf>) -> Self {
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
        "omp" => Ok(Box::new(OmpBackend::new())),
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
}
