//! # snowflake-backends
//!
//! The micro-compiler backends of Snowflake (§IV of the paper).
//!
//! The paper's JIT hands a narrow, analyzed program description (see
//! `snowflake-ir`) to small, interchangeable, platform-specific code
//! generators. This crate provides six:
//!
//! | Backend | Paper counterpart | Notes |
//! |---|---|---|
//! | [`interp::InterpreterBackend`] | the Python reference backend | walks the expression tree per point; slow, canonical semantics |
//! | [`seq::SequentialBackend`] | sequential C | closed-form kernels (linear records and register tapes), single thread |
//! | [`omp::OmpBackend`] | C + OpenMP | rayon task farm; greedy barrier phases, arbitrary-dimension tiling, multicolor reordering |
//! | [`oclsim::OclSimBackend`] | C + OpenCL | emits OpenCL kernels with the paper's tall-skinny blocking (a 2-D NDRange, the remaining dimensions rolled), plus a CPU driver (see [`codegen_ocl`]); compiled through cjit's toolchain, the driver walks cjit's loop nests with a row's work-items innermost, one plane per kernel call |
//! | [`cjit::CJitBackend`] | C + OpenMP via a real C compiler | emits C99 (see [`codegen_c`]), invokes the system `cc`, `dlopen`s the result — the paper's actual JIT pipeline |
//! | [`checked::CheckedBackend`] | — (sanitizer) | instrumented interpreter over the lowered form: range-checks every access, tracks per-phase shadow write-sets, bitwise-identical to `seq` |
//!
//! [`codegen_c`] and [`codegen_ocl`] emit C/OpenMP and OpenCL source from
//! the lowered IR; `cjit` compiles and runs the former, `oclsim` the
//! latter as C (no OpenCL runtime is assumed to exist). Both need a C
//! compiler ([`CJitBackend::available`]).
//!
//! `seq` and `omp` differ only in their fixed `exec::Schedule` choices:
//! one builder cuts the loop nests the generated C runs (`exec::nests`)
//! into tasks per barrier phase, and one executor (`exec::Phased`) runs
//! every schedule.
//!
//! All backends implement [`Backend`] and produce [`Executable`]s.
//! [`plan::SolverPlan`] is the one execution path, the paper's cached
//! callables: a fixed operator list is compiled up front (structurally
//! identical ops share one executable) into a flat table, dispatched by
//! index with zero per-call hashing or locking, and timed per op into a
//! [`RunReport`]. A checked build ([`SolverPlan::build_checked`]) runs the
//! plan check ([`verify::verify_ops`]: the static verifier and the linter
//! as one analysis) once over the operator list before any compile.
//! [`registry`] constructs any backend by name from one [`BackendOptions`]
//! bag, so drivers select implementations with a string instead of
//! duplicated match arms.

pub mod checked;
pub mod cjit;
pub mod codegen_c;
pub mod codegen_ocl;
pub mod exec;
pub mod interp;
pub mod metrics;
pub mod oclsim;
pub mod omp;
pub mod plan;
pub mod registry;
pub mod seq;
pub mod specialize;
pub mod tune;
pub mod verify;
pub mod view;

use snowflake_core::{Result, ShapeMap, StencilGroup};
use snowflake_grid::GridSet;

pub use checked::CheckedBackend;
pub use cjit::CJitBackend;
pub use interp::InterpreterBackend;
pub use metrics::{
    BackendStats, CacheStats, KernelCounters, OpSample, RunReport, TuneStats, VerifyStats,
};
pub use oclsim::OclSimBackend;
pub use omp::OmpBackend;
pub use plan::{PlanError, SolverPlan};
pub use registry::{available_backends, backend_available, backend_from_name, BackendOptions};
pub use seq::SequentialBackend;
pub use tune::TileTuner;
pub use verify::{verify_op, verify_ops, witness_count, OpCertificate, PlanCertificate};

/// A compiled stencil group, ready to run against a [`GridSet`].
pub trait Executable: Send + Sync {
    /// Execute one full pass of the group.
    ///
    /// The grid set must contain every grid the group references, with the
    /// shapes the group was compiled for.
    fn run(&self, grids: &mut GridSet) -> Result<()>;

    /// What one run dispatches: points, tiles and the
    /// parallel/sequential split. A static property of the compiled
    /// schedule, read once when a [`plan::SolverPlan`] is built.
    fn work(&self) -> KernelCounters;
}

/// A micro-compiler: turns a stencil group plus concrete shapes into an
/// [`Executable`]. Mirrors the paper's `Stencil.compile()` /
/// `StencilGroup.compile()` returning a callable.
///
/// Every compile starts from the same front end: `Stencil::validate`
/// proves each access in bounds and resolves the domains, and the
/// lowering backends lower with `LowerOptions::default()`, which is
/// exactly the lowering the plan check ([`verify::verify_ops`])
/// certifies.
pub trait Backend: Send + Sync {
    /// Human-readable backend name ("omp", "oclsim", …).
    fn name(&self) -> &'static str;

    /// Compile the group for the given shapes.
    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>>;

    /// Counters this backend keeps across its compiles: the on-disk
    /// artifact cache of the compiled backends (cjit, oclsim) and the
    /// OpenMP-like backend's persisted tile tuner (see
    /// [`tune::TileTuner`]). Everything else reports zeros via this
    /// default.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

/// A directory named by environment variable `var`; unset and empty
/// values both mean "not configured".
pub(crate) fn env_dir(var: &str) -> Option<std::path::PathBuf> {
    std::env::var_os(var)
        .filter(|dir| !dir.is_empty())
        .map(std::path::PathBuf::from)
}

/// Work of a schedule that makes one dispatch per loop nest
/// (`exec::nests`) of each kernel, as `seq`'s tasks do, classified by the
/// analysis' verdict on each kernel: the work of `checked`, `cjit` and
/// `oclsim`.
pub(crate) fn dispatch_work(lowered: &snowflake_ir::Lowered) -> KernelCounters {
    let mut work = KernelCounters {
        points: lowered.num_points(),
        ..KernelCounters::default()
    };
    for kernel in &lowered.kernels {
        let n = exec::nests(kernel).len() as u64;
        work.tiles += n;
        if kernel.parallel_safe {
            work.parallel_tasks += n;
        } else {
            work.sequential_tasks += n;
        }
    }
    work
}

/// Verify at run time that a grid set matches the shapes a group was
/// lowered against; returns the dense pointer and length tables in lowered
/// order.
pub(crate) fn check_and_ptrs(
    lowered: &snowflake_ir::Lowered,
    grids: &mut GridSet,
) -> Result<(Vec<*mut f64>, Vec<usize>)> {
    let mut ptrs = Vec::with_capacity(lowered.grid_names.len());
    let mut lens = Vec::with_capacity(lowered.grid_names.len());
    for (name, shape) in lowered.grid_names.iter().zip(&lowered.grid_shapes) {
        let g = grids
            .get_mut(name)
            .ok_or_else(|| snowflake_core::CoreError::UnknownGrid {
                stencil: String::new(),
                grid: name.clone(),
            })?;
        if g.shape() != shape.as_slice() {
            return Err(snowflake_core::CoreError::Backend(format!(
                "grid {name:?} has shape {:?} but group was compiled for {:?}",
                g.shape(),
                shape
            )));
        }
        lens.push(g.len());
        ptrs.push(g.as_mut_ptr());
    }
    Ok((ptrs, lens))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_directory_variables_count_as_unset() {
        // A variable name no other test reads, so setting it cannot race.
        const VAR: &str = "SNOWFLAKE_ENV_DIR_UNIT_TEST";
        std::env::remove_var(VAR);
        assert_eq!(env_dir(VAR), None);
        std::env::set_var(VAR, "");
        assert_eq!(
            env_dir(VAR),
            None,
            "empty must not mean the working directory"
        );
        std::env::set_var(VAR, "cache");
        assert_eq!(env_dir(VAR), Some(std::path::PathBuf::from("cache")));
        std::env::remove_var(VAR);
    }
}
