//! # snowflake
//!
//! A Rust reproduction of **"Snowflake: A Lightweight Portable Stencil
//! DSL"** (Zhang, Driscoll, Fox, Markley, Williams, Basu — IPDPSW 2017).
//!
//! This facade crate re-exports the whole system:
//!
//! * [`core`] — the DSL: [`core::WeightArray`], [`core::SparseArray`],
//!   [`core::Component`], [`core::RectDomain`], [`core::DomainUnion`],
//!   [`core::Stencil`], [`core::StencilGroup`] (Table I of the paper).
//! * [`analysis`] — finite-domain Diophantine dependence analysis (§III).
//! * [`ir`] — the platform-agnostic middle end (§IV, front half).
//! * [`backends`] — the micro-compilers (§IV, back half): interpreter,
//!   sequential, OpenMP-like (rayon), OpenCL-simulator, and a real C JIT
//!   that emits C99+OpenMP, invokes the system compiler and `dlopen`s the
//!   result.
//! * [`grid`] — the N-dimensional mesh substrate.
//! * [`hpgmg`] — the paper's evaluation driver: a full geometric-multigrid
//!   benchmark in both hand-optimized and Snowflake-driven forms (§V).
//! * [`roofline`] — modified-STREAM bandwidth measurement and Roofline
//!   bounds (§V-B).
//!
//! ## Quickstart
//!
//! ```
//! use snowflake::prelude::*;
//!
//! // A 2-D 5-point Laplacian over the interior, like the paper's examples.
//! let lap = Component::new("u", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
//! let stencil = Stencil::new(lap, "out", RectDomain::interior(2));
//! let group = StencilGroup::from(stencil);
//!
//! // Meshes.
//! let mut grids = GridSet::new();
//! grids.insert("u", Grid::from_fn(&[16, 16], |p| (p[0] * p[0]) as f64));
//! grids.insert("out", Grid::new(&[16, 16]));
//!
//! // Compile on a backend (here: the rayon OpenMP-like micro-compiler)
//! // and run. The 2nd difference of i² is exactly 2.
//! let exe = OmpBackend::new().compile(&group, &grids.shapes()).unwrap();
//! exe.run(&mut grids).unwrap();
//! assert_eq!(grids.get("out").unwrap().get(&[5, 5]), 2.0);
//! ```

pub use hpgmg;
pub use roofline;
pub use snowflake_analysis as analysis;
pub use snowflake_backends as backends;
pub use snowflake_core as core;
pub use snowflake_grid as grid;
pub use snowflake_ir as ir;

/// Everything a typical program needs, in one import.
pub mod prelude {
    pub use snowflake_backends::{
        available_backends, backend_from_name, Backend, BackendOptions, CJitBackend, Executable,
        InterpreterBackend, OclSimBackend, OmpBackend, RunReport, SequentialBackend, SolverPlan,
    };
    pub use snowflake_core::{
        weights1, weights2, weights3, AffineMap, Component, DomainUnion, Expr, RectDomain,
        SparseArray, Stencil, StencilGroup, WeightArray,
    };
    pub use snowflake_grid::{Grid, GridSet, Region};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let s = Stencil::new(Expr::read_at("a", &[0]) * 3.0, "b", RectDomain::all(1));
        let mut grids = GridSet::new();
        grids.insert("a", Grid::from_fn(&[4], |p| p[0] as f64));
        grids.insert("b", Grid::new(&[4]));
        let exe = SequentialBackend::new()
            .compile(&StencilGroup::from(s), &grids.shapes())
            .unwrap();
        exe.run(&mut grids).unwrap();
        assert_eq!(grids.get("b").unwrap().as_slice(), &[0.0, 3.0, 6.0, 9.0]);
    }
}
