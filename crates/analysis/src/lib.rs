//! # snowflake-analysis
//!
//! Finite-domain Diophantine dependence analysis for Snowflake stencil
//! groups (§III of the paper).
//!
//! The highly regular access patterns of stencils make their inherent
//! parallelism statically determinable: whether two accesses can touch the
//! same memory cell reduces, per dimension, to a *bounded linear
//! Diophantine equation* solvable with the extended Euclidean algorithm.
//! Because Snowflake domains are **finite** (a start, end and stride per
//! dimension resolved against a concrete grid), the analysis can prove
//! independence in cases infinite-domain frameworks (Halide's interval
//! analysis) must conservatively reject — e.g. that a Dirichlet ghost-face
//! stencil cannot interfere with a second face, or that the red and black
//! colorings of GSRB never write each other's points.
//!
//! Layers:
//!
//! * [`math`] — extended GCD, floor/ceil division.
//! * [`dio`] — the one bounded linear Diophantine solver: the exact
//!   intersection of two strided ranges.
//! * [`conflict`] — may two affine accesses over strided N-d regions touch
//!   the same cell? Returns a witness cell, or a typed rank mismatch.
//! * [`deps`] — stencil-level questions: is a stencil parallel-safe over
//!   its domain union? does stencil B depend on stencil A (RAW/WAR/WAW)?
//!   [`depends`] is the one hazard search, returning a witness cell.
//! * [`schedule`] — group-level planning: the dependence DAG and the
//!   greedy barrier grouping every backend runs.
//! * [`verify`] — the certification layer: schedule certificates,
//!   carrying the witness cells of the same conflict test and hazard
//!   search (bounds are proved once, by `Stencil::validate`). It also
//!   defines the one finding vocabulary both analyses report in: a
//!   [`Finding`] of a [`Rule`] at a [`Severity`].
//! * [`lint`] — the semantic layer above both: liveness dataflow,
//!   domain-coverage proofs, halo sufficiency and weight sanity, each
//!   finding a [`Finding`] with a witness cell.
//!
//! `snowflake-backends::verify::verify_ops` runs the two analyses as one
//! plan check.

pub mod conflict;
pub mod deps;
pub mod dio;
pub mod lint;
pub mod math;
pub mod schedule;
pub mod verify;

pub use conflict::{access_conflict, self_conflict};
pub use deps::{depends, is_parallel_safe, writes_disjoint, DepKind, Hazard, ResolvedStencil};
pub use lint::{
    apply_policy, check_coverage, lint_program, Coverage, LintConfig, LintReport, PolicyOutcome,
};
pub use schedule::{dependence_dag, greedy_phases, Schedule};
pub use verify::{certify_schedule, Finding, Rule, ScheduleCertificate, Severity};
