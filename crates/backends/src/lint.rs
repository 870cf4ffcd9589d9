//! Plan-time semantic linting (the backend half of `snowlint`; the pass
//! pipeline lives in `snowflake-analysis::lint`).
//!
//! The static verifier ([`crate::verify`]) certifies a plan *safe* —
//! in-bounds and race-free. This module asks whether it is *sensible*:
//! [`lint_plan`] re-runs the coverage / halo / copy / weight passes over
//! every `(group, shapes)` descriptor of a [`SolverPlan`] and returns one
//! aggregated [`LintReport`]. The plan's op list is an *inventory* (the
//! solver dispatches ops dynamically), so the order-sensitive liveness
//! rules are only meaningful when the caller opts in with
//! [`LintConfig::ordered`] on an execution-ordered program — the
//! `snowlint` binary does exactly that with an unrolled v-cycle.
//!
//! A plan built with the lint gate ([`crate::plan::Gates`]) runs the same
//! passes over its operator list before compiling anything: deny-level
//! findings refuse the build, the rest become the [`LintStats`] that
//! [`SolverPlan::stamp`] copies into `RunReport.lint`.

use snowflake_analysis::{lint_program, LintConfig, LintReport};
use snowflake_core::Result;

use crate::metrics::LintStats;
use crate::plan::SolverPlan;

/// Lint every operator of a compiled plan with `config`, aggregating the
/// per-op reports (rules-run counters sum; findings concatenate, already
/// deduplicated per op by the pass pipeline).
pub fn lint_plan(plan: &SolverPlan, config: &LintConfig) -> Result<LintReport> {
    lint_program(plan.descriptors(), config)
}

/// A [`LintReport`] as metrics-schema counters. `suppressed` comes from
/// the caller's `--allow` policy (zero when no policy was applied).
pub fn lint_stats(report: &LintReport, suppressed: u64) -> LintStats {
    LintStats {
        rules_run: report.rules_run,
        lints: report.lints.len() as u64,
        suppressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialBackend;
    use snowflake_core::{Expr, RectDomain, ShapeMap, Stencil, StencilGroup};

    fn shapes2(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        m.insert("x".into(), vec![n, n]);
        m.insert("y".into(), vec![n, n]);
        m
    }

    fn laplacian2() -> Expr {
        Expr::read_at("x", &[-1, 0])
            + Expr::read_at("x", &[1, 0])
            + Expr::read_at("x", &[0, -1])
            + Expr::read_at("x", &[0, 1])
            - 4.0 * Expr::read_at("x", &[0, 0])
    }

    #[test]
    fn lint_plan_aggregates_over_descriptors() {
        let group = StencilGroup::from(Stencil::new(laplacian2(), "y", RectDomain::interior(2)));
        let ops = vec![(group.clone(), shapes2(8)), (group, shapes2(16))];
        let plan = SolverPlan::build(Box::new(SequentialBackend::new()), &ops).unwrap();
        let report = lint_plan(&plan, &LintConfig::default()).unwrap();
        assert_eq!(report.rules_run, 7, "the 7 inventory-mode rules ran");
        assert!(report.lints.is_empty());
        let stats = lint_stats(&report, 3);
        assert_eq!(stats.rules_run, 7);
        assert_eq!(stats.lints, 0);
        assert_eq!(stats.suppressed, 3);
    }
}
