//! Integration tests for the semantic lint engine (`analysis::lint` +
//! `backends::lint` + the `snowlint` driver's program shapes): the
//! domain-coverage prover must agree with brute-force enumeration on
//! random strided-rect unions, and five seeded-defect fixture programs
//! must each yield exactly their expected rule with a concrete witness
//! cell.

use std::collections::HashSet;

use proptest::prelude::*;
use snowflake::analysis::{apply_policy, check_coverage, lint_program, LintConfig, Rule, Severity};
use snowflake::core::ShapeMap;
use snowflake::prelude::*;

fn shapes2(names: &[&str], n: usize) -> ShapeMap {
    let mut m = ShapeMap::new();
    for g in names {
        m.insert((*g).to_string(), vec![n, n]);
    }
    m
}

// ---------------------------------------------------------------------------
// Coverage prover vs brute force
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// `check_coverage` is exact: its gap/double verdicts over the parts'
    /// stride-1 bounding box must match literally enumerating every cell,
    /// and each witness must be a genuine member of the class it claims.
    #[test]
    fn coverage_verdicts_match_brute_force_enumeration(
        parts_spec in proptest::collection::vec(
            proptest::collection::vec((0i64..4, 1i64..5, 1i64..4), 1..3),
            1..5),
    ) {
        // Normalize: every part must share the first part's rank.
        let nd = parts_spec[0].len();
        let parts: Vec<Region> = parts_spec
            .iter()
            .map(|dims| {
                let mut lo = Vec::new();
                let mut hi = Vec::new();
                let mut st = Vec::new();
                for d in 0..nd {
                    let (l, n, s) = dims.get(d).copied().unwrap_or((0, 2, 1));
                    lo.push(l);
                    hi.push(l + n);
                    st.push(s);
                }
                Region::new(lo, hi, st)
            })
            .collect();

        // The declared region the lint pass would synthesize: the
        // stride-1 bounding box of all parts.
        let lo: Vec<i64> = (0..nd)
            .map(|d| parts.iter().map(|r| r.lo[d]).min().unwrap())
            .collect();
        let hi: Vec<i64> = (0..nd)
            .map(|d| parts.iter().map(|r| r.hi[d]).max().unwrap())
            .collect();
        let declared = Region::new(lo, hi, vec![1; nd]);

        let part_sets: Vec<HashSet<Vec<i64>>> =
            parts.iter().map(|r| r.points().collect()).collect();
        let mut gap_expected = false;
        let mut double_expected = false;
        for cell in declared.points() {
            let covers = part_sets.iter().filter(|s| s.contains(&cell)).count();
            gap_expected |= covers == 0;
            double_expected |= covers >= 2;
        }

        let cov = check_coverage(&declared, &parts);
        prop_assert_eq!(
            cov.gap.is_some(), gap_expected,
            "gap verdict diverged: parts {:?} got {:?}", parts, cov.gap
        );
        prop_assert_eq!(
            cov.double.is_some(), double_expected,
            "double verdict diverged: parts {:?} got {:?}", parts, cov.double
        );
        if let Some(cell) = &cov.gap {
            let covers = part_sets.iter().filter(|s| s.contains(cell)).count();
            prop_assert_eq!(covers, 0, "gap witness {:?} is covered", cell);
            prop_assert!(
                declared.points().any(|p| &p == cell),
                "gap witness {:?} lies outside the declared region", cell
            );
        }
        if let Some(cell) = &cov.double {
            let covers = part_sets.iter().filter(|s| s.contains(cell)).count();
            prop_assert!(covers >= 2, "double witness {:?} covered {} time(s)", cell, covers);
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded-defect fixtures: one planted bug, exactly one expected rule
// ---------------------------------------------------------------------------

/// Lint one ordered fixture program and return its findings.
fn lint_fixture(ops: &[(StencilGroup, ShapeMap)], config: &LintConfig) -> Vec<(Rule, Vec<i64>)> {
    let report = lint_program(ops, config).expect("fixture must be lintable");
    report
        .lints
        .iter()
        .map(|l| {
            (
                l.rule,
                l.witness
                    .clone()
                    .unwrap_or_else(|| panic!("{:?} finding carries no witness", l.rule)),
            )
        })
        .collect()
}

#[test]
fn fixture_dead_store_is_the_only_finding() {
    // tmp is written, then fully overwritten before any read: the first
    // store is dead.
    let shapes = shapes2(&["x", "tmp", "y"], 8);
    let group = StencilGroup::new()
        .with(
            Stencil::new(Expr::read_at("x", &[0, 0]), "tmp", RectDomain::interior(2))
                .named("dead_write"),
        )
        .with(
            Stencil::new(
                Expr::read_at("x", &[0, 0]) * 2.0,
                "tmp",
                RectDomain::interior(2),
            )
            .named("overwrite"),
        )
        .with(
            Stencil::new(
                Expr::read_at("tmp", &[0, 0]) * 0.5,
                "y",
                RectDomain::interior(2),
            )
            .named("consume"),
        );
    let findings = lint_fixture(
        &[(group, shapes)],
        &LintConfig::default()
            .ordered()
            .with_inputs(["x"])
            .with_outputs(["y"]),
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    let (rule, witness) = &findings[0];
    assert_eq!(*rule, Rule::DeadStore);
    // The witness is a cell the dead store wrote: somewhere in the interior.
    assert!(witness.iter().all(|&c| (1..7).contains(&c)), "{witness:?}");
}

#[test]
fn fixture_write_never_read_is_the_only_finding() {
    // `dead` writes a grid nothing reads and no one declared an output;
    // `live` feeds `consumer`, which writes the one output.
    let lap = Expr::read_at("x", &[1, 0, 0]) + Expr::read_at("x", &[-1, 0, 0]);
    let group = StencilGroup::new()
        .with(Stencil::new(lap.clone(), "scratch", RectDomain::interior(3)).named("dead"))
        .with(Stencil::new(lap, "y", RectDomain::interior(3)).named("live"))
        .with(
            Stencil::new(Expr::read_at("y", &[0, 0, 0]), "z", RectDomain::interior(3))
                .named("consumer"),
        );
    let mut shapes = ShapeMap::new();
    for g in ["x", "y", "z", "scratch"] {
        shapes.insert(g.to_string(), vec![8, 8, 8]);
    }
    let config = LintConfig::default()
        .ordered()
        .with_inputs(["x"])
        .with_outputs(["z"]);
    let report = lint_program(&[(group, shapes)], &config).expect("fixture must be lintable");
    let found: Vec<_> = report
        .lints
        .iter()
        .map(|l| (l.rule, l.stencil.as_str(), l.witness.as_deref()))
        .collect();
    assert_eq!(
        found,
        vec![(Rule::WriteNeverRead, "dead", Some(&[1, 1, 1][..]))]
    );
}

#[test]
fn fixture_coverage_gap_is_the_only_finding() {
    // A red/black sweep whose black color is clipped one row short: the
    // union no longer tiles the interior, and the missing row is the
    // witness.
    let shapes = shapes2(&["x", "rhs"], 10);
    let update = Expr::Const(0.25)
        * (Expr::read_at("x", &[-1, 0])
            + Expr::read_at("x", &[1, 0])
            + Expr::read_at("x", &[0, -1])
            + Expr::read_at("x", &[0, 1]))
        + Expr::Const(0.25) * Expr::read_at("rhs", &[0, 0]);
    let (red, _) = DomainUnion::red_black(2);
    // True black is rows {2,4,6,8}×cols{1,3,5,7} ∪ rows {1,3,5,7}×cols
    // {2,4,6,8}; clipping the first rect's rows at -2 loses row 8.
    let short_black = DomainUnion::new(vec![
        RectDomain::new(&[2, 1], &[-2, -1], &[2, 2]),
        RectDomain::new(&[1, 2], &[-1, -1], &[2, 2]),
    ]);
    let group = StencilGroup::new()
        .with(Stencil::new(update.clone(), "x", red).named("red"))
        .with(Stencil::new(update, "x", short_black).named("black"));
    let findings = lint_fixture(
        &[(group, shapes)],
        &LintConfig::default()
            .ordered()
            .with_inputs(["x", "rhs"])
            .with_outputs(["x"]),
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    let (rule, witness) = &findings[0];
    assert_eq!(*rule, Rule::CoverageGap);
    assert_eq!(witness[0], 8, "the clipped row is the gap: {witness:?}");
    assert_eq!(witness[1] % 2, 1, "gap cells are black (odd parity)");
}

#[test]
fn fixture_halo_gap_is_the_only_finding() {
    // x's interior is initialized but its ghost faces never are, and the
    // consumer reads one cell to the left — reaching ghost row 0.
    let shapes = shapes2(&["x", "y", "rhs"], 8);
    let group = StencilGroup::new()
        .with(
            Stencil::new(Expr::read_at("rhs", &[0, 0]), "x", RectDomain::interior(2))
                .named("init_interior"),
        )
        .with(
            Stencil::new(Expr::read_at("x", &[-1, 0]), "y", RectDomain::interior(2))
                .named("shift_left"),
        );
    let findings = lint_fixture(
        &[(group, shapes)],
        &LintConfig::default()
            .ordered()
            .with_inputs(["rhs"])
            .with_outputs(["y"]),
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    let (rule, witness) = &findings[0];
    assert_eq!(*rule, Rule::HaloGap);
    assert_eq!(witness[0], 0, "the unwritten ghost face: {witness:?}");
}

#[test]
fn fixture_bad_restriction_weights_is_the_only_finding() {
    // A 2-D 4-child restriction whose averaging weight is 0.120 instead
    // of 0.25: the source weights sum to 0.48, not a partition of unity.
    let mut shapes = ShapeMap::new();
    shapes.insert("fine".to_string(), vec![10, 10]);
    shapes.insert("coarse".to_string(), vec![6, 6]);
    let mut acc: Option<Expr> = None;
    for di in [-1i64, 0] {
        for dj in [-1i64, 0] {
            let read = Expr::read_mapped("fine", AffineMap::scaled(vec![2, 2], vec![di, dj]));
            acc = Some(match acc {
                None => read,
                Some(e) => e + read,
            });
        }
    }
    let group = StencilGroup::from(
        Stencil::new(
            Expr::Const(0.120) * acc.unwrap(),
            "coarse",
            RectDomain::interior(2),
        )
        .named("bad_restrict"),
    );
    let findings = lint_fixture(
        &[(group, shapes)],
        &LintConfig::default()
            .ordered()
            .with_inputs(["fine"])
            .with_outputs(["coarse"]),
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    let (rule, _) = &findings[0];
    assert_eq!(*rule, Rule::PartitionOfUnity);
}

// ---------------------------------------------------------------------------
// Policy behavior over a fixture
// ---------------------------------------------------------------------------

#[test]
fn allow_policy_suppresses_and_deny_policy_escalates() {
    let shapes = shapes2(&["x", "tmp", "y"], 8);
    let group = StencilGroup::new()
        .with(
            Stencil::new(Expr::read_at("x", &[0, 0]), "tmp", RectDomain::interior(2))
                .named("dead_write"),
        )
        .with(
            Stencil::new(
                Expr::read_at("x", &[0, 0]) * 2.0,
                "tmp",
                RectDomain::interior(2),
            )
            .named("overwrite"),
        )
        .with(
            Stencil::new(Expr::read_at("tmp", &[0, 0]), "y", RectDomain::interior(2))
                .named("consume"),
        );
    let config = LintConfig::default()
        .ordered()
        .with_inputs(["x"])
        .with_outputs(["y"]);
    let report = lint_program(&[(group, shapes)], &config).unwrap();
    assert_eq!(report.lints.len(), 1);
    assert_eq!(report.lints[0].severity, Severity::Warn);

    // --allow dead-store: suppressed, counted.
    let allowed = apply_policy(report.lints.clone(), &[], &[Rule::DeadStore]);
    assert!(allowed.lints.is_empty());
    assert_eq!(allowed.suppressed, 1);

    // --deny dead-store: escalated to deny severity.
    let denied = apply_policy(report.lints.clone(), &[Rule::DeadStore], &[]);
    assert_eq!(denied.lints.len(), 1);
    assert_eq!(denied.lints[0].severity, Severity::Deny);
    assert_eq!(denied.suppressed, 0);
}
