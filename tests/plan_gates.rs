//! The plan check: a checked `SolverPlan` build runs the static verifier
//! and the linter, as one analysis, once over its whole operator list
//! before any compile. Deny-level findings of either refuse the plan with
//! one typed `PlanError::Refused`; a clean plan carries the check's
//! counters into every report it stamps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snowflake::analysis::{
    certify_schedule, is_parallel_safe, lint_program, LintConfig, ResolvedStencil, Rule,
};
use snowflake::backends::{verify_ops, PlanError};
use snowflake::core::{Result, ShapeMap};
use snowflake::hpgmg::{Problem, SnowSolver};
use snowflake::prelude::*;

/// A backend that counts its compiles and otherwise defers to `inner`.
struct Counting {
    inner: Box<dyn Backend>,
    compiles: Arc<AtomicU64>,
}

impl Counting {
    fn seq() -> (Box<dyn Backend>, Arc<AtomicU64>) {
        let compiles = Arc::new(AtomicU64::new(0));
        let backend = Counting {
            inner: Box::new(SequentialBackend::new()),
            compiles: compiles.clone(),
        };
        (Box::new(backend), compiles)
    }
}

impl Backend for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        self.compiles.fetch_add(1, Ordering::SeqCst);
        self.inner.compile(group, shapes)
    }
}

fn shapes(names: &[&str], shape: &[usize]) -> ShapeMap {
    names
        .iter()
        .map(|g| (g.to_string(), shape.to_vec()))
        .collect()
}

/// `x[3] = 2·y[p]` for every interior `p`: every iteration writes one cell,
/// so the kernel races unless the analysis serializes it.
fn seeded_race() -> StencilGroup {
    StencilGroup::from(
        Stencil::new(Expr::read_at("y", &[0]) * 2.0, "x", RectDomain::interior(1))
            .with_out_map(AffineMap::scaled(vec![0], vec![3])),
    )
}

/// A red/black pair whose black color is clipped one row short: the
/// combined coloring no longer tiles the interior.
fn coverage_gap() -> StencilGroup {
    let update = Expr::read_at("x", &[0, 0]) * 0.5;
    let (red, _) = DomainUnion::red_black(2);
    let short_black = DomainUnion::new(vec![
        RectDomain::new(&[2, 1], &[-2, -1], &[2, 2]),
        RectDomain::new(&[1, 2], &[-1, -1], &[2, 2]),
    ]);
    StencilGroup::new()
        .with(Stencil::new(update.clone(), "x", red).named("red"))
        .with(Stencil::new(update, "x", short_black).named("black"))
}

#[test]
fn non_injective_write_is_serialized_and_certified() {
    let race = vec![(seeded_race(), shapes(&["x", "y"], &[8]))];
    let rs = ResolvedStencil::resolve(&race[0].0.stencils()[0], &race[0].1).unwrap();
    assert!(!is_parallel_safe(&rs), "the analysis serializes the kernel");

    // The checked plan certifies with no parallel kernel, and every backend
    // that runs a task schedule agrees bitwise: the last write wins.
    let names = ["seq", "omp", "oclsim", "checked"];
    for name in names.into_iter().filter(|&name| backend_available(name)) {
        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        let plan = SolverPlan::build_checked(backend, &race).unwrap();
        let cert = verify_ops(plan.descriptors()).expect("the serialized race certifies");
        assert_eq!(cert.ops[0].parallel_kernels, 0, "{name}");
        let mut grids = GridSet::new();
        grids.insert("x", Grid::new(&[8]));
        grids.insert("y", Grid::from_fn(&[8], |p| p[0] as f64));
        plan.run(0, &mut grids).unwrap();
        let x3 = grids.get("x").unwrap().get(&[3]);
        assert_eq!(x3.to_bits(), 12.0f64.to_bits(), "{name}: x[3] = 2·y[6]");
    }

    // The verifier still refuses a forged parallel claim, with the cell.
    let Err(diags) = certify_schedule(&[rs], &[vec![0]], &[true]) else {
        panic!("a parallel claim on a non-injective write must be refused");
    };
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::WriteOverlap && d.witness.as_deref() == Some(&[3][..])),
        "{diags:?}"
    );
}

#[test]
fn gated_builds_refuse_before_any_compile() {
    // A coverage gap: only the linter objects (deny by default).
    let gap = vec![(coverage_gap(), shapes(&["x"], &[10, 10]))];
    let (backend, compiles) = Counting::seq();
    let refused = SolverPlan::build_checked(backend, &gap).err();
    let Some(PlanError::Refused(lints)) = &refused else {
        panic!("a coverage gap must be refused by the plan check: {refused:?}");
    };
    assert!(
        lints
            .iter()
            .any(|l| l.rule == Rule::CoverageGap && l.witness.is_some()),
        "{lints:?}"
    );
    let msg = refused.unwrap().to_string();
    assert!(msg.contains("coverage-gap"), "{msg}");
    assert!(msg.contains("witness"), "{msg}");
    assert_eq!(compiles.load(Ordering::SeqCst), 0, "refused before compile");

    // A read of an unallocated grid: only the verifier objects, with the
    // grid named in the error text.
    let ghost = StencilGroup::from(Stencil::new(
        Expr::read_at("ghost", &[0]),
        "y",
        RectDomain::all(1),
    ));
    let (backend, compiles) = Counting::seq();
    let Err(err) = SolverPlan::build_checked(backend, &[(ghost, shapes(&["y"], &[8]))]) else {
        panic!("a group reading an unallocated grid must be refused");
    };
    assert!(
        matches!(&err, PlanError::Refused(f) if f.iter().all(|d| d.rule == Rule::UnknownGrid)),
        "{err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("verification failed"), "got: {msg}");
    assert!(msg.contains("ghost"), "got: {msg}");
    assert_eq!(compiles.load(Ordering::SeqCst), 0, "refused before compile");
}

/// A program that trips both analyses, an out-of-bounds read and a
/// coverage gap, is refused once, and the refusal lists both rules.
#[test]
fn one_refusal_lists_the_findings_of_both_analyses() {
    // x[p + (0, 2)] over the interior reads one column past the grid.
    let far = StencilGroup::from(
        Stencil::new(Expr::read_at("x", &[0, 2]), "y", RectDomain::interior(2)).named("far"),
    );
    let shapes = shapes(&["x", "y"], &[10, 10]);
    let ops = [(coverage_gap(), shapes.clone()), (far, shapes)];
    let (backend, compiles) = Counting::seq();
    let Err(PlanError::Refused(findings)) = SolverPlan::build_checked(backend, &ops) else {
        panic!("an out-of-bounds read and a coverage gap must be refused");
    };
    let oob = findings
        .iter()
        .find(|d| d.rule == Rule::OutOfBounds)
        .unwrap_or_else(|| panic!("the verifier's finding: {findings:?}"));
    assert_eq!(oob.stencil, "far", "{oob}");
    assert_eq!(oob.grid, "x", "{oob}");
    assert_eq!(oob.dim, Some(1), "{oob}");
    let witness = oob.witness.as_ref().expect("a witness cell");
    assert_eq!(witness[1], 10, "one column past the grid: {oob}");
    assert_eq!(
        oob.to_string().matches("stencil \"far\"").count(),
        1,
        "the rendered finding names the stencil once: {oob}"
    );
    assert!(
        findings
            .iter()
            .any(|d| d.rule == Rule::CoverageGap && d.witness.is_some()),
        "the linter's finding: {findings:?}"
    );
    assert_eq!(compiles.load(Ordering::SeqCst), 0, "refused before compile");
}

/// A warn-level finding does not refuse the plan: it builds, runs and is
/// counted in the report.
#[test]
fn warn_level_finding_builds_runs_and_is_counted() {
    // The x[0,1] reads cancel: a zero net weight, a warning.
    let cancel =
        Expr::read_at("x", &[0, 0]) + Expr::read_at("x", &[0, 1]) - Expr::read_at("x", &[0, 1]);
    let group = StencilGroup::from(Stencil::new(cancel, "y", RectDomain::interior(2)));
    let ops = [(group, shapes(&["x", "y"], &[8, 8]))];
    let (backend, compiles) = Counting::seq();
    let plan = SolverPlan::build_checked(backend, &ops).expect("a warning does not refuse");
    assert_eq!(compiles.load(Ordering::SeqCst), 1);
    let lint = lint_program(&ops, &LintConfig::default()).unwrap();
    assert_eq!(
        lint.lints.iter().map(|l| l.rule).collect::<Vec<_>>(),
        [Rule::ZeroWeight]
    );

    let mut grids = GridSet::new();
    grids.insert("x", Grid::from_fn(&[8, 8], |p| (p[0] * 8 + p[1]) as f64));
    grids.insert("y", Grid::new(&[8, 8]));
    let mut report = RunReport::new();
    plan.stamp(&mut report);
    plan.run_with_report(0, &mut grids, &mut report).unwrap();
    assert_eq!(report.verify.warnings, 1);
    assert_eq!(report.verify.rules_run, 7);
    assert_eq!(report.runs, 1);
    assert_eq!(grids.get("y").unwrap().get(&[3, 5]), 29.0);
}

#[test]
fn certified_hpgmg_build_stamps_one_pass_of_gate_counters() {
    let (backend, compiles) = Counting::seq();
    let mut solver = SnowSolver::build(Problem::poisson_vc(8), backend, true).unwrap();
    let plan = solver.plan();
    assert_eq!(
        compiles.load(Ordering::SeqCst),
        plan.cache_stats().misses,
        "the plan check compiles nothing itself"
    );
    let cert = verify_ops(plan.descriptors()).expect("the HPGMG plan certifies");
    let lint = lint_program(plan.descriptors(), &LintConfig::default()).unwrap();
    solver.enable_metrics();
    solver.vcycle(0).unwrap();
    let report = solver.take_metrics().unwrap();
    assert_eq!(
        report.verify,
        cert.stats(),
        "one plan-check pass over the plan"
    );
    assert_eq!(report.verify.rules_run, lint.rules_run, "one linter pass");
    assert_eq!(
        report.verify.rules_run, 7,
        "the inventory-mode rules ran once"
    );
    assert_eq!(report.verify.warnings, 0);
    assert!(lint.lints.is_empty(), "{:?}", lint.lints);
    // The counters of the HPGMG V-cycle plan: 45 stencils, their source
    // accesses plus the lowered cursors, and 12 barrier phases.
    assert_eq!(
        (
            report.verify.stencils_checked,
            report.verify.accesses_proved,
            report.verify.phases_certified
        ),
        (45, 747, 12)
    );

    // Unchecked builds carry zero plan-check counters.
    let mut unchecked = SnowSolver::new(Problem::poisson_vc(8), Counting::seq().0).unwrap();
    unchecked.enable_metrics();
    let report = unchecked.take_metrics().unwrap();
    assert_eq!(report.verify, Default::default());
}

#[test]
fn gated_plans_keep_every_registry_backend_name_and_run() {
    let group = StencilGroup::from(Stencil::new(
        Expr::read_at("x", &[0, 0]) * 2.0,
        "y",
        RectDomain::interior(2),
    ));
    for &name in available_backends() {
        if !backend_available(name) {
            continue;
        }
        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        let mut grids = GridSet::new();
        grids.insert("x", Grid::from_fn(&[8, 8], |p| (p[0] * 8 + p[1]) as f64));
        grids.insert("y", Grid::new(&[8, 8]));
        let ops = [(group.clone(), grids.shapes())];
        let plan = SolverPlan::build_checked(backend, &ops).unwrap();
        assert_eq!(plan.backend_name(), name);
        let mut report = RunReport::new();
        plan.stamp(&mut report);
        assert_eq!(report.backend, name);
        assert_eq!(report.verify.rules_run, 7, "{name}");
        assert!(report.verify.stencils_checked > 0, "{name}");
        plan.run(0, &mut grids).unwrap();
        assert_eq!(grids.get("y").unwrap().get(&[3, 5]), 58.0, "{name}");
    }
}
