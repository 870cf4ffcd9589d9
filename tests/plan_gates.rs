//! Plan gates: a gated `SolverPlan` build runs the static verifier and the
//! linter once over its whole operator list, before any compile. A finding
//! refuses the plan with a typed `PlanError`; a clean plan carries the
//! gates' counters into every report it stamps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snowflake::analysis::{
    certify_schedule, is_parallel_safe, DiagnosticKind, LintConfig, LintRule, ResolvedStencil,
};
use snowflake::backends::{lint_plan, lint_stats, verify_plan, Gates, PlanError};
use snowflake::core::{Result, ShapeMap};
use snowflake::hpgmg::{Problem, Smoother, SnowSolver};
use snowflake::prelude::*;

const BOTH: Gates = Gates {
    verify: true,
    lint: true,
};

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

    fn lower_options(&self) -> snowflake::ir::LowerOptions {
        self.inner.lower_options()
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

    // The gated plan certifies with no parallel kernel, and every backend
    // that runs a task schedule agrees bitwise: the last write wins.
    for name in ["seq", "omp", "oclsim", "checked"] {
        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        let plan = SolverPlan::build_gated(backend, &race, BOTH).unwrap();
        let cert = verify_plan(&plan).expect("the serialized race certifies");
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
            .any(|d| d.kind == DiagnosticKind::WriteOverlap
                && d.witness.as_deref() == Some(&[3][..])),
        "{diags:?}"
    );
}

#[test]
fn gated_builds_refuse_before_any_compile() {
    // A coverage gap: the lint gate refuses it (deny by default).
    let gap = vec![(coverage_gap(), shapes(&["x"], &[10, 10]))];
    let (backend, compiles) = Counting::seq();
    let lint_only = Gates {
        verify: false,
        lint: true,
    };
    let refused = SolverPlan::build_gated(backend, &gap, lint_only).err();
    let Some(PlanError::Denied(lints)) = &refused else {
        panic!("a coverage gap must be refused by the lint gate: {refused:?}");
    };
    assert!(
        lints
            .iter()
            .any(|l| l.rule == LintRule::CoverageGap && l.witness.is_some()),
        "{lints:?}"
    );
    let msg = refused.unwrap().to_string();
    assert!(msg.contains("coverage-gap"), "{msg}");
    assert!(msg.contains("witness"), "{msg}");
    assert_eq!(compiles.load(Ordering::SeqCst), 0, "refused before compile");

    // A read of an unallocated grid: refused by the verify gate, with the
    // grid named in the error text.
    let ghost = StencilGroup::from(Stencil::new(
        Expr::read_at("ghost", &[0]),
        "y",
        RectDomain::all(1),
    ));
    let (backend, compiles) = Counting::seq();
    let verify_only = Gates {
        verify: true,
        lint: false,
    };
    let Err(err) = SolverPlan::build_gated(backend, &[(ghost, shapes(&["y"], &[8]))], verify_only)
    else {
        panic!("a group reading an unallocated grid must be refused");
    };
    assert!(matches!(err, PlanError::Unverified(_)), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("verification failed"), "got: {msg}");
    assert!(msg.contains("ghost"), "got: {msg}");
    assert_eq!(compiles.load(Ordering::SeqCst), 0, "refused before compile");
}

#[test]
fn certified_hpgmg_build_stamps_one_pass_of_gate_counters() {
    let (backend, compiles) = Counting::seq();
    let mut solver =
        SnowSolver::with_gates(Problem::poisson_vc(8), backend, Smoother::GsRb, BOTH).unwrap();
    let plan = solver.plan();
    assert_eq!(
        compiles.load(Ordering::SeqCst),
        plan.cache_stats().misses,
        "the gates compile nothing themselves"
    );
    let cert = verify_plan(plan).expect("the HPGMG plan certifies");
    let lint = lint_plan(plan, &LintConfig::default()).unwrap();
    solver.enable_metrics();
    solver.vcycle(0).unwrap();
    let report = solver.take_metrics().unwrap();
    assert_eq!(
        report.verify,
        cert.stats(),
        "one verifier pass over the plan"
    );
    assert_eq!(report.lint, lint_stats(&lint, 0), "one linter pass");
    assert_eq!(
        report.lint.rules_run, 7,
        "the inventory-mode rules ran once"
    );
    assert_eq!(report.lint.lints, 0);
    assert!(report.verify.stencils_checked > 0 && report.verify.accesses_proved > 0);
    assert_eq!(report.verify.witnesses, 0);

    // Ungated builds carry zero gate counters.
    let mut ungated = SnowSolver::new(Problem::poisson_vc(8), Counting::seq().0).unwrap();
    ungated.enable_metrics();
    let report = ungated.take_metrics().unwrap();
    assert_eq!(report.verify, Default::default());
    assert_eq!(report.lint, Default::default());
}

#[test]
fn gated_plans_keep_every_registry_backend_name_and_run() {
    let group = StencilGroup::from(Stencil::new(
        Expr::read_at("x", &[0, 0]) * 2.0,
        "y",
        RectDomain::interior(2),
    ));
    for &name in available_backends() {
        if name == "cjit" && !CJitBackend::available() {
            continue;
        }
        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        let mut grids = GridSet::new();
        grids.insert("x", Grid::from_fn(&[8, 8], |p| (p[0] * 8 + p[1]) as f64));
        grids.insert("y", Grid::new(&[8, 8]));
        let ops = [(group.clone(), grids.shapes())];
        let plan = SolverPlan::build_gated(backend, &ops, BOTH).unwrap();
        assert_eq!(plan.backend_name(), name);
        let mut report = RunReport::new();
        plan.stamp(&mut report);
        assert_eq!(report.backend, name);
        assert_eq!(report.lint.rules_run, 7, "{name}");
        assert!(report.verify.stencils_checked > 0, "{name}");
        plan.run(0, &mut grids).unwrap();
        assert_eq!(grids.get("y").unwrap().get(&[3, 5]), 58.0, "{name}");
    }
}
