//! `snowlint` — the semantic lint driver over Snowflake DSL programs.
//!
//! The static verifier proves plans *safe* (in-bounds, race-free);
//! `snowlint` asks whether they are *sensible*: liveness dataflow (dead
//! stores, reads of uninitialized grids), domain-coverage proofs (does
//! red ∪ black exactly tile the interior?), halo sufficiency (is every
//! ghost cell an interior stencil reads produced by an earlier boundary
//! stencil?) and weight sanity (partitions of unity, cancelling
//! coefficients, divergent smoother row sums). The pass pipeline lives in
//! `snowflake-analysis::lint`; this binary builds *execution-ordered*
//! programs (the HPGMG solver's own V-cycle; example-shaped 2-D programs) with
//! precise input/output declarations, so the order-dependent rules run
//! with full strength.
//!
//! ```text
//! snowlint [--program hpgmg|examples] [--size N] [--json] [--out PATH]
//!          [--deny <rule|all>]... [--allow <rule>]...
//! ```
//!
//! Exit status: 0 when no deny-severity finding survives the policy, 1
//! otherwise, 2 on usage errors. `--json` emits a machine document (the
//! schema is in README.md and pinned by a golden-string test).

use std::collections::BTreeSet;

use hpgmg::cycle::{self, Step};
use hpgmg::snow::operator_list;
use hpgmg::stencils::Names;
use hpgmg::Problem;
use snowflake_analysis::{apply_policy, lint_program, Finding, LintConfig, Rule, Severity};
use snowflake_backends::metrics::json::Value;
use snowflake_bench::{arg_flag, arg_size, arg_usize, arg_value, check_args, or_exit, UsageError};
use snowflake_core::{bc, Expr, ShapeMap, Stencil, StencilGroup};

/// One named program: ops in execution order plus its lint environment.
struct LintTarget {
    name: String,
    ops: Vec<(StencilGroup, ShapeMap)>,
    config: LintConfig,
}

/// The stock HPGMG program: the Snowflake solver's own operator list
/// ([`hpgmg::snow::operator_list`], variable-coefficient Poisson as in
/// the evaluation's `vc` rows) in its default V-cycle order ([`cycle::vcycle`]), followed by
/// the final residual the host reads.
fn hpgmg_target(n: usize) -> LintTarget {
    let problem = Problem::poisson_vc(n);
    let levels = problem.level_sizes().len();
    let (list, index) = operator_list(&problem);
    let mut steps = cycle::vcycle(0, levels);
    steps.push(Step::Residual(0));
    // Repeating an identical op changes no lint verdict, so a run of
    // identical consecutive ops (the 24 bottom smooths) is cut to two, the
    // minimum exhibiting the overwrite-then-read pattern, which keeps the
    // dataflow scan small.
    let mut order: Vec<usize> = Vec::new();
    for op in steps.into_iter().filter_map(|step| index.op(step)) {
        if order.len() < 2 || order[order.len() - 2..] != [op, op] {
            order.push(op);
        }
    }

    // Coefficient grids are computed at setup, outside the stencil
    // program: externally initialized, ghost cells included.
    let mut inputs: BTreeSet<String> = (0..levels)
        .flat_map(|l| {
            let names = Names::level(l);
            [
                names.dinv,
                names.alpha,
                names.beta_x,
                names.beta_y,
                names.beta_z,
            ]
        })
        .collect();
    inputs.insert("x_0".to_string());
    inputs.insert("rhs_0".to_string());

    LintTarget {
        name: "hpgmg".to_string(),
        ops: order.into_iter().map(|op| list[op].clone()).collect(),
        config: LintConfig::default()
            .ordered()
            .with_inputs(inputs)
            .with_outputs(["x_0", "res_0"]),
    }
}

/// Example-shaped programs mirroring `examples/`: the quickstart-style
/// explicit heat step and the 2-D red/black Gauss–Seidel sweep.
fn example_targets(n: usize) -> Vec<LintTarget> {
    let mut shapes = ShapeMap::new();
    for g in ["u", "u_next", "x", "rhs"] {
        shapes.insert(g.to_string(), vec![n, n]);
    }

    // Heat step: refresh the Dirichlet ghosts, then one explicit Euler
    // step out of place.
    let lap = Expr::read_at("u", &[-1, 0])
        + Expr::read_at("u", &[1, 0])
        + Expr::read_at("u", &[0, -1])
        + Expr::read_at("u", &[0, 1])
        - 4.0 * Expr::read_at("u", &[0, 0]);
    let mut heat = StencilGroup::new();
    for s in bc::dirichlet_faces("u", 2) {
        heat.push(s);
    }
    heat.push(
        Stencil::new(
            Expr::read_at("u", &[0, 0]) + Expr::Const(0.1) * lap,
            "u_next",
            snowflake_core::RectDomain::interior(2),
        )
        .named("heat_step"),
    );

    // 2-D GSRB: faces, red, faces, black — the direct-assignment form
    // (x = ¼·(neighbors) + ¼·rhs), whose coverage the linter certifies.
    let update = Expr::Const(0.25)
        * (Expr::read_at("x", &[-1, 0])
            + Expr::read_at("x", &[1, 0])
            + Expr::read_at("x", &[0, -1])
            + Expr::read_at("x", &[0, 1]))
        + Expr::Const(0.25) * Expr::read_at("rhs", &[0, 0]);
    let (red, black) = snowflake_core::DomainUnion::red_black(2);
    let mut gsrb = StencilGroup::new();
    for s in bc::dirichlet_faces("x", 2) {
        gsrb.push(s);
    }
    gsrb.push(Stencil::new(update.clone(), "x", red).named("gsrb_red"));
    for s in bc::dirichlet_faces("x", 2) {
        gsrb.push(s);
    }
    gsrb.push(Stencil::new(update, "x", black).named("gsrb_black"));

    vec![
        LintTarget {
            name: "example/heat".to_string(),
            ops: vec![(heat, shapes.clone())],
            config: LintConfig::default()
                .ordered()
                .with_inputs(["u"])
                .with_outputs(["u_next"]),
        },
        LintTarget {
            name: "example/gsrb2d".to_string(),
            ops: vec![(gsrb, shapes)],
            config: LintConfig::default()
                .ordered()
                .with_inputs(["x", "rhs"])
                .with_outputs(["x"]),
        },
    ]
}

/// Collect every value of a repeatable `--flag value` argument.
fn arg_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < args.len() {
        if args[i] == flag {
            out.push(args[i + 1].clone());
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Parse `--deny`/`--allow` rule lists; `all` expands to every lint rule.
fn parse_rules(values: &[String], flag: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for v in values {
        if v == "all" {
            rules.extend(Rule::LINTS);
            continue;
        }
        let rule = Rule::LINTS
            .into_iter()
            .find(|r| r.to_string() == *v)
            .ok_or_else(|| {
                let names: Vec<String> = Rule::LINTS.iter().map(ToString::to_string).collect();
                format!(
                    "{flag} {v}: unknown lint rule {v:?} (expected one of: {})",
                    names.join(", ")
                )
            })?;
        rules.push(rule);
    }
    Ok(rules)
}

/// The example programs' grid size, `--size` (default 8). They are
/// written for at least 6 points per side (a 4×4 interior); a smaller
/// size is a usage error, not a silent resize.
fn example_size(args: &[String]) -> Result<usize, UsageError> {
    let n = arg_usize(args, "--size", 8)?;
    if n >= 6 {
        Ok(n)
    } else {
        Err(UsageError::BadValue {
            flag: "--size".to_string(),
            value: n.to_string(),
            expected: "at least 6 for --program examples",
        })
    }
}

/// One linted program's outcome.
struct Outcome {
    name: String,
    rules_run: u64,
    lints: Vec<Finding>,
    suppressed: u64,
}

/// Render the outcomes as the `snowlint --json` document.
fn render_json(outcomes: &[Outcome], deny: &[Rule], allow: &[Rule]) -> String {
    let str = |s: &str| Value::Str(s.to_string());
    let int = |n: u64| Value::Int(n.into());
    let rules = |rules: &[Rule]| Value::List(rules.iter().map(|r| str(&r.to_string())).collect());
    let lint = |l: &Finding| {
        let witness = l.witness.as_ref().map_or(Value::Null, |cell| {
            Value::List(cell.iter().map(|&c| Value::Int(c.into())).collect())
        });
        Value::Object(vec![
            ("rule", str(&l.rule.to_string())),
            ("severity", str(&l.severity.to_string())),
            ("stencil", str(&l.stencil)),
            ("grid", str(&l.grid)),
            ("witness", witness),
            ("detail", str(&l.detail)),
        ])
    };
    let programs = outcomes.iter().map(|o| {
        Value::Object(vec![
            ("name", str(&o.name)),
            ("rules_run", int(o.rules_run)),
            ("suppressed", int(o.suppressed)),
            ("lints", Value::List(o.lints.iter().map(lint).collect())),
        ])
    });
    let lints = || outcomes.iter().flat_map(|o| &o.lints);
    let denied = lints().filter(|l| l.severity == Severity::Deny).count();
    Value::Object(vec![
        ("tool", str("snowlint")),
        ("schema", Value::Int(1)),
        ("deny", rules(deny)),
        ("allow", rules(allow)),
        ("programs", Value::List(programs.collect())),
        ("total", int(lints().count() as u64)),
        ("denied", int(denied as u64)),
    ])
    .to_json()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_exit(check_args(
        &args,
        &["--program", "--size", "--out", "--deny", "--allow"],
        &["--json", "--help", "-h"],
    ));
    if arg_flag(&args, "--help") || arg_flag(&args, "-h") {
        println!(
            "usage: snowlint [--program hpgmg|examples] [--size N] [--json] [--out PATH]\n\
             \x20      [--deny <rule|all>]... [--allow <rule>]...\n\
             rules: {}",
            Rule::LINTS
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return;
    }

    let json_out = arg_flag(&args, "--json");
    let deny = match parse_rules(&arg_values(&args, "--deny"), "--deny") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let allow = match parse_rules(&arg_values(&args, "--allow"), "--allow") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let targets = match arg_value(&args, "--program").as_deref() {
        None | Some("hpgmg") => vec![hpgmg_target(or_exit(arg_size(&args, "--size", 8)))],
        Some("examples") => example_targets(or_exit(example_size(&args))),
        Some(other) => {
            eprintln!("error: unknown --program {other:?} (hpgmg, examples)");
            std::process::exit(2);
        }
    };

    let mut outcomes = Vec::new();
    for t in targets {
        let report = match lint_program(&t.ops, &t.config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: linting {}: {e}", t.name);
                std::process::exit(1);
            }
        };
        let rules_run = report.rules_run;
        let policy = apply_policy(report.lints, &deny, &allow);
        outcomes.push(Outcome {
            name: t.name,
            rules_run,
            lints: policy.lints,
            suppressed: policy.suppressed,
        });
    }

    let denied: u64 = outcomes
        .iter()
        .flat_map(|o| &o.lints)
        .filter(|l| l.severity == Severity::Deny)
        .count() as u64;

    if json_out {
        let doc = render_json(&outcomes, &deny, &allow);
        match arg_value(&args, "--out") {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, &doc) {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("snowlint: document written to {path}");
            }
            None => println!("{doc}"),
        }
    } else {
        for o in &outcomes {
            let warns = o
                .lints
                .iter()
                .filter(|l| l.severity == Severity::Warn)
                .count();
            let denies = o.lints.len() - warns;
            println!(
                "{}: {} rules run, {} finding(s) ({} deny, {} warn), {} suppressed",
                o.name,
                o.rules_run,
                o.lints.len(),
                denies,
                warns,
                o.suppressed
            );
            for l in &o.lints {
                println!("  {l}");
            }
        }
    }

    if denied > 0 {
        if !json_out {
            eprintln!("snowlint: {denied} deny-severity finding(s)");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_target(t: &LintTarget) -> (u64, Vec<Finding>) {
        let report = lint_program(&t.ops, &t.config).expect("lintable");
        (report.rules_run, report.lints)
    }

    #[test]
    fn stock_hpgmg_vcycle_lints_clean() {
        let (rules_run, lints) = lint_target(&hpgmg_target(8));
        assert_eq!(rules_run, 10, "ordered config runs the full pipeline");
        assert!(lints.is_empty(), "stock HPGMG must lint clean: {lints:#?}");
    }

    #[test]
    fn hpgmg_program_uses_the_solvers_constant_interpolation() {
        use hpgmg::stencils::interpolate_group;
        let ops = hpgmg_target(8).ops;
        let (fine, coarse) = (Names::level(0), Names::level(1));
        let constant = interpolate_group(&coarse, &fine);
        assert!(ops.iter().any(|(g, _)| *g == constant));
    }

    #[test]
    fn stock_hpgmg_three_levels_lints_clean() {
        let (_, lints) = lint_target(&hpgmg_target(16));
        assert!(lints.is_empty(), "{lints:#?}");
    }

    #[test]
    fn example_programs_lint_clean() {
        for t in example_targets(8) {
            let (rules_run, lints) = lint_target(&t);
            assert_eq!(rules_run, 10);
            assert!(lints.is_empty(), "{}: {lints:#?}", t.name);
        }
    }

    /// The `--json` schema, pinned byte for byte: a clean program, then
    /// one finding with a witness cell and one without, with strings
    /// that need escaping.
    #[test]
    fn json_document_matches_the_golden_string() {
        let outcomes = vec![
            Outcome {
                name: "hpgmg".to_string(),
                rules_run: 10,
                lints: Vec::new(),
                suppressed: 0,
            },
            Outcome {
                name: "with \"quotes\"".to_string(),
                rules_run: 7,
                lints: vec![
                    Finding::new(Rule::DeadStore, "a \"quoted\" detail")
                        .stencil("s")
                        .grid("g")
                        .witness(vec![1, -2, 3]),
                    Finding::new(Rule::CoverageGap, "no cell"),
                ],
                suppressed: 2,
            },
        ];
        let doc = render_json(&outcomes, &[Rule::DeadStore], &[Rule::ZeroWeight]);
        let golden = concat!(
            r#"{"tool":"snowlint","schema":1,"deny":["dead-store"],"allow":["zero-weight"],"#,
            r#""programs":[{"name":"hpgmg","rules_run":10,"suppressed":0,"lints":[]},"#,
            r#"{"name":"with \"quotes\"","rules_run":7,"suppressed":2,"lints":["#,
            r#"{"rule":"dead-store","severity":"warn","stencil":"s","grid":"g","#,
            r#""witness":[1,-2,3],"detail":"a \"quoted\" detail"},"#,
            r#"{"rule":"coverage-gap","severity":"deny","stencil":"","grid":"","#,
            r#""witness":null,"detail":"no cell"}]}],"total":2,"denied":1}"#,
        );
        assert_eq!(doc, golden);
    }

    #[test]
    fn policy_flags_parse_and_expand() {
        let all = parse_rules(&["all".to_string()], "--deny").unwrap();
        assert_eq!(all, Rule::LINTS);
        let one = parse_rules(&["halo-gap".to_string()], "--deny").unwrap();
        assert_eq!(one, vec![Rule::HaloGap]);
        // Every lint rule's name round-trips; verifier rules are not lint
        // policy.
        for r in Rule::LINTS {
            assert_eq!(parse_rules(&[r.to_string()], "--allow").unwrap(), vec![r]);
        }
        for bad in ["bogus", "out-of-bounds"] {
            let err = parse_rules(&[bad.to_string()], "--deny").unwrap_err();
            assert!(err.contains("unknown lint rule"), "{err}");
        }
    }

    #[test]
    fn example_size_below_six_is_a_usage_error() {
        let args = |v: &str| vec!["--size".to_string(), v.to_string()];
        assert_eq!(example_size(&[]), Ok(8));
        assert_eq!(example_size(&args("6")), Ok(6));
        assert_eq!(example_size(&args("7")), Ok(7));
        for small in ["5", "0"] {
            let err = example_size(&args(small)).unwrap_err();
            assert_eq!(
                err,
                UsageError::BadValue {
                    flag: "--size".into(),
                    value: small.into(),
                    expected: "at least 6 for --program examples",
                }
            );
        }
        assert!(example_size(&args("banana")).is_err());
    }
}
