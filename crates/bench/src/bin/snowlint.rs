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
//!          [--deny <rule|all>]... [--allow <rule>]... [--check PATH]
//! ```
//!
//! Exit status: 0 when no deny-severity finding survives the policy, 1
//! otherwise, 2 on usage errors. `--json` emits a machine document
//! (schema below); `--check PATH` re-parses a previously written document
//! and validates the schema (the CI round-trip).

use std::collections::BTreeSet;

use hpgmg::cycle::{self, Step};
use hpgmg::snow::operator_list;
use hpgmg::stencils::Names;
use hpgmg::{BottomSolve, InterpKind, Problem, Smoother};
use snowflake_analysis::{apply_policy, lint_program, Lint, LintConfig, LintRule, Severity};
use snowflake_backends::metrics::json;
use snowflake_bench::{arg_flag, arg_size_or_exit, arg_usize_or_exit, arg_value};
use snowflake_core::{bc, Expr, ShapeMap, Stencil, StencilGroup};

/// One named program: ops in execution order plus its lint environment.
struct LintTarget {
    name: String,
    ops: Vec<(StencilGroup, ShapeMap)>,
    config: LintConfig,
}

/// The stock HPGMG program: the Snowflake solver's own operator list
/// ([`hpgmg::snow::operator_list`], variable-coefficient Poisson as
/// figure9) in its default V-cycle order ([`cycle::vcycle`]), followed by
/// the final residual the host reads.
fn hpgmg_target(n: usize) -> LintTarget {
    let problem = Problem::poisson_vc(n);
    let levels = problem.level_sizes().len();
    let (list, index) = operator_list(&problem, Smoother::default());
    let mut steps = cycle::vcycle(0, levels, BottomSolve::default());
    steps.push(Step::Residual(0));
    // Repeating an identical op changes no lint verdict, so a run of
    // identical consecutive ops (the 24 bottom smooths) is cut to two, the
    // minimum exhibiting the overwrite-then-read pattern, which keeps the
    // dataflow scan small.
    let mut order: Vec<usize> = Vec::new();
    for op in steps
        .into_iter()
        .filter_map(|step| index.op(step, InterpKind::default()))
    {
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

/// Parse `--deny`/`--allow` rule lists; `all` expands to every rule.
fn parse_rules(values: &[String], flag: &str) -> Result<Vec<LintRule>, String> {
    let mut rules = Vec::new();
    for v in values {
        if v == "all" {
            rules.extend(LintRule::ALL);
        } else {
            rules.push(
                v.parse::<LintRule>()
                    .map_err(|e| format!("{flag} {v}: {e}"))?,
            );
        }
    }
    Ok(rules)
}

/// One linted program's outcome.
struct Outcome {
    name: String,
    rules_run: u64,
    lints: Vec<Lint>,
    suppressed: u64,
}

/// Render the outcomes as the `snowlint --json` document.
fn render_json(outcomes: &[Outcome], deny: &[LintRule], allow: &[LintRule]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\"tool\":\"snowlint\",\"schema\":1,\"deny\":[");
    for (i, r) in deny.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json::escape(&r.to_string()));
    }
    s.push_str("],\"allow\":[");
    for (i, r) in allow.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json::escape(&r.to_string()));
    }
    s.push_str("],\"programs\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":{},\"rules_run\":{},\"suppressed\":{},\"lints\":[",
            json::escape(&o.name),
            o.rules_run,
            o.suppressed
        );
        for (j, l) in o.lints.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"rule\":{},\"severity\":{},\"stencil\":{},\"grid\":{},\"witness\":",
                json::escape(&l.rule.to_string()),
                json::escape(&l.severity.to_string()),
                json::escape(&l.stencil),
                json::escape(&l.grid)
            );
            match &l.witness {
                Some(cell) => {
                    s.push('[');
                    for (k, c) in cell.iter().enumerate() {
                        if k > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "{c}");
                    }
                    s.push(']');
                }
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"detail\":{}}}", json::escape(&l.detail));
        }
        s.push_str("]}");
    }
    let denied: u64 = outcomes
        .iter()
        .flat_map(|o| &o.lints)
        .filter(|l| l.severity == Severity::Deny)
        .count() as u64;
    let total: u64 = outcomes.iter().map(|o| o.lints.len() as u64).sum();
    let _ = write!(s, "],\"total\":{total},\"denied\":{denied}}}");
    s
}

/// Validate a previously written `--json` document against the schema
/// (the round-trip half of the CI `lint` job).
fn check_document(src: &str) -> Result<(), String> {
    let doc = json::parse(src)?;
    if doc.get("tool").and_then(json::Value::as_str) != Some("snowlint") {
        return Err("missing or wrong \"tool\" field".to_string());
    }
    if doc.get("schema").and_then(json::Value::as_u64) != Some(1) {
        return Err("missing or wrong \"schema\" field".to_string());
    }
    for key in ["deny", "allow"] {
        let arr = doc
            .get(key)
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("missing {key:?} array"))?;
        for v in arr {
            let s = v.as_str().ok_or_else(|| format!("non-string in {key:?}"))?;
            s.parse::<LintRule>()
                .map_err(|e| format!("{key:?} entry: {e}"))?;
        }
    }
    let programs = doc
        .get("programs")
        .and_then(json::Value::as_array)
        .ok_or("missing \"programs\" array")?;
    for p in programs {
        let name = p
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or("program without a name")?;
        p.get("rules_run")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("program {name:?}: missing rules_run"))?;
        p.get("suppressed")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("program {name:?}: missing suppressed"))?;
        let lints = p
            .get("lints")
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("program {name:?}: missing lints array"))?;
        for l in lints {
            let rule = l
                .get("rule")
                .and_then(json::Value::as_str)
                .ok_or_else(|| format!("program {name:?}: lint without rule"))?;
            rule.parse::<LintRule>()
                .map_err(|e| format!("program {name:?}: {e}"))?;
            let sev = l
                .get("severity")
                .and_then(json::Value::as_str)
                .ok_or_else(|| format!("program {name:?}: lint without severity"))?;
            if sev != "warn" && sev != "deny" {
                return Err(format!("program {name:?}: bad severity {sev:?}"));
            }
            for key in ["stencil", "grid", "detail"] {
                l.get(key)
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| format!("program {name:?}: lint without {key}"))?;
            }
            match l.get("witness") {
                Some(json::Value::Null) => {}
                Some(v) => {
                    let cell = v
                        .as_array()
                        .ok_or_else(|| format!("program {name:?}: non-array witness"))?;
                    if cell.iter().any(|c| c.as_f64().is_none()) {
                        return Err(format!("program {name:?}: non-numeric witness cell"));
                    }
                }
                None => return Err(format!("program {name:?}: lint without witness field")),
            }
        }
    }
    for key in ["total", "denied"] {
        doc.get(key)
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("missing {key:?} counter"))?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if arg_flag(&args, "--help") || arg_flag(&args, "-h") {
        println!(
            "usage: snowlint [--program hpgmg|examples] [--size N] [--json] [--out PATH]\n\
             \x20      [--deny <rule|all>]... [--allow <rule>]... [--check PATH]\n\
             rules: {}",
            LintRule::ALL
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return;
    }

    // --check PATH: schema round-trip of a previously written document.
    if let Some(path) = arg_value(&args, "--check") {
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                std::process::exit(1);
            }
        };
        match check_document(&src) {
            Ok(()) => {
                println!("snowlint: {path} round-trips the schema");
                return;
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(1);
            }
        }
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
        None | Some("hpgmg") => vec![hpgmg_target(arg_size_or_exit(&args, "--size", 8))],
        Some("examples") => example_targets(arg_usize_or_exit(&args, "--size", 8).max(6)),
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

    fn lint_target(t: &LintTarget) -> (u64, Vec<Lint>) {
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
        use hpgmg::stencils::{interpolate_group, interpolate_linear_group};
        let ops = hpgmg_target(8).ops;
        let (fine, coarse) = (Names::level(0), Names::level(1));
        let constant = interpolate_group(&coarse, &fine);
        let linear = interpolate_linear_group(&coarse, &fine);
        assert!(ops.iter().any(|(g, _)| *g == constant));
        assert!(ops.iter().all(|(g, _)| *g != linear));
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

    #[test]
    fn json_document_round_trips_the_schema() {
        let report = {
            let t = hpgmg_target(8);
            lint_program(&t.ops, &t.config).unwrap()
        };
        let outcomes = vec![
            Outcome {
                name: "hpgmg".to_string(),
                rules_run: report.rules_run,
                lints: report.lints,
                suppressed: 0,
            },
            Outcome {
                name: "with \"quotes\"".to_string(),
                rules_run: 7,
                lints: vec![Lint::new(LintRule::DeadStore, "a \"quoted\" detail")
                    .stencil("s")
                    .grid("g")
                    .witness(vec![1, 2, 3])],
                suppressed: 2,
            },
        ];
        let doc = render_json(&outcomes, &[LintRule::DeadStore], &[LintRule::ZeroWeight]);
        check_document(&doc).expect("schema round-trip");
        // Spot-check through the parser, not just the validator.
        let v = json::parse(&doc).unwrap();
        let programs = v.get("programs").unwrap().as_array().unwrap();
        assert_eq!(programs.len(), 2);
        let lint = &programs[1].get("lints").unwrap().as_array().unwrap()[0];
        assert_eq!(
            lint.get("rule").unwrap().as_str(),
            Some("dead-store"),
            "{doc}"
        );
        let witness = lint.get("witness").unwrap().as_array().unwrap();
        assert_eq!(witness.len(), 3);
    }

    #[test]
    fn check_document_rejects_broken_schemas() {
        assert!(check_document("{}").is_err());
        assert!(check_document("{\"tool\":\"snowlint\"}").is_err());
        let no_witness = "{\"tool\":\"snowlint\",\"schema\":1,\"deny\":[],\"allow\":[],\
             \"programs\":[{\"name\":\"p\",\"rules_run\":1,\"suppressed\":0,\
             \"lints\":[{\"rule\":\"dead-store\",\"severity\":\"warn\",\
             \"stencil\":\"\",\"grid\":\"\",\"detail\":\"d\"}]}],\"total\":1,\"denied\":0}";
        assert!(check_document(no_witness).is_err());
        let bad_rule = no_witness.replace("dead-store", "no-such-rule");
        assert!(check_document(&bad_rule).is_err());
    }

    #[test]
    fn policy_flags_parse_and_expand() {
        let all = parse_rules(&["all".to_string()], "--deny").unwrap();
        assert_eq!(all.len(), LintRule::ALL.len());
        let one = parse_rules(&["halo-gap".to_string()], "--deny").unwrap();
        assert_eq!(one, vec![LintRule::HaloGap]);
        assert!(parse_rules(&["bogus".to_string()], "--deny").is_err());
    }
}
