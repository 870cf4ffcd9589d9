//! The text front-end end to end: a script-defined program must compile
//! and run identically to the same program built with the Rust API.

use snowflake::core::parser;
use snowflake::prelude::*;

const SCRIPT: &str = r#"
grid u out c

domain interior = (1,1):(-1,-1):(1,1)
domain evens    = (2,2):(-1,-1):(2,2)

expr lap  = u[1,0] + u[-1,0] + u[0,1] + u[0,-1] - 4*u[0,0]
expr flux = c[0,0] * lap

stencil diffuse: out[interior] = u[0,0] + 0.1 * flux
stencil mark:    out[evens]    = -1

group step = diffuse mark
"#;

fn make_grids(n: usize) -> GridSet {
    let mut gs = GridSet::new();
    let mut u = Grid::new(&[n, n]);
    u.fill_random(3, -1.0, 1.0);
    gs.insert("u", u);
    gs.insert("out", Grid::new(&[n, n]));
    let mut c = Grid::new(&[n, n]);
    c.fill_random(4, 0.5, 1.5);
    gs.insert("c", c);
    gs
}

fn api_group() -> StencilGroup {
    let u = |o: [i64; 2]| Expr::read_at("u", &o);
    let lap = u([1, 0]) + u([-1, 0]) + u([0, 1]) + u([0, -1]) - 4.0 * u([0, 0]);
    let flux = Expr::read_at("c", &[0, 0]) * lap;
    StencilGroup::new()
        .with(Stencil::new(
            u([0, 0]) + 0.1 * flux,
            "out",
            RectDomain::interior(2),
        ))
        .with(Stencil::new(
            Expr::Const(-1.0),
            "out",
            RectDomain::new(&[2, 2], &[-1, -1], &[2, 2]),
        ))
}

#[test]
fn script_program_matches_api_program() {
    let script = parser::parse(SCRIPT).expect("parse");
    let group = script.group("step").expect("group");
    let n = 14;
    let mut from_script = make_grids(n);
    let mut from_api = make_grids(n);
    let shapes = from_script.shapes();
    SequentialBackend::new()
        .compile(group, &shapes)
        .unwrap()
        .run(&mut from_script)
        .unwrap();
    SequentialBackend::new()
        .compile(&api_group(), &shapes)
        .unwrap()
        .run(&mut from_api)
        .unwrap();
    assert_eq!(
        from_script
            .get("out")
            .unwrap()
            .max_abs_diff(from_api.get("out").unwrap()),
        0.0
    );
}

#[test]
fn script_program_runs_on_every_backend() {
    let script = parser::parse(SCRIPT).expect("parse");
    let group = script.group("step").expect("group");
    let n = 12;
    let mut reference = make_grids(n);
    let shapes = reference.shapes();
    InterpreterBackend
        .compile(group, &shapes)
        .unwrap()
        .run(&mut reference)
        .unwrap();
    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(SequentialBackend::new()),
        Box::new(OmpBackend::new()),
    ];
    if CJitBackend::available() {
        backends.push(Box::new(OclSimBackend::new()));
    }
    for b in backends {
        let mut gs = make_grids(n);
        b.compile(group, &shapes).unwrap().run(&mut gs).unwrap();
        assert!(
            reference
                .get("out")
                .unwrap()
                .max_abs_diff(gs.get("out").unwrap())
                < 1e-13,
            "{}",
            b.name()
        );
    }
}

#[test]
fn script_analysis_sees_the_dependence() {
    // `mark` overwrites cells `diffuse` wrote: a WAW hazard the analysis
    // must schedule across a barrier.
    use snowflake::analysis::{greedy_phases, ResolvedStencil};
    let script = parser::parse(SCRIPT).expect("parse");
    let group = script.group("step").expect("group");
    let shapes = make_grids(12).shapes();
    let resolved: Vec<_> = group
        .stencils()
        .iter()
        .map(|s| ResolvedStencil::resolve(s, &shapes).unwrap())
        .collect();
    assert_eq!(greedy_phases(&resolved).phases.len(), 2);
}

/// Rank disagreements in a script are typed parse errors naming the
/// offending line, never panics in the DSL constructors.
#[test]
fn rank_mismatches_are_parse_errors_with_their_line() {
    let cases = [
        // A union of a 2-D and a 1-D rectangle.
        (
            "grid u v\ndomain d = (1,1):(-1,-1):(1,1) + (1):(-1):(1)",
            2,
            "rank 2 and 1",
        ),
        // A 3-D read on a 2-D domain.
        (
            "grid u v\ndomain d = (1,1):(-1,-1):(1,1)\nstencil s: v[d] = u[0,0,0]",
            3,
            "expression rank 3",
        ),
        // A 1-D output map on a 2-D domain.
        (
            "grid u v\ndomain d = (1,1):(-1,-1):(1,1)\n\nstencil s: v[d @ 2p+0] = u[0,0]",
            4,
            "output map rank 1",
        ),
    ];
    for (src, line, what) in cases {
        let err = std::panic::catch_unwind(|| parser::parse(src))
            .unwrap_or_else(|_| panic!("parse panicked on {src:?}"))
            .expect_err(src);
        assert_eq!(err.line, line, "{err}");
        assert!(err.message.contains(what), "{err}");
        assert!(
            err.to_string().starts_with(&format!("line {line}: ")),
            "{err}"
        );
    }
}
