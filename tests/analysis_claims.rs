//! Integration tests for the paper's §III analysis claims, exercised
//! through the full stack (DSL → resolution → Diophantine analysis →
//! scheduling → execution).

use snowflake::analysis::{
    dependence_dag, greedy_phases, is_parallel_safe, DepKind, ResolvedStencil,
};
use snowflake::prelude::*;

fn shapes3(n: usize, names: &[&str]) -> snowflake::core::ShapeMap {
    let mut m = snowflake::core::ShapeMap::new();
    for g in names {
        m.insert(g.to_string(), vec![n, n, n]);
    }
    m
}

/// §III: "boundary conditions … do not create false dependencies which
/// infinite-domain analyses such as Halide's interval analysis would
/// flag." Two ghost faces on opposite sides of the same grid are
/// independent *only* because the domain is finite: the same stencils on
/// an unbounded grid would overlap.
#[test]
fn finite_domain_refutes_infinite_domain_false_dependency() {
    let n = 12usize;
    let left = Stencil::new(
        Expr::Neg(Box::new(Expr::read_at("x", &[0, 0, 1]))),
        "x",
        RectDomain::new(&[1, 1, 0], &[-1, -1, 0], &[1, 1, 0]),
    );
    let right = Stencil::new(
        Expr::Neg(Box::new(Expr::read_at("x", &[0, 0, -1]))),
        "x",
        RectDomain::new(&[1, 1, -1], &[-1, -1, -1], &[1, 1, 0]),
    );
    let shapes = shapes3(n, &["x"]);
    let rl = ResolvedStencil::resolve(&left, &shapes).unwrap();
    let rr = ResolvedStencil::resolve(&right, &shapes).unwrap();
    assert_eq!(snowflake::analysis::depends(&rl, &rr), Ok(None));
    assert_eq!(snowflake::analysis::depends(&rr, &rl), Ok(None));
    // The greedy scheduler therefore fuses them into one phase.
    let sched = greedy_phases(&[rl, rr]);
    assert_eq!(sched.phases.len(), 1);
}

/// Periodic boundaries are the paper's "large offsets" case: the ghost
/// plane copies the opposite interior plane, `n−2` cells away. Only a
/// finite-domain analysis can prove all `2·ndim` wrap stencils mutually
/// independent (an infinite-domain analysis sees overlapping footprints).
#[test]
fn periodic_wrap_faces_schedule_into_one_phase() {
    use snowflake::core::bc::periodic_faces;
    let shapes = shapes3(14, &["x"]);
    let faces = periodic_faces("x", &[14, 14, 14]);
    assert_eq!(faces.len(), 6);
    let resolved: Vec<_> = faces
        .iter()
        .map(|s| ResolvedStencil::resolve(s, &shapes).unwrap())
        .collect();
    for rs in &resolved {
        assert!(is_parallel_safe(rs));
    }
    let sched = greedy_phases(&resolved);
    assert_eq!(
        sched.phases.len(),
        1,
        "wrap faces are independent despite their n-2 offsets: {:?}",
        sched.phases
    );
}

/// §III: the same Diophantine machinery proves the red and black GSRB
/// passes are each internally parallel while depending on each other.
#[test]
fn red_black_parallel_within_serial_between() {
    let (red, black) = DomainUnion::red_black(3);
    let lap = Component::new(
        "x",
        weights3![
            [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 1, 0], [1, -6, 1], [0, 1, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
        ],
    );
    let shapes = shapes3(10, &["x"]);
    let r = ResolvedStencil::resolve(&Stencil::new(lap.clone(), "x", red), &shapes).unwrap();
    let b = ResolvedStencil::resolve(&Stencil::new(lap, "x", black), &shapes).unwrap();
    assert!(is_parallel_safe(&r));
    assert!(is_parallel_safe(&b));
    let hazard = snowflake::analysis::depends(&r, &b).unwrap().expect("RAW");
    assert_eq!(hazard.kind, DepKind::ReadAfterWrite);
}

/// The dependence DAG over a whole GSRB sweep has the structure §IV-A's
/// task scheduler relies on: faces→color edges, no face→face edges.
#[test]
fn gsrb_dag_structure() {
    use snowflake::hpgmg::stencils::{gsrb_smooth_group, Coeff, Names};
    let names = Names::level(0);
    let group = gsrb_smooth_group(&names, Coeff::Variable, 0.0, 1.0, 100.0);
    let mut shapes = snowflake::core::ShapeMap::new();
    for g in [
        &names.x,
        &names.rhs,
        &names.res,
        &names.dinv,
        &names.alpha,
        &names.beta_x,
        &names.beta_y,
        &names.beta_z,
    ] {
        shapes.insert(g.clone(), vec![12, 12, 12]);
    }
    let resolved: Vec<_> = group
        .stencils()
        .iter()
        .map(|s| ResolvedStencil::resolve(s, &shapes).unwrap())
        .collect();
    let dag = dependence_dag(&resolved);
    // Stencils 0-5: first faces; 6: red; 7-12: faces; 13: black.
    for deps in &dag[0..6] {
        assert!(deps.is_empty(), "first faces must be roots");
    }
    assert_eq!(dag[6].len(), 6, "red depends on exactly the six faces");
    for deps in &dag[7..13] {
        // Later faces depend on red (they re-fill ghosts from updated x)
        // and WAW with the matching earlier face.
        assert!(deps.iter().any(|&(i, _)| i == 6));
        assert!(
            !deps.iter().any(|&(i, _)| (7..13).contains(&i)),
            "faces are mutually independent"
        );
    }
    assert!(dag[13].iter().any(|&(i, _)| (7..13).contains(&i)));
}
