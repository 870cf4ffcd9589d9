//! Integration tests for the plan-time static verifier
//! (`analysis::verify` + `backends::verify`) and the `checked` sanitizer
//! backend: the verifier's algebraic verdicts must match brute-force
//! enumeration, real multigrid plans must certify with zero diagnostics,
//! and deliberately broken inputs must produce concrete witness cells.

use std::collections::HashSet;

use proptest::prelude::*;
use snowflake::analysis::{
    access_conflict, certify_schedule, depends, greedy_phases, is_parallel_safe, ResolvedStencil,
    Rule,
};
use snowflake::backends::{verify_ops, witness_count, PlanError};
use snowflake::core::CoreError;
use snowflake::hpgmg::{Problem, SnowSolver};
use snowflake::prelude::*;

fn shapes(names: &[&str], shape: &[usize]) -> snowflake::core::ShapeMap {
    let mut m = snowflake::core::ShapeMap::new();
    for g in names {
        m.insert((*g).to_string(), shape.to_vec());
    }
    m
}

// ---------------------------------------------------------------------------
// Verifier vs brute force
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// The cursor-algebra conflict test must agree with literally
    /// enumerating both access images on small random strided regions —
    /// same verdict, and any witness cell must be a member of both images.
    #[test]
    fn conflict_verdicts_match_brute_force_enumeration(
        dims in proptest::collection::vec(
            ((-2i64..3, 1i64..5, 1i64..3),
             (-2i64..3, 1i64..5, 1i64..3),
             (1i64..3, -3i64..4),
             (1i64..3, -3i64..4)),
            1..3),
    ) {
        let mut lo1 = Vec::new();
        let mut hi1 = Vec::new();
        let mut st1 = Vec::new();
        let mut lo2 = Vec::new();
        let mut hi2 = Vec::new();
        let mut st2 = Vec::new();
        let mut sc1 = Vec::new();
        let mut of1 = Vec::new();
        let mut sc2 = Vec::new();
        let mut of2 = Vec::new();
        for ((l1, n1, s1), (l2, n2, s2), (a1, b1), (a2, b2)) in &dims {
            lo1.push(*l1);
            hi1.push(l1 + n1);
            st1.push(*s1);
            lo2.push(*l2);
            hi2.push(l2 + n2);
            st2.push(*s2);
            sc1.push(*a1);
            of1.push(*b1);
            sc2.push(*a2);
            of2.push(*b2);
        }
        let r1 = Region::new(lo1, hi1, st1);
        let r2 = Region::new(lo2, hi2, st2);
        let m1 = AffineMap::scaled(sc1, of1);
        let m2 = AffineMap::scaled(sc2, of2);

        let img1: HashSet<Vec<i64>> = r1.points().map(|p| m1.apply(&p)).collect();
        let img2: HashSet<Vec<i64>> = r2.points().map(|p| m2.apply(&p)).collect();
        let expected = img1.intersection(&img2).next().is_some();

        match access_conflict(&r1, &m1, &r2, &m2) {
            Ok(Some(cell)) => {
                prop_assert!(expected, "verifier found phantom conflict at {cell:?}");
                prop_assert!(
                    img1.contains(&cell) && img2.contains(&cell),
                    "witness {cell:?} is not in both access images"
                );
            }
            Ok(None) => prop_assert!(!expected, "verifier missed a real conflict"),
            Err(d) => prop_assert!(false, "well-ranked inputs diagnosed: {d}"),
        }
    }
}

/// Rank mismatches are typed diagnostics in release builds, not silent
/// `debug_assert!` no-ops or a verdict of independence.
#[test]
fn rank_mismatch_is_a_typed_diagnostic() {
    let r2d = Region::new(vec![0, 0], vec![4, 4], vec![1, 1]);
    let r1d = Region::new(vec![0], vec![4], vec![1]);
    let err =
        access_conflict(&r2d, &AffineMap::identity(2), &r1d, &AffineMap::identity(1)).unwrap_err();
    assert_eq!(err.rule, Rule::RankMismatch);
}

// ---------------------------------------------------------------------------
// Fixed certificates: GSRB coloring and Dirichlet ghost faces
// ---------------------------------------------------------------------------

/// The paper's GSRB coloring claim, as a certificate: red and black
/// in-place updates write provably disjoint cells, and the two-phase
/// schedule the planner picks certifies hazard-free.
#[test]
fn gsrb_red_black_coloring_certifies() {
    let (red, black) = DomainUnion::red_black(2);
    let update = |dom: DomainUnion| {
        let expr = Expr::read_at("x", &[0, 0])
            + Expr::Const(0.25)
                * (Expr::read_at("x", &[-1, 0])
                    + Expr::read_at("x", &[1, 0])
                    + Expr::read_at("x", &[0, -1])
                    + Expr::read_at("x", &[0, 1]));
        Stencil::new(expr, "x", dom)
    };
    let sh = shapes(&["x"], &[10, 10]);
    let rr = ResolvedStencil::resolve(&update(red), &sh).unwrap();
    let rb = ResolvedStencil::resolve(&update(black), &sh).unwrap();

    // Write-write disjointness holds rectangle by rectangle.
    let (_, wmap) = rr.write();
    for a in &rr.regions {
        for b in &rb.regions {
            assert_eq!(
                access_conflict(a, &wmap, b, &wmap).unwrap(),
                None,
                "red and black colorings must write disjoint cells"
            );
        }
    }
    // ...but the colors do exchange values, so the hazard is real and the
    // schedule must barrier between them.
    let hazard = depends(&rr, &rb).unwrap().expect("RAW across colors");
    // The witness is a red cell that black reads.
    let (_, rmap) = rr.write();
    let cell = &hazard.cell;
    assert!(rr
        .regions
        .iter()
        .any(|r| r.points().any(|p| rmap.apply(&p) == *cell)));
    assert!(rb.reads().iter().any(|(_, m)| rb
        .regions
        .iter()
        .any(|r| r.points().any(|p| m.apply(&p) == *cell))));

    let resolved = vec![rr, rb];
    let sched = greedy_phases(&resolved);
    assert_eq!(sched.phases.len(), 2);
    let claims: Vec<bool> = resolved.iter().map(is_parallel_safe).collect();
    let cert = certify_schedule(&resolved, &sched.phases, &claims).unwrap();
    assert_eq!(cert.phases_certified, 2);
    assert!(cert.pairs_checked > 0);
}

/// Dirichlet ghost faces write the boundary ring and read one cell
/// inward; every access — including the ghost-cell writes themselves —
/// must prove in-bounds against the allocated extents, and a face read
/// pointing outward instead is refused at the cell past the ring.
#[test]
fn dirichlet_ghost_faces_prove_in_bounds() {
    let face = |dom: RectDomain, off: [i64; 2]| {
        Stencil::new(Expr::Neg(Box::new(Expr::read_at("x", &off))), "x", dom)
    };
    let faces = [
        face(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, 1]),
        face(RectDomain::new(&[1, -1], &[-1, -1], &[1, 0]), [0, -1]),
        face(RectDomain::new(&[0, 1], &[0, -1], &[0, 1]), [1, 0]),
        face(RectDomain::new(&[-1, 1], &[-1, -1], &[0, 1]), [-1, 0]),
    ];
    let sh = shapes(&["x"], &[9, 9]);
    for f in &faces {
        // One pinned row or column of the ring, corners excluded.
        let regions = f.validate(&sh).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].num_points(), 7);
    }
    let outward = face(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, -1]);
    let err = outward.validate(&sh).unwrap_err();
    let CoreError::AccessOutOfBounds { dim, witness, .. } = &err else {
        panic!("an outward face read must be out of bounds: {err}");
    };
    assert_eq!(*dim, 1, "{err}");
    assert_eq!(witness.as_deref(), Some(&[1, -1][..]), "{err}");
}

// ---------------------------------------------------------------------------
// The front end's bounds proof vs brute force
// ---------------------------------------------------------------------------

/// Per-dimension `(scale, offset)` of an access, sliced to the rank.
fn affine(dims: &[(i64, i64)], ndim: usize) -> AffineMap {
    let (scale, offset) = dims[..ndim].iter().copied().unzip();
    AffineMap::scaled(scale, offset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// `Stencil::validate` accepts a stencil exactly when enumerating every
    /// point of its resolved domain keeps every read and the write inside
    /// the grids. A refusal names a dimension in which its witness cell
    /// lies outside the named grid, and the witness is the image of a
    /// domain point under one of that grid's accesses.
    #[test]
    fn bounds_proof_matches_brute_force_enumeration(
        ndim in 1usize..4,
        extents in proptest::collection::vec((3usize..8, 3usize..8), 3),
        out in proptest::collection::vec((-1i64..3, -3i64..4), 3),
        reads in proptest::collection::vec(
            proptest::collection::vec((-1i64..3, -3i64..4), 3),
            1..4),
        rects in proptest::collection::vec(
            proptest::collection::vec((0i64..3, -3i64..1, 0i64..3), 3),
            1..3),
    ) {
        let mut sh = snowflake::core::ShapeMap::new();
        sh.insert("x".into(), extents[..ndim].iter().map(|e| e.0).collect());
        sh.insert("y".into(), extents[..ndim].iter().map(|e| e.1).collect());
        let expr = reads
            .iter()
            .map(|r| Expr::read_mapped("x", affine(r, ndim)))
            .reduce(|a, b| a + b)
            .expect("at least one read");
        let domain = DomainUnion::new(
            rects
                .iter()
                .map(|r| {
                    let r = &r[..ndim];
                    let lo: Vec<i64> = r.iter().map(|d| d.0).collect();
                    let hi: Vec<i64> = r.iter().map(|d| d.1).collect();
                    let stride: Vec<i64> = r.iter().map(|d| d.2).collect();
                    RectDomain::new(&lo, &hi, &stride)
                })
                .collect(),
        );
        let s = Stencil::new(expr, "y", domain).with_out_map(affine(&out, ndim));
        let regions = s.resolve(&sh).expect("every generated domain resolves");

        let mut accesses: Vec<(&str, AffineMap)> = reads
            .iter()
            .map(|r| ("x", affine(r, ndim)))
            .collect();
        accesses.push(("y", affine(&out, ndim)));
        let in_bounds = regions.iter().all(|r| {
            r.points().all(|p| {
                accesses.iter().all(|(g, m)| {
                    let cell = m.apply(&p);
                    cell.iter().zip(&sh[*g]).all(|(&c, &n)| c >= 0 && c < n as i64)
                })
            })
        });

        match s.validate(&sh) {
            Ok(proved) => {
                prop_assert!(in_bounds, "validate accepted an out-of-bounds access");
                prop_assert_eq!(proved, regions);
            }
            Err(CoreError::AccessOutOfBounds { grid, dim, witness, .. }) => {
                prop_assert!(!in_bounds, "validate refused an in-bounds stencil");
                let cell = witness.expect("small images always fit a witness");
                let extent = sh[&grid][dim] as i64;
                prop_assert!(
                    cell[dim] < 0 || cell[dim] >= extent,
                    "witness {cell:?} is inside grid {grid:?} in dim {dim}"
                );
                let reached = regions.iter().any(|r| {
                    r.points().any(|p| {
                        accesses.iter().any(|(g, m)| *g == grid && m.apply(&p) == cell)
                    })
                });
                prop_assert!(reached, "witness {cell:?} is no image of a domain point");
            }
            Err(e) => prop_assert!(false, "unexpected refusal: {e}"),
        }
    }
}

/// `x[2^62·i + 5]` at `i = 4` reads cell `2^64 + 5`. Multiplied in `i64`
/// that wraps to cell 5, inside the 10-cell grid. Checked and unchecked
/// builds both refuse it with a typed out-of-bounds error before anything
/// runs, and neither reports the wrapped cell as a witness.
#[test]
fn wrapping_scale_is_refused_by_checked_and_unchecked_builds() {
    let far = Stencil::new(
        Expr::read_mapped("x", AffineMap::scaled(vec![1 << 62], vec![5])),
        "y",
        RectDomain::new(&[4], &[5], &[1]),
    )
    .named("far");
    let ops = [(StencilGroup::from(far), shapes(&["x", "y"], &[10]))];
    for &name in available_backends() {
        if !backend_available(name) {
            continue;
        }
        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        match SolverPlan::build(backend, &ops) {
            Err(CoreError::AccessOutOfBounds {
                stencil,
                grid,
                dim,
                witness,
                ..
            }) => {
                assert_eq!(
                    (stencil.as_str(), grid.as_str(), dim),
                    ("far", "x", 0),
                    "{name}"
                );
                assert_eq!(witness, None, "{name}: a wrapped cell is no witness");
            }
            Err(e) => panic!("{name}: expected an out-of-bounds refusal, got {e}"),
            Ok(_) => panic!("{name}: the plan built"),
        }

        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        let Err(PlanError::Refused(findings)) = SolverPlan::build_checked(backend, &ops) else {
            panic!("{name}: the checked build must refuse the plan");
        };
        assert_eq!(findings.len(), 1, "{name}: {findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, Rule::OutOfBounds, "{name}: {f}");
        assert_eq!((f.grid.as_str(), f.dim), ("x", Some(0)), "{name}: {f}");
        assert_eq!(f.witness, None, "{name}: a wrapped cell is no witness");
    }
}

/// `x[(2^62+2)·i + i64::MIN, j]` at `i = 2` reads row 4 of a 10×10 grid,
/// so the front end's bounds proof rightly accepts it, but its flat offset
/// `i64::MIN × 10` leaves `isize`. Moving the huge term to the inner
/// dimension keeps the offset in range while the cursor term
/// `(2^62+2)·2` leaves it. Neither may panic (debug) or wrap (release):
/// every backend refuses both with a typed error, and the checked build
/// refuses them with one finding each.
#[test]
fn lowering_overflow_is_a_typed_refusal() {
    let big = (1i64 << 62) + 2;
    let outer = AffineMap::scaled(vec![big, 1], vec![i64::MIN, 0]);
    let inner = AffineMap::scaled(vec![1, big], vec![0, i64::MIN]);
    for (map, domain) in [
        (outer, RectDomain::new(&[2, 0], &[3, 0], &[1, 1])),
        (inner, RectDomain::new(&[0, 2], &[0, 3], &[1, 1])),
    ] {
        let s = Stencil::new(Expr::read_mapped("x", map), "y", domain).named("huge");
        let sh = shapes(&["x", "y"], &[10, 10]);
        assert!(
            s.validate(&sh).is_ok(),
            "every read lands in row or column 4"
        );
        let ops = [(StencilGroup::from(s), sh)];
        for &name in available_backends() {
            if !backend_available(name) {
                continue;
            }
            // `interp` walks the source tree and forms no flat address.
            if name == "interp" {
                continue;
            }
            let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
            match SolverPlan::build(backend, &ops) {
                Err(CoreError::AddressOverflow { stencil, grid, .. }) => {
                    assert_eq!((stencil.as_str(), grid.as_str()), ("huge", "x"), "{name}");
                }
                Err(e) => panic!("{name}: expected an address-overflow refusal, got {e}"),
                Ok(_) => panic!("{name}: the plan built"),
            }
            let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
            let Err(PlanError::Refused(findings)) = SolverPlan::build_checked(backend, &ops) else {
                panic!("{name}: the checked build must refuse the plan");
            };
            assert_eq!(findings.len(), 1, "{name}: {findings:?}");
            let f = &findings[0];
            assert_eq!(
                (f.rule, f.grid.as_str()),
                (Rule::OutOfBounds, "x"),
                "{name}: {f}"
            );
        }
    }
}

/// The same huge inner map on `interp`, which walks the source tree and
/// forms no flat address, so its plan builds. Its run evaluates
/// `(2^62+2)·2 + i64::MIN` per point: formed in `i64` that product
/// overflows (a panic in debug builds, a wrap in release), while the
/// exact index is 4. Every written cell must hold `x` at column 4.
#[test]
fn interp_evaluates_a_huge_affine_map_exactly() {
    let big = (1i64 << 62) + 2;
    let inner = AffineMap::scaled(vec![1, big], vec![0, i64::MIN]);
    let domain = RectDomain::new(&[0, 2], &[0, 3], &[1, 1]);
    let s = Stencil::new(Expr::read_mapped("x", inner), "y", domain).named("huge");
    let sh = shapes(&["x", "y"], &[10, 10]);
    let backend = backend_from_name("interp", &BackendOptions::default()).unwrap();
    let plan = SolverPlan::build(backend, &[(StencilGroup::from(s), sh)]).unwrap();
    let mut grids = GridSet::new();
    grids.insert("x", Grid::from_fn(&[10, 10], |p| (10 * p[0] + p[1]) as f64));
    grids.insert("y", Grid::new(&[10, 10]));
    plan.run(0, &mut grids).unwrap();
    let y = grids.get("y").unwrap();
    for i in 0..10 {
        assert_eq!(y.get(&[i, 2]), (10 * i + 4) as f64, "row {i}");
    }
}

// ---------------------------------------------------------------------------
// Negative tests: seeded violations must produce witnesses
// ---------------------------------------------------------------------------

/// Two stencils with a write-write hazard forced into one barrier phase
/// must fail certification with a witness cell.
#[test]
fn seeded_race_yields_a_witness() {
    let sh = shapes(&["x", "y"], &[8]);
    let a = Stencil::new(Expr::read_at("x", &[0]), "y", RectDomain::interior(1));
    let b = Stencil::new(Expr::read_at("x", &[0]) * 2.0, "y", RectDomain::interior(1));
    let ra = ResolvedStencil::resolve(&a, &sh).unwrap();
    let rb = ResolvedStencil::resolve(&b, &sh).unwrap();

    // The planner would put these in separate phases; merge them.
    let diags = certify_schedule(&[ra, rb], &[vec![0, 1]], &[true, true]).unwrap_err();
    assert!(diags
        .iter()
        .any(|d| d.rule == Rule::PhaseHazard && d.witness.is_some()));
    assert!(witness_count(&diags) >= 1);
}

/// A forged parallel claim on a union whose rectangles overlap must name a
/// cell two *different* rectangles write — not a cell of one rectangle
/// paired with itself.
#[test]
fn write_overlap_witness_is_written_by_two_rectangles() {
    let sh = shapes(&["x"], &[8]);
    let union = RectDomain::new(&[1], &[6], &[1]) + RectDomain::new(&[3], &[4], &[1]);
    let rs = ResolvedStencil::resolve(&Stencil::new(Expr::Const(1.0), "x", union), &sh).unwrap();
    let diags = certify_schedule(std::slice::from_ref(&rs), &[vec![0]], &[true]).unwrap_err();
    let overlap: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::WriteOverlap)
        .collect();
    assert_eq!(overlap.len(), 1, "{diags:?}");
    let cell = overlap[0].witness.as_ref().expect("witness cell");
    let (_, wmap) = rs.write();
    let writers = rs
        .regions
        .iter()
        .filter(|r| r.points().any(|p| wmap.apply(&p) == *cell))
        .count();
    assert_eq!(
        writers, 2,
        "witness {cell:?} must be written by both rectangles"
    );
}

// ---------------------------------------------------------------------------
// Whole-plan certification and the checked sanitizer backend
// ---------------------------------------------------------------------------

/// Every operator of the real HPGMG plan certifies with zero diagnostics
/// on every stock backend (cjit included when a C compiler exists).
#[test]
fn hpgmg_plans_certify_on_every_stock_backend() {
    for name in ["seq", "omp", "oclsim", "checked", "interp", "cjit"] {
        if !backend_available(name) {
            eprintln!("({name} unavailable without a C compiler, skipped)");
            continue;
        }
        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        let solver = SnowSolver::new(Problem::poisson_vc(8), backend)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let plan = solver.plan();
        let cert = verify_ops(plan.descriptors())
            .unwrap_or_else(|diags| panic!("{name}: {} diagnostics: {:?}", diags.len(), diags));
        let stats = cert.stats();
        assert!(stats.stencils_checked > 0, "{name}: no stencils checked");
        assert!(stats.accesses_proved > 0, "{name}: no accesses proved");
        assert!(stats.phases_certified > 0, "{name}: no phases certified");
        assert_eq!(stats.warnings, 0, "{name}: the plan lints without warnings");
    }
}

/// The instrumented `checked` backend must agree with `seq` bit for bit
/// across a full multigrid smoke solve — the runtime sanitizer and the
/// static verifier see the same plan and must tell the same story.
#[test]
fn checked_backend_matches_seq_bitwise_on_multigrid_smoke() {
    let run = |name: &str| {
        let backend = backend_from_name(name, &BackendOptions::default()).unwrap();
        let mut solver = SnowSolver::new(Problem::poisson_vc(8), backend).unwrap();
        solver.solve(2).unwrap()
    };
    let seq = run("seq");
    let checked = run("checked");
    assert_eq!(seq, checked, "checked backend diverged from seq");
    assert!(checked[2] < checked[0], "solver failed to converge");
}
