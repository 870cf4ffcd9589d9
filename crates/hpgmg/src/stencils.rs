//! Snowflake stencil-group builders for every HPGMG operator.
//!
//! These are the "single source" of the paper's performance-portability
//! claim: the same groups compile unchanged on every backend. Grid names
//! are suffixed per level (`x_0`, `rhs_1`, …) so one [`snowflake_grid::GridSet`]
//! holds the whole multigrid hierarchy and cross-level operators
//! (restriction, interpolation) are ordinary stencils with scale-2 affine
//! maps — the multiplicative offsets the paper highlights.

use snowflake_core::{AffineMap, DomainUnion, Expr, RectDomain, Stencil, StencilGroup};

/// Grid names for one multigrid level.
#[derive(Clone, Debug)]
pub struct Names {
    /// Solution grid name.
    pub x: String,
    /// Right-hand-side grid name.
    pub rhs: String,
    /// Residual grid name.
    pub res: String,
    /// Scratch grid name (Chebyshev x_{n-1} / ping-pong).
    pub tmp: String,
    /// Inverse-diagonal grid name.
    pub dinv: String,
    /// α grid name.
    pub alpha: String,
    /// Face-β grid names.
    pub beta_x: String,
    /// y-face β.
    pub beta_y: String,
    /// z-face β.
    pub beta_z: String,
}

impl Names {
    /// Names for level `l`.
    pub fn level(l: usize) -> Names {
        Names {
            x: format!("x_{l}"),
            rhs: format!("rhs_{l}"),
            res: format!("res_{l}"),
            tmp: format!("tmp_{l}"),
            dinv: format!("dinv_{l}"),
            alpha: format!("alpha_{l}"),
            beta_x: format!("beta_x_{l}"),
            beta_y: format!("beta_y_{l}"),
            beta_z: format!("beta_z_{l}"),
        }
    }

    /// Every grid name of the level.
    pub(crate) fn all(self) -> [String; 9] {
        [
            self.x,
            self.rhs,
            self.res,
            self.tmp,
            self.dinv,
            self.alpha,
            self.beta_x,
            self.beta_y,
            self.beta_z,
        ]
    }
}

/// Coefficient regime of the operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coeff {
    /// β ≡ 1: the operator folds to the constant 7-point Laplacian and
    /// every group's closed form is linear.
    Constant,
    /// Analytic β read from the face grids (divergence form).
    Variable,
}

fn rd(g: &str, o: [i64; 3]) -> Expr {
    Expr::read_at(g, &o)
}

/// The operator application `A x` at the iteration point.
///
/// Variable: `a·α·x − b·h⁻²·Σ_faces β·Δx` (divergence form).
/// Constant: `a·α·x + b·h⁻²·(6x − Σ neighbors)`.
pub fn ax_expr(n: &Names, coeff: Coeff, a: f64, b: f64, h2inv: f64) -> Expr {
    let x0 = rd(&n.x, [0, 0, 0]);
    let ident = Expr::Const(a) * rd(&n.alpha, [0, 0, 0]) * x0.clone();
    match coeff {
        Coeff::Constant => {
            let neighbors = rd(&n.x, [1, 0, 0])
                + rd(&n.x, [-1, 0, 0])
                + rd(&n.x, [0, 1, 0])
                + rd(&n.x, [0, -1, 0])
                + rd(&n.x, [0, 0, 1])
                + rd(&n.x, [0, 0, -1]);
            ident + Expr::Const(b * h2inv) * (6.0 * x0 - neighbors)
        }
        Coeff::Variable => {
            let flux = rd(&n.beta_x, [1, 0, 0]) * (rd(&n.x, [1, 0, 0]) - x0.clone())
                - rd(&n.beta_x, [0, 0, 0]) * (x0.clone() - rd(&n.x, [-1, 0, 0]))
                + rd(&n.beta_y, [0, 1, 0]) * (rd(&n.x, [0, 1, 0]) - x0.clone())
                - rd(&n.beta_y, [0, 0, 0]) * (x0.clone() - rd(&n.x, [0, -1, 0]))
                + rd(&n.beta_z, [0, 0, 1]) * (rd(&n.x, [0, 0, 1]) - x0.clone())
                - rd(&n.beta_z, [0, 0, 0]) * (x0.clone() - rd(&n.x, [0, 0, -1]));
            ident - Expr::Const(b * h2inv) * flux
        }
    }
}

/// The inverse diagonal, either the `dinv` grid (variable / Helmholtz) or
/// the constant `h²/(6b)` (constant-coefficient Poisson).
pub fn dinv_expr(n: &Names, coeff: Coeff, a: f64, b: f64, h2inv: f64) -> Expr {
    if coeff == Coeff::Constant && a == 0.0 {
        Expr::Const(1.0 / (6.0 * b * h2inv))
    } else {
        rd(&n.dinv, [0, 0, 0])
    }
}

/// The six Dirichlet ghost-face stencils (`ghost = −inside`), from the
/// shared boundary-condition library.
pub fn boundary_stencils(x: &str) -> Vec<Stencil> {
    snowflake_core::bc::dirichlet_faces(x, 3)
}

/// One GSRB smooth as a stencil group: boundary, red, boundary, black
/// (the paper's interleaved sweep; the greedy scheduler recovers the
/// four barrier phases automatically).
pub fn gsrb_smooth_group(n: &Names, coeff: Coeff, a: f64, b: f64, h2inv: f64) -> StencilGroup {
    let update = rd(&n.x, [0, 0, 0])
        + dinv_expr(n, coeff, a, b, h2inv)
            * (rd(&n.rhs, [0, 0, 0]) - ax_expr(n, coeff, a, b, h2inv));
    let (red, black) = DomainUnion::red_black(3);
    let mut group = StencilGroup::new();
    for s in boundary_stencils(&n.x) {
        group.push(s);
    }
    group.push(Stencil::new(update.clone(), &n.x, red).named(&format!("gsrb_red_{}", n.x)));
    for s in boundary_stencils(&n.x) {
        group.push(s);
    }
    group.push(Stencil::new(update, &n.x, black).named(&format!("gsrb_black_{}", n.x)));
    group
}

/// One weighted-Jacobi sweep (ω = 2/3) written out of place into `res`;
/// the caller swaps `x` and `res` afterwards (or runs an even number of
/// sweeps with roles exchanged).
pub fn jacobi_group(n: &Names, coeff: Coeff, a: f64, b: f64, h2inv: f64) -> StencilGroup {
    let update = rd(&n.x, [0, 0, 0])
        + Expr::Const(2.0 / 3.0)
            * dinv_expr(n, coeff, a, b, h2inv)
            * (rd(&n.rhs, [0, 0, 0]) - ax_expr(n, coeff, a, b, h2inv));
    let mut group = StencilGroup::new();
    for s in boundary_stencils(&n.x) {
        group.push(s);
    }
    group.push(Stencil::new(update, &n.res, RectDomain::interior(3)).named("jacobi"));
    group
}

/// The bare operator application `out = A x` over the interior, with
/// boundary stencils first (the Figure 7 "CC 7pt stencil" kernel).
pub fn apply_op_group(
    n: &Names,
    out: &str,
    coeff: Coeff,
    a: f64,
    b: f64,
    h2inv: f64,
) -> StencilGroup {
    let mut group = StencilGroup::new();
    for s in boundary_stencils(&n.x) {
        group.push(s);
    }
    group.push(
        Stencil::new(ax_expr(n, coeff, a, b, h2inv), out, RectDomain::interior(3))
            .named("apply_op"),
    );
    group
}

/// Residual `res = rhs − A x` over the interior (boundary first).
pub fn residual_group(n: &Names, coeff: Coeff, a: f64, b: f64, h2inv: f64) -> StencilGroup {
    let mut group = StencilGroup::new();
    for s in boundary_stencils(&n.x) {
        group.push(s);
    }
    group.push(
        Stencil::new(
            rd(&n.rhs, [0, 0, 0]) - ax_expr(n, coeff, a, b, h2inv),
            &n.res,
            RectDomain::interior(3),
        )
        .named("residual"),
    );
    group
}

/// The 8-cell scale-2 average of a fine-grid field at the coarse
/// iteration point: `0.125 · Σ_{d∈{-1,0}³} src[2p + d]`.
pub fn restrict_expr(src: &str) -> Expr {
    let mut acc: Option<Expr> = None;
    for di in [-1i64, 0] {
        for dj in [-1i64, 0] {
            for dk in [-1i64, 0] {
                let read =
                    Expr::read_mapped(src, AffineMap::scaled(vec![2, 2, 2], vec![di, dj, dk]));
                acc = Some(match acc {
                    None => read,
                    Some(e) => e + read,
                });
            }
        }
    }
    Expr::Const(0.125) * acc.expect("eight children")
}

/// Restriction: `coarse.rhs = R(fine.res)` (8-cell average via scale-2
/// reads) and `coarse.x = 0` over the whole coarse grid.
pub fn restrict_group(fine: &Names, coarse: &Names) -> StencilGroup {
    StencilGroup::new()
        .with(
            Stencil::new(
                restrict_expr(&fine.res),
                &coarse.rhs,
                RectDomain::interior(3),
            )
            .named("restrict"),
        )
        .with(Stencil::new(Expr::Const(0.0), &coarse.x, RectDomain::all(3)).named("zero_coarse_x"))
}

/// F-cycle right-hand-side restriction: `coarse.rhs = R(fine.rhs)`.
pub fn restrict_rhs_group(fine: &Names, coarse: &Names) -> StencilGroup {
    StencilGroup::from(
        Stencil::new(
            restrict_expr(&fine.rhs),
            &coarse.rhs,
            RectDomain::interior(3),
        )
        .named("restrict_rhs"),
    )
}

/// One Chebyshev polynomial step (see [`crate::cheby`]):
/// `tmp = x + c1·(x − tmp) + c2·dinv·(rhs − A x)` over the interior, with
/// boundary stencils first. The caller swaps `x` and `tmp` afterwards so
/// `x` is current and `tmp` carries `x_{n−1}`.
pub fn chebyshev_step_group(
    n: &Names,
    coeff: Coeff,
    a: f64,
    b: f64,
    h2inv: f64,
    c1: f64,
    c2: f64,
) -> StencilGroup {
    let x0 = rd(&n.x, [0, 0, 0]);
    let step = x0.clone()
        + Expr::Const(c1) * (x0 - rd(&n.tmp, [0, 0, 0]))
        + Expr::Const(c2)
            * dinv_expr(n, coeff, a, b, h2inv)
            * (rd(&n.rhs, [0, 0, 0]) - ax_expr(n, coeff, a, b, h2inv));
    let mut group = StencilGroup::new();
    for st in boundary_stencils(&n.x) {
        group.push(st);
    }
    group.push(Stencil::new(step, &n.tmp, RectDomain::interior(3)).named("chebyshev_step"));
    group
}

/// Cell-centered trilinear interpolation and correction (the
/// higher-order prolongation reference HPGMG uses for F-cycles):
/// `fine.x[2p + t - 1] += Π_d (¾·coarse[p] + ¼·coarse[p + n_d])` with
/// `n_d = ±1` toward the child's side. Eight scaled-output stencils, each
/// a constant-coefficient linear form (fast path), preceded by the coarse
/// boundary stencils so the ghost reads are fresh.
pub fn interpolate_linear_group(coarse: &Names, fine: &Names) -> StencilGroup {
    let mut group = StencilGroup::new();
    for st in boundary_stencils(&coarse.x) {
        group.push(st);
    }
    for ti in [0i64, 1] {
        for tj in [0i64, 1] {
            for tk in [0i64, 1] {
                let out_map = AffineMap::scaled(vec![2, 2, 2], vec![ti - 1, tj - 1, tk - 1]);
                // Tensor-product weights over the 2³ coarse corners.
                let mut acc: Option<Expr> = None;
                for ci in [0i64, 1] {
                    for cj in [0i64, 1] {
                        for ck in [0i64, 1] {
                            let mut w = 1.0f64;
                            let mut off = [0i64; 3];
                            for (d, (t, c)) in
                                [(ti, ci), (tj, cj), (tk, ck)].into_iter().enumerate()
                            {
                                if c == 1 {
                                    w *= 0.25;
                                    off[d] = 2 * t - 1; // toward the child
                                } else {
                                    w *= 0.75;
                                }
                            }
                            let term = Expr::Const(w) * rd(&coarse.x, off);
                            acc = Some(match acc {
                                None => term,
                                Some(e) => e + term,
                            });
                        }
                    }
                }
                let expr =
                    Expr::read_mapped(&fine.x, out_map.clone()) + acc.expect("eight corners");
                group.push(
                    Stencil::new(expr, &fine.x, RectDomain::interior(3))
                        .with_out_map(out_map)
                        .named(&format!("interp_lin_{ti}{tj}{tk}")),
                );
            }
        }
    }
    group
}

/// Piecewise-constant interpolation and correction:
/// `fine.x[2p + d] += coarse.x[p]` for `d ∈ {−1,0}³` — eight scaled-output
/// stencils the analysis proves mutually independent (one phase).
pub fn interpolate_group(coarse: &Names, fine: &Names) -> StencilGroup {
    let mut group = StencilGroup::new();
    for di in [-1i64, 0] {
        for dj in [-1i64, 0] {
            for dk in [-1i64, 0] {
                let out_map = AffineMap::scaled(vec![2, 2, 2], vec![di, dj, dk]);
                let expr = Expr::read_mapped(&fine.x, out_map.clone())
                    + Expr::read_at(&coarse.x, &[0, 0, 0]);
                group.push(
                    Stencil::new(expr, &fine.x, RectDomain::interior(3))
                        .with_out_map(out_map)
                        .named(&format!("interp_{di}{dj}{dk}")),
                );
            }
        }
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_analysis::{greedy_phases, is_parallel_safe, ResolvedStencil};
    use snowflake_core::ShapeMap;

    fn shapes(l: usize, n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        let names = Names::level(l);
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
            m.insert(g.clone(), vec![n + 2, n + 2, n + 2]);
        }
        m
    }

    #[test]
    fn gsrb_group_schedules_into_four_phases() {
        let names = Names::level(0);
        let group = gsrb_smooth_group(&names, Coeff::Variable, 0.0, 1.0, 64.0);
        assert_eq!(group.len(), 14); // 6 + 1 + 6 + 1
        let shapes = shapes(0, 8);
        assert!(group.validate(&shapes).is_ok());
        let resolved: Vec<_> = group
            .stencils()
            .iter()
            .map(|s| ResolvedStencil::resolve(s, &shapes).unwrap())
            .collect();
        let sched = greedy_phases(&resolved);
        assert_eq!(sched.phases.len(), 4, "{:?}", sched.phases);
        assert_eq!(sched.phases[0].len(), 6);
        assert_eq!(sched.phases[1], vec![6]);
        assert_eq!(sched.phases[2].len(), 6);
        assert_eq!(sched.phases[3], vec![13]);
        // Both color passes are parallel-safe in-place stencils.
        assert!(is_parallel_safe(&resolved[6]));
        assert!(is_parallel_safe(&resolved[13]));
    }

    /// The variable-coefficient update reads `x` 13 times (7 distinct
    /// cells) among its 21 reads; its tape loads each of the 15 distinct
    /// cells once.
    #[test]
    fn vc_gsrb_update_tape_loads_each_distinct_read_once() {
        use snowflake_ir::{lower_group, LowerOptions, SpecForm};
        let names = Names::level(0);
        let group = gsrb_smooth_group(&names, Coeff::Variable, 0.0, 1.0, 64.0);
        let source = group.stencils()[6].expr().simplify();
        assert_eq!(source.reads().len(), 21);
        let mut lowered = lower_group(&group, &shapes(0, 8), &LowerOptions::default()).unwrap();
        snowflake_backends::specialize::specialize_lowered(&mut lowered);
        let red = &lowered.kernels[6];
        assert_eq!(red.name, "gsrb_red_x_0");
        let SpecForm::Tape(tape) = &red.form else {
            panic!("the variable-coefficient update must be a tape");
        };
        assert_eq!(tape.num_reads(), 15);
    }

    /// The fused program of the variable-coefficient update: fewer
    /// instructions than the tape's 22, and on a long row only the one
    /// multi-use read — the centre `x` — is gathered into lanes; the 14
    /// single-use reads are taken in place. Short rows still gather all 15.
    #[test]
    fn vc_gsrb_update_fuses_and_reads_in_place() {
        use snowflake_backends::specialize::FusedTape;
        use snowflake_ir::{lower_group, LowerOptions, SpecForm};
        let names = Names::level(0);
        let group = gsrb_smooth_group(&names, Coeff::Variable, 0.0, 1.0, 64.0);
        let mut lowered = lower_group(&group, &shapes(0, 64), &LowerOptions::default()).unwrap();
        snowflake_backends::specialize::specialize_lowered(&mut lowered);
        let SpecForm::Tape(tape) = &lowered.kernels[6].form else {
            panic!("the variable-coefficient update must be a tape");
        };
        assert_eq!(tape.instrs.len(), 22);
        let fused = FusedTape::of(tape);
        assert!(
            fused.num_instrs() < 22,
            "{} instructions",
            fused.num_instrs()
        );
        // A 64³ colour row has 32 points.
        assert!(FusedTape::reads_in_place(32));
        assert_eq!(fused.gathered(32), 1);
        assert!(!FusedTape::reads_in_place(2));
        assert_eq!(fused.gathered(2), 15);
    }

    #[test]
    fn interpolation_stencils_share_one_phase() {
        let mut m = shapes(0, 8);
        m.extend(shapes(1, 4));
        let group = interpolate_group(&Names::level(1), &Names::level(0));
        assert_eq!(group.len(), 8);
        assert!(group.validate(&m).is_ok(), "{:?}", group.validate(&m));
        let resolved: Vec<_> = group
            .stencils()
            .iter()
            .map(|s| ResolvedStencil::resolve(s, &m).unwrap())
            .collect();
        let sched = greedy_phases(&resolved);
        assert_eq!(sched.phases.len(), 1, "interp children are independent");
        for r in &resolved {
            assert!(is_parallel_safe(r));
        }
    }

    #[test]
    fn restriction_validates_and_is_safe() {
        let mut m = shapes(0, 8);
        m.extend(shapes(1, 4));
        let group = restrict_group(&Names::level(0), &Names::level(1));
        assert!(group.validate(&m).is_ok(), "{:?}", group.validate(&m));
        let resolved: Vec<_> = group
            .stencils()
            .iter()
            .map(|s| ResolvedStencil::resolve(s, &m).unwrap())
            .collect();
        let sched = greedy_phases(&resolved);
        assert_eq!(sched.phases.len(), 1, "restrict ∥ zero-x");
        assert!(resolved.iter().all(is_parallel_safe));
    }

    #[test]
    fn gsrb_red_black_exactly_tiles_the_interior() {
        // Regression guard for the smoother's coloring: red ∪ black must
        // cover every interior cell exactly once — a gap leaves stale
        // values (silent wrong answers), a double-cover breaks the
        // Gauss–Seidel ordering. `check_coverage` proves both directions
        // with Diophantine witness search, so this holds for every size,
        // not just the cells a sampled test happens to visit.
        use snowflake_analysis::check_coverage;
        for n in [4usize, 8, 16] {
            let names = Names::level(0);
            let group = gsrb_smooth_group(&names, Coeff::Variable, 0.0, 1.0, 64.0);
            let shapes = shapes(0, n);
            let red = &group.stencils()[6];
            let black = &group.stencils()[13];
            let mut parts = red.resolve(&shapes).unwrap();
            parts.extend(black.resolve(&shapes).unwrap());
            let interior = snowflake_core::RectDomain::interior(3)
                .resolve(&[n + 2, n + 2, n + 2])
                .unwrap();
            let cov = check_coverage(&interior, &parts);
            assert!(
                cov.gap.is_none() && cov.double.is_none(),
                "n={n}: gap {:?} double {:?}",
                cov.gap,
                cov.double
            );
            // One color alone must NOT tile it (the check has teeth).
            let red_only = red.resolve(&shapes).unwrap();
            let partial = check_coverage(&interior, &red_only);
            assert!(partial.gap.is_some(), "red alone leaves a gap");
        }
    }

    #[test]
    fn boundary_stencils_cover_six_faces() {
        let faces = boundary_stencils("x_0");
        assert_eq!(faces.len(), 6);
        let shapes = shapes(0, 8);
        for f in &faces {
            assert!(f.validate(&shapes).is_ok());
            assert!(f.is_in_place());
        }
    }
}
