//! Plan-time certification of compiled plans (the backend half of the
//! static verifier; the source-level proofs live in
//! `snowflake-analysis::verify`, on the analysis crate's one conflict test
//! and hazard search).
//!
//! [`verify_plan`] re-proves, from the original stencil descriptions and
//! *independently* of the lowering pipeline, that every operator of a
//! [`SolverPlan`] is in-bounds and race-free:
//!
//! 1. **Source bounds** — every read/write of every stencil stays inside
//!    its grid's allocated extents (ghost zones included), via
//!    `verify_bounds`.
//! 2. **Schedule certification** — the dependence DAG is re-derived and
//!    each barrier phase of the lowering is proved pairwise hazard-free;
//!    every `parallel_safe` claim on a [`LoweredKernel`] is re-justified
//!    (red/black colorings must write disjoint cells).
//! 3. **Lowered cursor bounds** — the flat indices the compiled kernels
//!    actually touch ([`AccessClass`] cursor algebra over their `regions`)
//!    are proved to stay inside the dense grid allocations.
//! 4. **Codegen audit** — the C micro-compiler's emitted source, after the
//!    closed-form pass (the text cjit compiles), is scanned and every `#pragma omp parallel for` must sit on a loop nest the
//!    certificate covers (and every covered nest must have one). The rayon
//!    backend dispatches parallel tasks purely on the `parallel_safe`
//!    flag, so step 2's flag re-derivation is its audit.
//!
//! A successful run returns a [`PlanCertificate`]; any failure returns the
//! full list of typed [`Diagnostic`]s, each carrying a witness cell when
//! the finite-domain solver can construct one. A plan built with the
//! verify gate ([`crate::plan::Gates`]) runs [`verify_ops`] over its
//! operator list before compiling anything.
//!
//! [`AccessClass`]: snowflake_ir::AccessClass
//! [`LoweredKernel`]: snowflake_ir::LoweredKernel

use snowflake_analysis::{
    certify_schedule, dead_stencils, verify_bounds, Diagnostic, DiagnosticKind, ResolvedStencil,
};
use snowflake_core::{CoreError, ShapeMap, StencilGroup};
use snowflake_ir::{lower_group, LowerOptions, Lowered, LoweredKernel, SpecForm};

use crate::codegen_c::emit_c;
use crate::metrics::VerifyStats;
use crate::plan::SolverPlan;
use crate::specialize::specialize_lowered;

/// What was proved about one compiled operator (one `(group, shapes)`
/// descriptor of a plan).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCertificate {
    /// Stencils resolved and re-analyzed.
    pub stencils_checked: u64,
    /// `(access, rectangle)` pairs proved in-bounds, source + lowered.
    pub accesses_proved: u64,
    /// Barrier phases proved pairwise hazard-free.
    pub phases_certified: u64,
    /// Kernels whose `parallel_safe` claim was independently re-derived.
    pub parallel_kernels: u64,
    /// `#pragma omp parallel for` occurrences matched against the
    /// certificate in the generated C.
    pub pragmas_audited: u64,
}

impl OpCertificate {
    /// This certificate as metrics-schema counters (`witnesses` is zero
    /// by construction — a certificate only exists when no diagnostic was
    /// found).
    pub fn stats(&self) -> VerifyStats {
        VerifyStats {
            stencils_checked: self.stencils_checked,
            accesses_proved: self.accesses_proved,
            phases_certified: self.phases_certified,
            witnesses: 0,
        }
    }
}

/// A certificate for a whole plan: one [`OpCertificate`] per operator, in
/// plan order.
#[derive(Clone, Debug, Default)]
pub struct PlanCertificate {
    /// Per-operator certificates.
    pub ops: Vec<OpCertificate>,
}

impl PlanCertificate {
    /// Aggregate the per-op certificates into the metrics-schema counters.
    pub fn stats(&self) -> VerifyStats {
        let mut v = VerifyStats::default();
        for c in &self.ops {
            let s = c.stats();
            v.stencils_checked += s.stencils_checked;
            v.accesses_proved += s.accesses_proved;
            v.phases_certified += s.phases_certified;
        }
        v
    }
}

/// Number of diagnostics carrying a concrete witness cell.
pub fn witness_count(diags: &[Diagnostic]) -> u64 {
    diags.iter().filter(|d| d.witness.is_some()).count() as u64
}

/// Map a resolution/lowering error into the diagnostic taxonomy.
fn resolve_diagnostic(stencil: &str, e: &CoreError) -> Diagnostic {
    let kind = match e {
        CoreError::UnknownGrid { .. } => DiagnosticKind::UnknownGrid,
        CoreError::AccessOutOfBounds { .. } | CoreError::DomainOutOfBounds { .. } => {
            DiagnosticKind::OutOfBounds
        }
        CoreError::DimMismatch { .. } => DiagnosticKind::RankMismatch,
        _ => DiagnosticKind::CodegenAudit,
    };
    Diagnostic::new(kind, e.to_string()).stencil(stencil)
}

/// Verify one operator: certify the group against the shapes it will run
/// on, lowering with the same options the executing backend uses.
pub fn verify_op(
    group: &StencilGroup,
    shapes: &ShapeMap,
    opts: &LowerOptions,
) -> std::result::Result<OpCertificate, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut cert = OpCertificate::default();

    // 1. Re-resolve every stencil from source (full validation).
    let mut resolved = Vec::new();
    for s in group.stencils() {
        match ResolvedStencil::resolve(s, shapes) {
            Ok(rs) => resolved.push(rs),
            Err(e) => diags.push(resolve_diagnostic(s.name(), &e)),
        }
    }
    if !diags.is_empty() {
        return Err(diags);
    }
    cert.stencils_checked = resolved.len() as u64;

    // 2. Source-level bounds proofs.
    for rs in &resolved {
        match verify_bounds(rs, shapes) {
            Ok(n) => cert.accesses_proved += n,
            Err(ds) => diags.extend(ds),
        }
    }

    // 3. Lower and specialize exactly as the backends do and cross-check
    // the kernel table position-for-position against the surviving
    // stencils.
    let mut lowered = match lower_group(group, shapes, opts) {
        Ok(l) => l,
        Err(e) => {
            diags.push(resolve_diagnostic("<lowering>", &e));
            return Err(diags);
        }
    };
    specialize_lowered(&mut lowered);
    let kept: Vec<ResolvedStencil> = match &opts.live_outputs {
        Some(live) => {
            let keep = dead_stencils(&resolved, live);
            resolved
                .iter()
                .zip(&keep)
                .filter(|&(_, &k)| k)
                .map(|(r, _)| r.clone())
                .collect()
        }
        None => resolved.clone(),
    };
    if kept.len() != lowered.kernels.len() {
        diags.push(Diagnostic::new(
            DiagnosticKind::CodegenAudit,
            format!(
                "lowering produced {} kernels but {} stencils survive elimination",
                lowered.kernels.len(),
                kept.len()
            ),
        ));
        return Err(diags);
    }
    for (k, rs) in lowered.kernels.iter().zip(&kept) {
        if k.name != rs.stencil.name() {
            diags.push(
                Diagnostic::new(
                    DiagnosticKind::CodegenAudit,
                    format!(
                        "kernel {:?} does not match stencil {:?} at the same table position",
                        k.name,
                        rs.stencil.name()
                    ),
                )
                .stencil(rs.stencil.name()),
            );
        }
    }

    // 4. Certify the lowered schedule against the claimed flags.
    let claims: Vec<bool> = lowered.kernels.iter().map(|k| k.parallel_safe).collect();
    match certify_schedule(&kept, &lowered.phases, &claims) {
        Ok(sc) => cert.phases_certified += sc.phases_certified,
        Err(ds) => diags.extend(ds),
    }
    cert.parallel_kernels = claims.iter().filter(|&&c| c).count() as u64;

    // 5. Lowered-form flat-cursor bounds.
    for kernel in &lowered.kernels {
        match verify_kernel_cursors(kernel, &lowered) {
            Ok(n) => cert.accesses_proved += n,
            Err(ds) => diags.extend(ds),
        }
    }

    // 6. Audit the generated C.
    match audit_c_pragmas(&lowered) {
        Ok(n) => cert.pragmas_audited = n,
        Err(ds) => diags.extend(ds),
    }

    if diags.is_empty() {
        Ok(cert)
    } else {
        Err(diags)
    }
}

/// Prove the flat indices of every `(class, delta)` access of a lowered
/// kernel stay inside the dense allocation of its grid, over every region
/// of the kernel's domain union.
///
/// The flat index at iteration point `p` is
/// `delta + Σ_d scale[d]·p[d]·strides[d]`; each dimension's term is
/// monotone in `p[d]`, so the extremes occur at the region's first/last
/// coordinate and two evaluations per dimension bound the whole range.
fn verify_kernel_cursors(
    kernel: &LoweredKernel,
    lowered: &Lowered,
) -> std::result::Result<u64, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut proved = 0u64;
    // Distinct accesses: the output cursor plus every distinct read of the
    // closed form.
    let (classes, deltas) = match &kernel.form {
        SpecForm::Linear(sl) => (&sl.classes, &sl.deltas),
        SpecForm::Tape(tape) => (&tape.read_classes, &tape.read_deltas),
    };
    let mut accesses: Vec<(usize, isize, bool)> =
        vec![(kernel.out_class as usize, kernel.out_delta, true)];
    accesses.extend(
        classes
            .iter()
            .zip(deltas)
            .map(|(&c, &d)| (c as usize, d, false)),
    );
    for &(ci, delta, is_write) in &accesses {
        let class = &kernel.classes[ci];
        let grid_name = &lowered.grid_names[class.grid];
        let grid_len: i128 = lowered.grid_shapes[class.grid]
            .iter()
            .map(|&e| e as i128)
            .product();
        let what = if is_write { "write" } else { "read" };
        for region in &kernel.regions {
            if region.is_empty() {
                continue;
            }
            if class.scale.len() != region.ndim() || class.strides.len() != region.ndim() {
                diags.push(
                    Diagnostic::new(
                        DiagnosticKind::RankMismatch,
                        format!(
                            "cursor class of rank {} addressed by a region of rank {}",
                            class.scale.len(),
                            region.ndim()
                        ),
                    )
                    .stencil(&kernel.name)
                    .grid(grid_name),
                );
                continue;
            }
            let mut mn: i128 = delta as i128;
            let mut mx: i128 = delta as i128;
            let mut lo_pt = Vec::with_capacity(region.ndim());
            let mut hi_pt = Vec::with_capacity(region.ndim());
            for d in 0..region.ndim() {
                let coef = class.scale[d] as i128 * class.strides[d] as i128;
                let lo = region.lo[d] as i128;
                let last = lo + (region.extent(d) as i128 - 1) * region.stride[d] as i128;
                // The last point is a grid coordinate; i128 only guards
                // the products, so narrowing back is exact.
                #[allow(clippy::cast_possible_truncation)]
                let last_pt = last as i64;
                let (a, b) = (coef * lo, coef * last);
                if a <= b {
                    mn += a;
                    mx += b;
                    lo_pt.push(region.lo[d]);
                    hi_pt.push(last_pt);
                } else {
                    mn += b;
                    mx += a;
                    lo_pt.push(last_pt);
                    hi_pt.push(region.lo[d]);
                }
            }
            if mn < 0 {
                diags.push(
                    Diagnostic::new(
                        DiagnosticKind::OutOfBounds,
                        format!(
                            "lowered {what} cursor reaches flat index {mn} (< 0) on grid \
                             {grid_name:?}"
                        ),
                    )
                    .stencil(&kernel.name)
                    .grid(grid_name)
                    .witness(lo_pt),
                );
            } else if mx >= grid_len {
                diags.push(
                    Diagnostic::new(
                        DiagnosticKind::OutOfBounds,
                        format!(
                            "lowered {what} cursor reaches flat index {mx} but grid \
                             {grid_name:?} has {grid_len} cells"
                        ),
                    )
                    .stencil(&kernel.name)
                    .grid(grid_name)
                    .witness(hi_pt),
                );
            } else {
                proved += 1;
            }
        }
    }
    if diags.is_empty() {
        Ok(proved)
    } else {
        Err(diags)
    }
}

/// Audit the C micro-compiler's output: per kernel, count the emitted
/// `#pragma omp parallel for` occurrences in that kernel's section of the
/// source and require exactly one per certificate-covered loop nest
/// (parallel-safe kernel, non-degenerate outer extent) — and zero for
/// sequential kernels.
fn audit_c_pragmas(lowered: &Lowered) -> std::result::Result<u64, Vec<Diagnostic>> {
    let src = emit_c(lowered, "snowflake_verify_audit");
    let mut diags = Vec::new();
    let mut audited = 0u64;
    for kernel in &lowered.kernels {
        let marker = format!(
            "/* kernel {:?} ({}) */",
            kernel.name,
            if kernel.parallel_safe {
                "parallel-safe"
            } else {
                "sequential: loop-carried dependence"
            }
        );
        let Some(start) = src.find(&marker) else {
            diags.push(
                Diagnostic::new(
                    DiagnosticKind::CodegenAudit,
                    "kernel marker missing from generated C — cannot audit pragma placement",
                )
                .stencil(&kernel.name),
            );
            continue;
        };
        let rest = &src[start + marker.len()..];
        let section = &rest[..rest.find("/* kernel ").unwrap_or(rest.len())];
        let pragmas = section.matches("#pragma omp parallel for").count() as u64;
        let expected = if kernel.parallel_safe {
            kernel
                .regions
                .iter()
                .filter(|r| !r.is_empty() && r.extent(0) > 1)
                .count() as u64
        } else {
            0
        };
        if pragmas == expected {
            audited += pragmas;
        } else {
            diags.push(
                Diagnostic::new(
                    DiagnosticKind::CodegenAudit,
                    format!(
                        "generated C has {pragmas} `#pragma omp parallel for` for this kernel \
                         but the certificate covers {expected} loop nest(s)"
                    ),
                )
                .stencil(&kernel.name),
            );
        }
    }
    if diags.is_empty() {
        Ok(audited)
    } else {
        Err(diags)
    }
}

/// Certify every operator of an operator list lowered with `opts`. Zero
/// diagnostics ⇒ certificate.
pub fn verify_ops(
    ops: &[(StencilGroup, ShapeMap)],
    opts: &LowerOptions,
) -> std::result::Result<PlanCertificate, Vec<Diagnostic>> {
    let mut certs = Vec::new();
    let mut diags = Vec::new();
    for (group, shapes) in ops {
        match verify_op(group, shapes, opts) {
            Ok(c) => certs.push(c),
            Err(ds) => diags.extend(ds),
        }
    }
    if diags.is_empty() {
        Ok(PlanCertificate { ops: certs })
    } else {
        Err(diags)
    }
}

/// Certify every operator of a compiled plan, using the lowering options
/// of the plan's own backend.
pub fn verify_plan(plan: &SolverPlan) -> std::result::Result<PlanCertificate, Vec<Diagnostic>> {
    verify_ops(plan.descriptors(), &plan.lower_options())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{DomainUnion, Expr, RectDomain, Stencil};

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
    fn laplacian_group_earns_a_certificate() {
        let group = StencilGroup::from(Stencil::new(laplacian2(), "y", RectDomain::interior(2)));
        let cert = verify_op(&group, &shapes2(8), &LowerOptions::default()).unwrap();
        assert_eq!(cert.stencils_checked, 1);
        assert!(cert.accesses_proved >= 6);
        assert_eq!(cert.phases_certified, 1);
        assert_eq!(cert.parallel_kernels, 1);
        assert!(cert.pragmas_audited >= 1);
    }

    #[test]
    fn red_black_smooth_certifies_with_two_phases() {
        let update = Expr::read_at("x", &[0, 0])
            + 0.25
                * (Expr::read_at("x", &[-1, 0])
                    + Expr::read_at("x", &[1, 0])
                    + Expr::read_at("x", &[0, -1])
                    + Expr::read_at("x", &[0, 1]));
        let (red, black) = DomainUnion::red_black(2);
        let group = StencilGroup::new()
            .with(Stencil::new(update.clone(), "x", red).named("red"))
            .with(Stencil::new(update, "x", black).named("black"));
        let cert = verify_op(&group, &shapes2(10), &LowerOptions::default()).unwrap();
        assert_eq!(cert.stencils_checked, 2);
        assert_eq!(cert.phases_certified, 2);
        // Both colorings are parallel-safe: their writes are disjoint.
        assert_eq!(cert.parallel_kernels, 2);
    }

    #[test]
    fn dead_elimination_path_still_certifies() {
        let mut shapes = shapes2(8);
        shapes.insert("z".into(), vec![8, 8]);
        let group = StencilGroup::new()
            .with(Stencil::new(Expr::read_at("x", &[0, 0]), "y", RectDomain::all(2)).named("dead"))
            .with(
                Stencil::new(Expr::read_at("x", &[0, 0]) * 2.0, "z", RectDomain::all(2))
                    .named("live"),
            );
        let opts = LowerOptions {
            live_outputs: Some(vec!["z".to_string()]),
            ..Default::default()
        };
        let cert = verify_op(&group, &shapes, &opts).unwrap();
        // Only the surviving stencil is scheduled, but both were
        // bounds-checked at source level.
        assert_eq!(cert.stencils_checked, 2);
        assert_eq!(cert.phases_certified, 1);
    }

    #[test]
    fn witnesses_are_counted_per_diagnostic() {
        let diags = vec![
            Diagnostic::new(DiagnosticKind::OutOfBounds, "first")
                .stencil("a")
                .witness(vec![-1]),
            Diagnostic::new(DiagnosticKind::PhaseHazard, "second").stencil("b"),
        ];
        assert_eq!(witness_count(&diags), 1);
    }
}
