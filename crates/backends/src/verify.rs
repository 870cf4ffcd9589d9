//! The plan check: the static verifier and the linter run as one
//! analysis over a plan's operator list (the source-level proofs and the
//! lint passes live in `snowflake-analysis`, on the analysis crate's one
//! conflict test and hazard search).
//!
//! [`verify_ops`] re-proves, from the original stencil descriptions, that
//! every operator is in-bounds and race-free. The source-level bounds
//! proof is the one every compile runs; the schedule certificate, the
//! lowered cursor proof and the C audit check what the lowering produced
//! *independently* of how it produced it:
//!
//! 1. **Source bounds** — every read/write of every stencil stays inside
//!    its grid's allocated extents (ghost zones included), by the front
//!    end's one bounds proof ([`Stencil::validate`], reached through
//!    [`ResolvedStencil::resolve`]); a refusal becomes a finding with its
//!    grid, dimension and witness cell.
//! 2. **Schedule certification** — the group is lowered as every backend
//!    lowers it (`LowerOptions::default()`), the dependence DAG is
//!    re-derived and each barrier phase of the lowering is proved pairwise
//!    hazard-free; every `parallel_safe` claim on a [`LoweredKernel`] is
//!    re-justified (red/black colorings must write disjoint cells).
//! 3. **Lowered cursor bounds** — the flat indices the compiled kernels
//!    actually touch ([`AccessClass`] cursor algebra over their `regions`)
//!    are proved to stay inside the dense grid allocations.
//! 4. **Codegen audit** — the two generated units the compiled backends
//!    run, after the closed-form pass, are scanned against one pragma
//!    contract: cjit's C and oclsim's OpenCL unit (its driver runs the
//!    kernels on the same loop nests). Each has one `#pragma omp parallel`
//!    region per function, one `#pragma omp barrier` between consecutive
//!    phases, and per kernel either one worksharing `#pragma omp for` per
//!    loop nest of a parallel-safe kernel and no `single`, or exactly one
//!    `#pragma omp single` and no worksharing loop for a sequential one.
//!    The rayon backend dispatches parallel tasks purely on the
//!    `parallel_safe` flag, so step 2's flag re-derivation is its audit.
//!
//! It then lints the operator list once in inventory mode (the
//! order-free lint rules; the solver dispatches its ops dynamically, so
//! the order-sensitive liveness rules belong to `snowlint`'s ordered
//! programs).
//!
//! A clean run returns a [`PlanCertificate`] that also counts the lint
//! rules run and the warn-level findings; otherwise it returns every
//! deny-level [`Finding`] of both analyses, each carrying a witness cell
//! when the finite-domain solver can construct one. A checked plan build
//! ([`SolverPlan::build_checked`]) runs [`verify_ops`] before compiling
//! anything.
//!
//! [`AccessClass`]: snowflake_ir::AccessClass
//! [`Stencil::validate`]: snowflake_core::Stencil::validate
//! [`LoweredKernel`]: snowflake_ir::LoweredKernel
//! [`SolverPlan::build_checked`]: crate::plan::SolverPlan::build_checked

use snowflake_analysis::{
    certify_schedule, lint_program, Finding, LintConfig, ResolvedStencil, Rule, Severity,
};
use snowflake_core::{CoreError, ShapeMap, StencilGroup};
use snowflake_ir::{lower_group, LowerOptions, Lowered, LoweredKernel, SpecForm};

use crate::codegen_c::emit_c;
use crate::codegen_ocl::ocl_unit;
use crate::exec::nests;
use crate::metrics::VerifyStats;
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
    /// OpenMP pragmas (`parallel`, `barrier`, `for`, `single`) matched
    /// against the certificate in the generated C and OpenCL units.
    pub pragmas_audited: u64,
}

/// A certificate for a whole operator list: one [`OpCertificate`] per
/// operator, in plan order, plus the lint pass's counters.
#[derive(Clone, Debug, Default)]
pub struct PlanCertificate {
    /// Per-operator certificates.
    pub ops: Vec<OpCertificate>,
    /// Lint rules run over the operator list.
    pub rules_run: u64,
    /// Warn-level lint findings (a deny-level one refuses the plan).
    pub warnings: u64,
}

impl PlanCertificate {
    /// Aggregate the certificate into the metrics-schema counters.
    pub fn stats(&self) -> VerifyStats {
        let mut v = VerifyStats {
            rules_run: self.rules_run,
            warnings: self.warnings,
            ..VerifyStats::default()
        };
        for c in &self.ops {
            v.stencils_checked += c.stencils_checked;
            v.accesses_proved += c.accesses_proved;
            v.phases_certified += c.phases_certified;
        }
        v
    }
}

/// Number of findings carrying a concrete witness cell.
pub fn witness_count(findings: &[Finding]) -> u64 {
    findings.iter().filter(|d| d.witness.is_some()).count() as u64
}

/// Map a front-end error (resolution, validation or lowering) into the
/// rule taxonomy: the stencil, grid, dimension and witness cell go in the
/// finding's fields, and its detail is the error's own detail.
fn resolve_finding(e: &CoreError) -> Finding {
    match e {
        CoreError::AccessOutOfBounds {
            stencil,
            grid,
            dim,
            witness,
            detail,
        } => {
            let finding = Finding::new(Rule::OutOfBounds, detail.as_str())
                .stencil(stencil)
                .grid(grid)
                .dim(*dim);
            match witness {
                Some(cell) => finding.witness(cell.clone()),
                None => finding,
            }
        }
        CoreError::DomainOutOfBounds { stencil, detail } => {
            Finding::new(Rule::OutOfBounds, format!("domain {detail}")).stencil(stencil)
        }
        // An address the executors cannot form is out of their bounds.
        CoreError::AddressOverflow {
            stencil,
            grid,
            detail,
        } => Finding::new(Rule::OutOfBounds, detail.as_str())
            .stencil(stencil)
            .grid(grid),
        CoreError::UnknownGrid { stencil, grid } => {
            Finding::new(Rule::UnknownGrid, "the grid has no allocated shape")
                .stencil(stencil)
                .grid(grid)
        }
        // The rank-mismatch context already names the stencil.
        CoreError::DimMismatch { .. } => Finding::new(Rule::RankMismatch, e.to_string()),
        _ => Finding::new(Rule::CodegenAudit, e.to_string()),
    }
}

/// Verify one operator: certify the group against the shapes it will run
/// on, lowered as every backend lowers it.
pub fn verify_op(
    group: &StencilGroup,
    shapes: &ShapeMap,
) -> std::result::Result<OpCertificate, Vec<Finding>> {
    certify_op(group, shapes, &resolve_op(group, shapes)?)
}

/// Step 1 of [`verify_op`]: re-resolve every stencil from source. The
/// front end's bounds proof covers every distinct read and the write over
/// every region; every stencil that does not resolve is a finding.
fn resolve_op(
    group: &StencilGroup,
    shapes: &ShapeMap,
) -> std::result::Result<Vec<ResolvedStencil>, Vec<Finding>> {
    let mut resolved = Vec::new();
    let mut diags = Vec::new();
    for s in group.stencils() {
        match ResolvedStencil::resolve(s, shapes) {
            Ok(rs) => resolved.push(rs),
            Err(e) => diags.push(resolve_finding(&e)),
        }
    }
    if diags.is_empty() {
        Ok(resolved)
    } else {
        Err(diags)
    }
}

/// Steps 2–5 of [`verify_op`], over a group whose stencils all resolved.
fn certify_op(
    group: &StencilGroup,
    shapes: &ShapeMap,
    resolved: &[ResolvedStencil],
) -> std::result::Result<OpCertificate, Vec<Finding>> {
    let mut diags = Vec::new();
    let mut cert = OpCertificate {
        stencils_checked: resolved.len() as u64,
        accesses_proved: resolved
            .iter()
            .map(|rs| ((rs.reads().len() + 1) * rs.regions.len()) as u64)
            .sum(),
        ..OpCertificate::default()
    };

    // 2. Lower and specialize exactly as the backends do and cross-check
    // the kernel table position-for-position against the stencils.
    let mut lowered = match lower_group(group, shapes, &LowerOptions::default()) {
        Ok(l) => l,
        Err(e) => return Err(vec![resolve_finding(&e)]),
    };
    specialize_lowered(&mut lowered);
    if resolved.len() != lowered.kernels.len() {
        return Err(vec![Finding::new(
            Rule::CodegenAudit,
            format!(
                "lowering produced {} kernels for {} stencils",
                lowered.kernels.len(),
                resolved.len()
            ),
        )]);
    }
    for (k, rs) in lowered.kernels.iter().zip(resolved) {
        if k.name != rs.stencil.name() {
            diags.push(
                Finding::new(
                    Rule::CodegenAudit,
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

    // 3. Certify the lowered schedule against the claimed flags.
    let claims: Vec<bool> = lowered.kernels.iter().map(|k| k.parallel_safe).collect();
    match certify_schedule(resolved, &lowered.phases, &claims) {
        Ok(sc) => cert.phases_certified += sc.phases_certified,
        Err(ds) => diags.extend(ds),
    }
    cert.parallel_kernels = claims.iter().filter(|&&c| c).count() as u64;

    // 4. Lowered-form flat-cursor bounds.
    for kernel in &lowered.kernels {
        match verify_kernel_cursors(kernel, &lowered) {
            Ok(n) => cert.accesses_proved += n,
            Err(ds) => diags.extend(ds),
        }
    }

    // 5. Audit the generated C and OpenCL units.
    let units = [
        ("C", emit_c(&lowered, "snowflake_verify_audit")),
        ("OpenCL unit", ocl_unit(&lowered, "snowflake_verify_audit")),
    ];
    for (unit, src) in units {
        match audit_c_source(&lowered, &src, unit) {
            Ok(n) => cert.pragmas_audited += n,
            Err(ds) => diags.extend(ds),
        }
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
/// coordinate and two evaluations per dimension bound the whole range. A
/// refusal's witness is the grid cell accessed at the offending extreme.
fn verify_kernel_cursors(
    kernel: &LoweredKernel,
    lowered: &Lowered,
) -> std::result::Result<u64, Vec<Finding>> {
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
                    Finding::new(
                        Rule::RankMismatch,
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
            let (detail, pt) = if mn < 0 {
                (format!("reaches flat index {mn} (< 0)"), lo_pt)
            } else if mx >= grid_len {
                (
                    format!("reaches flat index {mx} but the grid has {grid_len} cells"),
                    hi_pt,
                )
            } else {
                proved += 1;
                continue;
            };
            let finding = Finding::new(
                Rule::OutOfBounds,
                format!("lowered {what} cursor on grid {grid_name:?} {detail}"),
            )
            .stencil(&kernel.name)
            .grid(grid_name);
            // The witness is the cell read or written at that point.
            let offsets = offsets_of(delta, &class.strides);
            let cell: Option<Vec<i64>> = (0..pt.len())
                .map(|d| {
                    i64::try_from(i128::from(class.scale[d]) * i128::from(pt[d]) + offsets[d]).ok()
                })
                .collect();
            diags.push(match cell {
                Some(cell) => finding.witness(cell),
                None => finding,
            });
        }
    }
    if diags.is_empty() {
        Ok(proved)
    } else {
        Err(diags)
    }
}

/// The per-dimension offsets of a flat `delta` over row-major `strides`,
/// each rounded to the nearest multiple of its stride: they add back up to
/// `delta`, and they are the source offsets whenever each is below half
/// its grid's extent.
fn offsets_of(delta: isize, strides: &[usize]) -> Vec<i128> {
    let mut rest = delta as i128;
    strides
        .iter()
        .map(|&s| {
            let s = (s as i128).max(1);
            let q = (2 * rest + s).div_euclid(2 * s);
            rest -= q * s;
            q
        })
        .collect()
}

/// Scan the generated `unit` against the pragma contract: the function
/// is exactly one `#pragma omp parallel` region with one `#pragma omp
/// barrier` between consecutive phases; in its own section of the source
/// (from its kernel marker to the next), a parallel-safe kernel has one
/// worksharing `#pragma omp for` per loop nest of [`crate::codegen_c`]
/// and no `#pragma omp single`, and a sequential kernel has exactly one
/// `#pragma omp single` and no worksharing loop. Returns the number of
/// pragmas matched.
fn audit_c_source(
    lowered: &Lowered,
    src: &str,
    unit: &str,
) -> std::result::Result<u64, Vec<Finding>> {
    let mut diags = Vec::new();
    let audit = |what: &str| Finding::new(Rule::CodegenAudit, format!("generated {unit} {what}"));
    // Count directives only where they start a line: names, which may
    // contain anything, are rendered inside one-line comments.
    let count = |text: &str, directive: &str| {
        text.lines()
            .filter(|line| line.trim_start().starts_with(directive))
            .count()
    };
    let regions = count(src, "#pragma omp parallel");
    if regions != 1 {
        diags.push(audit(&format!(
            "has {regions} `#pragma omp parallel` regions; the group must run as one"
        )));
    }
    let barriers = count(src, "#pragma omp barrier");
    let expected_barriers = lowered.phases.len().saturating_sub(1);
    if barriers != expected_barriers {
        diags.push(audit(&format!(
            "has {barriers} `#pragma omp barrier` but the schedule has {} phases",
            lowered.phases.len()
        )));
    }
    let mut audited = (regions + barriers) as u64;
    // Kernel sections in emission order: each runs from the end of its
    // marker to the start of the next kernel's marker.
    let order: Vec<usize> = lowered.phases.iter().flatten().copied().collect();
    let mut markers = Vec::with_capacity(order.len());
    let mut cursor = 0;
    for &ki in &order {
        let marker = crate::codegen_c::kernel_marker(ki, &lowered.kernels[ki]);
        markers.push(src[cursor..].find(&marker).map(|at| {
            cursor += at + marker.len();
            (cursor - marker.len(), cursor)
        }));
    }
    for (i, &ki) in order.iter().enumerate() {
        let kernel = &lowered.kernels[ki];
        let Some((_, start)) = markers[i] else {
            diags.push(
                audit("is missing the kernel's marker — cannot audit pragma placement")
                    .stencil(&kernel.name),
            );
            continue;
        };
        let end = markers[i + 1..]
            .iter()
            .flatten()
            .next()
            .map_or(src.len(), |&(next, _)| next);
        let section = &src[start..end];
        let fors = count(section, "#pragma omp for");
        let singles = count(section, "#pragma omp single");
        let (want_fors, want_singles) = if kernel.parallel_safe {
            (nests(kernel).len(), 0)
        } else {
            (0, 1)
        };
        if (fors, singles) == (want_fors, want_singles) {
            audited += (fors + singles) as u64;
        } else {
            diags.push(
                audit(&format!(
                    "has {fors} `#pragma omp for` and {singles} `#pragma omp single` for this \
                     {} kernel; the contract is {want_fors} and {want_singles}",
                    if kernel.parallel_safe {
                        "parallel-safe"
                    } else {
                        "sequential"
                    }
                ))
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

/// The plan check: certify every operator of an operator list, then lint
/// the list once in inventory mode. Returns the certificate, or every
/// deny-level finding of both analyses.
pub fn verify_ops(
    ops: &[(StencilGroup, ShapeMap)],
) -> std::result::Result<PlanCertificate, Vec<Finding>> {
    let mut certs = Vec::new();
    let mut denied = Vec::new();
    // The linter resolves every stencil it reads; an op that does not
    // resolve is already among the verifier's findings, so the lint runs
    // over the rest.
    let mut resolvable: Vec<(StencilGroup, ShapeMap)> = Vec::new();
    for (group, shapes) in ops {
        let certified = resolve_op(group, shapes).and_then(|resolved| {
            resolvable.push((group.clone(), shapes.clone()));
            certify_op(group, shapes, &resolved)
        });
        match certified {
            Ok(c) => certs.push(c),
            Err(ds) => denied.extend(ds),
        }
    }
    let (mut rules_run, mut warnings) = (0, 0);
    match lint_program(&resolvable, &LintConfig::default()) {
        Ok(report) => {
            rules_run = report.rules_run;
            for l in report.lints {
                match l.severity {
                    Severity::Deny => denied.push(l),
                    Severity::Warn => warnings += 1,
                }
            }
        }
        Err(e) => denied.push(resolve_finding(&e)),
    }
    if denied.is_empty() {
        Ok(PlanCertificate {
            ops: certs,
            rules_run,
            warnings,
        })
    } else {
        Err(denied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::Region;

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
        let cert = verify_op(&group, &shapes2(8)).unwrap();
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
        let cert = verify_op(&group, &shapes2(10)).unwrap();
        assert_eq!(cert.stencils_checked, 2);
        assert_eq!(cert.phases_certified, 2);
        // Both colorings are parallel-safe: their writes are disjoint.
        assert_eq!(cert.parallel_kernels, 2);
    }

    #[test]
    fn widened_kernel_region_trips_the_lowered_cursor_proof() {
        // y[p] = x[p - 1] over the interior certifies; widening the lowered
        // region to include p = 0 (which the front end refuses at source
        // level) moves the read cursor to flat index -1.
        let group = StencilGroup::from(
            Stencil::new(Expr::read_at("x", &[-1]), "y", RectDomain::interior(1)).named("left"),
        );
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![8]);
        shapes.insert("y".into(), vec![8]);
        let mut lowered = lower_group(&group, &shapes, &LowerOptions::default()).unwrap();
        specialize_lowered(&mut lowered);
        assert_eq!(verify_kernel_cursors(&lowered.kernels[0], &lowered), Ok(2));

        let mut widened = lowered.kernels[0].clone();
        widened.regions = vec![Region::new(vec![0], vec![7], vec![1])];
        let diags = verify_kernel_cursors(&widened, &lowered).unwrap_err();
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(
            (d.rule, d.stencil.as_str(), d.grid.as_str()),
            (Rule::OutOfBounds, "left", "x")
        );
        // The witness is the cell read at the cursor's low extreme, p = 0.
        assert_eq!(d.witness.as_deref(), Some(&[-1i64][..]), "{d}");

        // In two dimensions the flat delta -8 splits back into the source
        // offset (-1, 0): widened to row 0, the low extreme p = (0, 1)
        // reads cell (-1, 1), one row above the grid.
        let group = StencilGroup::from(
            Stencil::new(Expr::read_at("x", &[-1, 0]), "y", RectDomain::interior(2)).named("up"),
        );
        let lowered = lower_group(&group, &shapes2(8), &LowerOptions::default()).unwrap();
        let mut widened = lowered.kernels[0].clone();
        widened.regions = vec![Region::new(vec![0, 1], vec![7, 7], vec![1, 1])];
        let diags = verify_kernel_cursors(&widened, &lowered).unwrap_err();
        assert_eq!(
            diags[0].witness.as_deref(),
            Some(&[-1i64, 1][..]),
            "{}",
            diags[0]
        );
    }

    #[test]
    fn codegen_audit_rejects_hand_corrupted_pragmas() {
        // One parallel-safe kernel, then an in-place lexicographic sweep
        // (sequential), in two phases.
        let group = StencilGroup::new()
            .with(Stencil::new(laplacian2(), "y", RectDomain::interior(2)).named("lap"))
            .with(
                Stencil::new(Expr::read_at("x", &[0, -1]), "x", RectDomain::interior(2))
                    .named("sweep"),
            );
        let lowered = lower_group(&group, &shapes2(8), &LowerOptions::default()).unwrap();
        assert_eq!(lowered.phases.len(), 2);
        let src = emit_c(&lowered, "f");
        // parallel + barrier + one `for` + one `single`
        assert_eq!(audit_c_source(&lowered, &src, "C"), Ok(4));
        let rejected = |bad: &str| {
            let diags = audit_c_source(&lowered, bad, "C").expect_err(bad);
            assert!(diags.iter().all(|d| d.rule == Rule::CodegenAudit));
            diags
        };
        let single = "#pragma omp single nowait";
        let shared_for = "#pragma omp for schedule(static) nowait";
        // A worksharing loop on the sequential kernel.
        let diags = rejected(&src.replace(single, shared_for));
        assert_eq!(diags[0].stencil, "sweep", "{diags:?}");
        // The sequential kernel's `single` is missing: every thread would
        // run the sweep.
        let diags = rejected(&src.replace(single, ""));
        assert_eq!(diags[0].stencil, "sweep", "{diags:?}");
        // The parallel kernel lost its worksharing loop.
        let diags = rejected(&src.replace(shared_for, ""));
        assert_eq!(diags[0].stencil, "lap", "{diags:?}");
        // A second team, or a missing barrier between the phases.
        rejected(&src.replace("#pragma omp barrier", "#pragma omp parallel"));
        rejected(&src.replace("#pragma omp barrier", ""));
    }

    #[test]
    fn codegen_audit_rejects_an_opencl_driver_missing_a_phase_barrier() {
        // A red-black smooth, then a Laplacian of its result: three phases,
        // two two-region parallel-safe kernels and a one-region one.
        let update = Expr::read_at("x", &[0, 0]) * 0.5 + Expr::read_at("x", &[0, 1]) * 0.25;
        let (red, black) = DomainUnion::red_black(2);
        let group = StencilGroup::new()
            .with(Stencil::new(update.clone(), "x", red).named("red"))
            .with(Stencil::new(update, "x", black).named("black"))
            .with(Stencil::new(laplacian2(), "y", RectDomain::interior(2)).named("lap"));
        let mut lowered = lower_group(&group, &shapes2(10), &LowerOptions::default()).unwrap();
        specialize_lowered(&mut lowered);
        assert_eq!(lowered.phases.len(), 3);
        let src = ocl_unit(&lowered, "f");
        // parallel + 2 barriers + one nest per kernel (each color union
        // is one guarded nest, as in cjit's C)
        assert_eq!(audit_c_source(&lowered, &src, "OpenCL unit"), Ok(6));
        let barrier = "        #pragma omp barrier\n";
        let one_removed = src.replacen(barrier, "", 1);
        assert_eq!(one_removed.len() + barrier.len(), src.len());
        let diags = audit_c_source(&lowered, &one_removed, "OpenCL unit")
            .expect_err("a driver missing a phase barrier must be refused");
        assert!(
            diags.iter().all(|d| d.rule == Rule::CodegenAudit),
            "{diags:?}"
        );
        assert!(diags[0].detail.contains("OpenCL unit"), "{diags:?}");
    }

    #[test]
    fn witnesses_are_counted_per_diagnostic() {
        let diags = vec![
            Finding::new(Rule::OutOfBounds, "first")
                .stencil("a")
                .witness(vec![-1]),
            Finding::new(Rule::PhaseHazard, "second").stencil("b"),
        ];
        assert_eq!(witness_count(&diags), 1);
    }
}
