//! Plan-time static verification, and the one finding vocabulary of the
//! plan check.
//!
//! Both analyses of the plan check (this verifier and the linter of
//! [`crate::lint`]) report [`Finding`]s: a [`Rule`] from one taxonomy, a
//! [`Severity`], the stencil, grid and dimension, and, whenever the
//! finite-domain Diophantine machinery can produce one, a concrete
//! **witness grid cell** where the violation happens. Every verifier rule
//! denies. The verifier asks the same questions the scheduler does,
//! through the same functions: [`access_conflict`] and [`depends`] return
//! witness cells, and report rank mismatches as [`Rule::RankMismatch`]
//! findings in release builds too.
//!
//! The verifier's entry point here is [`certify_schedule`]: re-derive the
//! dependence structure of a phased schedule and prove each phase pairwise
//! hazard-free and every `parallel_safe` claim justified. Source-level
//! bounds are proved once, by the front end every compile runs
//! ([`Stencil::validate`], reached through [`ResolvedStencil::resolve`]),
//! whose refusal carries the dimension and a witness cell.
//!
//! The lowered-form checks (cursor algebra over [`AccessClass`] regions,
//! codegen audit) build on these in `snowflake-backends::verify`.
//!
//! [`access_conflict`]: crate::conflict::access_conflict
//! [`depends`]: crate::deps::depends
//! [`Stencil::validate`]: snowflake_core::Stencil::validate
//! [`AccessClass`]: ../snowflake_ir/struct.AccessClass.html

use std::fmt;

use crate::conflict::{access_conflict, self_conflict};
use crate::deps::{depends, is_parallel_safe, ResolvedStencil};

/// The one rule taxonomy of the plan check: the verifier's seven safety
/// rules, then the linter's ten semantic rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Two objects that must share a rank do not (the release-mode
    /// replacement for the `debug_assert_eq!` rank checks).
    RankMismatch,
    /// An access can touch a grid cell outside the allocated extents.
    OutOfBounds,
    /// An accessed grid is missing from the shape map.
    UnknownGrid,
    /// Two stencils scheduled into the same barrier phase (or ordered
    /// against their dependence) can race.
    PhaseHazard,
    /// The write sets of a domain union's member rectangles overlap while
    /// the stencil claims parallel safety.
    WriteOverlap,
    /// A kernel's `parallel_safe` flag claims safety the analysis cannot
    /// re-derive.
    ParallelSafeMismatch,
    /// Generated code parallelizes (or would parallelize) a loop the
    /// certificate does not cover.
    CodegenAudit,
    /// A write fully overwritten before any read can observe it.
    DeadStore,
    /// A grid written but never read afterwards (and not a declared
    /// program output).
    WriteNeverRead,
    /// A grid read before any write (and not a declared program input).
    ReadBeforeWrite,
    /// A stencil that copies its output grid onto itself unchanged.
    RedundantCopy,
    /// A colored domain union leaves cells of its bounding region
    /// uncovered.
    CoverageGap,
    /// Two member rectangles of a colored domain union write the same
    /// cell.
    DoubleCover,
    /// An interior stencil reads a ghost cell no earlier stencil wrote.
    HaloGap,
    /// A read's net coefficient cancels to exactly zero.
    ZeroWeight,
    /// A restriction/interpolation stencil whose source weights do not
    /// sum to one.
    PartitionOfUnity,
    /// An in-place smoother whose update weights suggest divergence
    /// (absolute row sum of the iteration weights exceeds one).
    SmootherDivergence,
}

impl Rule {
    /// The linter's rules, in reporting order.
    pub const LINTS: [Rule; 10] = [
        Rule::DeadStore,
        Rule::WriteNeverRead,
        Rule::ReadBeforeWrite,
        Rule::RedundantCopy,
        Rule::CoverageGap,
        Rule::DoubleCover,
        Rule::HaloGap,
        Rule::ZeroWeight,
        Rule::PartitionOfUnity,
        Rule::SmootherDivergence,
    ];

    /// The severity a finding of this rule carries by default. Every
    /// verifier rule denies.
    pub fn default_severity(self) -> Severity {
        match self {
            Rule::DeadStore
            | Rule::WriteNeverRead
            | Rule::RedundantCopy
            | Rule::ZeroWeight
            | Rule::PartitionOfUnity
            | Rule::SmootherDivergence => Severity::Warn,
            _ => Severity::Deny,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::RankMismatch => "rank-mismatch",
            Rule::OutOfBounds => "out-of-bounds",
            Rule::UnknownGrid => "unknown-grid",
            Rule::PhaseHazard => "phase-hazard",
            Rule::WriteOverlap => "write-overlap",
            Rule::ParallelSafeMismatch => "parallel-safe-mismatch",
            Rule::CodegenAudit => "codegen-audit",
            Rule::DeadStore => "dead-store",
            Rule::WriteNeverRead => "write-never-read",
            Rule::ReadBeforeWrite => "read-before-write",
            Rule::RedundantCopy => "redundant-copy",
            Rule::CoverageGap => "coverage-gap",
            Rule::DoubleCover => "double-cover",
            Rule::HaloGap => "halo-gap",
            Rule::ZeroWeight => "zero-weight",
            Rule::PartitionOfUnity => "partition-of-unity",
            Rule::SmootherDivergence => "smoother-divergence",
        })
    }
}

/// How severe a finding is: a `Deny` finding refuses a checked plan and
/// fails a `snowlint` run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but plausibly intentional.
    Warn,
    /// Almost certainly a program bug.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// A single finding of either analysis: the rule, its severity, where it
/// points, and (when the Diophantine solver can construct one) a concrete
/// grid cell realizing it.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// How severe the finding is (defaults to the rule's severity).
    pub severity: Severity,
    /// The offending stencil (empty when not attributable to one).
    pub stencil: String,
    /// The grid the finding touches (empty when not applicable).
    pub grid: String,
    /// The dimension in which the finding was localized, if any.
    pub dim: Option<usize>,
    /// A concrete witness grid cell.
    pub witness: Option<Vec<i64>>,
    /// Human-readable description of the finding.
    pub detail: String,
}

impl Finding {
    /// Construct a finding with the rule's default severity; attach
    /// location data with the builder methods.
    pub fn new(rule: Rule, detail: impl Into<String>) -> Self {
        Finding {
            rule,
            severity: rule.default_severity(),
            stencil: String::new(),
            grid: String::new(),
            dim: None,
            witness: None,
            detail: detail.into(),
        }
    }

    /// Attach the offending stencil's name.
    #[must_use]
    pub fn stencil(mut self, name: &str) -> Self {
        self.stencil = name.to_string();
        self
    }

    /// Attach the touched grid's name.
    #[must_use]
    pub fn grid(mut self, name: &str) -> Self {
        self.grid = name.to_string();
        self
    }

    /// Attach the violating dimension.
    #[must_use]
    pub fn dim(mut self, d: usize) -> Self {
        self.dim = Some(d);
        self
    }

    /// Attach a witness grid cell.
    #[must_use]
    pub fn witness(mut self, cell: Vec<i64>) -> Self {
        self.witness = Some(cell);
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}]", self.severity, self.rule)?;
        if !self.stencil.is_empty() {
            write!(f, " stencil {:?}", self.stencil)?;
        }
        if !self.grid.is_empty() {
            write!(f, " grid {:?}", self.grid)?;
        }
        if let Some(d) = self.dim {
            write!(f, " dim {d}")?;
        }
        write!(f, ": {}", self.detail)?;
        if let Some(w) = &self.witness {
            write!(f, " (witness cell {w:?})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Finding {}

pub(crate) fn rank_mismatch(context: &str, expected: usize, got: usize) -> Finding {
    Finding::new(
        Rule::RankMismatch,
        format!("{context}: expected rank {expected}, got {got}"),
    )
}

/// A certified phased schedule: every phase is pairwise hazard-free,
/// phase order respects the re-derived dependence structure, and every
/// `parallel_safe` claim was independently re-proved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleCertificate {
    /// Barrier phases proved pairwise hazard-free.
    pub phases_certified: u64,
    /// Stencil pairs whose (in)dependence was re-derived.
    pub pairs_checked: u64,
}

/// Certify a phased schedule over resolved stencils.
///
/// `phases` holds indices into `resolved` (the backends' `greedy_phases`
/// output); `parallel_claims[k]` is the `parallel_safe` flag the lowering
/// attached to stencil `k`. The certificate requires:
///
/// 1. every stencil is scheduled exactly once;
/// 2. stencils sharing a phase are pairwise independent (checked in both
///    directions — within a barrier there is no program order);
/// 3. for every dependent pair, the earlier stencil's phase strictly
///    precedes the later one's;
/// 4. every claimed-parallel stencil is re-proved [`is_parallel_safe`],
///    with write overlap — across union rectangles, or between distinct
///    iterations of one rectangle — surfaced separately as
///    [`WriteOverlap`].
///
/// [`WriteOverlap`]: Rule::WriteOverlap
pub fn certify_schedule(
    resolved: &[ResolvedStencil],
    phases: &[Vec<usize>],
    parallel_claims: &[bool],
) -> Result<ScheduleCertificate, Vec<Finding>> {
    let mut diags = Vec::new();
    let n = resolved.len();

    // 1. Coverage: the schedule is a permutation of 0..n.
    let mut seen = vec![0usize; n];
    for phase in phases {
        for &k in phase {
            if k >= n {
                diags.push(Finding::new(
                    Rule::PhaseHazard,
                    format!("schedule references stencil index {k} but only {n} exist"),
                ));
            } else {
                seen[k] += 1;
            }
        }
    }
    for (k, &count) in seen.iter().enumerate() {
        if count != 1 {
            diags.push(
                Finding::new(
                    Rule::PhaseHazard,
                    format!("stencil is scheduled {count} times (must be exactly once)"),
                )
                .stencil(resolved[k].stencil.name()),
            );
        }
    }
    if !diags.is_empty() {
        return Err(diags); // phase_of below needs a well-formed schedule
    }

    let mut phase_of = vec![0usize; n];
    for (p, phase) in phases.iter().enumerate() {
        for &k in phase {
            phase_of[k] = p;
        }
    }

    let mut pairs_checked = 0u64;

    // 2. Intra-phase pairwise independence, both directions.
    for phase in phases {
        for (i, &a) in phase.iter().enumerate() {
            for &b in phase.iter().skip(i + 1) {
                pairs_checked += 1;
                for (x, y) in [(a, b), (b, a)] {
                    match depends(&resolved[x], &resolved[y]) {
                        Err(e) => diags.push(e),
                        Ok(Some(h)) => {
                            let d = Finding::new(
                                Rule::PhaseHazard,
                                format!(
                                    "{:?} and {:?} share a barrier phase but have a {:?} hazard",
                                    resolved[x].stencil.name(),
                                    resolved[y].stencil.name(),
                                    h.kind
                                ),
                            )
                            .stencil(resolved[x].stencil.name())
                            .grid(&h.grid)
                            .witness(h.cell);
                            diags.push(d);
                        }
                        Ok(None) => {}
                    }
                }
            }
        }
    }

    // 3. Cross-phase: dependences must run forward in phase order.
    for i in 0..n {
        for j in (i + 1)..n {
            if phase_of[i] == phase_of[j] {
                continue; // handled above
            }
            pairs_checked += 1;
            match depends(&resolved[i], &resolved[j]) {
                Err(e) => diags.push(e),
                Ok(Some(h)) if phase_of[i] > phase_of[j] => {
                    let d = Finding::new(
                        Rule::PhaseHazard,
                        format!(
                            "{:?} (phase {}) must complete before {:?} (phase {}): {:?} hazard",
                            resolved[i].stencil.name(),
                            phase_of[i],
                            resolved[j].stencil.name(),
                            phase_of[j],
                            h.kind
                        ),
                    )
                    .stencil(resolved[j].stencil.name())
                    .grid(&h.grid)
                    .witness(h.cell);
                    diags.push(d);
                }
                Ok(_) => {}
            }
        }
    }

    // 4. Parallel-safety claims re-proved from scratch.
    for (k, rs) in resolved.iter().enumerate() {
        let claimed = parallel_claims.get(k).copied().unwrap_or(false);
        if !claimed {
            continue; // conservative serialization is always sound
        }
        let (grid, wmap) = rs.write();
        // A write map that is not injective on one rectangle (a zero scale
        // over an extent > 1) sends distinct iterations to one cell.
        let collapsed = rs.regions.iter().find(|r| self_conflict(r, &wmap, &wmap));
        if let Some(region) = collapsed {
            diags.push(
                Finding::new(
                    Rule::WriteOverlap,
                    "distinct iterations write the same cell but the stencil is \
                     flagged parallel-safe",
                )
                .stencil(rs.stencil.name())
                .grid(&grid)
                .witness(wmap.apply(&region.lo)),
            );
            continue;
        }
        // Distinct union rectangles writing one cell; a rectangle paired
        // with itself shares every cell and proves nothing.
        let overlap = rs.regions.iter().enumerate().find_map(|(i, r1)| {
            rs.regions[i + 1..]
                .iter()
                .find_map(|r2| access_conflict(r1, &wmap, r2, &wmap).transpose())
        });
        match overlap {
            Some(Err(e)) => diags.push(e.stencil(rs.stencil.name())),
            Some(Ok(cell)) => diags.push(
                Finding::new(
                    Rule::WriteOverlap,
                    "domain-union rectangles write overlapping cells but the \
                     stencil is flagged parallel-safe",
                )
                .stencil(rs.stencil.name())
                .grid(&grid)
                .witness(cell),
            ),
            None if !is_parallel_safe(rs) => diags.push(
                Finding::new(
                    Rule::ParallelSafeMismatch,
                    "flagged parallel-safe but the analysis finds a \
                     loop-carried dependence over the domain union",
                )
                .stencil(rs.stencil.name())
                .grid(&grid),
            ),
            None => {}
        }
    }

    if diags.is_empty() {
        Ok(ScheduleCertificate {
            phases_certified: phases.len() as u64,
            pairs_checked,
        })
    } else {
        Err(diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::greedy_phases;
    use snowflake_core::{
        weights2, AffineMap, Component, DomainUnion, Expr, RectDomain, ShapeMap, Stencil,
    };
    use snowflake_grid::Region;

    fn shapes(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        for g in ["x", "y", "rhs"] {
            m.insert(g.to_string(), vec![n, n]);
        }
        m
    }

    fn laplacian(grid: &str) -> Expr {
        Component::new(grid, weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]).expand()
    }

    // By-value keeps the many test call sites terse.
    #[allow(clippy::needless_pass_by_value)]
    fn resolved(s: Stencil, n: usize) -> ResolvedStencil {
        ResolvedStencil::resolve(&s, &shapes(n)).unwrap()
    }

    #[test]
    fn rank_mismatch_is_a_diagnostic_not_a_debug_assert() {
        let r1 = Region::new(vec![0, 0], vec![4, 4], vec![1, 1]);
        let r2 = Region::new(vec![0], vec![4], vec![1]);
        let id2 = AffineMap::identity(2);
        let err = access_conflict(&r1, &id2, &r2, &id2).unwrap_err();
        assert_eq!(err.rule, Rule::RankMismatch);
        let id1 = AffineMap::identity(1);
        let err = access_conflict(&r1, &id1, &r1, &id2).unwrap_err();
        assert_eq!(err.rule, Rule::RankMismatch);
    }

    #[test]
    fn conflict_witness_is_a_real_shared_cell() {
        // Red writes {1,3,..}; black reads p-1 → hits red cells.
        let red = Region::new(vec![1], vec![15], vec![2]);
        let black = Region::new(vec![2], vec![15], vec![2]);
        let id = AffineMap::identity(1);
        let m = AffineMap::translate(vec![-1]);
        let cell = access_conflict(&red, &id, &black, &m)
            .unwrap()
            .expect("conflict");
        // The witness must be a red cell reachable as black-1.
        assert_eq!(cell.len(), 1);
        assert!(cell[0] % 2 == 1 && (1..15).contains(&cell[0]), "{cell:?}");
        // Disjoint colors: proven, no witness.
        assert_eq!(access_conflict(&red, &id, &black, &id).unwrap(), None);
    }

    #[test]
    fn certify_greedy_schedule_of_dependent_chain() {
        let a = Stencil::new(laplacian("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(laplacian("y"), "x", RectDomain::interior(2));
        let rs = vec![resolved(a, 16), resolved(b, 16)];
        let phases = greedy_phases(&rs).phases;
        assert_eq!(phases.len(), 2);
        let claims = vec![true, true];
        let cert = certify_schedule(&rs, &phases, &claims).unwrap();
        assert_eq!(cert.phases_certified, 2);
    }

    #[test]
    fn merged_dependent_phase_yields_hazard_witness() {
        let a = Stencil::new(laplacian("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(laplacian("y"), "x", RectDomain::interior(2));
        let rs = vec![resolved(a, 16), resolved(b, 16)];
        // Deliberately merge the RAW-dependent pair into one phase.
        let phases = vec![vec![0, 1]];
        let diags = certify_schedule(&rs, &phases, &[true, true]).unwrap_err();
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::PhaseHazard && d.witness.is_some()),
            "{diags:?}"
        );
    }

    #[test]
    fn inverted_phase_order_is_rejected() {
        let a = Stencil::new(laplacian("x"), "y", RectDomain::interior(2));
        let b = Stencil::new(laplacian("y"), "x", RectDomain::interior(2));
        let rs = vec![resolved(a, 16), resolved(b, 16)];
        let phases = vec![vec![1], vec![0]];
        let diags = certify_schedule(&rs, &phases, &[true, true]).unwrap_err();
        assert!(
            diags.iter().any(|d| d.rule == Rule::PhaseHazard),
            "{diags:?}"
        );
    }

    #[test]
    fn false_parallel_claim_is_rejected() {
        // In-place lexicographic Gauss-Seidel is NOT parallel safe.
        let s = Stencil::new(laplacian("x"), "x", RectDomain::interior(2));
        let rs = vec![resolved(s, 16)];
        let phases = vec![vec![0]];
        let err = certify_schedule(&rs, &phases, &[true]).unwrap_err();
        assert!(
            err.iter().any(|d| d.rule == Rule::ParallelSafeMismatch),
            "{err:?}"
        );
        // The honest claim certifies.
        assert!(certify_schedule(&rs, &phases, &[false]).is_ok());
    }

    #[test]
    fn overlapping_union_write_yields_write_overlap_witness() {
        let u = RectDomain::new(&[1, 1], &[8, 8], &[1, 1])
            + RectDomain::new(&[4, 4], &[12, 12], &[1, 1]);
        let s = Stencil::new(Expr::read_at("x", &[0, 0]), "y", u);
        let rs = vec![resolved(s, 16)];
        let err = certify_schedule(&rs, &[vec![0]], &[true]).unwrap_err();
        let wo: Vec<_> = err
            .iter()
            .filter(|d| d.rule == Rule::WriteOverlap)
            .collect();
        assert_eq!(wo.len(), 1, "{err:?}");
        let w = wo[0].witness.as_ref().expect("witness cell");
        // Witness must lie in the rectangle intersection.
        assert!(w.iter().all(|&c| (4..8).contains(&c)), "{w:?}");
    }

    #[test]
    fn gsrb_red_black_certifies_and_writes_are_disjoint() {
        let (red, black) = DomainUnion::red_black(2);
        let r = Stencil::new(laplacian("x"), "x", red);
        let b = Stencil::new(laplacian("x"), "x", black);
        let rs = vec![resolved(r, 16), resolved(b, 16)];
        let phases = greedy_phases(&rs).phases;
        let claims: Vec<bool> = rs.iter().map(is_parallel_safe).collect();
        assert_eq!(claims, vec![true, true]);
        certify_schedule(&rs, &phases, &claims).unwrap();
        // The colorings' write sets are provably disjoint cell-by-cell.
        let (_, wr) = rs[0].write();
        let (_, wb) = rs[1].write();
        for r1 in &rs[0].regions {
            for r2 in &rs[1].regions {
                assert_eq!(access_conflict(r1, &wr, r2, &wb).unwrap(), None);
            }
        }
    }
}
