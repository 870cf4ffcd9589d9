//! Semantic lint passes over stencil programs: typed findings with
//! witness cells, layered above the safety verifier.
//!
//! The [`verify`](crate::verify) layer certifies a plan *safe* (in-bounds,
//! race-free); this module asks whether the program is *semantically
//! sensible*. Four pass families run over an ordered list of
//! `(StencilGroup, ShapeMap)` ops:
//!
//! * **grid-liveness dataflow** — dead stores (a write fully overwritten
//!   before any read), writes never read, reads of grids never written
//!   (and not declared program inputs), and redundant self-copies; a
//!   store is live when a later stencil has a read-after-write hazard on
//!   it, found by the scheduler's own [`depends`](crate::deps::depends);
//! * **domain coverage** — prove a union of strided rectangles exactly
//!   tiles its bounding region, via inclusion–exclusion over arithmetic-
//!   progression intersections (computed by
//!   [`dio::intersect`](crate::dio::intersect), the crate's one solver);
//!   gap and double-cover verdicts come with concrete witness cells found
//!   by bisection;
//! * **halo sufficiency** — every ghost cell an interior stencil reads
//!   must be produced by some earlier boundary stencil in the program
//!   (or belong to a declared input grid);
//! * **weight sanity** — cancelling/zero read coefficients, restriction
//!   and interpolation partition-of-unity, and a crude spectral-radius
//!   estimate for in-place smoothers.
//!
//! Every negative verdict is a typed [`Lint`] mirroring the verifier's
//! [`Diagnostic`](crate::verify::Diagnostic) shape: rule, severity,
//! stencil, grid, optional witness cell, human-readable detail.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use snowflake_core::{AffineMap, Expr, ShapeMap, StencilGroup};
use snowflake_grid::Region;

use crate::conflict::access_range;
use crate::deps::{reads_after_write, ResolvedStencil};
use crate::dio::{intersect, StridedRange};
use crate::math::coord;

/// The lint rule taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintRule {
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

impl LintRule {
    /// Every rule, in reporting order.
    pub const ALL: [LintRule; 10] = [
        LintRule::DeadStore,
        LintRule::WriteNeverRead,
        LintRule::ReadBeforeWrite,
        LintRule::RedundantCopy,
        LintRule::CoverageGap,
        LintRule::DoubleCover,
        LintRule::HaloGap,
        LintRule::ZeroWeight,
        LintRule::PartitionOfUnity,
        LintRule::SmootherDivergence,
    ];

    /// The severity a finding of this rule carries by default.
    pub fn default_severity(self) -> Severity {
        match self {
            LintRule::CoverageGap
            | LintRule::DoubleCover
            | LintRule::HaloGap
            | LintRule::ReadBeforeWrite => Severity::Deny,
            LintRule::DeadStore
            | LintRule::WriteNeverRead
            | LintRule::RedundantCopy
            | LintRule::ZeroWeight
            | LintRule::PartitionOfUnity
            | LintRule::SmootherDivergence => Severity::Warn,
        }
    }
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintRule::DeadStore => "dead-store",
            LintRule::WriteNeverRead => "write-never-read",
            LintRule::ReadBeforeWrite => "read-before-write",
            LintRule::RedundantCopy => "redundant-copy",
            LintRule::CoverageGap => "coverage-gap",
            LintRule::DoubleCover => "double-cover",
            LintRule::HaloGap => "halo-gap",
            LintRule::ZeroWeight => "zero-weight",
            LintRule::PartitionOfUnity => "partition-of-unity",
            LintRule::SmootherDivergence => "smoother-divergence",
        };
        f.write_str(s)
    }
}

impl FromStr for LintRule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LintRule::ALL
            .into_iter()
            .find(|r| r.to_string() == s)
            .ok_or_else(|| {
                let names: Vec<String> = LintRule::ALL.iter().map(ToString::to_string).collect();
                format!(
                    "unknown lint rule {s:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// How severe a finding is: `Deny` findings fail a `--deny`-mode run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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

/// A single lint finding: the rule, its severity, where it points, and —
/// whenever the Diophantine machinery can construct one — a concrete
/// witness grid cell realizing the problem.
#[derive(Clone, Debug, PartialEq)]
pub struct Lint {
    /// Which rule fired.
    pub rule: LintRule,
    /// How severe the finding is (defaults to the rule's severity).
    pub severity: Severity,
    /// The offending stencil (empty when not attributable to one).
    pub stencil: String,
    /// The grid the finding concerns (empty when not applicable).
    pub grid: String,
    /// A concrete witness grid cell.
    pub witness: Option<Vec<i64>>,
    /// Human-readable description.
    pub detail: String,
}

impl Lint {
    /// Construct a finding with the rule's default severity; attach
    /// location data with the builder methods.
    pub fn new(rule: LintRule, detail: impl Into<String>) -> Self {
        Lint {
            rule,
            severity: rule.default_severity(),
            stencil: String::new(),
            grid: String::new(),
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

    /// Attach the concerned grid's name.
    #[must_use]
    pub fn grid(mut self, name: &str) -> Self {
        self.grid = name.to_string();
        self
    }

    /// Attach a witness grid cell.
    #[must_use]
    pub fn witness(mut self, cell: Vec<i64>) -> Self {
        self.witness = Some(cell);
        self
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}]", self.severity, self.rule)?;
        if !self.stencil.is_empty() {
            write!(f, " stencil {:?}", self.stencil)?;
        }
        if !self.grid.is_empty() {
            write!(f, " grid {:?}", self.grid)?;
        }
        write!(f, ": {}", self.detail)?;
        if let Some(w) = &self.witness {
            write!(f, " (witness cell {w:?})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Lint {}

/// What the lint engine may assume about the program's environment.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Grids assumed fully initialized (ghost cells included) before the
    /// program runs. `None` means *every* grid — sound when linting a
    /// plan without program context, at the cost of muting
    /// `read-before-write` and `halo-gap`.
    pub inputs: Option<BTreeSet<String>>,
    /// Grids whose final values are the program's results. `None` means
    /// every grid is live-out, muting `write-never-read`.
    pub outputs: Option<BTreeSet<String>>,
    /// The op list is the true execution order (straight-line program).
    /// When false (a plan's op *inventory*, dispatched dynamically at
    /// run time), the order-dependent liveness rules are skipped.
    pub ordered: bool,
}

impl LintConfig {
    /// Treat the op list as the execution order, enabling the liveness
    /// dataflow rules.
    #[must_use]
    pub fn ordered(mut self) -> Self {
        self.ordered = true;
        self
    }

    /// Declare the exact set of externally initialized grids.
    #[must_use]
    pub fn with_inputs<I, S>(mut self, inputs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.inputs = Some(inputs.into_iter().map(Into::into).collect());
        self
    }

    /// Declare the exact set of live-out grids.
    #[must_use]
    pub fn with_outputs<I, S>(mut self, outputs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.outputs = Some(outputs.into_iter().map(Into::into).collect());
        self
    }

    fn is_input(&self, grid: &str) -> bool {
        self.inputs.as_ref().is_none_or(|s| s.contains(grid))
    }

    fn is_output(&self, grid: &str) -> bool {
        self.outputs.as_ref().is_none_or(|s| s.contains(grid))
    }
}

/// The outcome of a lint run: which rules executed and what they found.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Number of rules the configuration allowed to run.
    pub rules_run: u64,
    /// The findings, in program order.
    pub lints: Vec<Lint>,
}

impl LintReport {
    /// Number of deny-severity findings.
    pub fn deny_count(&self) -> u64 {
        self.lints
            .iter()
            .filter(|l| l.severity == Severity::Deny)
            .count() as u64
    }
}

/// The result of applying a `--deny`/`--allow` rule policy to findings.
#[derive(Clone, Debug, Default)]
pub struct PolicyOutcome {
    /// Findings kept, with severities adjusted per the policy.
    pub lints: Vec<Lint>,
    /// Number of findings removed by `allow` rules.
    pub suppressed: u64,
}

/// Apply a rule policy: findings of `allow`ed rules are suppressed
/// (counted, not kept); findings of `deny`ed rules are escalated to
/// [`Severity::Deny`]. `allow` wins when a rule appears in both.
pub fn apply_policy(lints: Vec<Lint>, deny: &[LintRule], allow: &[LintRule]) -> PolicyOutcome {
    let mut out = PolicyOutcome::default();
    for mut l in lints {
        if allow.contains(&l.rule) {
            out.suppressed += 1;
            continue;
        }
        if deny.contains(&l.rule) {
            l.severity = Severity::Deny;
        }
        out.lints.push(l);
    }
    out
}

// --- arithmetic-progression machinery -----------------------------------

/// A product region as per-dimension normalized ranges.
type Product = Vec<StridedRange>;

fn region_product(r: &Region) -> Product {
    (0..r.ndim())
        .map(|d| {
            StridedRange::new(
                i128::from(r.lo[d]),
                i128::from(r.extent(d)),
                i128::from(r.stride[d]),
            )
            .normalized()
        })
        .collect()
}

/// The image of `region` under `map`, as a product of normalized ranges.
fn image_product(region: &Region, map: &AffineMap) -> Product {
    (0..region.ndim())
        .map(|d| access_range(region, map, d).normalized())
        .collect()
}

fn product_count(p: &[StridedRange]) -> i128 {
    p.iter().map(|r| r.count.max(0)).product()
}

fn intersect_products(a: &[StridedRange], b: &[StridedRange]) -> Option<Product> {
    debug_assert_eq!(a.len(), b.len());
    let out: Product = a
        .iter()
        .zip(b)
        .map(|(&ra, &rb)| intersect(ra, rb))
        .collect();
    if out.iter().any(StridedRange::is_empty) {
        None
    } else {
        Some(out)
    }
}

/// Coverage analysis degrades gracefully past this many member parts
/// (inclusion–exclusion is exponential in the part count).
const MAX_COVER_PARTS: usize = 16;

/// Exact `|declared ∩ (p1 ∪ … ∪ pk)|` by inclusion–exclusion over
/// arithmetic-progression intersections.
fn covered_count(declared: &[StridedRange], parts: &[Product]) -> i128 {
    debug_assert!(parts.len() <= MAX_COVER_PARTS);
    let k = parts.len();
    let mut total: i128 = 0;
    for mask in 1u32..(1u32 << k) {
        let mut cur: Option<Product> = Some(declared.to_vec());
        for (i, p) in parts.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cur = cur.and_then(|c| intersect_products(&c, p));
            }
        }
        let cnt = cur.map_or(0, |c| product_count(&c));
        if mask.count_ones() % 2 == 1 {
            total += cnt;
        } else {
            total -= cnt;
        }
    }
    total
}

/// Find a cell of `declared` covered by none of `parts`, if one exists,
/// by bisecting the deficit dimension by dimension.
fn gap_witness(declared: &[StridedRange], parts: &[Product]) -> Option<Vec<i64>> {
    let total = product_count(declared);
    if total == 0 || covered_count(declared, parts) == total {
        return None;
    }
    let mut cur: Product = declared.to_vec();
    loop {
        let Some(d) = cur.iter().position(|r| r.count > 1) else {
            return Some(cur.iter().map(|r| coord(r.start)).collect());
        };
        let r = cur[d];
        let c1 = r.count / 2;
        let half1 = StridedRange::new(r.start, c1, r.step);
        let half2 = StridedRange::new(r.at(c1), r.count - c1, r.step);
        let mut probe = cur.clone();
        probe[d] = half1;
        if covered_count(&probe, parts) < product_count(&probe) {
            cur = probe;
        } else {
            cur[d] = half2;
        }
    }
}

/// Find a cell of `declared` covered by at least two of `parts`.
fn double_witness(
    declared: &[StridedRange],
    parts: &[Product],
) -> Option<(usize, usize, Vec<i64>)> {
    for i in 0..parts.len() {
        let Some(with_i) = intersect_products(declared, &parts[i]) else {
            continue;
        };
        for (j, part_j) in parts.iter().enumerate().skip(i + 1) {
            if let Some(both) = intersect_products(&with_i, part_j) {
                let cell = both.iter().map(|r| coord(r.start)).collect();
                return Some((i, j, cell));
            }
        }
    }
    None
}

/// The verdict of an explicit coverage check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// A cell of the declared region no part covers, if any.
    pub gap: Option<Vec<i64>>,
    /// A cell of the declared region two parts both cover, if any.
    pub double: Option<Vec<i64>>,
}

impl Coverage {
    /// Do the parts tile the declared region exactly?
    pub fn is_exact(&self) -> bool {
        self.gap.is_none() && self.double.is_none()
    }
}

/// Prove (or refute, with witness cells) that `parts` exactly tile
/// `declared`: every declared cell covered, no cell covered twice.
///
/// Exact for up to 16 (`MAX_COVER_PARTS`) member rectangles; beyond that
/// the verdict degrades to "no finding" (inclusion–exclusion is
/// exponential in the part count).
pub fn check_coverage(declared: &Region, parts: &[Region]) -> Coverage {
    if parts.len() > MAX_COVER_PARTS || declared.ndim() == 0 {
        return Coverage::default();
    }
    let decl = region_product(declared);
    let prods: Vec<Product> = parts.iter().map(region_product).collect();
    Coverage {
        gap: gap_witness(&decl, &prods),
        double: double_witness(&decl, &prods).map(|(_, _, c)| c),
    }
}

// --- the pass pipeline ---------------------------------------------------

struct FlatStencil {
    op: usize,
    rs: ResolvedStencil,
}

/// Is every cell `writer` writes overwritten by `over`'s write set?
fn write_covered_by(writer: &ResolvedStencil, over: &ResolvedStencil) -> bool {
    let (_, wmap) = writer.write();
    let (_, omap) = over.write();
    if over.regions.is_empty() || over.regions.len() > MAX_COVER_PARTS {
        return false;
    }
    let over_images: Vec<Product> = over
        .regions
        .iter()
        .map(|r| image_product(r, &omap))
        .collect();
    writer.regions.iter().all(|r| {
        let img = image_product(r, &wmap);
        img.len() == over_images[0].len() && gap_witness(&img, &over_images).is_none()
    })
}

fn first_image_cell(rs: &ResolvedStencil) -> Option<Vec<i64>> {
    let (_, wmap) = rs.write();
    rs.regions.iter().find(|r| !r.is_empty()).map(|r| {
        image_product(r, &wmap)
            .iter()
            .map(|rg| coord(rg.start))
            .collect()
    })
}

/// Liveness dataflow over the flattened, ordered stencil list.
fn liveness_pass(flat: &[FlatStencil], config: &LintConfig, lints: &mut Vec<Lint>) {
    // read-before-write: the first touch of a non-input grid must write it
    // (an in-place first touch still reads the uninitialized pre-state).
    let mut touched: BTreeSet<String> = BTreeSet::new();
    for f in flat {
        let (wg, _) = f.rs.write();
        for (g, rmap) in f.rs.reads() {
            if !touched.contains(&g) && !config.is_input(&g) {
                let witness = f.rs.regions.iter().find(|r| !r.is_empty()).map(|r| {
                    image_product(r, &rmap)
                        .iter()
                        .map(|rg| coord(rg.start))
                        .collect()
                });
                let mut l = Lint::new(
                    LintRule::ReadBeforeWrite,
                    format!("grid {g:?} is read before any stencil writes it and is not a declared input"),
                )
                .stencil(f.rs.stencil.name())
                .grid(&g);
                if let Some(w) = witness {
                    l = l.witness(w);
                }
                lints.push(l);
                touched.insert(g.clone());
            }
        }
        touched.insert(wg);
    }

    // dead-store / write-never-read: scan forward from every write.
    for (i, f) in flat.iter().enumerate() {
        let (g, _) = f.rs.write();
        let mut verdict: Option<LintRule> = Some(LintRule::WriteNeverRead);
        for later in &flat[i + 1..] {
            if reads_after_write(&f.rs, &later.rs) {
                verdict = None;
                break;
            }
            let (lg, _) = later.rs.write();
            // A partial overwrite keeps us scanning; a later read of the
            // surviving cells still makes this store live (treating it as
            // live is the conservative direction).
            if lg == g && write_covered_by(&f.rs, &later.rs) {
                verdict = Some(LintRule::DeadStore);
                break;
            }
        }
        let fire = match verdict {
            Some(LintRule::DeadStore) => true,
            Some(LintRule::WriteNeverRead) => !config.is_output(&g),
            _ => false,
        };
        if fire {
            let rule = verdict.unwrap();
            let detail = match rule {
                LintRule::DeadStore => format!(
                    "every cell this stencil writes to {g:?} is overwritten before any read"
                ),
                _ => format!(
                    "the value written to {g:?} is never read and {g:?} is not a declared output"
                ),
            };
            let mut l = Lint::new(rule, detail)
                .stencil(f.rs.stencil.name())
                .grid(&g);
            if let Some(w) = first_image_cell(&f.rs) {
                l = l.witness(w);
            }
            lints.push(l);
        }
    }
}

/// Redundant self-copy: the expression simplifies to a read of the
/// output grid through the output map — the stencil does nothing.
fn copy_pass(flat: &[FlatStencil], lints: &mut Vec<Lint>) {
    for f in flat {
        let s = &f.rs.stencil;
        if let Expr::Read { grid, map } = s.expr().simplify() {
            if grid == s.output() && &map == s.out_map() {
                let mut l = Lint::new(
                    LintRule::RedundantCopy,
                    format!("stencil copies grid {grid:?} onto itself unchanged"),
                )
                .stencil(s.name())
                .grid(&grid);
                if let Some(w) = first_image_cell(&f.rs) {
                    l = l.witness(w);
                }
                lints.push(l);
            }
        }
    }
}

/// Coverage of colored sweeps: when two or more stencils of one op write
/// the same grid in place over strided (colored) domains, their combined
/// union should exactly tile its stride-1 bounding region — the GSRB
/// red∪black = interior certificate, and the off-by-one catcher.
fn coverage_pass(flat: &[FlatStencil], num_ops: usize, lints: &mut Vec<Lint>) {
    for op in 0..num_ops {
        let mut by_grid: Vec<(String, Vec<&FlatStencil>)> = Vec::new();
        for f in flat.iter().filter(|f| f.op == op) {
            let strided = f.rs.regions.iter().any(|r| r.stride.iter().any(|&s| s > 1));
            if !strided || !f.rs.stencil.out_map().is_identity() {
                continue;
            }
            let g = f.rs.stencil.output().to_string();
            match by_grid.iter_mut().find(|(og, _)| *og == g) {
                Some((_, v)) => v.push(f),
                None => by_grid.push((g, vec![f])),
            }
        }
        for (g, members) in by_grid {
            if members.len() < 2 {
                continue; // a lone colored sweep covers half a region by design
            }
            let parts: Vec<&Region> = members
                .iter()
                .flat_map(|f| f.rs.regions.iter())
                .filter(|r| !r.is_empty())
                .collect();
            if parts.is_empty() || parts.len() > MAX_COVER_PARTS {
                continue;
            }
            let nd = parts[0].ndim();
            if parts.iter().any(|r| r.ndim() != nd) {
                continue;
            }
            let lo: Vec<i64> = (0..nd)
                .map(|d| parts.iter().map(|r| r.lo[d]).min().unwrap())
                .collect();
            let hi: Vec<i64> = (0..nd)
                .map(|d| parts.iter().map(|r| r.hi[d]).max().unwrap())
                .collect();
            let declared = Region::new(lo, hi, vec![1; nd]);
            let owned: Vec<Region> = parts.iter().map(|r| (*r).clone()).collect();
            let names: Vec<&str> = members.iter().map(|f| f.rs.stencil.name()).collect();
            let cov = check_coverage(&declared, &owned);
            if let Some(cell) = cov.gap {
                lints.push(
                    Lint::new(
                        LintRule::CoverageGap,
                        format!(
                            "colored sweep {{{}}} leaves cells of its bounding region uncovered",
                            names.join(", ")
                        ),
                    )
                    .stencil(names[0])
                    .grid(&g)
                    .witness(cell),
                );
            }
            if let Some(cell) = cov.double {
                lints.push(
                    Lint::new(
                        LintRule::DoubleCover,
                        format!(
                            "colored sweep {{{}}} writes a cell from two member rectangles",
                            names.join(", ")
                        ),
                    )
                    .stencil(names[0])
                    .grid(&g)
                    .witness(cell),
                );
            }
        }
    }
}

/// Halo sufficiency: a read of a non-input grid that reaches a ghost
/// face (coordinate 0 or n−1) must be covered by earlier writes.
fn halo_pass(
    flat: &[FlatStencil],
    shapes_of: &[&ShapeMap],
    config: &LintConfig,
    lints: &mut Vec<Lint>,
) {
    for (i, f) in flat.iter().enumerate() {
        let shapes = shapes_of[f.op];
        let mut flagged: BTreeSet<String> = BTreeSet::new();
        for (g, rmap) in f.rs.reads() {
            if config.is_input(&g) || flagged.contains(&g) {
                continue;
            }
            let Some(shape) = shapes.get(&g) else {
                continue;
            };
            // All earlier write images into g.
            let earlier: Vec<Product> = flat[..i]
                .iter()
                .filter(|e| e.rs.stencil.output() == g)
                .flat_map(|e| {
                    let (_, wm) = e.rs.write();
                    e.rs.regions
                        .iter()
                        .map(move |r| image_product(r, &wm))
                        .collect::<Vec<_>>()
                })
                .collect();
            'rects: for region in &f.rs.regions {
                if region.is_empty() || region.ndim() != shape.len() {
                    continue;
                }
                let img = image_product(region, &rmap);
                for d in 0..img.len() {
                    for face in [0i128, shape[d] as i128 - 1] {
                        let slab_d = intersect(img[d], StridedRange::new(face, 1, 1));
                        if slab_d.is_empty() {
                            continue;
                        }
                        let mut slab = img.clone();
                        slab[d] = slab_d;
                        let usable: Vec<Product> = earlier
                            .iter()
                            .filter(|p| p.len() == slab.len())
                            .take(MAX_COVER_PARTS)
                            .cloned()
                            .collect();
                        if let Some(cell) = gap_witness(&slab, &usable) {
                            lints.push(
                                Lint::new(
                                    LintRule::HaloGap,
                                    format!(
                                        "reads ghost cells of {g:?} on face dim {d} = {face} \
                                         that no earlier stencil writes"
                                    ),
                                )
                                .stencil(f.rs.stencil.name())
                                .grid(&g)
                                .witness(cell),
                            );
                            flagged.insert(g.clone());
                            break 'rects;
                        }
                    }
                }
            }
        }
    }
}

/// One read's net constant coefficient: grid, index map, weight.
type ReadWeight = (String, AffineMap, f64);

/// Decompose an expression that is affine-linear in its reads into a
/// constant term plus per-read constant coefficients. Returns `None`
/// when the expression multiplies or divides reads by reads (e.g. the
/// variable-coefficient operator), where no constant weights exist.
fn linear_weights(e: &Expr) -> Option<(f64, Vec<ReadWeight>)> {
    fn merge(into: &mut Vec<ReadWeight>, from: Vec<ReadWeight>, k: f64) {
        for (g, m, w) in from {
            match into.iter_mut().find(|(og, om, _)| *og == g && *om == m) {
                Some((_, _, ow)) => *ow += k * w,
                None => into.push((g, m, k * w)),
            }
        }
    }
    match e {
        Expr::Const(c) => Some((*c, Vec::new())),
        Expr::Read { grid, map } => Some((0.0, vec![(grid.clone(), map.clone(), 1.0)])),
        Expr::Neg(a) => {
            let (c, mut ws) = linear_weights(a)?;
            for w in &mut ws {
                w.2 = -w.2;
            }
            Some((-c, ws))
        }
        Expr::Add(a, b) | Expr::Sub(a, b) => {
            let sign = if matches!(e, Expr::Sub(_, _)) {
                -1.0
            } else {
                1.0
            };
            let (ca, mut ws) = linear_weights(a)?;
            let (cb, wsb) = linear_weights(b)?;
            merge(&mut ws, wsb, sign);
            Some((ca + sign * cb, ws))
        }
        Expr::Mul(a, b) => {
            let (ca, wa) = linear_weights(a)?;
            let (cb, wb) = linear_weights(b)?;
            match (wa.is_empty(), wb.is_empty()) {
                (true, _) => {
                    let mut ws = Vec::new();
                    merge(&mut ws, wb, ca);
                    Some((ca * cb, ws))
                }
                (false, true) => {
                    let mut ws = Vec::new();
                    merge(&mut ws, wa, cb);
                    Some((ca * cb, ws))
                }
                (false, false) => None, // read × read: not linear
            }
        }
        Expr::Div(a, b) => {
            let (ca, wa) = linear_weights(a)?;
            let (cb, wb) = linear_weights(b)?;
            if !wb.is_empty() || cb == 0.0 {
                return None;
            }
            let mut ws = Vec::new();
            merge(&mut ws, wa, 1.0 / cb);
            Some((ca / cb, ws))
        }
    }
}

const WEIGHT_EPS: f64 = 1e-9;

/// Weight sanity: cancelling coefficients, partition of unity for
/// grid-transfer stencils, and the smoother row-sum estimate.
fn weight_pass(flat: &[FlatStencil], lints: &mut Vec<Lint>) {
    for f in flat {
        let s = &f.rs.stencil;
        let Some((c0, ws)) = linear_weights(s.expr()) else {
            continue; // variable-coefficient forms carry no constant weights
        };
        if ws.is_empty() {
            continue;
        }
        for (g, m, w) in &ws {
            if *w == 0.0 {
                let mut l = Lint::new(
                    LintRule::ZeroWeight,
                    format!("the net coefficient on the read of {g:?} at {m:?} cancels to zero"),
                )
                .stencil(s.name())
                .grid(g);
                if let Some(cell) = first_image_cell(&f.rs) {
                    l = l.witness(cell);
                }
                lints.push(l);
            }
        }
        // Grid transfer (restriction gathers through scaled reads;
        // interpolation scatters through a scaled output map): source
        // weights must form a partition of unity.
        let transfers = s.out_map().scale.iter().any(|&k| k != 1)
            || ws.iter().any(|(_, m, _)| m.scale.iter().any(|&k| k != 1));
        if transfers {
            let src_sum: f64 = ws
                .iter()
                .filter(|(g, m, _)| !(g == s.output() && m == &s.out_map().clone()))
                .map(|(_, _, w)| w)
                .sum();
            let has_src = ws.iter().any(|(g, _, _)| g != s.output());
            if has_src && (src_sum - 1.0).abs() > WEIGHT_EPS && (c0.abs() <= WEIGHT_EPS) {
                let mut l = Lint::new(
                    LintRule::PartitionOfUnity,
                    format!("grid-transfer source weights sum to {src_sum} (expected 1)"),
                )
                .stencil(s.name())
                .grid(s.output());
                if let Some(cell) = first_image_cell(&f.rs) {
                    l = l.witness(cell);
                }
                lints.push(l);
            }
        }
        // In-place identity-scale smoother: the absolute row sum of the
        // weights on the output grid bounds the update's spectral radius
        // estimate; above one the sweep amplifies.
        let in_place = ws.iter().any(|(g, _, _)| g == s.output());
        let identity_scales =
            s.out_map().is_identity() && ws.iter().all(|(_, m, _)| m.scale.iter().all(|&k| k == 1));
        if in_place && identity_scales {
            let row_sum: f64 = ws
                .iter()
                .filter(|(g, _, _)| g == s.output())
                .map(|(_, _, w)| w.abs())
                .sum();
            if row_sum > 1.0 + WEIGHT_EPS {
                let mut l = Lint::new(
                    LintRule::SmootherDivergence,
                    format!(
                        "in-place update weights on {:?} have absolute row sum {row_sum:.3} > 1 \
                         (estimated divergent smoother)",
                        s.output()
                    ),
                )
                .stencil(s.name())
                .grid(s.output());
                if let Some(cell) = first_image_cell(&f.rs) {
                    l = l.witness(cell);
                }
                lints.push(l);
            }
        }
    }
}

/// Run the full pass pipeline over an ordered list of ops.
///
/// With [`LintConfig::ordered`] the op list is treated as the true
/// execution order and the liveness dataflow rules run too; otherwise
/// (a plan inventory) only the order-independent rules run.
pub fn lint_program(
    ops: &[(StencilGroup, ShapeMap)],
    config: &LintConfig,
) -> snowflake_core::Result<LintReport> {
    let mut flat: Vec<FlatStencil> = Vec::new();
    let mut shapes_of: Vec<&ShapeMap> = Vec::new();
    for (op, (group, shapes)) in ops.iter().enumerate() {
        shapes_of.push(shapes);
        for s in group.stencils() {
            flat.push(FlatStencil {
                op,
                rs: ResolvedStencil::resolve(s, shapes)?,
            });
        }
    }

    let mut lints = Vec::new();
    coverage_pass(&flat, ops.len(), &mut lints);
    copy_pass(&flat, &mut lints);
    weight_pass(&flat, &mut lints);
    halo_pass(&flat, &shapes_of, config, &mut lints);
    let mut rules_run = 7u64; // coverage-gap, double-cover, redundant-copy, zero-weight, partition-of-unity, smoother-divergence, halo-gap
    if config.ordered {
        liveness_pass(&flat, config, &mut lints);
        rules_run += 3; // dead-store, write-never-read, read-before-write
    }
    // A group reused across ops reports each finding once.
    let mut seen: Vec<Lint> = Vec::new();
    for l in lints {
        if !seen.contains(&l) {
            seen.push(l);
        }
    }
    Ok(LintReport {
        rules_run,
        lints: seen,
    })
}

/// Lint a single group against its shapes (order-independent rules plus,
/// with [`LintConfig::ordered`], intra-group liveness).
pub fn lint_group(
    group: &StencilGroup,
    shapes: &ShapeMap,
    config: &LintConfig,
) -> snowflake_core::Result<LintReport> {
    lint_program(&[(group.clone(), shapes.clone())], config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{DomainUnion, RectDomain, Stencil};

    fn shapes(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        for g in ["x", "y", "rhs", "tmp"] {
            m.insert(g.to_string(), vec![n, n]);
        }
        m
    }

    fn rg(lo: &[i64], hi: &[i64], st: &[i64]) -> Region {
        Region::new(lo.to_vec(), hi.to_vec(), st.to_vec())
    }

    #[test]
    fn red_black_exactly_tiles_interior() {
        let (red, black) = DomainUnion::red_black(3);
        let n = 10usize;
        let mut parts = Vec::new();
        for d in red.rects().iter().chain(black.rects()) {
            parts.push(d.resolve(&[n, n, n]).unwrap());
        }
        let declared = rg(&[1, 1, 1], &[9, 9, 9], &[1, 1, 1]);
        let cov = check_coverage(&declared, &parts);
        assert!(cov.is_exact(), "gap={:?} double={:?}", cov.gap, cov.double);
    }

    #[test]
    fn off_by_one_union_has_gap_witness() {
        // Odd rows 1,3,5 plus even rows 2,4 — row 6 of the interior is
        // left uncovered.
        let declared = rg(&[1, 1], &[7, 7], &[1, 1]);
        let parts = vec![rg(&[1, 1], &[7, 7], &[2, 1]), rg(&[2, 1], &[5, 7], &[2, 1])];
        let cov = check_coverage(&declared, &parts);
        let w = cov.gap.expect("row 6 is uncovered");
        assert!(
            !parts.iter().any(|p| p.contains(&w)),
            "witness {w:?} must be uncovered"
        );
        assert!(declared.contains(&w));
    }

    #[test]
    fn overlapping_parts_have_double_witness() {
        let declared = rg(&[0, 0], &[4, 4], &[1, 1]);
        let parts = vec![rg(&[0, 0], &[3, 4], &[1, 1]), rg(&[2, 0], &[4, 4], &[1, 1])];
        let cov = check_coverage(&declared, &parts);
        let w = cov.double.expect("rows 2 overlap");
        assert!(parts.iter().all(|p| p.contains(&w)));
    }

    #[test]
    fn dead_store_detected_with_witness() {
        let a = Stencil::new(Expr::read_at("x", &[0, 0]), "tmp", RectDomain::interior(2))
            .named("store");
        let b = Stencil::new(Expr::read_at("y", &[0, 0]), "tmp", RectDomain::interior(2))
            .named("clobber");
        let ops = vec![(StencilGroup::from_stencils(vec![a, b]), shapes(8))];
        let report =
            lint_program(&ops, &LintConfig::default().ordered().with_outputs(["y"])).unwrap();
        let dead: Vec<&Lint> = report
            .lints
            .iter()
            .filter(|l| l.rule == LintRule::DeadStore)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].stencil, "store");
        assert_eq!(dead[0].witness, Some(vec![1, 1]));
    }

    #[test]
    fn read_between_stores_keeps_them_live() {
        let a = Stencil::new(Expr::read_at("x", &[0, 0]), "tmp", RectDomain::interior(2))
            .named("store");
        let r =
            Stencil::new(Expr::read_at("tmp", &[0, 0]), "y", RectDomain::interior(2)).named("use");
        let b = Stencil::new(Expr::read_at("x", &[0, 0]), "tmp", RectDomain::interior(2))
            .named("clobber");
        let ops = vec![(StencilGroup::from_stencils(vec![a, r, b]), shapes(8))];
        let report = lint_program(
            &ops,
            &LintConfig::default().ordered().with_outputs(["y", "tmp"]),
        )
        .unwrap();
        assert!(
            report.lints.iter().all(|l| l.rule != LintRule::DeadStore),
            "{:?}",
            report.lints
        );
    }

    #[test]
    fn read_before_write_detected() {
        let a =
            Stencil::new(Expr::read_at("tmp", &[0, 0]), "y", RectDomain::interior(2)).named("use");
        let ops = vec![(StencilGroup::from_stencils(vec![a]), shapes(8))];
        let report = lint_program(
            &ops,
            &LintConfig::default()
                .ordered()
                .with_inputs(["x"])
                .with_outputs(["y"]),
        )
        .unwrap();
        let rbw: Vec<&Lint> = report
            .lints
            .iter()
            .filter(|l| l.rule == LintRule::ReadBeforeWrite)
            .collect();
        assert_eq!(rbw.len(), 1);
        assert_eq!(rbw[0].grid, "tmp");
        assert!(rbw[0].witness.is_some());
    }

    #[test]
    fn redundant_copy_detected() {
        let a =
            Stencil::new(Expr::read_at("x", &[0, 0]), "x", RectDomain::interior(2)).named("noop");
        let report = lint_group(
            &StencilGroup::from_stencils(vec![a]),
            &shapes(8),
            &LintConfig::default(),
        )
        .unwrap();
        assert!(report
            .lints
            .iter()
            .any(|l| l.rule == LintRule::RedundantCopy));
    }

    #[test]
    fn stock_like_smoother_group_is_clean() {
        // Faces + red + faces + black over a 2-D grid lints clean in
        // inventory mode.
        let (red, black) = DomainUnion::red_black(2);
        let lap = |u: DomainUnion| {
            let e = (Expr::read_at("x", &[0, -1])
                + Expr::read_at("x", &[0, 1])
                + Expr::read_at("x", &[-1, 0])
                + Expr::read_at("x", &[1, 0])
                + Expr::read_at("rhs", &[0, 0]))
                * 0.25;
            Stencil::new(e, "x", u)
        };
        let group = StencilGroup::from_stencils(vec![lap(red), lap(black)]);
        let report = lint_group(&group, &shapes(10), &LintConfig::default()).unwrap();
        assert!(report.lints.is_empty(), "{:?}", report.lints);
        assert_eq!(report.rules_run, 7);
    }

    #[test]
    fn policy_escalates_and_suppresses() {
        let lints = vec![
            Lint::new(LintRule::DeadStore, "a"),
            Lint::new(LintRule::CoverageGap, "b"),
        ];
        let out = apply_policy(lints, &[LintRule::DeadStore], &[LintRule::CoverageGap]);
        assert_eq!(out.suppressed, 1);
        assert_eq!(out.lints.len(), 1);
        assert_eq!(out.lints[0].severity, Severity::Deny);
    }

    #[test]
    fn rule_names_round_trip() {
        for r in LintRule::ALL {
            assert_eq!(r.to_string().parse::<LintRule>().unwrap(), r);
        }
        assert!("no-such-rule".parse::<LintRule>().is_err());
    }
}
