//! Structured run reports: the observability layer every plan feeds.
//!
//! A [`RunReport`] accumulates, across any number of plan op calls:
//!
//! * **per-op wall time** ([`OpSample`], one row per plan op index that
//!   ran: calls and seconds), timed by [`crate::SolverPlan::run_with_report`]
//!   with one clock read around each call;
//! * **kernel counters** ([`KernelCounters`]: points executed, tile/task
//!   dispatches, and parallel-safe vs sequential-fallback dispatches),
//!   each call adding its executable's compile-time
//!   [`crate::Executable::work`];
//! * the **compile-time vs run-time split** (`compile_seconds` vs
//!   `run_seconds`);
//! * the plan's build-time [`CacheStats`], the plan check's
//!   [`VerifyStats`] and the tuner's [`TuneStats`], stamped by
//!   [`crate::SolverPlan::stamp`].
//!
//! Reports serialize to JSON via [`RunReport::to_json`] (schema documented
//! in README.md), with the string and number helpers in [`json`]. Tests
//! read the counters off the `RunReport` value itself, never back out of
//! the JSON. Everything here is plain data, and the plain `SolverPlan::run`
//! path never touches it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Plan-build reuse counters: `hits` are ops that shared the executable
/// of a structurally identical earlier op, `misses` are ops that compiled.
///
/// `disk_hits`/`disk_misses` count the persistent artifact cache of the
/// C JIT backend (a compile that loaded a previously-built `.so` instead
/// of invoking `cc`); they stay zero for the pure-Rust backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ops served by an earlier op's executable.
    pub hits: u64,
    /// Ops that required a compile.
    pub misses: u64,
    /// Compiles served from the on-disk artifact cache (cjit only).
    pub disk_hits: u64,
    /// Compiles that had to invoke the C compiler (cjit only).
    pub disk_misses: u64,
}

/// Tile auto-tuner counters (see `crate::tune`): how tile decisions for
/// this plan were obtained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TuneStats {
    /// Tuning decisions served from the persistent on-disk tuner cache.
    pub disk_hits: u64,
    /// Tuning decisions that required timing candidates on a warm-up
    /// region (then persisted).
    pub disk_misses: u64,
    /// Candidate tile shapes timed across all cache misses.
    pub candidates_timed: u64,
}

/// Counters a backend keeps across its own compiles (see
/// [`crate::Backend::stats`]): the C JIT's on-disk artifact cache and the
/// OpenMP-like backend's tile tuner. Zero for every other backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Compiles served from the on-disk artifact cache (cjit).
    pub disk_hits: u64,
    /// Compiles that had to invoke the C compiler (cjit).
    pub disk_misses: u64,
    /// Tile auto-tuner counters (omp).
    pub tune: TuneStats,
}

/// Accumulated calls and wall time of one plan op.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpSample {
    /// Times the op ran.
    pub calls: u64,
    /// Total seconds spent in the op across those calls.
    pub seconds: f64,
}

/// Work counters: what one run of an executable dispatches (see
/// [`crate::Executable::work`]), or their sum over a report's calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Iteration points executed.
    pub points: u64,
    /// Tile/task dispatches.
    pub tiles: u64,
    /// Dispatches of kernels the analysis proved parallel-safe.
    pub parallel_tasks: u64,
    /// Sequential-fallback dispatches (kernels run in canonical order).
    pub sequential_tasks: u64,
}

impl std::ops::AddAssign for KernelCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.points += rhs.points;
        self.tiles += rhs.tiles;
        self.parallel_tasks += rhs.parallel_tasks;
        self.sequential_tasks += rhs.sequential_tasks;
    }
}

/// Plan-check counters: what a checked plan build proved and linted (all
/// zero when the plan was built unchecked). A plan with a deny-level
/// finding is refused before any report exists, so only warnings are
/// counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Stencils resolved and re-analyzed by the verifier.
    pub stencils_checked: u64,
    /// `(access, rectangle)` pairs proved in-bounds (source + lowered).
    pub accesses_proved: u64,
    /// Barrier phases proved pairwise hazard-free.
    pub phases_certified: u64,
    /// Lint rules run over the operator list.
    pub rules_run: u64,
    /// Warn-level lint findings.
    pub warnings: u64,
}

/// A structured, accumulating profile of one executable (or one solver).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Name of the backend that produced the profile ("omp", "cjit", …);
    /// empty until a backend stamps it.
    pub backend: String,
    /// Op calls recorded (the sum of `ops[..].calls`).
    pub runs: u64,
    /// Operators in the feeding [`crate::plan::SolverPlan`].
    pub plan_ops: u64,
    /// Seconds spent building the plan.
    pub compile_seconds: f64,
    /// Seconds spent executing (the sum of `ops[..].seconds`).
    pub run_seconds: f64,
    /// Per-op samples keyed by plan op index; only ops that ran have a row.
    pub ops: BTreeMap<usize, OpSample>,
    /// Work counters.
    pub kernels: KernelCounters,
    /// Plan-build reuse counters.
    pub cache: CacheStats,
    /// Plan-check counters (zero unless the plan was built checked).
    pub verify: VerifyStats,
    /// Tile auto-tuner counters (zero unless tuning was requested).
    pub tune: TuneStats,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamp the producing backend's name (first writer wins, so a solver
    /// report keeps the name of the backend actually executing).
    pub fn set_backend(&mut self, name: &str) {
        if self.backend.is_empty() {
            self.backend = name.to_string();
        }
    }

    /// Count one call of plan op `op` that took `seconds` and did `work`.
    pub fn record_op(&mut self, op: usize, seconds: f64, work: KernelCounters) {
        let row = self.ops.entry(op).or_default();
        row.calls += 1;
        row.seconds += seconds;
        self.runs += 1;
        self.run_seconds += seconds;
        self.kernels += work;
    }

    /// Serialize to the JSON schema documented in README.md.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        let _ = write!(
            s,
            "\"backend\":{},\"runs\":{},\"plan_ops\":{},\"compile_seconds\":{},\"run_seconds\":{}",
            json::escape(&self.backend),
            self.runs,
            self.plan_ops,
            json::number(self.compile_seconds),
            json::number(self.run_seconds),
        );
        let k = &self.kernels;
        let _ = write!(
            s,
            ",\"kernels\":{{\"points\":{},\"tiles\":{},\
             \"parallel_tasks\":{},\"sequential_tasks\":{}}}",
            k.points, k.tiles, k.parallel_tasks, k.sequential_tasks
        );
        let _ = write!(
            s,
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"disk_hits\":{},\"disk_misses\":{}}}",
            self.cache.hits, self.cache.misses, self.cache.disk_hits, self.cache.disk_misses
        );
        let _ = write!(
            s,
            ",\"verify\":{{\"stencils_checked\":{},\"accesses_proved\":{},\
             \"phases_certified\":{},\"rules_run\":{},\"warnings\":{}}}",
            self.verify.stencils_checked,
            self.verify.accesses_proved,
            self.verify.phases_certified,
            self.verify.rules_run,
            self.verify.warnings
        );
        let _ = write!(
            s,
            ",\"tune\":{{\"disk_hits\":{},\"disk_misses\":{},\"candidates_timed\":{}}}",
            self.tune.disk_hits, self.tune.disk_misses, self.tune.candidates_timed
        );
        s.push_str(",\"ops\":[");
        for (i, (op, row)) in self.ops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"op\":{op},\"calls\":{},\"seconds\":{}}}",
                row.calls,
                json::number(row.seconds)
            );
        }
        s.push_str("]}");
        s
    }
}

/// The JSON writer helpers the report and the bench binaries share:
/// string quoting and number rendering. Nothing here parses JSON; the
/// documents are checked against golden strings in tests.
pub mod json {
    /// Escape and quote a string for JSON output.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Render a finite f64; non-finite values become `null`, as JSON has
    /// no NaN or infinity.
    pub fn number(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut r = RunReport::new();
        r.set_backend("omp");
        r.set_backend("seq"); // first writer wins
        let work = KernelCounters {
            points: 250,
            tiles: 3,
            parallel_tasks: 2,
            sequential_tasks: 1,
        };
        r.record_op(4, 0.25, work);
        r.record_op(1, 0.5, work);
        r.record_op(4, 0.75, work);
        r.record_op(1, 0.0, work);
        r.cache = CacheStats {
            hits: 5,
            misses: 2,
            disk_hits: 1,
            disk_misses: 1,
        };
        r.plan_ops = 7;
        r.verify = VerifyStats {
            stencils_checked: 14,
            accesses_proved: 96,
            phases_certified: 9,
            rules_run: 7,
            warnings: 2,
        };
        r.tune = TuneStats {
            disk_hits: 1,
            disk_misses: 1,
            candidates_timed: 5,
        };
        r.compile_seconds = 0.125;
        r
    }

    #[test]
    fn report_accumulates_op_rows_and_work() {
        let r = sample_report();
        assert_eq!(r.backend, "omp");
        let rows: Vec<(usize, OpSample)> = r.ops.iter().map(|(&op, &row)| (op, row)).collect();
        let sample = |calls, seconds| OpSample { calls, seconds };
        assert_eq!(rows, vec![(1, sample(2, 0.5)), (4, sample(2, 1.0))]);
        assert_eq!(r.runs, 4);
        assert_eq!(r.run_seconds, 1.5);
        assert_eq!(r.kernels.points, 1000);
        assert_eq!(r.kernels.tiles, 12);
        assert_eq!(r.kernels.sequential_tasks, 4);
    }

    /// The whole serialized schema, pinned byte for byte: any change to a
    /// field name, its order or a number's rendering fails here.
    #[test]
    fn to_json_matches_the_golden_document() {
        let golden = concat!(
            r#"{"backend":"omp","runs":4,"plan_ops":7,"compile_seconds":0.125,"#,
            r#""run_seconds":1.5,"#,
            r#""kernels":{"points":1000,"tiles":12,"parallel_tasks":8,"#,
            r#""sequential_tasks":4},"#,
            r#""cache":{"hits":5,"misses":2,"disk_hits":1,"disk_misses":1},"#,
            r#""verify":{"stencils_checked":14,"accesses_proved":96,"#,
            r#""phases_certified":9,"rules_run":7,"warnings":2},"#,
            r#""tune":{"disk_hits":1,"disk_misses":1,"candidates_timed":5},"#,
            r#""ops":[{"op":1,"calls":2,"seconds":0.5},{"op":4,"calls":2,"seconds":1}]}"#,
        );
        assert_eq!(sample_report().to_json(), golden);
    }

    #[test]
    fn empty_report_serializes_every_block_with_zeros() {
        let golden = concat!(
            r#"{"backend":"","runs":0,"plan_ops":0,"compile_seconds":0,"run_seconds":0,"#,
            r#""kernels":{"points":0,"tiles":0,"parallel_tasks":0,"#,
            r#""sequential_tasks":0},"#,
            r#""cache":{"hits":0,"misses":0,"disk_hits":0,"disk_misses":0},"#,
            r#""verify":{"stencils_checked":0,"accesses_proved":0,"#,
            r#""phases_certified":0,"rules_run":0,"warnings":0},"#,
            r#""tune":{"disk_hits":0,"disk_misses":0,"candidates_timed":0},"ops":[]}"#,
        );
        assert_eq!(RunReport::new().to_json(), golden);
    }

    #[test]
    fn escape_and_number_render_json_literals() {
        let nasty = "line1\nline2\t\"quoted\" \\ end\u{1}";
        assert_eq!(
            json::escape(nasty),
            r#""line1\nline2\t\"quoted\" \\ end\u0001""#
        );
        assert_eq!(json::escape("Snowflake/omp"), r#""Snowflake/omp""#);
        assert_eq!(json::number(0.125), "0.125");
        assert_eq!(json::number(1.25e8), "125000000");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::number(f64::INFINITY), "null");
    }
}
