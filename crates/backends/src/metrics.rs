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
//! in README.md), built as a value of the one JSON writer, [`json`]. Tests
//! read the counters off the `RunReport` value itself, never back out of
//! the JSON. Everything here is plain data, and the plain `SolverPlan::run`
//! path never touches it.

use std::collections::BTreeMap;

use json::Value;

/// Plan-build reuse counters: `hits` are ops that shared the executable
/// of a structurally identical earlier op, `misses` are ops that compiled.
///
/// `disk_hits`/`disk_misses` count the persistent artifact cache of the
/// compiled backends, cjit and oclsim (a compile that loaded a
/// previously-built `.so` instead of invoking `cc`); they stay zero for
/// the pure-Rust backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ops served by an earlier op's executable.
    pub hits: u64,
    /// Ops that required a compile.
    pub misses: u64,
    /// Compiles served from the on-disk artifact cache (cjit, oclsim).
    pub disk_hits: u64,
    /// Compiles that had to invoke the C compiler (cjit, oclsim).
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
/// [`crate::Backend::stats`]): the compiled backends' on-disk artifact
/// cache and the OpenMP-like backend's tile tuner. Zero for every other
/// backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Compiles served from the on-disk artifact cache (cjit, oclsim).
    pub disk_hits: u64,
    /// Compiles that had to invoke the C compiler (cjit, oclsim).
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

    /// The report as a JSON value (schema documented in README.md).
    pub fn to_value(&self) -> Value {
        let int = |x: u64| Value::Int(x.into());
        let k = &self.kernels;
        let (c, v, t) = (&self.cache, &self.verify, &self.tune);
        let ops = self.ops.iter().map(|(&op, row)| {
            Value::Object(vec![
                ("op", int(op as u64)),
                ("calls", int(row.calls)),
                ("seconds", Value::Num(row.seconds)),
            ])
        });
        Value::Object(vec![
            ("backend", Value::Str(self.backend.clone())),
            ("runs", int(self.runs)),
            ("plan_ops", int(self.plan_ops)),
            ("compile_seconds", Value::Num(self.compile_seconds)),
            ("run_seconds", Value::Num(self.run_seconds)),
            (
                "kernels",
                Value::Object(vec![
                    ("points", int(k.points)),
                    ("tiles", int(k.tiles)),
                    ("parallel_tasks", int(k.parallel_tasks)),
                    ("sequential_tasks", int(k.sequential_tasks)),
                ]),
            ),
            (
                "cache",
                Value::Object(vec![
                    ("hits", int(c.hits)),
                    ("misses", int(c.misses)),
                    ("disk_hits", int(c.disk_hits)),
                    ("disk_misses", int(c.disk_misses)),
                ]),
            ),
            (
                "verify",
                Value::Object(vec![
                    ("stencils_checked", int(v.stencils_checked)),
                    ("accesses_proved", int(v.accesses_proved)),
                    ("phases_certified", int(v.phases_certified)),
                    ("rules_run", int(v.rules_run)),
                    ("warnings", int(v.warnings)),
                ]),
            ),
            (
                "tune",
                Value::Object(vec![
                    ("disk_hits", int(t.disk_hits)),
                    ("disk_misses", int(t.disk_misses)),
                    ("candidates_timed", int(t.candidates_timed)),
                ]),
            ),
            ("ops", Value::List(ops.collect())),
        ])
    }

    /// Serialize to the JSON schema documented in README.md.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

/// The one JSON writer: the report, the evaluation documents and the
/// `snowlint --json` document are each built as a [`json::Value`] and
/// rendered by [`json::Value::to_json`]. Nothing here parses JSON; the
/// documents are checked against golden strings in tests.
pub mod json {
    /// A JSON value whose objects keep their key order.
    #[derive(Debug)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` or `false`.
        Bool(bool),
        /// An integer: wide enough for every `u64` count and `i64` cell.
        Int(i128),
        /// A measurement; non-finite numbers render as `null`, as JSON
        /// has no NaN or infinity.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        List(Vec<Value>),
        /// An object.
        Object(Vec<(&'static str, Value)>),
    }

    impl Value {
        /// The JSON text, without whitespace.
        pub fn to_json(&self) -> String {
            match self {
                Value::Null => "null".into(),
                Value::Bool(b) => b.to_string(),
                Value::Int(i) => i.to_string(),
                Value::Num(x) if x.is_finite() => format!("{x}"),
                Value::Num(_) => "null".into(),
                Value::Str(s) => escape(s),
                Value::List(items) => {
                    let items: Vec<String> = items.iter().map(Value::to_json).collect();
                    format!("[{}]", items.join(","))
                }
                Value::Object(fields) => {
                    let fields: Vec<String> = fields
                        .iter()
                        .map(|(k, v)| format!("{}:{}", escape(k), v.to_json()))
                        .collect();
                    format!("{{{}}}", fields.join(","))
                }
            }
        }
    }

    /// Escape and quote a string.
    fn escape(s: &str) -> String {
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
    fn strings_numbers_and_integers_render_json_literals() {
        let json = |v: Value| v.to_json();
        let nasty = "line1\nline2\t\"quoted\" \\ end\u{1}";
        assert_eq!(
            json(Value::Str(nasty.into())),
            r#""line1\nline2\t\"quoted\" \\ end\u0001""#
        );
        assert_eq!(
            json(Value::Str("Snowflake/omp".into())),
            r#""Snowflake/omp""#
        );
        assert_eq!(json(Value::Num(0.125)), "0.125");
        assert_eq!(json(Value::Num(1.25e8)), "125000000");
        assert_eq!(json(Value::Num(f64::NAN)), "null");
        assert_eq!(json(Value::Num(f64::INFINITY)), "null");
        assert_eq!(json(Value::Int(-3)), "-3");
        assert_eq!(json(Value::Int(u64::MAX.into())), "18446744073709551615");
    }
}
