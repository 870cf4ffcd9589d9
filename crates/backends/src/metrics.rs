//! Structured run reports: the observability layer every plan feeds.
//!
//! A [`RunReport`] accumulates, across any number of plan op calls:
//!
//! * **per-op wall time** ([`OpSample`], one row per plan op index that
//!   ran: calls and seconds), timed by [`crate::SolverPlan::run_with_report`]
//!   with one clock read around each call;
//! * **kernel counters** ([`KernelCounters`]: points executed, tile/task
//!   dispatches, kernels that rode along in fused traversals, and
//!   parallel-safe vs sequential-fallback dispatches), each call adding its
//!   executable's compile-time [`crate::Executable::work`];
//! * the **compile-time vs run-time split** (`compile_seconds` vs
//!   `run_seconds`);
//! * the plan's build-time [`CacheStats`], the gates' [`VerifyStats`] and
//!   [`LintStats`], and the tuner's [`TuneStats`], stamped by
//!   [`crate::SolverPlan::stamp`].
//!
//! Reports serialize to JSON via [`RunReport::to_json`] (schema documented
//! in README.md); [`json`] provides the minimal parser used to read
//! profiles back in tests and tools. Everything here is plain data, and
//! the plain `SolverPlan::run` path never touches it.

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
    /// Kernels that rode along in a fused traversal (beyond the first
    /// kernel of each fusion group).
    pub fused: u64,
    /// Dispatches of kernels the analysis proved parallel-safe.
    pub parallel_tasks: u64,
    /// Sequential-fallback dispatches (kernels run in canonical order).
    pub sequential_tasks: u64,
}

impl std::ops::AddAssign for KernelCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.points += rhs.points;
        self.tiles += rhs.tiles;
        self.fused += rhs.fused;
        self.parallel_tasks += rhs.parallel_tasks;
        self.sequential_tasks += rhs.sequential_tasks;
    }
}

/// Static-verifier counters: what the plan's verify gate proved (all zero
/// when the plan was built without it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Stencils resolved and re-analyzed by the verifier.
    pub stencils_checked: u64,
    /// `(access, rectangle)` pairs proved in-bounds (source + lowered).
    pub accesses_proved: u64,
    /// Barrier phases proved pairwise hazard-free.
    pub phases_certified: u64,
    /// Witness diagnostics found (always zero on a certified run — a
    /// plan with witnesses is refused before execution).
    pub witnesses: u64,
}

/// Lint-engine counters: what the plan's lint gate found (all zero when
/// the plan was built without it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Lint rules the configuration allowed to run.
    pub rules_run: u64,
    /// Findings reported (after policy filtering).
    pub lints: u64,
    /// Findings suppressed by `allow` rules.
    pub suppressed: u64,
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
    /// Static-verification counters (zero unless the plan was verified).
    pub verify: VerifyStats,
    /// Tile auto-tuner counters (zero unless tuning was requested).
    pub tune: TuneStats,
    /// Semantic-lint counters (zero unless the plan was linted).
    pub lint: LintStats,
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
            ",\"kernels\":{{\"points\":{},\"tiles\":{},\"fused\":{},\
             \"parallel_tasks\":{},\"sequential_tasks\":{}}}",
            k.points, k.tiles, k.fused, k.parallel_tasks, k.sequential_tasks
        );
        let _ = write!(
            s,
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"disk_hits\":{},\"disk_misses\":{}}}",
            self.cache.hits, self.cache.misses, self.cache.disk_hits, self.cache.disk_misses
        );
        let _ = write!(
            s,
            ",\"verify\":{{\"stencils_checked\":{},\"accesses_proved\":{},\
             \"phases_certified\":{},\"witnesses\":{}}}",
            self.verify.stencils_checked,
            self.verify.accesses_proved,
            self.verify.phases_certified,
            self.verify.witnesses
        );
        let _ = write!(
            s,
            ",\"tune\":{{\"disk_hits\":{},\"disk_misses\":{},\"candidates_timed\":{}}}",
            self.tune.disk_hits, self.tune.disk_misses, self.tune.candidates_timed
        );
        let _ = write!(
            s,
            ",\"lint\":{{\"rules_run\":{},\"lints\":{},\"suppressed\":{}}}",
            self.lint.rules_run, self.lint.lints, self.lint.suppressed
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

/// A minimal JSON reader/writer helper: enough to round-trip the profiles
/// this crate emits (objects, arrays, strings, finite numbers, booleans,
/// null). Used by tests and by the bench binaries' `--metrics-json` path.
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true`/`false`
        Bool(bool),
        /// Any JSON number (as f64).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object.
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        /// Object field access.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(m) => m.get(key),
                _ => None,
            }
        }

        /// Numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// Integer value, if this is a whole number.
        // Guarded by the sign and fract checks; report counters fit u64.
        #[allow(clippy::cast_possible_truncation)]
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        /// String value.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Array items.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
    }

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

    /// Render a finite f64 (non-finite values become `null`, which JSON
    /// requires; the parser maps `null` back to NaN for numbers).
    pub fn number(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_string()
        }
    }

    /// Parse a JSON document.
    pub fn parse(src: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at offset {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at offset {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected byte at offset {}", self.pos)),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value()?;
                map.insert(key, val);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or("unterminated escape")?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                self.pos += 4;
                                out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                            }
                            _ => return Err(format!("bad escape at offset {}", self.pos)),
                        }
                    }
                    Some(_) => {
                        // Consume one UTF-8 code point.
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest)
                            .map_err(|_| "invalid UTF-8 in string".to_string())?;
                        let c = s.chars().next().ok_or("unterminated string")?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
            {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at offset {start}"))
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
            fused: 1,
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
            witnesses: 0,
        };
        r.tune = TuneStats {
            disk_hits: 1,
            disk_misses: 1,
            candidates_timed: 5,
        };
        r.lint = LintStats {
            rules_run: 10,
            lints: 2,
            suppressed: 1,
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
        assert_eq!(r.kernels.fused, 4);
        assert_eq!(r.kernels.sequential_tasks, 4);
    }

    #[test]
    fn json_round_trips_the_full_schema() {
        let r = sample_report();
        let doc = json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(doc.get("backend").unwrap().as_str(), Some("omp"));
        assert_eq!(doc.get("runs").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("compile_seconds").unwrap().as_f64(), Some(0.125));
        let k = doc.get("kernels").unwrap();
        assert_eq!(k.get("points").unwrap().as_u64(), Some(1000));
        assert_eq!(k.get("fused").unwrap().as_u64(), Some(4));
        assert_eq!(k.get("sequential_tasks").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("plan_ops").unwrap().as_u64(), Some(7));
        let c = doc.get("cache").unwrap();
        assert_eq!(c.get("hits").unwrap().as_u64(), Some(5));
        assert_eq!(c.get("disk_hits").unwrap().as_u64(), Some(1));
        assert_eq!(c.get("disk_misses").unwrap().as_u64(), Some(1));
        assert!(doc.get("comm").is_none());
        let v = doc.get("verify").unwrap();
        assert_eq!(v.get("stencils_checked").unwrap().as_u64(), Some(14));
        assert_eq!(v.get("accesses_proved").unwrap().as_u64(), Some(96));
        assert_eq!(v.get("phases_certified").unwrap().as_u64(), Some(9));
        assert_eq!(v.get("witnesses").unwrap().as_u64(), Some(0));
        let t = doc.get("tune").unwrap();
        assert_eq!(t.get("disk_hits").unwrap().as_u64(), Some(1));
        assert_eq!(t.get("disk_misses").unwrap().as_u64(), Some(1));
        assert_eq!(t.get("candidates_timed").unwrap().as_u64(), Some(5));
        let l = doc.get("lint").unwrap();
        assert_eq!(l.get("rules_run").unwrap().as_u64(), Some(10));
        assert_eq!(l.get("lints").unwrap().as_u64(), Some(2));
        assert_eq!(l.get("suppressed").unwrap().as_u64(), Some(1));
        assert!(doc.get("phases").is_none());
        let ops = doc.get("ops").unwrap().as_array().unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].get("op").unwrap().as_u64(), Some(1));
        assert_eq!(ops[0].get("calls").unwrap().as_u64(), Some(2));
        assert_eq!(ops[1].get("op").unwrap().as_u64(), Some(4));
        assert_eq!(ops[1].get("seconds").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn json_parser_handles_strings_escapes_and_nesting() {
        let doc = json::parse(r#"{"a": [1, -2.5e3, true, false, null], "s": "q\"\\\nA", "o": {}}"#)
            .unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2], json::Value::Bool(true));
        assert_eq!(a[4], json::Value::Null);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("q\"\\\nA"));
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("{} extra").is_err());
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "line1\nline2\t\"quoted\" \\ end\u{1}";
        let doc = json::parse(&format!("{{\"k\":{}}}", json::escape(nasty))).unwrap();
        assert_eq!(doc.get("k").unwrap().as_str(), Some(nasty));
    }
}
