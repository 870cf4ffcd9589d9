//! Structured run reports: the observability layer every backend feeds.
//!
//! A [`RunReport`] accumulates, across any number of executions:
//!
//! * **per-barrier-phase wall time** ([`PhaseSample`], one slot per phase
//!   of the analysis schedule, accumulated over runs);
//! * **kernel counters** ([`KernelCounters`]: points executed, tile/task
//!   dispatches, kernels that rode along in fused traversals, and
//!   parallel-safe vs sequential-fallback dispatches);
//! * the **compile-time vs run-time split** (`compile_seconds` vs
//!   `run_seconds`);
//! * [`CacheStats`] snapshotted from a [`crate::CompileCache`];
//! * the plan gates' [`VerifyStats`] and [`LintStats`], and the tuner's
//!   [`TuneStats`], stamped by [`crate::SolverPlan::stamp`].
//!
//! Reports serialize to JSON via [`RunReport::to_json`] (schema documented
//! in README.md); [`json`] provides the minimal parser used to read
//! profiles back in tests and tools. Everything here is plain data —
//! backends fill reports through `Executable::run_with_report`, and
//! filling is skipped entirely on the plain `run` path so instrumentation
//! costs nothing when unused.

use std::fmt::Write as _;

/// Compile-cache counters, maintained under the cache's single lock.
///
/// `disk_hits`/`disk_misses` count the persistent artifact cache of the
/// C JIT backend (a compile that loaded a previously-built `.so` instead
/// of invoking `cc`); they stay zero for the pure-Rust backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a compile.
    pub misses: u64,
    /// Executables inserted (misses whose compile succeeded).
    pub inserts: u64,
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

/// Accumulated wall time of one barrier phase of the schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseSample {
    /// Total seconds spent in this phase across all recorded runs.
    pub seconds: f64,
    /// Tasks (tiles, work-groups, regions, …) dispatched in this phase
    /// across all recorded runs.
    pub tasks: u64,
}

/// Work counters accumulated across runs.
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
    /// Runs recorded.
    pub runs: u64,
    /// Operators in the feeding [`crate::plan::SolverPlan`] (zero when the
    /// report was filled by direct per-call dispatch).
    pub plan_ops: u64,
    /// Seconds spent compiling (micro-compiler + cache lookups).
    pub compile_seconds: f64,
    /// Seconds spent executing.
    pub run_seconds: f64,
    /// Per-barrier-phase samples, indexed by schedule position.
    pub phases: Vec<PhaseSample>,
    /// Work counters.
    pub kernels: KernelCounters,
    /// Compile-cache counters (snapshot of the feeding cache).
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

    /// Accumulate `seconds`/`tasks` into phase `index`, growing the phase
    /// table as needed.
    pub fn record_phase(&mut self, index: usize, seconds: f64, tasks: u64) {
        if self.phases.len() <= index {
            self.phases.resize(index + 1, PhaseSample::default());
        }
        self.phases[index].seconds += seconds;
        self.phases[index].tasks += tasks;
    }

    /// Close out one execution of `total_seconds`.
    pub fn finish_run(&mut self, total_seconds: f64) {
        self.runs += 1;
        self.run_seconds += total_seconds;
    }

    /// Count one dispatch of `kernels` kernels (several only when fused),
    /// classified by the analysis' parallel-safety verdict on the first.
    pub fn record_dispatch(&mut self, kernels: usize, parallel_safe: bool) {
        self.kernels.tiles += 1;
        self.kernels.fused += (kernels as u64).saturating_sub(1);
        if parallel_safe {
            self.kernels.parallel_tasks += 1;
        } else {
            self.kernels.sequential_tasks += 1;
        }
    }

    /// Profile one execution: stamp `backend`, time `run` (which fills
    /// phases and dispatch counters), then count `points` and close the
    /// run. Every built-in executable reports through this one wrapper.
    pub fn record_run(
        &mut self,
        backend: &str,
        points: u64,
        run: impl FnOnce(&mut RunReport) -> snowflake_core::Result<()>,
    ) -> snowflake_core::Result<()> {
        self.set_backend(backend);
        let t0 = std::time::Instant::now();
        run(self)?;
        self.kernels.points += points;
        self.finish_run(t0.elapsed().as_secs_f64());
        Ok(())
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
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\
             \"disk_hits\":{},\"disk_misses\":{}}}",
            self.cache.hits,
            self.cache.misses,
            self.cache.inserts,
            self.cache.disk_hits,
            self.cache.disk_misses
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
        s.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"index\":{i},\"seconds\":{},\"tasks\":{}}}",
                json::number(p.seconds),
                p.tasks
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
        r.record_phase(1, 0.25, 3); // out-of-order fills phase 0 too
        r.record_phase(0, 0.5, 10);
        r.record_phase(0, 0.5, 10);
        r.kernels = KernelCounters {
            points: 1000,
            tiles: 13,
            fused: 2,
            parallel_tasks: 12,
            sequential_tasks: 1,
        };
        r.cache = CacheStats {
            hits: 5,
            misses: 2,
            inserts: 2,
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
        r.finish_run(1.5);
        r
    }

    #[test]
    fn report_accumulates_phases_and_runs() {
        let r = sample_report();
        assert_eq!(r.backend, "omp");
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].seconds, 1.0);
        assert_eq!(r.phases[0].tasks, 20);
        assert_eq!(r.phases[1].tasks, 3);
        assert_eq!(r.runs, 1);
        assert_eq!(r.run_seconds, 1.5);
    }

    #[test]
    fn json_round_trips_the_full_schema() {
        let r = sample_report();
        let doc = json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(doc.get("backend").unwrap().as_str(), Some("omp"));
        assert_eq!(doc.get("runs").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("compile_seconds").unwrap().as_f64(), Some(0.125));
        let k = doc.get("kernels").unwrap();
        assert_eq!(k.get("points").unwrap().as_u64(), Some(1000));
        assert_eq!(k.get("fused").unwrap().as_u64(), Some(2));
        assert_eq!(k.get("sequential_tasks").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("plan_ops").unwrap().as_u64(), Some(7));
        let c = doc.get("cache").unwrap();
        assert_eq!(c.get("hits").unwrap().as_u64(), Some(5));
        assert_eq!(c.get("inserts").unwrap().as_u64(), Some(2));
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
        let phases = doc.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].get("index").unwrap().as_u64(), Some(0));
        assert_eq!(phases[0].get("seconds").unwrap().as_f64(), Some(1.0));
        assert_eq!(phases[1].get("tasks").unwrap().as_u64(), Some(3));
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
