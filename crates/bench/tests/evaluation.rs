//! The evaluation command's contract: the schema of both documents and
//! the `results/` tables (keys and row labels, not timings), pinned on one
//! in-process `--smoke` run, and the command line's exit statuses.

use std::process::Command;
use std::sync::OnceLock;

use roofline::StencilKind;
use snowflake_backends::{available_backends, backend_available};
use snowflake_bench::eval::{evaluate, Config, Evaluation, STREAM_ELEMS};

/// The `--smoke` evaluation, run once and shared by every test.
fn smoke() -> &'static Evaluation {
    static RUN: OnceLock<Evaluation> = OnceLock::new();
    RUN.get_or_init(|| evaluate(&Config::smoke()).expect("the smoke evaluation runs"))
}

/// Every implementation column of the smoke run: the hand baseline, then
/// every registered backend (cjit and oclsim only with a C compiler).
fn implementations() -> Vec<&'static str> {
    std::iter::once("hand")
        .chain(
            available_backends()
                .iter()
                .copied()
                .filter(|&b| backend_available(b)),
        )
        .collect()
}

/// A parsed JSON value; objects keep their key order.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after the document");
        v
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "at byte {}", self.i);
        self.i += 1;
    }

    fn literal(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).unwrap();
            let c = rest.chars().next().expect("unterminated string");
            self.i += c.len_utf8();
            match c {
                '"' => return out,
                '\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => other as char,
                    });
                }
                c => out.push(c),
            }
        }
    }
}

/// The keys of every object in `rows`, which must all agree.
fn row_keys(rows: &[Json]) -> Vec<&str> {
    let keys = rows[0].keys();
    for row in rows {
        assert_eq!(row.keys(), keys);
    }
    keys
}

#[test]
fn solver_document_schema() {
    let doc = Json::parse(&smoke().solver.to_json());
    assert_eq!(
        doc.keys(),
        ["artifact", "smoke", "reps", "cycles", "figure9"]
    );
    assert_eq!(doc.get("artifact").str(), "bench_solver");
    assert!(matches!(doc.get("smoke"), Json::Bool(true)));
    let rows = doc.get("figure9").arr();
    assert_eq!(
        row_keys(rows),
        [
            "problem",
            "n",
            "impl",
            "vcycle_seconds_median",
            "dof_per_sec",
            "speedup_vs_hand",
            "residual_reduction",
            "setup_seconds",
            "plan_ops",
            "plan_build_seconds",
            "report",
        ]
    );
    let labels: Vec<(&str, f64, &str)> = rows
        .iter()
        .map(|r| {
            (
                r.get("problem").str(),
                r.get("n").num(),
                r.get("impl").str(),
            )
        })
        .collect();
    let expected: Vec<(&str, f64, &str)> = ["vc", "cc"]
        .into_iter()
        .flat_map(|p| implementations().into_iter().map(move |i| (p, 8.0, i)))
        .collect();
    assert_eq!(labels, expected);
    for row in rows {
        let implementation = row.get("impl").str();
        let report = row.get("report");
        assert!(row.get("setup_seconds").num() > 0.0, "{implementation}");
        if implementation == "hand" {
            assert_eq!(row.get("speedup_vs_hand").num(), 1.0);
            assert!(matches!(row.get("plan_ops"), Json::Null));
            assert!(matches!(report, Json::Null));
            continue;
        }
        assert_eq!(
            report.keys(),
            [
                "backend",
                "runs",
                "plan_ops",
                "compile_seconds",
                "run_seconds",
                "kernels",
                "cache",
                "verify",
                "ops",
            ]
        );
        assert_eq!(report.get("backend").str(), implementation);
        assert_eq!(report.get("plan_ops").num(), row.get("plan_ops").num());
        assert!(!report.get("ops").arr().is_empty(), "{implementation}");
        // Every plan was built checked.
        let verify = report.get("verify");
        assert!(
            verify.get("stencils_checked").num() > 0.0,
            "{implementation}"
        );
        assert_eq!(verify.get("warnings").num(), 0.0, "{implementation}");
    }
}

#[test]
fn kernels_document_schema() {
    let doc = Json::parse(&smoke().kernels.to_json());
    assert_eq!(
        doc.keys(),
        ["artifact", "smoke", "reps", "stream", "roofline", "figure7", "figure8", "ablation"]
    );
    assert_eq!(doc.get("artifact").str(), "bench_kernels");
    let stream = doc.get("stream").arr();
    assert_eq!(
        row_keys(stream),
        ["elems", "bytes", "gbs_best", "gbs_median"]
    );
    let elems: Vec<f64> = stream.iter().map(|r| r.get("elems").num()).collect();
    assert_eq!(elems, STREAM_ELEMS.map(|n| n as f64));
    let roofline = doc.get("roofline").arr();
    assert_eq!(
        row_keys(roofline),
        ["kernel", "bytes_per_stencil", "gbs", "stencils_per_sec"]
    );
    let bounds: Vec<(&str, f64)> = roofline
        .iter()
        .map(|b| (b.get("kernel").str(), b.get("bytes_per_stencil").num()))
        .collect();
    assert_eq!(
        bounds,
        [
            ("CC 7pt Stencil", 24.0),
            ("CC Jacobi", 40.0),
            ("VC GSRB", 64.0)
        ]
    );
    let kernel_labels = |key: &str| -> Vec<(String, String, f64)> {
        let rows = doc.get(key).arr();
        assert_eq!(
            row_keys(rows),
            [
                "kernel",
                "impl",
                "n",
                "seconds_median",
                "stencils_per_sec",
                "roofline_stencils_per_sec",
                "report"
            ]
        );
        rows.iter()
            .map(|r| {
                assert_eq!(r.get("report").get("backend").str(), r.get("impl").str());
                let label = |k: &str| r.get(k).str().to_string();
                (label("kernel"), label("impl"), r.get("n").num())
            })
            .collect()
    };
    let expected = |kinds: &[StencilKind]| -> Vec<(String, String, f64)> {
        kinds
            .iter()
            .flat_map(|k| {
                implementations()
                    .into_iter()
                    .map(|i| (k.label().to_string(), i.to_string(), 8.0))
            })
            .collect()
    };
    assert_eq!(kernel_labels("figure7"), expected(&StencilKind::all()));
    assert_eq!(kernel_labels("figure8"), expected(&[StencilKind::VcGsrb]));
    let ablation = doc.get("ablation").arr();
    assert_eq!(
        row_keys(ablation),
        [
            "cell",
            "problem",
            "n",
            "pairs",
            "default_seconds_median",
            "variant_seconds_median",
            "variant_over_default",
            "variant_slower_pairs",
            "default_seconds_iqr"
        ]
    );
    let cells: Vec<(&str, &str, f64)> = ablation
        .iter()
        .map(|r| {
            (
                r.get("cell").str(),
                r.get("problem").str(),
                r.get("n").num(),
            )
        })
        .collect();
    assert_eq!(
        cells,
        [
            ("omp multicolor off", "vc", 8.0),
            ("omp multicolor off", "cc", 8.0),
        ]
    );
    let reps = doc.get("reps").num();
    for row in ablation {
        assert_eq!(row.get("pairs").num(), reps);
        assert!(row.get("variant_slower_pairs").num() <= reps);
        assert!(row.get("default_seconds_iqr").num() >= 0.0);
        let ratio =
            row.get("variant_seconds_median").num() / row.get("default_seconds_median").num();
        assert_eq!(row.get("variant_over_default").num(), ratio);
    }
}

#[test]
fn write_puts_both_documents_and_every_table_under_out() {
    let out = std::env::temp_dir().join(format!("snowflake-eval-{}", std::process::id()));
    snowflake_bench::eval::prepare_out(&out).unwrap();
    let run = smoke();
    run.write(&out).unwrap();
    let read = |path: &str| std::fs::read_to_string(out.join(path)).unwrap();
    assert_eq!(read("BENCH_solver.json"), run.solver.to_json());
    assert_eq!(read("BENCH_kernels.json"), run.kernels.to_json());
    let tables = run.tables();
    let files: Vec<&str> = tables.iter().map(|(file, _)| file.as_str()).collect();
    assert_eq!(
        files,
        [
            "figure9.txt",
            "stream.txt",
            "roofline.txt",
            "figure7.txt",
            "figure8.txt",
            "ablation.txt"
        ]
    );
    for (file, text) in &tables {
        assert_eq!(&read(&format!("results/{file}")), text);
        // A title naming the document and key, the scalar keys as the
        // header, a rule, and one line per row.
        let key = file.trim_end_matches(".txt");
        let mut lines = text.lines();
        assert!(lines.next().unwrap().ends_with(&format!("key \"{key}\".")));
        assert!(!lines.next().unwrap().contains("report"), "{file}");
        assert!(lines.next().unwrap().chars().all(|c| c == '-'));
        let rows = if file == "figure9.txt" {
            Json::parse(&run.solver.to_json())
        } else {
            Json::parse(&run.kernels.to_json())
        };
        assert_eq!(lines.count(), rows.get(key).arr().len(), "{file}");
    }
    std::fs::remove_dir_all(&out).unwrap();
}

fn bench_summary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_summary"))
        .args(args)
        .output()
        .expect("bench_summary starts")
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for args in [&["--size", "8"][..], &["--smoke", "--verify"], &["--out"]] {
        let out = bench_summary(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: "));
    }
}

#[test]
fn out_under_a_missing_parent_fails_before_measuring() {
    let missing = std::env::temp_dir()
        .join(format!("snowflake-missing-{}", std::process::id()))
        .join("out");
    let out = bench_summary(&["--smoke", "--out", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("creating"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing was measured");
    assert!(!missing.parent().unwrap().exists());
}
