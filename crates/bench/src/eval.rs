//! The evaluation behind `bench_summary`: every measurement of the
//! paper's §V, the two documents that hold them and the `results/`
//! tables rendered from those documents.
//!
//! [`evaluate`] measures and fills both documents; [`Evaluation::tables`]
//! renders every list of rows in them as a text table, and
//! [`Evaluation::write`] writes all of it. Every time is a [`time_reps`]
//! median (the best is kept where a bound is derived from it), or a
//! [`time_pairs`] median for an ablation, and every Snowflake plan is
//! built through `SolverPlan::build_checked`, so a plan the plan check
//! refuses fails the evaluation.

use std::convert::Infallible;
use std::hint::black_box;
use std::path::{Path, PathBuf};

use hpgmg::{HandSolver, Problem, Smoother, SnowSolver};
use roofline::stream::dot_pass;
use roofline::{Roofline, StencilKind};
use snowflake_backends::metrics::json;
use snowflake_backends::{
    available_backends, backend_from_name, Backend, BackendOptions, CJitBackend, OmpBackend,
    PlanError, RunReport, TileTuner,
};

use crate::{time_pairs, time_reps, KernelBench, Timing};

/// Elements per array of the Figure 6 dot-bandwidth sweep: 1 MiB to
/// 64 MiB footprints, from cache-resident to DRAM.
pub const STREAM_ELEMS: [usize; 4] = [1 << 16, 1 << 18, 1 << 20, 1 << 22];

/// What one evaluation measures.
#[derive(Debug)]
pub struct Config {
    /// A CI-sized run (`--smoke`).
    smoke: bool,
    /// Finest-grid sizes of the solver and ablation rows.
    solve_sizes: Vec<usize>,
    /// V-cycles of the solve that measures the residual reduction.
    cycles: usize,
    /// Interior size of Figure 7.
    kernel_size: usize,
    /// Interior sizes of Figure 8.
    sweep_sizes: Vec<usize>,
    /// Timed calls per measurement, after one untimed warm-up (pairs of
    /// calls for an ablation).
    reps: usize,
    /// `hand` and the Snowflake backends: every implementation measured.
    implementations: Vec<&'static str>,
}

impl Config {
    /// The full run: the four performance backends at memory-bound sizes.
    pub fn full() -> Config {
        Config {
            smoke: false,
            solve_sizes: vec![64, 128],
            cycles: 10,
            kernel_size: 64,
            sweep_sizes: vec![32, 64, 128],
            reps: 10,
            implementations: with_hand(&["seq", "omp", "oclsim", "cjit"]),
        }
    }

    /// The CI-sized run: every registered backend at 8³.
    pub fn smoke() -> Config {
        Config {
            smoke: true,
            solve_sizes: vec![8],
            cycles: 2,
            kernel_size: 8,
            sweep_sizes: vec![8],
            reps: 3,
            implementations: with_hand(available_backends()),
        }
    }
}

/// `hand`, then `backends` (without `cjit` when no C compiler is
/// available).
fn with_hand(backends: &[&'static str]) -> Vec<&'static str> {
    let cc = CJitBackend::available();
    std::iter::once("hand")
        .chain(backends.iter().copied().filter(|&b| cc || b != "cjit"))
        .collect()
}

/// A value of the documents: JSON whose objects keep their key order.
#[derive(Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A count or size.
    Int(usize),
    /// A measurement; non-finite numbers render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// JSON rendered elsewhere (a [`RunReport`]), kept verbatim.
    Raw(String),
    /// An array.
    List(Vec<Value>),
    /// An object.
    Object(Vec<(&'static str, Value)>),
}

impl Value {
    /// The JSON text.
    pub fn to_json(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Num(x) => json::number(*x),
            Value::Str(s) => json::escape(s),
            Value::Raw(raw) => raw.clone(),
            Value::List(items) => {
                let items: Vec<String> = items.iter().map(Value::to_json).collect();
                format!("[{}]", items.join(","))
            }
            Value::Object(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json::escape(k), v.to_json()))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    /// A table cell: scalars only.
    fn cell(&self) -> Option<String> {
        Some(match self {
            Value::Null => "-".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => s.clone(),
            Value::Num(x) => {
                let a = x.abs();
                let decimals = [100.0, 10.0, 1.0].iter().filter(|&&t| a < t).count() + 1;
                if a != 0.0 && !(1e-3..1e6).contains(&a) {
                    format!("{x:.3e}")
                } else {
                    format!("{x:.decimals$}")
                }
            }
            Value::Raw(_) | Value::List(_) | Value::Object(_) => return None,
        })
    }
}

fn str(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Everything one run measured: `BENCH_solver.json` and
/// `BENCH_kernels.json`.
pub struct Evaluation {
    /// `BENCH_solver.json`: the header, `figure9` (one row per problem,
    /// size and implementation) and the tuner's persisted decisions.
    pub solver: Value,
    /// `BENCH_kernels.json`: the header, `stream`, `roofline`, `figure7`,
    /// `figure8` and `ablation`.
    pub kernels: Value,
}

/// Run every measurement of `config`. The first implementation that
/// fails to build (the plan check's refusals included) or to run stops
/// the evaluation with a message naming it.
pub fn evaluate(config: &Config) -> Result<Evaluation, String> {
    let header = |artifact: &str| {
        vec![
            ("artifact", str(artifact)),
            ("smoke", Value::Bool(config.smoke)),
            ("reps", Value::Int(config.reps)),
        ]
    };
    let (stream, model) = stream_rows(config.reps);
    let mut figure9 = Vec::new();
    for problem in ["vc", "cc"] {
        for &n in &config.solve_sizes {
            let mut hand = f64::NAN;
            for &imp in &config.implementations {
                let row = solve_row(problem, n, imp, config, &mut hand)
                    .map_err(|e| format!("{problem} {n}^3 on {imp}: {e}"))?;
                figure9.push(row);
            }
        }
    }
    let kernel = |kind: StencilKind, n: usize| -> Result<Vec<Value>, String> {
        config
            .implementations
            .iter()
            .map(|&imp| {
                kernel_row(kind, imp, n, config.reps, &model)
                    .map_err(|e| format!("{} {n}^3 on {imp}: {e}", kind.label()))
            })
            .collect()
    };
    let mut figure7 = Vec::new();
    for kind in StencilKind::all() {
        figure7.extend(kernel(kind, config.kernel_size)?);
    }
    let mut figure8 = Vec::new();
    for &n in &config.sweep_sizes {
        figure8.extend(kernel(StencilKind::VcGsrb, n)?);
    }
    let mut ablation = Vec::new();
    for problem in ["vc", "cc"] {
        for &n in &config.solve_sizes {
            ablation.extend(
                ablation_rows(problem, n, config.reps)
                    .map_err(|e| format!("ablation {problem} {n}^3: {e}"))?,
            );
        }
    }
    let roofline = StencilKind::all()
        .into_iter()
        .map(|kind| {
            Value::Object(vec![
                ("kernel", str(kind.label())),
                ("bytes_per_stencil", Value::Num(kind.bytes_per_stencil())),
                ("gbs", Value::Num(model.bytes_per_sec / 1e9)),
                (
                    "stencils_per_sec",
                    Value::Num(model.bound_stencils_per_sec(kind)),
                ),
            ])
        })
        .collect();

    let mut solver = header("bench_solver");
    solver.push(("cycles", Value::Int(config.cycles)));
    solver.push(("figure9", Value::List(figure9)));
    solver.push(("tuner", tuner_block()));
    let mut kernels = header("bench_kernels");
    kernels.extend([
        ("stream", Value::List(stream)),
        ("roofline", Value::List(roofline)),
        ("figure7", Value::List(figure7)),
        ("figure8", Value::List(figure8)),
        ("ablation", Value::List(ablation)),
    ]);
    Ok(Evaluation {
        solver: Value::Object(solver),
        kernels: Value::Object(kernels),
    })
}

/// Figure 6: one dot pass (the modified STREAM) per [`STREAM_ELEMS`]
/// footprint, and the §V-B model from the best bandwidth at the largest.
fn stream_rows(reps: usize) -> (Vec<Value>, Roofline) {
    let mut best = 0.0;
    let rows = STREAM_ELEMS
        .iter()
        .map(|&n| {
            let a: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64).collect();
            let Ok(dot) = time_reps(reps, || {
                black_box(dot_pass(&a, &b));
                Ok::<(), Infallible>(())
            });
            let bytes = (2 * n * std::mem::size_of::<f64>()) as f64;
            best = bytes / dot.best;
            Value::Object(vec![
                ("elems", Value::Int(n)),
                ("bytes", Value::Num(bytes)),
                ("gbs_best", Value::Num(bytes / dot.best / 1e9)),
                ("gbs_median", Value::Num(bytes / dot.median / 1e9)),
            ])
        })
        .collect();
    (rows, Roofline::new(best))
}

/// One implementation's solve: the median V-cycle, and the residual
/// reduction and report of a solve from a zero guess. `hand` holds the
/// hand baseline's median once its row is measured.
fn solve_row(
    problem: &str,
    n: usize,
    imp: &str,
    config: &Config,
    hand: &mut f64,
) -> Result<Value, PlanError> {
    let spec = poisson(problem, n);
    let (vcycle, norms, ops, build, report): (Timing, _, _, _, _) = if imp == "hand" {
        let mut solver = HandSolver::new(spec);
        let Ok(vcycle) = time_reps(config.reps, || {
            solver.vcycle(0);
            Ok::<(), Infallible>(())
        });
        *hand = vcycle.median;
        let norms = solver.solve(config.cycles);
        (vcycle, norms, Value::Null, Value::Null, Value::Null)
    } else {
        let backend = backend_from_name(imp, &BackendOptions::default())?;
        let mut solver = SnowSolver::build(spec, backend, Smoother::default(), true)?;
        let vcycle = time_reps(config.reps, || solver.vcycle(0))?;
        solver.enable_metrics();
        let norms = solver.solve(config.cycles)?;
        let report = solver.take_metrics().unwrap_or_default();
        let plan = solver.plan();
        (
            vcycle,
            norms,
            Value::Int(plan.len()),
            Value::Num(plan.build_seconds()),
            Value::Raw(report.to_json()),
        )
    };
    Ok(Value::Object(vec![
        ("problem", str(problem)),
        ("n", Value::Int(n)),
        ("impl", str(imp)),
        ("vcycle_seconds_median", Value::Num(vcycle.median)),
        (
            "dof_per_sec",
            Value::Num((n * n * n) as f64 / vcycle.median),
        ),
        ("speedup_vs_hand", Value::Num(*hand / vcycle.median)),
        (
            "residual_reduction",
            Value::Num(norms[norms.len() - 1] / norms[0]),
        ),
        ("plan_ops", ops),
        ("plan_build_seconds", build),
        ("report", report),
    ]))
}

/// One sweep of one of Figure 7's operators on one implementation, beside
/// its Roofline bound, with the report of one profiled sweep.
fn kernel_row(
    kind: StencilKind,
    imp: &str,
    n: usize,
    reps: usize,
    model: &Roofline,
) -> Result<Value, PlanError> {
    let backend = match imp {
        "hand" => None,
        name => Some(backend_from_name(name, &BackendOptions::default())?),
    };
    let mut bench = KernelBench::build(kind, backend, n)?;
    let sweep = time_reps(reps, || bench.sweep())?;
    let mut report = RunReport::new();
    bench.sweep_with_report(&mut report)?;
    let points = (n * n * n) as f64;
    Ok(Value::Object(vec![
        ("kernel", str(kind.label())),
        ("impl", str(imp)),
        ("n", Value::Int(n)),
        ("seconds_median", Value::Num(sweep.median)),
        ("stencils_per_sec", Value::Num(points / sweep.median)),
        (
            "roofline_stencils_per_sec",
            Value::Num(model.bound_stencils_per_sec(kind)),
        ),
        ("report", Value::Raw(report.to_json())),
    ]))
}

/// The `vc` or `cc` Poisson problem at finest size `n`.
fn poisson(problem: &str, n: usize) -> Problem {
    if problem == "vc" {
        Problem::poisson_vc(n)
    } else {
        Problem::poisson_cc(n)
    }
}

/// The §IV-A ablations of the omp backend on one problem at finest size
/// `n`: multicolor reordering off, and the tile tuner on, each timed
/// against the default backend in `reps` alternating pairs of whole
/// V-cycles (see [`time_pairs`]). Every plan is built checked.
fn ablation_rows(problem: &str, n: usize, reps: usize) -> Result<Vec<Value>, PlanError> {
    let solver =
        |backend| SnowSolver::build(poisson(problem, n), backend, Smoother::default(), true);
    let mut default = solver(Box::new(OmpBackend::new()))?;
    let tuned = backend_from_name("omp", &BackendOptions::default().with_tune(true))?;
    let cells: [(&str, Box<dyn Backend>); 2] = [
        (
            "omp multicolor off",
            Box::new(OmpBackend::new().with_multicolor(false)),
        ),
        ("omp tuner on", tuned),
    ];
    cells
        .into_iter()
        .map(|(cell, backend)| {
            let mut variant = solver(backend)?;
            let (base, var, slower) = time_pairs(reps, || default.vcycle(0), || variant.vcycle(0))?;
            Ok(Value::Object(vec![
                ("cell", str(cell)),
                ("problem", str(problem)),
                ("n", Value::Int(n)),
                ("pairs", Value::Int(reps.max(1))),
                ("default_seconds_median", Value::Num(base.median)),
                ("variant_seconds_median", Value::Num(var.median)),
                ("variant_over_default", Value::Num(var.median / base.median)),
                ("variant_slower_pairs", Value::Int(slower)),
                ("default_seconds_iqr", Value::Num(base.iqr)),
            ]))
        })
        .collect()
}

/// The tile tuner's artifact directory (the `SNOWFLAKE_TUNE_DIR` chain)
/// and every `tile-*.txt` decision persisted there.
fn tuner_block() -> Value {
    let dir = TileTuner::new(None).dir().to_path_buf();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| Some(entry.ok()?.path()))
        .collect();
    paths.sort();
    let artifacts = paths.iter().filter_map(|path| {
        let file = path.file_name()?.to_str()?;
        let decision = std::fs::read_to_string(path).ok()?;
        (file.starts_with("tile-") && file.ends_with(".txt")).then(|| {
            Value::Object(vec![
                ("file", str(file)),
                ("decision", str(decision.trim())),
            ])
        })
    });
    Value::Object(vec![
        ("dir", str(&dir.to_string_lossy())),
        ("artifacts", Value::List(artifacts.collect())),
    ])
}

impl Evaluation {
    /// Both documents, as `(file name, document)`.
    fn documents(&self) -> [(&'static str, &Value); 2] {
        [
            ("BENCH_solver.json", &self.solver),
            ("BENCH_kernels.json", &self.kernels),
        ]
    }

    /// The `results/` tables, as `(file name, text)`: every top-level
    /// list of rows of both documents as `results/<key>.txt`, one column
    /// per scalar field (reports are left to the documents).
    pub fn tables(&self) -> Vec<(String, String)> {
        let mut tables = Vec::new();
        for (doc, value) in self.documents() {
            let Value::Object(fields) = value else {
                continue;
            };
            for (key, value) in fields {
                if let Value::List(rows) = value {
                    let text = format!("Rendered from {doc}, key \"{key}\".\n{}", table(rows));
                    tables.push((format!("{key}.txt"), text));
                }
            }
        }
        tables
    }

    /// Write both documents to `out` and every table to `out/results`
    /// (see [`prepare_out`]), and print the tables.
    pub fn write(&self, out: &Path) -> Result<(), String> {
        let write = |path: &Path, text: &str| {
            std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        for (file, doc) in self.documents() {
            write(&out.join(file), &doc.to_json())?;
        }
        for (file, text) in self.tables() {
            println!("{text}");
            write(&out.join("results").join(file), &text)?;
        }
        Ok(())
    }
}

/// Create `out` and `out/results` where missing. The parent of `out` must
/// exist, so a mistyped path fails here, before anything is measured.
pub fn prepare_out(out: &Path) -> Result<(), String> {
    for dir in [out.to_path_buf(), out.join("results")] {
        if !dir.is_dir() {
            std::fs::create_dir(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    Ok(())
}

/// A fixed-width text table of `rows` (objects with the same keys in the
/// same order): a header of the keys whose values are scalars in every
/// row, a rule, and one right-aligned line per row.
fn table(rows: &[Value]) -> String {
    let rows: Vec<&[(&str, Value)]> = rows
        .iter()
        .filter_map(|row| match row {
            Value::Object(fields) => Some(&fields[..]),
            _ => None,
        })
        .collect();
    let Some(first) = rows.first() else {
        return String::new();
    };
    let columns: Vec<usize> = (0..first.len())
        .filter(|&c| rows.iter().all(|row| row[c].1.cell().is_some()))
        .collect();
    let mut lines: Vec<Vec<String>> = vec![columns.iter().map(|&c| first[c].0.into()).collect()];
    lines.extend(rows.iter().map(|row| {
        columns
            .iter()
            .map(|&c| row[c].1.cell().unwrap_or_default())
            .collect()
    }));
    let width: Vec<usize> = (0..lines[0].len())
        .map(|c| {
            lines
                .iter()
                .map(|l| l[c].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    let render = |line: &Vec<String>| {
        let padded: Vec<String> = line
            .iter()
            .zip(&width)
            .map(|(s, &w)| format!("{s:>w$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let mut text = render(&lines[0]);
    text += &"-".repeat(width.iter().sum::<usize>() + 2 * (width.len() - 1));
    text += "\n";
    for line in &lines[1..] {
        text += &render(line);
    }
    text
}
