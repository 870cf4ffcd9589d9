//! The evaluation behind `bench_summary`: every measurement of the
//! paper's §V, the two documents that hold them and the `results/`
//! tables rendered from those documents.
//!
//! [`evaluate`] measures and fills both documents; [`Evaluation::tables`]
//! renders every list of rows in them as a text table, and
//! [`Evaluation::write`] writes all of it. Every time is a median over
//! [`time_rounds`] (the best is kept where a bound is derived from it):
//! a kernel alone, or the V-cycles of every implementation of a Figure 9
//! cell, or an ablation's default and variant, in rounds. Every Snowflake
//! plan is built through `SolverPlan::build_checked`, so a plan the plan
//! check refuses fails the evaluation.

use std::convert::Infallible;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hpgmg::{HandSolver, Problem, SnowSolver};
use roofline::stream::dot_pass;
use roofline::{Roofline, StencilKind};
use snowflake_backends::metrics::json::Value;
use snowflake_backends::{
    available_backends, backend_available, backend_from_name, BackendOptions, OmpBackend,
    PlanError, RunReport,
};

use crate::{time, time_rounds, KernelBench, Timing};

/// Elements per array of the Figure 6 dot-bandwidth sweep: 1 MiB to
/// 64 MiB footprints (two arrays). The largest leaves the last-level cache
/// only where that cache is under 64 MiB: on the 2 vCPU Xeon with a 300 MiB
/// L3 that the checked-in results come from, every footprint is
/// L3-resident, so the Roofline's bandwidth there is an L3 bandwidth.
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

/// `hand`, then `backends` (without `cjit` and `oclsim` when no C
/// compiler is available).
fn with_hand(backends: &[&'static str]) -> Vec<&'static str> {
    std::iter::once("hand")
        .chain(backends.iter().copied().filter(|&b| backend_available(b)))
        .collect()
}

/// A table cell of a value: scalars only.
fn cell(value: &Value) -> Option<String> {
    Some(match value {
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
        Value::List(_) | Value::Object(_) => return None,
    })
}

fn str(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn int(n: usize) -> Value {
    Value::Int(n as i128)
}

/// Everything one run measured: `BENCH_solver.json` and
/// `BENCH_kernels.json`.
pub struct Evaluation {
    /// `BENCH_solver.json`: the header and `figure9` (one row per problem,
    /// size and implementation).
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
            ("reps", int(config.reps)),
        ]
    };
    let (stream, model) = stream_rows(config.reps);
    let mut figure9 = Vec::new();
    for problem in ["vc", "cc"] {
        for &n in &config.solve_sizes {
            figure9.extend(solve_rows(problem, n, config)?);
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
            ablation.push(
                ablation_row(problem, n, config.reps)
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
    solver.push(("cycles", int(config.cycles)));
    solver.push(("figure9", Value::List(figure9)));
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
            let Ok(dot) = time(reps, || {
                black_box(dot_pass(&a, &b));
                Ok::<(), Infallible>(())
            });
            let bytes = (2 * n * std::mem::size_of::<f64>()) as f64;
            best = bytes / dot.best;
            Value::Object(vec![
                ("elems", int(n)),
                ("bytes", Value::Num(bytes)),
                ("gbs_best", Value::Num(bytes / dot.best / 1e9)),
                ("gbs_median", Value::Num(bytes / dot.median / 1e9)),
            ])
        })
        .collect();
    (rows, Roofline::new(best))
}

/// One implementation of Figure 9's V-cycle (a handful live at once, so
/// the variants' sizes do not matter).
#[allow(clippy::large_enum_variant)]
enum Solver {
    Hand(HandSolver),
    Snow(SnowSolver),
}

impl Solver {
    fn vcycle(&mut self) -> Result<(), PlanError> {
        match self {
            Solver::Hand(solver) => solver.vcycle(0),
            Solver::Snow(solver) => solver.vcycle(0)?,
        }
        Ok(())
    }
}

/// Figure 9 on one problem at finest size `n`: every implementation is
/// built first, each set-up timed once (`setup_seconds`: the hierarchy,
/// plus the checked plan build of a Snowflake backend), and their
/// V-cycles are timed against each other in rounds
/// (see [`time_rounds`]); then each runs a solve from a zero guess for its
/// residual reduction and report. One row per implementation.
fn solve_rows(problem: &str, n: usize, config: &Config) -> Result<Vec<Value>, String> {
    let on = |imp: &str, e: PlanError| format!("{problem} {n}^3 on {imp}: {e}");
    let mut solvers = config
        .implementations
        .iter()
        .map(|&imp| {
            // Set-up: the hierarchy and, for a Snowflake backend, its plan.
            let spec = poisson(problem, n);
            if imp == "hand" {
                let t0 = Instant::now();
                let hand = HandSolver::new(spec);
                return Ok((imp, Solver::Hand(hand), t0.elapsed().as_secs_f64()));
            }
            let backend = backend_from_name(imp, &BackendOptions::default())
                .map_err(|e| on(imp, e.into()))?;
            let t0 = Instant::now();
            let snow = SnowSolver::build(spec, backend, true).map_err(|e| on(imp, e))?;
            Ok((imp, Solver::Snow(snow), t0.elapsed().as_secs_f64()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut calls: Vec<_> = solvers
        .iter_mut()
        .map(|(imp, solver, _)| || solver.vcycle().map_err(|e| on(imp, e)))
        .collect();
    let samples = time_rounds(config.reps, &mut calls)?;
    let medians: Vec<f64> = samples.iter().map(|s| Timing::of(s).median).collect();
    // `hand` is always the first implementation (see `with_hand`).
    let hand = medians[0];
    solvers
        .into_iter()
        .zip(medians)
        .map(|((imp, solver, setup), median)| {
            let (norms, ops, build, report) = match solver {
                Solver::Hand(mut solver) => {
                    let norms = solver.solve(config.cycles);
                    (norms, Value::Null, Value::Null, Value::Null)
                }
                Solver::Snow(mut solver) => {
                    solver.enable_metrics();
                    let norms = solver.solve(config.cycles).map_err(|e| on(imp, e.into()))?;
                    let report = solver.take_metrics().unwrap_or_default();
                    let plan = solver.plan();
                    (
                        norms,
                        int(plan.len()),
                        Value::Num(plan.build_seconds()),
                        report.to_value(),
                    )
                }
            };
            Ok(Value::Object(vec![
                ("problem", str(problem)),
                ("n", int(n)),
                ("impl", str(imp)),
                ("vcycle_seconds_median", Value::Num(median)),
                ("dof_per_sec", Value::Num((n * n * n) as f64 / median)),
                ("speedup_vs_hand", Value::Num(hand / median)),
                (
                    "residual_reduction",
                    Value::Num(norms[norms.len() - 1] / norms[0]),
                ),
                ("setup_seconds", Value::Num(setup)),
                ("plan_ops", ops),
                ("plan_build_seconds", build),
                ("report", report),
            ]))
        })
        .collect()
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
    let sweep = time(reps, || bench.sweep())?;
    let mut report = RunReport::new();
    bench.sweep_with_report(&mut report)?;
    let points = (n * n * n) as f64;
    Ok(Value::Object(vec![
        ("kernel", str(kind.label())),
        ("impl", str(imp)),
        ("n", int(n)),
        ("seconds_median", Value::Num(sweep.median)),
        ("stencils_per_sec", Value::Num(points / sweep.median)),
        (
            "roofline_stencils_per_sec",
            Value::Num(model.bound_stencils_per_sec(kind)),
        ),
        ("report", report.to_value()),
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

/// The §IV-A ablation of the omp backend on one problem at finest size
/// `n`: multicolor reordering off, timed against the default backend in
/// `reps` rounds of one whole V-cycle each (alternating pairs; see
/// [`time_rounds`]). Both plans are built checked.
fn ablation_row(problem: &str, n: usize, reps: usize) -> Result<Value, PlanError> {
    let solver =
        |backend: OmpBackend| SnowSolver::build(poisson(problem, n), Box::new(backend), true);
    let mut default = solver(OmpBackend::new())?;
    let mut variant = solver(OmpBackend::new().with_multicolor(false))?;
    let mut calls = [&mut default, &mut variant].map(|solver| || solver.vcycle(0));
    let samples = time_rounds(reps, &mut calls)?;
    let slower = samples[0]
        .iter()
        .zip(&samples[1])
        .filter(|(base, var)| var > base)
        .count();
    let (base, var) = (Timing::of(&samples[0]), Timing::of(&samples[1]));
    Ok(Value::Object(vec![
        ("cell", str("omp multicolor off")),
        ("problem", str(problem)),
        ("n", int(n)),
        ("pairs", int(reps.max(1))),
        ("default_seconds_median", Value::Num(base.median)),
        ("variant_seconds_median", Value::Num(var.median)),
        ("variant_over_default", Value::Num(var.median / base.median)),
        ("variant_slower_pairs", int(slower)),
        ("default_seconds_iqr", Value::Num(base.iqr)),
    ]))
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
        .filter(|&c| rows.iter().all(|row| cell(&row[c].1).is_some()))
        .collect();
    let mut lines: Vec<Vec<String>> = vec![columns.iter().map(|&c| first[c].0.into()).collect()];
    lines.extend(rows.iter().map(|row| {
        columns
            .iter()
            .map(|&c| cell(&row[c].1).unwrap_or_default())
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
