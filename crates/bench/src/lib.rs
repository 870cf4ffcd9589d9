//! # snowflake-bench
//!
//! The benchmark harness that regenerates every evaluation artifact of the
//! Snowflake paper (see DESIGN.md's per-experiment index):
//!
//! * `--bin stream`  — Figure 6: modified-STREAM dot bandwidth + the §V-B
//!   Roofline bounds (E1, E5).
//! * `--bin figure7` — Figure 7: stencils/s for CC 7-pt, CC Jacobi and VC
//!   GSRB at a fixed size: hand-optimized baseline vs Snowflake backends
//!   vs Roofline (E2).
//! * `--bin figure8` — Figure 8: VC GSRB smoother time across problem
//!   sizes (E3).
//! * `--bin figure9` — Figure 9: full GMG solver DOF/s, hand vs Snowflake
//!   (E4).
//!
//! Criterion benches mirror the binaries at CI-friendly sizes and add the
//! §IV-A ablations (tiling, multicolor reordering, analysis cost).
//!
//! This library holds the shared kernels-under-test so binaries and
//! benches measure exactly the same code.

use std::fmt;
use std::time::Instant;

use hpgmg::problem::{LevelData, Problem};
use hpgmg::stencils::{apply_op_group, gsrb_smooth_group, jacobi_group, Coeff, Names};
use roofline::StencilKind;
use snowflake_backends::metrics::json;
use snowflake_backends::{
    backend_from_name, Backend, BackendOptions, CJitBackend, Gates, KernelCounters, PlanError,
    RunReport, SolverPlan,
};
use snowflake_core::Result;
use snowflake_grid::GridSet;

/// Best-of-`reps` wall time of `f`, after one untimed warm-up call (the
/// paper's protocol).
pub fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The implementations a figure compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Who {
    /// Hand-optimized baseline (the "HPGMG" bars).
    Hand,
    /// Snowflake on the rayon OpenMP-like backend.
    SnowOmp,
    /// Snowflake on the OpenCL-execution-model simulator.
    SnowOcl,
    /// Snowflake on the sequential compiled backend.
    SnowSeq,
    /// Snowflake through the C JIT (emit C → cc → dlopen).
    SnowCjit,
}

impl Who {
    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            Who::Hand => "HPGMG(hand)",
            Who::SnowOmp => "Snowflake/omp",
            Who::SnowOcl => "Snowflake/oclsim",
            Who::SnowSeq => "Snowflake/seq",
            Who::SnowCjit => "Snowflake/cjit",
        }
    }

    /// Registry name of the backend for Snowflake variants.
    pub fn backend_name(&self) -> Option<&'static str> {
        match self {
            Who::Hand => None,
            Who::SnowOmp => Some("omp"),
            Who::SnowOcl => Some("oclsim"),
            Who::SnowSeq => Some("seq"),
            Who::SnowCjit => Some("cjit"),
        }
    }

    /// Construct the backend for Snowflake variants (via the registry, so
    /// figures and the registry cannot drift apart).
    pub fn backend(&self) -> Option<Box<dyn Backend>> {
        let name = self.backend_name()?;
        Some(backend_from_name(name, &BackendOptions::default()).expect("registry backend"))
    }

    /// The default comparison set for figures (cjit included only when a C
    /// compiler exists).
    pub fn figure_set() -> Vec<Who> {
        let mut v = vec![Who::Hand, Who::SnowOmp, Who::SnowOcl];
        if CJitBackend::available() {
            v.push(Who::SnowCjit);
        }
        v
    }
}

/// Resolve a figure's comparison set from `--backend`: a single named
/// implementation (`hand`, or any registry backend name — including
/// `interp` and `checked`, which the default set skips for speed), or the
/// default [`Who::figure_set`]. Each entry is `(column label, registry
/// backend name)` with `None` meaning the hand-optimized baseline.
/// Unknown names print the registry's [`CoreError`] (which lists the
/// valid names) and exit 2.
///
/// [`CoreError`]: snowflake_core::CoreError
pub fn figure_impls_or_exit(args: &[String]) -> Vec<(String, Option<String>)> {
    match arg_value(args, "--backend") {
        None => Who::figure_set()
            .into_iter()
            .map(|w| (w.label().to_string(), w.backend_name().map(String::from)))
            .collect(),
        Some(name) if name == "hand" => vec![(Who::Hand.label().to_string(), None)],
        Some(name) => {
            if let Err(e) = backend_from_name(&name, &BackendOptions::default()) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            vec![(format!("Snowflake/{name}"), Some(name))]
        }
    }
}

/// A standalone-kernel benchmark instance (Figure 7/8 rows): one operator
/// on one implementation at one size.
pub struct KernelBench {
    /// Interior points updated per sweep (stencil applications).
    pub stencils_per_sweep: u64,
    runner: KernelRunner,
}

#[allow(clippy::large_enum_variant)]
enum KernelRunner {
    Hand {
        lvl: LevelData,
        problem: Problem,
        kind: StencilKind,
    },
    /// A one-operator plan, built through the same gates as the solver's.
    Snow { grids: GridSet, plan: SolverPlan },
}

impl KernelBench {
    /// Build the kernel-under-test.
    ///
    /// `kind` selects the operator (Figure 7's three), `who` the
    /// implementation, `n` the interior size (the paper uses 256).
    pub fn build(kind: StencilKind, who: Who, n: usize) -> Result<KernelBench> {
        Self::build_named(kind, who.backend_name(), n)
    }

    /// Build the kernel-under-test against a registry backend name
    /// (`None` selects the hand-optimized baseline). This is what
    /// `--backend` resolves through, so any [`available_backends`] name
    /// works — not just the figure-set columns.
    ///
    /// [`available_backends`]: snowflake_backends::available_backends
    pub fn build_named(kind: StencilKind, backend: Option<&str>, n: usize) -> Result<KernelBench> {
        let opts = BackendOptions::default();
        Ok(Self::build_named_opts(
            kind,
            backend,
            n,
            &opts,
            Gates::default(),
        )?)
    }

    /// As [`KernelBench::build_named`], threading explicit
    /// [`BackendOptions`] and building the operator as a one-op
    /// [`SolverPlan`] behind `gates` (`--verify`/`--lint`): a refused plan
    /// is a [`PlanError`] carrying the findings, so gated figures refuse
    /// to run it, and the gate counters are stamped into every report
    /// [`KernelBench::sweep_with_report`] fills. The hand baseline has no
    /// plan, so gates do not apply to it.
    pub fn build_named_opts(
        kind: StencilKind,
        backend: Option<&str>,
        n: usize,
        opts: &BackendOptions,
        gates: Gates,
    ) -> std::result::Result<KernelBench, PlanError> {
        let problem = match kind {
            StencilKind::VcGsrb => Problem::poisson_vc(n),
            _ => Problem::poisson_cc(n),
        };
        let stencils_per_sweep = (n * n * n) as u64;
        match backend {
            None => {
                let mut lvl = LevelData::build(&problem, n);
                lvl.x.fill_random(17, -1.0, 1.0);
                lvl.rhs.fill_random(18, -1.0, 1.0);
                Ok(KernelBench {
                    stencils_per_sweep,
                    runner: KernelRunner::Hand { lvl, problem, kind },
                })
            }
            Some(name) => {
                let backend = backend_from_name(name, opts)?;
                let names = Names::level(0);
                let coeff = if problem.variable_coeff {
                    Coeff::Variable
                } else {
                    Coeff::Constant
                };
                let h2inv = (n * n) as f64;
                let group = match kind {
                    StencilKind::Cc7pt => {
                        apply_op_group(&names, &names.res, coeff, problem.a, problem.b, h2inv)
                    }
                    StencilKind::CcJacobi => {
                        jacobi_group(&names, coeff, problem.a, problem.b, h2inv)
                    }
                    StencilKind::VcGsrb => {
                        gsrb_smooth_group(&names, coeff, problem.a, problem.b, h2inv)
                    }
                };
                let mut lvl = LevelData::build(&problem, n);
                lvl.x.fill_random(17, -1.0, 1.0);
                lvl.rhs.fill_random(18, -1.0, 1.0);
                let mut grids = GridSet::new();
                grids.insert(&names.x, lvl.x);
                grids.insert(&names.rhs, lvl.rhs);
                grids.insert(&names.res, lvl.res);
                grids.insert(&names.dinv, lvl.dinv);
                grids.insert(&names.alpha, lvl.alpha);
                grids.insert(&names.beta_x, lvl.beta_x);
                grids.insert(&names.beta_y, lvl.beta_y);
                grids.insert(&names.beta_z, lvl.beta_z);
                let plan = SolverPlan::build_gated(backend, &[(group, grids.shapes())], gates)?;
                Ok(KernelBench {
                    stencils_per_sweep,
                    runner: KernelRunner::Snow { grids, plan },
                })
            }
        }
    }

    /// Execute one sweep of the operator, profiling into `report`.
    ///
    /// Snowflake runners stamp their plan (gate counters included) and
    /// delegate to [`SolverPlan::run_with_report`]; the hand-optimized
    /// baseline has no compiled schedule to introspect, so it is reported
    /// as one call of op 0 under the backend name `"hand"`.
    pub fn sweep_with_report(&mut self, report: &mut RunReport) {
        match &mut self.runner {
            KernelRunner::Hand { .. } => {
                report.set_backend("hand");
                let t0 = Instant::now();
                self.sweep();
                let work = KernelCounters {
                    points: self.stencils_per_sweep,
                    ..KernelCounters::default()
                };
                report.record_op(0, t0.elapsed().as_secs_f64(), work);
            }
            KernelRunner::Snow { grids, plan } => {
                plan.stamp(report);
                plan.run_with_report(0, grids, report)
                    .expect("compiled kernel run");
            }
        }
    }

    /// Execute one sweep of the operator.
    pub fn sweep(&mut self) {
        match &mut self.runner {
            KernelRunner::Hand { lvl, problem, kind } => match kind {
                StencilKind::Cc7pt => {
                    hpgmg::hand::apply_boundary(&mut lvl.x, lvl.n);
                    // Move res out so it can be written while lvl is read.
                    let mut res = std::mem::replace(&mut lvl.res, snowflake_grid::Grid::new(&[1]));
                    hpgmg::hand::apply_op(&mut res, &lvl.x, lvl, problem.a, problem.b);
                    lvl.res = res;
                }
                StencilKind::CcJacobi => hpgmg::hand::smooth_jacobi(lvl, problem.a, problem.b),
                StencilKind::VcGsrb => hpgmg::hand::smooth_gsrb(lvl, problem.a, problem.b),
            },
            KernelRunner::Snow { grids, plan } => {
                plan.run(0, grids).expect("compiled kernel run");
            }
        }
    }

    /// Measure stencils/second (best of `reps` sweeps after warm-up).
    pub fn stencils_per_sec(&mut self, reps: usize) -> f64 {
        // `time_best` needs a closure capturing self mutably.
        self.sweep();
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            self.sweep();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        self.stencils_per_sweep as f64 / best
    }

    /// Measure seconds per sweep (Figure 8 presentation).
    pub fn seconds_per_sweep(&mut self, reps: usize) -> f64 {
        self.stencils_per_sweep as f64 / self.stencils_per_sec(reps)
    }
}

/// Fixed-width table printing used by the figure binaries.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncol = header.len();
    let mut width = vec![0usize; ncol];
    for (c, h) in header.iter().enumerate() {
        width[c] = h.len();
    }
    for row in rows {
        for (c, cell) in row.iter().enumerate() {
            width[c] = width[c].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(c, s)| format!("{:>w$}", s, w = width[c]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        "-".repeat(width.iter().sum::<usize>() + 2 * (ncol - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// A malformed command-line flag value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError {
    /// The flag whose value failed to parse.
    pub flag: String,
    /// The offending value.
    pub value: String,
    /// What was expected (e.g. "an unsigned integer").
    pub expected: &'static str,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad value {:?} for {}: expected {}",
            self.value, self.flag, self.expected
        )
    }
}

impl std::error::Error for UsageError {}

/// Parse `--flag value` style arguments (tiny, dependency-free).
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Is a bare boolean flag (e.g. `--verify`) present?
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The plan gates a figure run asked for: `--verify` and `--lint`.
pub fn gates_from_args(args: &[String]) -> Gates {
    Gates {
        verify: arg_flag(args, "--verify"),
        lint: arg_flag(args, "--lint"),
    }
}

/// Parse a usize flag with default; a present-but-malformed value is a
/// usage error, not a panic.
pub fn arg_usize(
    args: &[String],
    flag: &str,
    default: usize,
) -> std::result::Result<usize, UsageError> {
    match arg_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| UsageError {
            flag: flag.to_string(),
            value: v,
            expected: "an unsigned integer",
        }),
    }
}

/// Binary front-end for [`arg_usize`]: print the usage error and exit 2.
pub fn arg_usize_or_exit(args: &[String], flag: &str, default: usize) -> usize {
    arg_usize(args, flag, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Parse a finest-grid size flag: the multigrid hierarchy halves down to
/// [`hpgmg::COARSEST_N`], so anything but a power of two at least that
/// large is a usage error.
pub fn arg_size(
    args: &[String],
    flag: &str,
    default: usize,
) -> std::result::Result<usize, UsageError> {
    let n = arg_usize(args, flag, default)?;
    if n.is_power_of_two() && n >= hpgmg::COARSEST_N {
        Ok(n)
    } else {
        Err(UsageError {
            flag: flag.to_string(),
            value: n.to_string(),
            expected: "a power of two >= 4 (the coarsest level size)",
        })
    }
}

/// Binary front-end for [`arg_size`]: print the usage error and exit 2.
pub fn arg_size_or_exit(args: &[String], flag: &str, default: usize) -> usize {
    arg_size(args, flag, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// One row of a figure's `--metrics-json` output: the measured value plus
/// the [`RunReport`] collected from an instrumented sweep.
pub struct MetricsRow {
    /// Operator / row label (e.g. "VC GSRB" or "64^3").
    pub operator: String,
    /// Implementation column label.
    pub implementation: String,
    /// The figure's headline measurement for this cell.
    pub value: f64,
    /// Execution report, when the implementation produced one.
    pub report: Option<RunReport>,
}

/// Render a figure's metrics rows as a JSON document (see README, metrics
/// schema): `{"figure": N, "size": n, "rows": [{"operator", "impl",
/// "value", "report"}…]}`.
pub fn metrics_json(figure: u64, size: usize, rows: &[MetricsRow]) -> String {
    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            let report = match &r.report {
                Some(rep) => rep.to_json(),
                None => "null".to_string(),
            };
            format!(
                "{{\"operator\":{},\"impl\":{},\"value\":{},\"report\":{}}}",
                json::escape(&r.operator),
                json::escape(&r.implementation),
                json::number(r.value),
                report
            )
        })
        .collect();
    format!(
        "{{\"figure\":{figure},\"size\":{size},\"rows\":[{}]}}",
        rows_json.join(",")
    )
}

/// Write a figure's metrics document to `path`.
pub fn write_metrics_json(
    path: &str,
    figure: u64,
    size: usize,
    rows: &[MetricsRow],
) -> std::io::Result<()> {
    std::fs::write(path, metrics_json(figure, size, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_bench_builds_and_sweeps_all_kinds() {
        for kind in StencilKind::all() {
            for who in [Who::Hand, Who::SnowSeq] {
                let mut kb = KernelBench::build(kind, who, 8).unwrap();
                kb.sweep();
                assert_eq!(kb.stencils_per_sweep, 512);
            }
        }
    }

    fn gated_report(kind: StencilKind, backend: Option<&str>, gates: Gates) -> RunReport {
        let opts = BackendOptions::default();
        let mut kb = KernelBench::build_named_opts(kind, backend, 8, &opts, gates).unwrap();
        let mut report = RunReport::new();
        kb.sweep_with_report(&mut report);
        report
    }

    #[test]
    fn verified_build_stamps_certificate_counters_into_reports() {
        let gates = Gates {
            verify: true,
            lint: false,
        };
        let stats = gated_report(StencilKind::VcGsrb, Some("seq"), gates).verify;
        assert!(stats.stencils_checked > 0);
        assert!(stats.accesses_proved > 0);
        assert_eq!(stats.witnesses, 0);
        // The hand baseline has no plan to certify.
        let hand = gated_report(StencilKind::Cc7pt, None, gates);
        assert_eq!(hand.verify, Default::default());
    }

    #[test]
    fn linted_build_stamps_lint_counters_into_reports() {
        let gates = Gates {
            verify: false,
            lint: true,
        };
        // Every figure-7 kernel must lint clean with zero findings.
        for kind in StencilKind::all() {
            let stats = gated_report(kind, Some("seq"), gates).lint;
            assert_eq!(stats.rules_run, 7, "{kind:?}: one inventory-mode lint");
            assert_eq!(stats.lints, 0, "{kind:?}");
        }
        // The hand baseline has no DSL program to lint.
        let hand = gated_report(StencilKind::Cc7pt, None, gates);
        assert_eq!(hand.lint, Default::default());
    }

    #[test]
    fn rates_are_positive() {
        let mut kb = KernelBench::build(StencilKind::Cc7pt, Who::SnowOmp, 8).unwrap();
        assert!(kb.stencils_per_sec(2) > 0.0);
        assert!(kb.seconds_per_sweep(2) > 0.0);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--size", "64", "--reps", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_usize(&args, "--size", 32), Ok(64));
        assert_eq!(arg_usize(&args, "--reps", 3), Ok(5));
        assert_eq!(arg_usize(&args, "--missing", 9), Ok(9));
        assert!(arg_flag(&args, "--size"));
        assert!(!arg_flag(&args, "--verify"));
    }

    #[test]
    fn malformed_flag_is_a_usage_error_not_a_panic() {
        let args: Vec<String> = ["--size", "banana"].iter().map(|s| s.to_string()).collect();
        let err = arg_usize(&args, "--size", 32).unwrap_err();
        assert_eq!(err.flag, "--size");
        assert_eq!(err.value, "banana");
        assert!(err.to_string().contains("--size"));
        // A flag at the end with no value falls back to the default.
        let args: Vec<String> = vec!["--size".into()];
        assert_eq!(arg_usize(&args, "--size", 32), Ok(32));
    }

    #[test]
    fn size_flag_must_be_a_multigrid_size() {
        let size = |v: &str| arg_size(&["--size".to_string(), v.to_string()], "--size", 8);
        for bad in ["12", "2", "0"] {
            let err = size(bad).unwrap_err();
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("power of two"), "{err}");
        }
        assert_eq!(size("8"), Ok(8));
        assert_eq!(size("4"), Ok(hpgmg::COARSEST_N));
        assert_eq!(size("banana").unwrap_err().expected, "an unsigned integer");
        assert_eq!(arg_size(&[], "--size", 64), Ok(64));
    }

    /// The figure7 `--metrics-json` document, produced through the same
    /// helpers the binary uses, parses back with every field intact.
    #[test]
    fn metrics_json_round_trips_a_figure7_shaped_document() {
        let mut kb = KernelBench::build(StencilKind::VcGsrb, Who::SnowSeq, 8).unwrap();
        let mut report = RunReport::new();
        kb.sweep_with_report(&mut report);
        let rows = vec![
            MetricsRow {
                operator: "VC GSRB".into(),
                implementation: Who::SnowSeq.label().into(),
                value: 1.25e8,
                report: Some(report),
            },
            MetricsRow {
                operator: "VC GSRB".into(),
                implementation: Who::Hand.label().into(),
                value: 2.0e8,
                report: None,
            },
        ];
        let doc = json::parse(&metrics_json(7, 8, &rows)).expect("valid JSON");
        assert_eq!(doc.get("figure").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("size").unwrap().as_u64(), Some(8));
        let parsed_rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(parsed_rows.len(), 2);
        let first = &parsed_rows[0];
        assert_eq!(first.get("operator").unwrap().as_str(), Some("VC GSRB"));
        assert_eq!(first.get("impl").unwrap().as_str(), Some("Snowflake/seq"));
        assert_eq!(first.get("value").unwrap().as_f64(), Some(1.25e8));
        let rep = first.get("report").unwrap();
        assert_eq!(rep.get("backend").unwrap().as_str(), Some("seq"));
        assert_eq!(rep.get("runs").unwrap().as_u64(), Some(1));
        // The GSRB group updates each interior point twice (red + black
        // passes) plus boundary faces, so points ≥ the interior count.
        let points = rep
            .get("kernels")
            .unwrap()
            .get("points")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(points >= 512, "points = {points}");
        let ops = rep.get("ops").unwrap().as_array().unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].get("calls").unwrap().as_u64(), Some(1));
        assert_eq!(parsed_rows[1].get("report"), Some(&json::Value::Null));
    }
}
