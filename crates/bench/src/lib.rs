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
    backend_from_name, Backend, BackendOptions, CJitBackend, KernelCounters, PlanError, RunReport,
    SolverPlan,
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
    /// A one-operator plan, built through the same plan check as the
    /// solver's.
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
        Ok(Self::build_named_opts(kind, backend, n, &opts, false)?)
    }

    /// As [`KernelBench::build_named`], threading explicit
    /// [`BackendOptions`] and building the operator as a one-op
    /// [`SolverPlan`], checked when `verify` is set (`--verify`): a
    /// refused plan is a [`PlanError`] carrying the findings, so checked
    /// figures refuse to run it, and the plan check's counters are stamped
    /// into every report [`KernelBench::sweep_with_report`] fills. The
    /// hand baseline has no plan, so the check does not apply to it.
    pub fn build_named_opts(
        kind: StencilKind,
        backend: Option<&str>,
        n: usize,
        opts: &BackendOptions,
        verify: bool,
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
                let ops = [(group, grids.shapes())];
                let plan = if verify {
                    SolverPlan::build_checked(backend, &ops)?
                } else {
                    SolverPlan::build(backend, &ops)?
                };
                Ok(KernelBench {
                    stencils_per_sweep,
                    runner: KernelRunner::Snow { grids, plan },
                })
            }
        }
    }

    /// Execute one sweep of the operator, profiling into `report`.
    ///
    /// Snowflake runners stamp their plan (plan-check counters included) and
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
        let stencils = self.stencils_per_sweep as f64;
        stencils / time_best(reps, || self.sweep())
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

/// A malformed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UsageError {
    /// A flag's value failed to parse.
    BadValue {
        /// The flag whose value failed to parse.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected (e.g. "an unsigned integer").
        expected: &'static str,
    },
    /// An argument the binary does not take, such as a misspelt flag.
    Unknown(String),
    /// A flag that takes a value came last, with none after it.
    MissingValue(String),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value {value:?} for {flag}: expected {expected}"),
            UsageError::Unknown(arg) => write!(f, "unknown argument {arg:?}"),
            UsageError::MissingValue(flag) => write!(f, "missing value for {flag}"),
        }
    }
}

impl std::error::Error for UsageError {}

/// Print a usage error and exit 2: the binaries' front end for every
/// `Result<_, UsageError>`.
pub fn or_exit<T>(parsed: std::result::Result<T, UsageError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Check that every argument after the program name is one the binary
/// takes: a `valued` flag with the value after it, or a bare `switch`.
/// Anything else is [`UsageError::Unknown`], so a misspelt `--verfy`
/// cannot silently run an unchecked plan, and a valued flag with nothing
/// after it is [`UsageError::MissingValue`] rather than its default.
pub fn check_args(
    args: &[String],
    valued: &[&str],
    switches: &[&str],
) -> std::result::Result<(), UsageError> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(UsageError::MissingValue(arg.clone()));
            }
        } else if !switches.contains(&arg.as_str()) {
            return Err(UsageError::Unknown(arg.clone()));
        }
    }
    Ok(())
}

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

/// Parse a usize flag with default; a present-but-malformed value is a
/// usage error, not a panic.
pub fn arg_usize(
    args: &[String],
    flag: &str,
    default: usize,
) -> std::result::Result<usize, UsageError> {
    match arg_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| UsageError::BadValue {
            flag: flag.to_string(),
            value: v,
            expected: "an unsigned integer",
        }),
    }
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
        Err(UsageError::BadValue {
            flag: flag.to_string(),
            value: n.to_string(),
            expected: "a power of two >= 4 (the coarsest level size)",
        })
    }
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

    fn checked_report(kind: StencilKind, backend: Option<&str>) -> RunReport {
        let opts = BackendOptions::default();
        let mut kb = KernelBench::build_named_opts(kind, backend, 8, &opts, true).unwrap();
        let mut report = RunReport::new();
        kb.sweep_with_report(&mut report);
        report
    }

    #[test]
    fn checked_build_stamps_plan_check_counters_into_reports() {
        // Every figure-7 kernel certifies and lints with zero findings.
        for kind in StencilKind::all() {
            let stats = checked_report(kind, Some("seq")).verify;
            assert!(stats.stencils_checked > 0, "{kind:?}");
            assert!(stats.accesses_proved > 0, "{kind:?}");
            assert_eq!(stats.rules_run, 7, "{kind:?}: one inventory-mode lint");
            assert_eq!(stats.warnings, 0, "{kind:?}");
        }
        // The hand baseline has no plan to check.
        let hand = checked_report(StencilKind::Cc7pt, None);
        assert_eq!(hand.verify, Default::default());
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
        assert_eq!(
            err,
            UsageError::BadValue {
                flag: "--size".into(),
                value: "banana".into(),
                expected: "an unsigned integer",
            }
        );
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
            assert!(err.to_string().contains(&format!("{bad:?}")), "{err}");
            assert!(err.to_string().contains("power of two"), "{err}");
        }
        assert_eq!(size("8"), Ok(8));
        assert_eq!(size("4"), Ok(hpgmg::COARSEST_N));
        let err = size("banana").unwrap_err().to_string();
        assert!(err.contains("an unsigned integer"), "{err}");
        assert_eq!(arg_size(&[], "--size", 64), Ok(64));
    }

    #[test]
    fn unknown_arguments_are_usage_errors() {
        let argv = |rest: &[&str]| -> Vec<String> {
            std::iter::once("figure9")
                .chain(rest.iter().copied())
                .map(String::from)
                .collect()
        };
        let check = |rest: &[&str]| check_args(&argv(rest), &["--size", "--out"], &["--verify"]);
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(
            check(&["--size", "8", "--verify", "--out", "x.json"]),
            Ok(())
        );
        // A value is never read as a flag, even when it looks like one.
        assert_eq!(check(&["--out", "--verfy"]), Ok(()));
        let err = check(&["--size", "8", "--verfy"]).unwrap_err();
        assert_eq!(err, UsageError::Unknown("--verfy".into()));
        assert_eq!(err.to_string(), "unknown argument \"--verfy\"");
        assert_eq!(check(&["8"]), Err(UsageError::Unknown("8".into())));
        // A valued flag that comes last has no value: not its default.
        let err = check(&["--verify", "--size"]).unwrap_err();
        assert_eq!(err, UsageError::MissingValue("--size".into()));
        assert_eq!(err.to_string(), "missing value for --size");
    }

    /// The `--metrics-json` document, pinned byte for byte: a row with a
    /// report and the hand baseline's row without one.
    #[test]
    fn metrics_json_matches_the_golden_document() {
        let mut report = RunReport::new();
        report.set_backend("seq");
        let work = KernelCounters {
            points: 512,
            tiles: 2,
            ..KernelCounters::default()
        };
        report.record_op(0, 0.25, work);
        let report_json = report.to_json();
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
                value: f64::NAN,
                report: None,
            },
        ];
        let golden = [
            r#"{"figure":7,"size":8,"rows":["#,
            r#"{"operator":"VC GSRB","impl":"Snowflake/seq","value":125000000,"report":"#,
            &report_json,
            r#"},{"operator":"VC GSRB","impl":"HPGMG(hand)","value":null,"report":null}]}"#,
        ]
        .concat();
        assert_eq!(metrics_json(7, 8, &rows), golden);
        assert!(report_json.starts_with(r#"{"backend":"seq","runs":1,"#));
    }

    /// A figure7-shaped sweep reports its one op: the counters the
    /// document carries, read off the report itself.
    #[test]
    fn kernel_sweep_report_has_one_op_row() {
        let mut kb = KernelBench::build(StencilKind::VcGsrb, Who::SnowSeq, 8).unwrap();
        let mut report = RunReport::new();
        kb.sweep_with_report(&mut report);
        assert_eq!(report.backend, "seq");
        assert_eq!(report.runs, 1);
        // The GSRB group updates each interior point twice (red + black
        // passes) plus boundary faces, so points ≥ the interior count.
        assert!(report.kernels.points >= 512, "{:?}", report.kernels);
        let calls: Vec<u64> = report.ops.values().map(|row| row.calls).collect();
        assert_eq!(calls, vec![1]);
    }
}
