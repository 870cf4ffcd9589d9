//! # snowflake-bench
//!
//! `bench_summary`, the one evaluation command ([`eval`]: every
//! experiment of the paper's §V into `BENCH_solver.json`,
//! `BENCH_kernels.json` and `results/`), and the `snowlint` driver. The
//! library holds the kernels under test ([`KernelBench`]), the timer
//! ([`time_rounds`]) and the command-line helpers both binaries share.

use std::fmt;
use std::time::Instant;

use hpgmg::problem::{LevelData, Problem};
use hpgmg::stencils::{apply_op_group, gsrb_smooth_group, jacobi_group, Coeff, Names};
use roofline::StencilKind;
use snowflake_backends::{Backend, KernelCounters, PlanError, RunReport, SolverPlan};
use snowflake_core::Result;
use snowflake_grid::GridSet;

pub mod eval;

/// The best, the median and the interquartile range of a set of timed
/// calls, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Fastest call.
    pub best: f64,
    /// Median call.
    pub median: f64,
    /// Third quartile minus first quartile.
    pub iqr: f64,
}

impl Timing {
    /// Summarize a non-empty set of samples; quartiles interpolate
    /// linearly between order statistics.
    fn of(samples: &[f64]) -> Timing {
        let mut samples = samples.to_vec();
        samples.sort_by(f64::total_cmp);
        let last = samples.len() - 1;
        // The `q`-th quartile lies `q·last/4` order statistics in.
        let quartile = |q: usize| {
            let (lo, quarters) = (q * last / 4, q * last % 4);
            let hi = (lo + 1).min(last);
            samples[lo] + quarters as f64 / 4.0 * (samples[hi] - samples[lo])
        };
        Timing {
            best: samples[0],
            median: quartile(2),
            iqr: quartile(3) - quartile(1),
        }
    }
}

/// Seconds one call of `f` takes.
fn timed<E>(f: &mut impl FnMut() -> std::result::Result<(), E>) -> std::result::Result<f64, E> {
    let t0 = Instant::now();
    f()?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Time `calls` against each other in rounds: one untimed warm-up call of
/// each (the paper's protocol), then `reps` rounds (at least one) that run
/// every call once, round `r` starting at call `r mod k` of the `k`, so a
/// host that drifts during the run slows every call alike. One call is a
/// plain repetition and two are alternating pairs. Returns each call's
/// seconds in round order. The first error stops the timing.
pub fn time_rounds<E>(
    reps: usize,
    calls: &mut [impl FnMut() -> std::result::Result<(), E>],
) -> std::result::Result<Vec<Vec<f64>>, E> {
    for call in calls.iter_mut() {
        call()?;
    }
    let k = calls.len();
    let mut samples = vec![Vec::new(); k];
    for round in 0..reps.max(1) {
        for i in 0..k {
            let c = (round + i) % k;
            samples[c].push(timed(&mut calls[c])?);
        }
    }
    Ok(samples)
}

/// [`time_rounds`] of the one call `f`: a warm-up, then `reps` timed
/// repetitions.
pub fn time<E>(
    reps: usize,
    f: impl FnMut() -> std::result::Result<(), E>,
) -> std::result::Result<Timing, E> {
    Ok(Timing::of(&time_rounds(reps, &mut [f])?[0]))
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
    /// Build one of Figure 7's operators at interior size `n` (the paper
    /// uses 256): on the hand-optimized baseline when `backend` is `None`,
    /// otherwise as a one-op [`SolverPlan`], through the plan check: a
    /// refused plan is a [`PlanError`] carrying the findings, and the
    /// check's counters are stamped into every report
    /// [`KernelBench::sweep_with_report`] fills.
    pub fn build(
        kind: StencilKind,
        backend: Option<Box<dyn Backend>>,
        n: usize,
    ) -> std::result::Result<KernelBench, PlanError> {
        let problem = match kind {
            StencilKind::VcGsrb => Problem::poisson_vc(n),
            _ => Problem::poisson_cc(n),
        };
        let mut lvl = LevelData::build(&problem, n);
        lvl.x.fill_random(17, -1.0, 1.0);
        lvl.rhs.fill_random(18, -1.0, 1.0);
        let points = (n * n * n) as u64;
        let Some(backend) = backend else {
            return Ok(KernelBench {
                stencils_per_sweep: points,
                runner: KernelRunner::Hand { lvl, problem, kind },
            });
        };
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
            StencilKind::CcJacobi => jacobi_group(&names, coeff, problem.a, problem.b, h2inv),
            StencilKind::VcGsrb => gsrb_smooth_group(&names, coeff, problem.a, problem.b, h2inv),
        };
        let mut grids = GridSet::new();
        grids.insert(&names.x, lvl.x);
        grids.insert(&names.rhs, lvl.rhs);
        grids.insert(&names.res, lvl.res);
        grids.insert(&names.dinv, lvl.dinv);
        grids.insert(&names.alpha, lvl.alpha);
        grids.insert(&names.beta_x, lvl.beta_x);
        grids.insert(&names.beta_y, lvl.beta_y);
        grids.insert(&names.beta_z, lvl.beta_z);
        let plan = SolverPlan::build_checked(backend, &[(group, grids.shapes())])?;
        Ok(KernelBench {
            stencils_per_sweep: points,
            runner: KernelRunner::Snow { grids, plan },
        })
    }

    /// Execute one sweep of the operator, profiling into `report`.
    ///
    /// Snowflake runners stamp their plan (plan-check counters included) and
    /// delegate to [`SolverPlan::run_with_report`]; the hand-optimized
    /// baseline has no compiled schedule to introspect, so it is reported
    /// as one call of op 0 under the backend name `"hand"`.
    pub fn sweep_with_report(&mut self, report: &mut RunReport) -> Result<()> {
        match &mut self.runner {
            KernelRunner::Hand { .. } => {
                report.set_backend("hand");
                let t0 = Instant::now();
                self.sweep()?;
                let work = KernelCounters {
                    points: self.stencils_per_sweep,
                    ..KernelCounters::default()
                };
                report.record_op(0, t0.elapsed().as_secs_f64(), work);
                Ok(())
            }
            KernelRunner::Snow { grids, plan } => {
                plan.stamp(report);
                plan.run_with_report(0, grids, report)
            }
        }
    }

    /// Execute one sweep of the operator.
    pub fn sweep(&mut self) -> Result<()> {
        match &mut self.runner {
            KernelRunner::Hand { lvl, problem, kind } => {
                match kind {
                    StencilKind::Cc7pt => {
                        hpgmg::hand::apply_boundary(&mut lvl.x, lvl.n);
                        // Move res out so it can be written while lvl is read.
                        let mut res =
                            std::mem::replace(&mut lvl.res, snowflake_grid::Grid::new(&[1]));
                        hpgmg::hand::apply_op(&mut res, &lvl.x, lvl, problem.a, problem.b);
                        lvl.res = res;
                    }
                    StencilKind::CcJacobi => hpgmg::hand::smooth_jacobi(lvl, problem.a, problem.b),
                    StencilKind::VcGsrb => hpgmg::hand::smooth_gsrb(lvl, problem.a, problem.b),
                }
                Ok(())
            }
            KernelRunner::Snow { grids, plan } => plan.run(0, grids),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_backends::SequentialBackend;

    fn seq() -> Box<dyn Backend> {
        Box::new(SequentialBackend::new())
    }

    #[test]
    fn time_rounds_warms_up_then_rotates_the_first_call() {
        let log = std::cell::RefCell::new(String::new());
        let call = |name| {
            let log = &log;
            move || {
                log.borrow_mut().push(name);
                Ok::<(), ()>(())
            }
        };
        // The warm-up round, then four rounds, round r starting at call
        // r mod k: one call repeats, two alternate, three rotate.
        for (k, order) in [
            (1, "a|a|a|a|a"),
            (2, "ab|ab|ba|ab|ba"),
            (3, "abc|abc|bca|cab|abc"),
        ] {
            log.borrow_mut().clear();
            let mut calls: Vec<_> = "abc".chars().take(k).map(call).collect();
            let samples = time_rounds(4, &mut calls).unwrap();
            assert_eq!(*log.borrow(), order.replace('|', ""), "k = {k}");
            assert!(samples.iter().all(|s| s.len() == 4));
            let t = Timing::of(&samples[0]);
            assert!(0.0 <= t.best && t.best <= t.median);
        }
        // The first error stops the timing: here the second call of `b`,
        // the first timed one.
        log.borrow_mut().clear();
        let fail_second_b = |name| {
            let log = &log;
            move || {
                log.borrow_mut().push(name);
                if log.borrow().matches('b').count() == 2 {
                    Err("second b call")
                } else {
                    Ok(())
                }
            }
        };
        let mut calls: Vec<_> = "abc".chars().map(fail_second_b).collect();
        assert_eq!(time_rounds(3, &mut calls), Err("second b call"));
        assert_eq!(*log.borrow(), "abcab");
    }

    #[test]
    fn timing_quantiles_interpolate_between_samples() {
        let t = Timing::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((t.best, t.median, t.iqr), (1.0, 2.5, 1.5));
        let t = Timing::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((t.best, t.median, t.iqr), (1.0, 3.0, 2.0));
        let one = Timing::of(&[7.0]);
        assert_eq!((one.best, one.median, one.iqr), (7.0, 7.0, 0.0));
    }

    #[test]
    fn kernel_bench_builds_and_sweeps_all_kinds() {
        for kind in StencilKind::all() {
            for backend in [None, Some(seq())] {
                let mut kb = KernelBench::build(kind, backend, 8).unwrap();
                kb.sweep().unwrap();
                assert_eq!(kb.stencils_per_sweep, 512);
            }
        }
    }

    fn checked_report(kind: StencilKind, backend: Option<Box<dyn Backend>>) -> RunReport {
        let mut kb = KernelBench::build(kind, backend, 8).unwrap();
        let mut report = RunReport::new();
        kb.sweep_with_report(&mut report).unwrap();
        report
    }

    #[test]
    fn checked_build_stamps_plan_check_counters_into_reports() {
        // Every figure-7 kernel certifies and lints with zero findings.
        for kind in StencilKind::all() {
            let stats = checked_report(kind, Some(seq())).verify;
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
            std::iter::once("snowlint")
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

    /// A Figure 7 sweep reports its one op: the counters the
    /// document carries, read off the report itself.
    #[test]
    fn kernel_sweep_report_has_one_op_row() {
        let mut kb = KernelBench::build(StencilKind::VcGsrb, Some(seq()), 8).unwrap();
        let mut report = RunReport::new();
        kb.sweep_with_report(&mut report).unwrap();
        assert_eq!(report.backend, "seq");
        assert_eq!(report.runs, 1);
        // The GSRB group updates each interior point twice (red + black
        // passes) plus boundary faces, so points ≥ the interior count.
        assert!(report.kernels.points >= 512, "{:?}", report.kernels);
        let calls: Vec<u64> = report.ops.values().map(|row| row.calls).collect();
        assert_eq!(calls, vec![1]);
    }
}
