//! Solver benchmark for the Snowflake HPGMG reproduction.
//!
//! A run times multigrid V-cycles on a 64³ Poisson problem (the paper's
//! Figure 9 configuration: GSRB smoothing, two pre- and post-smooths,
//! piecewise-constant interpolation, smoother bottom solve) with all five
//! implementations in one process: the hand-optimized baseline (`hand`) and
//! the Snowflake solver compiled by each backend (`seq`, `omp`, `oclsim`,
//! `cjit`). The workload picks the operator: `vc` (variable coefficients,
//! the paper's problem) or `cc` (constant coefficients, where every group
//! folds to a constant-weight linear stencil).
//!
//! ```text
//! perfbench --workload <vc|cc> --seed <n> --seconds <s> [--trace <0|1>]
//! ```
//!
//! The seed draws the initial guess. The timed loop runs one V-cycle of each
//! implementation in turn, so all five sample the same machine states on a
//! shared host. `--trace 0` reports the end-to-end metrics: the median
//! V-cycle latency per implementation, and the median time to set up all
//! five (build the level hierarchies, compile the plans). Tail percentiles
//! are not reported: on a shared host they follow co-tenant load more than
//! the code, swinging by more than half between identical runs.
//! `--trace 1` instead drives the same V-cycles operator by operator with a
//! span around each, replays the compile pipeline stage by stage (analysis,
//! lower, specialize, emit, cc, dlopen, tune) and reports that ledger.
//!
//! Every run checks its outputs: each backend's first V-cycle must agree
//! with the hand baseline's, every first cycle must contract the residual,
//! and every solver must converge to the manufactured discrete solution.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hpgmg::stencils::Names;
use hpgmg::{hand, HandSolver, Problem, SnowSolver, BOTTOM_SMOOTHS, SMOOTHS_PER_LEG};
use snowflake_analysis::{greedy_phases, is_parallel_safe, ResolvedStencil};
use snowflake_backends::codegen_c::emit_c;
use snowflake_backends::specialize::specialize_lowered;
use snowflake_backends::{backend_from_name, BackendOptions, CJitBackend, RunReport, SolverPlan};
use snowflake_core::{ShapeMap, StencilGroup};
use snowflake_grid::{Grid, GridSet};
use snowflake_ir::{lower_group, LowerOptions};

/// Finest-level interior cells per side. The finest level's nine grids
/// (about 20 MB) are far larger than a core's private caches, so the
/// smoothers stream their operands as in the paper's memory-bound runs.
const N: usize = 64;
/// Timed set-ups of all five implementations per run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 9;
/// Fewest timed V-cycles per run, however short `--seconds` is: enough to
/// converge from the random guess to round-off.
const MIN_CYCLES: usize = 20;
/// Largest first-cycle residual ratio accepted (V(2,2) multigrid contracts
/// by about 0.1 per cycle).
const CONTRACTION: f64 = 0.25;
/// Largest interior difference accepted between two implementations after
/// one V-cycle from the same guess (values are O(1)).
const AGREE_TOL: f64 = 1e-9;
/// Largest final error accepted against the exact discrete solution.
const ERROR_TOL: f64 = 1e-8;

const WORKLOADS: [&str; 2] = ["vc", "cc"];
/// Every implementation a run measures; the hand baseline is the reference.
const IMPLS: [&str; 5] = ["hand", "seq", "omp", "oclsim", "cjit"];

type Res<T> = Result<T, String>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<Res<&str>> {
        let i = argv.iter().position(|a| a == flag)?;
        Some(
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value")),
        )
    };
    let required = |flag: &str| value(flag).unwrap_or(Err(format!("missing {flag}")));
    let workload = required("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}, expected one of {WORKLOADS:?}"
        ));
    }
    let seed = required("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match value("--trace").transpose()? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One implementation of the multigrid solver under test.
enum Solver {
    Hand(Box<HandSolver>),
    Snow(Box<SnowSolver>),
}

impl Solver {
    /// Build the level hierarchy and, for Snowflake, compile the plan: the
    /// set-up a user of `workload` pays before the first cycle.
    fn build(workload: &str, problem: Problem) -> Res<Self> {
        if workload == "hand" {
            return Ok(Solver::Hand(Box::new(HandSolver::new(problem))));
        }
        let backend =
            backend_from_name(workload, &BackendOptions::default()).map_err(|e| e.to_string())?;
        let solver =
            SnowSolver::new(problem, backend).map_err(|e| format!("{workload} set-up: {e}"))?;
        Ok(Solver::Snow(Box::new(solver)))
    }

    fn name(&self) -> &'static str {
        match self {
            Solver::Hand(_) => "hand",
            Solver::Snow(s) => s.backend_name(),
        }
    }

    fn x0(&self) -> &Grid {
        match self {
            Solver::Hand(h) => &h.levels[0].x,
            Solver::Snow(s) => s
                .grids
                .get(&Names::level(0).x)
                .expect("hierarchy holds x_0"),
        }
    }

    fn x0_mut(&mut self) -> &mut Grid {
        match self {
            Solver::Hand(h) => &mut h.levels[0].x,
            Solver::Snow(s) => s
                .grids
                .get_mut(&Names::level(0).x)
                .expect("hierarchy holds x_0"),
        }
    }

    fn vcycle(&mut self) -> Res<()> {
        match self {
            Solver::Hand(h) => {
                h.vcycle(0);
                Ok(())
            }
            Solver::Snow(s) => s.vcycle(0).map_err(|e| e.to_string()),
        }
    }

    fn residual_norm(&mut self) -> Res<f64> {
        match self {
            Solver::Hand(h) => Ok(h.residual_norm()),
            Solver::Snow(s) => s.residual_norm().map_err(|e| e.to_string()),
        }
    }

    fn error_norm(&self) -> f64 {
        match self {
            Solver::Hand(h) => h.error_norm(),
            Solver::Snow(s) => s.error_norm(),
        }
    }

    /// One V-cycle driven operator by operator, each inside a span. Same
    /// operator sequence as `vcycle` (checked bitwise by
    /// `traced_matches_untraced`).
    fn traced_vcycle(&mut self, ops: &OpIndex, ledger: &mut OpLedger) -> Res<()> {
        let t = Instant::now();
        match self {
            Solver::Hand(h) => hand_vcycle(h, 0, ledger),
            Solver::Snow(s) => {
                // The plan borrows the solver; lend it the grids for the cycle.
                let mut grids = std::mem::take(&mut s.grids);
                let result = snow_vcycle(s.plan(), ops, &mut grids, s.sizes.len(), 0, ledger);
                s.grids = grids;
                result?;
            }
        }
        ledger.cycles += 1;
        ledger.cycle_seconds += t.elapsed().as_secs_f64();
        Ok(())
    }
}

/// Operator kinds of one V-cycle: the rows of the per-op ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Smooth,
    Residual,
    Restrict,
    Interp,
    Bottom,
}

impl Op {
    fn label(self) -> &'static str {
        match self {
            Op::Smooth => "smooth",
            Op::Residual => "residual",
            Op::Restrict => "restrict",
            Op::Interp => "interp",
            Op::Bottom => "bottom",
        }
    }
}

/// Plan index of each operator a V-cycle dispatches, keyed by (kind, level).
type OpIndex = BTreeMap<(Op, usize), usize>;

/// Accumulated span time and calls per (operator, level).
#[derive(Default)]
struct OpLedger {
    spans: BTreeMap<(Op, usize), (f64, u64)>,
    cycles: u64,
    cycle_seconds: f64,
}

impl OpLedger {
    fn record(&mut self, op: Op, level: usize, since: Instant) {
        let span = self.spans.entry((op, level)).or_default();
        span.0 += since.elapsed().as_secs_f64();
        span.1 += 1;
    }
}

/// Recover the V-cycle's operators from the plan's own descriptors by the
/// names of their stencils and output grids (`gsrb_red_x_<l>`, `residual`
/// into `res_<l>`, `restrict` into `rhs_<l+1>`, `interp_000` into `x_<l>`).
fn vcycle_ops(plan: &SolverPlan) -> OpIndex {
    let mut index = OpIndex::new();
    for (i, (group, _)) in plan.descriptors().iter().enumerate() {
        if let Some(key) = classify(group) {
            index.entry(key).or_insert(i);
        }
    }
    index
}

fn classify(group: &StencilGroup) -> Option<(Op, usize)> {
    group.stencils().iter().find_map(|s| {
        let op = match s.name() {
            n if n.starts_with("gsrb_red_") => Op::Smooth,
            "residual" => Op::Residual,
            "restrict" => Op::Restrict,
            "interp_000" => Op::Interp,
            _ => return None,
        };
        let level: usize = s.output().rsplit('_').next()?.parse().ok()?;
        // Restriction writes the coarse rhs; file it under the fine level.
        let level = if op == Op::Restrict {
            level.checked_sub(1)?
        } else {
            level
        };
        Some((op, level))
    })
}

fn snow_vcycle(
    plan: &SolverPlan,
    ops: &OpIndex,
    grids: &mut GridSet,
    levels: usize,
    l: usize,
    ledger: &mut OpLedger,
) -> Res<()> {
    let run = |op: Op, grids: &mut GridSet| -> Res<()> {
        let index = *ops
            .get(&(op, l))
            .ok_or(format!("plan has no {} operator at level {l}", op.label()))?;
        plan.run(index, grids).map_err(|e| e.to_string())
    };
    if l + 1 == levels {
        let t = Instant::now();
        for _ in 0..BOTTOM_SMOOTHS {
            run(Op::Smooth, grids)?;
        }
        ledger.record(Op::Bottom, l, t);
        return Ok(());
    }
    for _ in 0..SMOOTHS_PER_LEG {
        let t = Instant::now();
        run(Op::Smooth, grids)?;
        ledger.record(Op::Smooth, l, t);
    }
    let t = Instant::now();
    run(Op::Residual, grids)?;
    ledger.record(Op::Residual, l, t);
    let t = Instant::now();
    run(Op::Restrict, grids)?;
    ledger.record(Op::Restrict, l, t);
    snow_vcycle(plan, ops, grids, levels, l + 1, ledger)?;
    let t = Instant::now();
    run(Op::Interp, grids)?;
    ledger.record(Op::Interp, l, t);
    for _ in 0..SMOOTHS_PER_LEG {
        let t = Instant::now();
        run(Op::Smooth, grids)?;
        ledger.record(Op::Smooth, l, t);
    }
    Ok(())
}

fn hand_vcycle(h: &mut HandSolver, l: usize, ledger: &mut OpLedger) {
    let (a, b) = (h.problem.a, h.problem.b);
    if l + 1 == h.levels.len() {
        let t = Instant::now();
        for _ in 0..BOTTOM_SMOOTHS {
            hand::smooth_gsrb(&mut h.levels[l], a, b);
        }
        ledger.record(Op::Bottom, l, t);
        return;
    }
    for _ in 0..SMOOTHS_PER_LEG {
        let t = Instant::now();
        hand::smooth_gsrb(&mut h.levels[l], a, b);
        ledger.record(Op::Smooth, l, t);
    }
    let t = Instant::now();
    hand::residual(&mut h.levels[l], a, b);
    ledger.record(Op::Residual, l, t);
    let t = Instant::now();
    {
        let (fine, coarse) = h.levels.split_at_mut(l + 1);
        hand::restrict(&fine[l], &mut coarse[0]);
    }
    ledger.record(Op::Restrict, l, t);
    hand_vcycle(h, l + 1, ledger);
    let t = Instant::now();
    {
        let (fine, coarse) = h.levels.split_at_mut(l + 1);
        hand::interpolate(&coarse[0], &mut fine[l]);
    }
    ledger.record(Op::Interp, l, t);
    for _ in 0..SMOOTHS_PER_LEG {
        let t = Instant::now();
        hand::smooth_gsrb(&mut h.levels[l], a, b);
        ledger.record(Op::Smooth, l, t);
    }
}

/// Max |a − b| over the N³ interior of two (N+2)³ grids.
fn interior_diff(a: &Grid, b: &Grid) -> f64 {
    let mut m = 0.0f64;
    for i in 1..=N {
        for j in 1..=N {
            for k in 1..=N {
                m = m.max((a.get(&[i, j, k]) - b.get(&[i, j, k])).abs());
            }
        }
    }
    m
}

/// Seed every solver's guess and run each one's first V-cycle. True when
/// every residual contracts and every backend agrees with the hand baseline.
fn check_first_cycle(solvers: &mut [Solver], seed: u64) -> Res<bool> {
    let mut ok = true;
    for s in solvers.iter_mut() {
        s.x0_mut().fill_random(seed, -1.0, 1.0);
        let r0 = s.residual_norm()?;
        s.vcycle()?;
        let ratio = s.residual_norm()? / r0;
        eprintln!("{}: first V-cycle residual ratio {ratio:.3e}", s.name());
        ok &= ratio <= CONTRACTION;
    }
    let (hand, backends) = solvers.split_first().ok_or("no solvers")?;
    for s in backends {
        let diff = interior_diff(s.x0(), hand.x0());
        eprintln!("{}: first V-cycle {diff:.3e} from hand", s.name());
        ok &= diff <= AGREE_TOL;
    }
    Ok(ok)
}

/// The traced driver must compute exactly what the solver's own V-cycle does.
fn traced_matches_untraced(solver: &mut Solver, ops: &OpIndex) -> Res<bool> {
    let start = solver.x0().clone();
    solver.vcycle()?;
    let untraced = solver.x0().clone();
    *solver.x0_mut() = start;
    solver.traced_vcycle(ops, &mut OpLedger::default())?;
    Ok(solver.x0().as_slice() == untraced.as_slice())
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn build_all(problem: Problem) -> Res<Vec<Solver>> {
    IMPLS
        .iter()
        .map(|name| Solver::build(name, problem))
        .collect()
}

fn run(args: &Args) -> Res<Outcome> {
    let problem = if args.workload == "cc" {
        Problem::poisson_cc(N)
    } else {
        Problem::poisson_vc(N)
    };

    // An untimed set-up first fills the C JIT artifact cache and the page
    // cache, so the timed set-ups measure what a user re-running the solver
    // pays. The cold compile is in the traced ledger (`compile_cc_s`).
    let mut solvers = build_all(problem)?;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    if !args.trace {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let built = build_all(problem)?;
            setup.push(t.elapsed().as_secs_f64());
            solvers = built;
        }
    }

    let mut correct = check_first_cycle(&mut solvers, args.seed)?;
    let ops: Vec<OpIndex> = solvers
        .iter()
        .map(|s| match s {
            Solver::Snow(s) => vcycle_ops(s.plan()),
            Solver::Hand(_) => OpIndex::new(),
        })
        .collect();
    if args.trace {
        for (s, ops) in solvers.iter_mut().zip(&ops) {
            if !traced_matches_untraced(s, ops)? {
                eprintln!("{}: traced V-cycle differs from the solver's own", s.name());
                correct = false;
            }
        }
    }

    let mut times = vec![Vec::new(); solvers.len()];
    let mut ledgers: Vec<OpLedger> = solvers.iter().map(|_| OpLedger::default()).collect();
    let mut failed = 0u64;
    let mut rounds = 0;
    let start = Instant::now();
    // One V-cycle of each implementation per round.
    while rounds < MIN_CYCLES || start.elapsed().as_secs_f64() < args.seconds {
        for (i, solver) in solvers.iter_mut().enumerate() {
            let t = Instant::now();
            let result = if args.trace {
                solver.traced_vcycle(&ops[i], &mut ledgers[i])
            } else {
                solver.vcycle()
            };
            times[i].push(t.elapsed().as_secs_f64());
            if let Err(e) = result {
                eprintln!("{}: V-cycle failed: {e}", solver.name());
                failed += 1;
            }
        }
        rounds += 1;
    }
    for s in &solvers {
        let error = s.error_norm();
        eprintln!("{}: {rounds} V-cycles, final error {error:.3e}", s.name());
        correct &= error <= ERROR_TOL;
    }
    correct &= failed == 0;
    drop(solvers);

    let metrics = if args.trace {
        trace_metrics(&ledgers, problem)?
    } else {
        let mut metrics = Vec::new();
        for (name, times) in IMPLS.iter().zip(&mut times) {
            let cycle_ms = median(times) * 1e3;
            metrics.push(metric(format!("{name}_vcycle_ms"), cycle_ms, "ms"));
        }
        metrics.push(metric("setup_s", median(&mut setup), "s"));
        metrics
    };
    Ok(Outcome {
        correct,
        attempted: (rounds * IMPLS.len()) as u64,
        failed,
        metrics,
    })
}

/// Per-op ledger rows and the finest smooth's share of the STREAM roofline
/// for every implementation, then the compile-stage ledger.
fn trace_metrics(ledgers: &[OpLedger], problem: Problem) -> Res<Vec<Metric>> {
    // Compulsory traffic per GSRB stencil by the paper's §V-B accounting:
    // VC reads x, rhs, dinv and three face betas and write-allocates and
    // writes x (64 B); CC folds dinv and beta into constants (32 B).
    let gsrb_bytes = if problem.variable_coeff { 64.0 } else { 32.0 };
    let stream_gbs = roofline::measure_dot_bandwidth(1 << 22, 5).gbs();
    let mut metrics = Vec::new();
    for (name, ledger) in IMPLS.iter().zip(ledgers) {
        let cycles = ledger.cycles.max(1) as f64;
        let mut op_seconds = 0.0;
        for (&(op, level), &(seconds, _)) in &ledger.spans {
            op_seconds += seconds;
            metrics.push(metric(
                format!("{name}_{}_l{level}_ms", op.label()),
                seconds / cycles * 1e3,
                "ms",
            ));
        }
        metrics.push(metric(
            format!("{name}_op_cover_frac"),
            op_seconds / ledger.cycle_seconds,
            "ratio",
        ));
        let (seconds, calls) = ledger
            .spans
            .get(&(Op::Smooth, 0))
            .copied()
            .ok_or("no finest-level smooth was traced")?;
        let smooth_gbs = calls as f64 * (N * N * N) as f64 * gsrb_bytes / seconds / 1e9;
        metrics.push(metric(
            format!("{name}_smooth_l0_roofline_frac"),
            smooth_gbs / stream_gbs,
            "ratio",
        ));
    }
    metrics.push(metric("stream_gbs", stream_gbs, "GB/s"));

    let scratch = std::env::temp_dir().join(format!("perfbench-{}", std::process::id()));
    let stages = compile_ledger(problem, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    metrics.extend(stages?);
    Ok(metrics)
}

/// Replay the compile pipeline of this problem's Snowflake plan stage by
/// stage. The front end (analysis, lowering, specialization, C emission) is
/// timed per operator through the same public entry points the backends
/// call; lowering runs the analysis itself, so `lower` includes it. `cc` is a cold cjit plan build into an empty artifact cache minus
/// the warm rebuild served from it; `dlopen` loads each artifact the cold
/// build persisted; `tune` is an omp plan build with the tile tuner on, into
/// an empty tuner cache, minus one with it off.
fn compile_ledger(problem: Problem, scratch: &Path) -> Res<Vec<Metric>> {
    let ops: Vec<(StencilGroup, ShapeMap)> = {
        let seq =
            backend_from_name("seq", &BackendOptions::default()).map_err(|e| e.to_string())?;
        let solver = SnowSolver::new(problem, seq).map_err(|e| e.to_string())?;
        solver.plan().descriptors().to_vec()
    };
    let err = |e: snowflake_core::CoreError| e.to_string();

    let (mut analysis, mut lower, mut specialize, mut emit) = (0.0, 0.0, 0.0, 0.0);
    for (group, shapes) in &ops {
        let t = Instant::now();
        let resolved = group
            .stencils()
            .iter()
            .map(|s| ResolvedStencil::resolve(s, shapes))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let safe = resolved.iter().filter(|r| is_parallel_safe(r)).count();
        black_box((greedy_phases(&resolved), safe));
        analysis += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut lowered = lower_group(group, shapes, &LowerOptions::default()).map_err(err)?;
        lower += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(specialize_lowered(&mut lowered));
        specialize += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(emit_c(&lowered, "snowflake_run").len());
        emit += t.elapsed().as_secs_f64();
    }

    // The once-per-process OpenMP probe compile is not part of any plan.
    CJitBackend::new().openmp_available();
    let cache = scratch.join("cjit");
    let cjit = BackendOptions::default().with_cache_dir(&cache);
    let build = |name: &str, opts: &BackendOptions| -> Res<(SolverPlan, f64)> {
        let backend = backend_from_name(name, opts).map_err(err)?;
        let t = Instant::now();
        let plan = SolverPlan::build(backend, &ops).map_err(err)?;
        Ok((plan, t.elapsed().as_secs_f64()))
    };
    let (cold, cold_s) = build("cjit", &cjit)?;
    let cc_calls = cold.cache_stats().disk_misses;
    drop(cold);
    let (warm, warm_s) = build("cjit", &cjit)?;
    if warm.cache_stats().disk_misses != 0 {
        return Err("warm cjit rebuild invoked the C compiler".into());
    }
    drop(warm);

    let mut dlopen = 0.0;
    let mut artifacts = 0;
    for entry in std::fs::read_dir(&cache).map_err(|e| format!("reading {cache:?}: {e}"))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "so") {
            continue;
        }
        let t = Instant::now();
        // SAFETY: the artifact was just built by the cjit backend from this
        // plan's generated C; loading it runs no code of ours, and the
        // symbol is only resolved, never called.
        let lib = unsafe { libloading::Library::new(&path) }.map_err(|e| e.to_string())?;
        // SAFETY: `snowflake_run` is the entry point every artifact exports,
        // with this pointer type.
        let entry = unsafe { lib.get::<unsafe extern "C" fn(*mut *mut f64)>(b"snowflake_run\0") }
            .map_err(|e| e.to_string())?;
        black_box(*entry);
        dlopen += t.elapsed().as_secs_f64();
        artifacts += 1;
    }
    if artifacts == 0 {
        return Err(format!(
            "the cold cjit build persisted no artifact in {cache:?}"
        ));
    }

    let (_, untuned_s) = build("omp", &BackendOptions::default())?;
    let tuned_opts = BackendOptions::default()
        .with_tune(true)
        .with_tune_dir(scratch.join("tune"));
    let (tuned, tuned_s) = build("omp", &tuned_opts)?;
    let mut report = RunReport::new();
    tuned.stamp(&mut report);

    Ok(vec![
        metric("compile_analysis_s", analysis, "s"),
        metric("compile_lower_s", lower, "s"),
        metric("compile_specialize_s", specialize, "s"),
        metric("compile_emit_s", emit, "s"),
        metric("compile_cc_s", cold_s - warm_s, "s"),
        metric("compile_dlopen_s", dlopen, "s"),
        metric("compile_tune_s", tuned_s - untuned_s, "s"),
        metric("plan_ops", ops.len() as f64, "count"),
        metric("cc_calls", cc_calls as f64, "count"),
        metric(
            "tune_candidates",
            report.tune.candidates_timed as f64,
            "count",
        ),
    ])
}

/// Keep the OpenMP runtime loaded for the whole process. cjit artifacts
/// link libgomp; dropping a plan `dlclose`s them, and if that releases the
/// last reference to libgomp while its worker threads are parked inside
/// it, the next parallel region jumps into unmapped code. This benchmark
/// builds and drops plans repeatedly, so it holds one reference itself. A
/// machine without libgomp has no OpenMP artifacts to protect.
fn pin_openmp_runtime() {
    // SAFETY: loading the system OpenMP runtime runs only its own
    // initializers, which every cjit artifact runs anyway.
    if let Ok(lib) = unsafe { libloading::Library::new("libgomp.so.1") } {
        std::mem::forget(lib);
    }
}

fn to_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!(
            "usage error: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> [--trace <0|1>]",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    pin_openmp_runtime();
    match run(&args) {
        Ok(outcome) if outcome.metrics.iter().all(|m| m.value.is_finite()) => {
            println!("{}", to_json(&outcome));
        }
        Ok(_) => {
            eprintln!("perfbench: a metric is not finite");
            std::process::exit(1);
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
