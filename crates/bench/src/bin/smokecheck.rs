//! CI assertion helper for the persistent cjit artifact cache: given the
//! `--metrics-json` documents of two consecutive `figure9 --smoke` runs,
//! verify that the second run was served from the on-disk cache.
//!
//! `smokecheck <first.json> <second.json>`
//!
//! Checks (on the `Snowflake/cjit` row of each document):
//!
//! * the second run's `cache.disk_hits` is positive — the artifacts
//!   persisted by the first process were found and dlopened;
//! * when the first run was cold (`cache.disk_misses > 0`), the second
//!   run's `compile_seconds` decreased — dlopening a cached `.so` must be
//!   cheaper than invoking the C compiler.
//!
//! Exits 0 with a "skipped" note when neither document has a cjit row
//! (no C compiler in the environment), 1 on assertion failure, 2 on
//! usage/parse errors — so CI can run it unconditionally.
//!
//! With `--verify`, additionally refuses (exit 1) unless every Snowflake
//! row in both documents carries a `verify` certificate block proving the
//! plan was statically checked: `stencils_checked > 0` and
//! `witnesses == 0`. Pair with `figure9 --smoke --verify --metrics-json`
//! so uncertified plans cannot slip through CI.
//!
//! With `--lint`, additionally refuses (exit 1) unless every Snowflake
//! row in both documents carries a `lint` counters block proving the plan
//! was semantically linted clean: `rules_run > 0` and `lints == 0`. Pair
//! with `figure9 --smoke --lint --metrics-json` so unlinted (or
//! warning-carrying) plans cannot slip through CI.
//!
//! With `--tune`, the documents are instead two consecutive
//! `figure9 --smoke --backend omp --tune` runs sharing one
//! `SNOWFLAKE_TUNE_DIR`: the checks switch to the omp row's `tune` block —
//! the cold run must time candidates and persist decisions
//! (`disk_misses > 0`), and the warm run must be served entirely from the
//! on-disk tuner cache (`disk_hits > 0`, `disk_misses == 0`).
//!
//! In every mode, every Snowflake row's report must carry a non-empty
//! `ops` table whose rows all have `calls > 0` (exit 1 otherwise): a run
//! whose time cannot be attributed to plan ops is refused.

use snowflake_backends::metrics::json;
use snowflake_bench::arg_flag;

/// The `rows` array of the metrics document at `path`.
fn rows(path: &str) -> Result<Vec<json::Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    doc.get("rows")
        .and_then(|r| r.as_array())
        .map(<[json::Value]>::to_vec)
        .ok_or_else(|| format!("{path}: no \"rows\" array"))
}

/// `(impl label, report)` of every Snowflake row that has a report; the
/// hand baseline is not a plan, so no plan check applies to it.
fn snowflake_reports(path: &str) -> Result<Vec<(String, json::Value)>, String> {
    let mut reports = Vec::new();
    for row in rows(path)? {
        let Some(implementation) = row.get("impl").and_then(|v| v.as_str()) else {
            continue;
        };
        if !implementation.starts_with("Snowflake/") {
            continue;
        }
        if let Some(report) = row.get("report") {
            reports.push((implementation.to_string(), report.clone()));
        }
    }
    Ok(reports)
}

/// Why each Snowflake row of `path` fails the op-table check: its report
/// has no `ops` rows, or an op row with zero calls.
fn op_table_failures(path: &str) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    for (implementation, report) in snowflake_reports(path)? {
        let ops = report.get("ops").and_then(|v| v.as_array()).unwrap_or(&[]);
        if ops.is_empty() {
            failures.push(format!(
                "{path}: {implementation} report has an empty ops table"
            ));
        }
        for op in ops {
            if op.get("calls").and_then(|v| v.as_u64()).unwrap_or(0) == 0 {
                let index = op.get("op").and_then(|v| v.as_u64());
                let index = index.map_or("?".to_string(), |i| i.to_string());
                failures.push(format!("{path}: {implementation} op {index} has no calls"));
            }
        }
    }
    Ok(failures)
}

/// The cjit row's report facts a check needs.
struct CjitFacts {
    disk_hits: u64,
    disk_misses: u64,
    compile_seconds: f64,
}

fn cjit_facts(path: &str) -> Result<Option<CjitFacts>, String> {
    for row in rows(path)? {
        if row.get("impl").and_then(|v| v.as_str()) != Some("Snowflake/cjit") {
            continue;
        }
        let report = row
            .get("report")
            .ok_or_else(|| format!("{path}: cjit row has no report"))?;
        let cache = report
            .get("cache")
            .ok_or_else(|| format!("{path}: cjit report has no cache object"))?;
        let field_u64 = |obj: &json::Value, key: &str| {
            obj.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("{path}: cjit report missing {key}"))
        };
        return Ok(Some(CjitFacts {
            disk_hits: field_u64(cache, "disk_hits")?,
            disk_misses: field_u64(cache, "disk_misses")?,
            compile_seconds: report
                .get("compile_seconds")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{path}: cjit report missing compile_seconds"))?,
        }));
    }
    Ok(None)
}

/// The omp row's tuner facts for the `--tune` assertions.
struct TuneFacts {
    tune_disk_hits: u64,
    tune_disk_misses: u64,
    candidates_timed: u64,
}

fn tune_facts(path: &str) -> Result<TuneFacts, String> {
    for row in rows(path)? {
        if row.get("impl").and_then(|v| v.as_str()) != Some("Snowflake/omp") {
            continue;
        }
        let report = row
            .get("report")
            .ok_or_else(|| format!("{path}: omp row has no report"))?;
        let tune_u64 = |key: &str| {
            report
                .get("tune")
                .and_then(|b| b.get(key))
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("{path}: omp report missing tune.{key}"))
        };
        return Ok(TuneFacts {
            tune_disk_hits: tune_u64("disk_hits")?,
            tune_disk_misses: tune_u64("disk_misses")?,
            candidates_timed: tune_u64("candidates_timed")?,
        });
    }
    Err(format!("{path}: no Snowflake/omp row"))
}

/// The `--tune` check: cold run populates the tuner cache, warm run is
/// served from it.
fn check_tune(first_path: &str, second_path: &str) -> ! {
    let load = |path: &str| {
        tune_facts(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    };
    let (first, second) = (load(first_path), load(second_path));
    let mut failed = false;
    if first.tune_disk_misses == 0 || first.candidates_timed == 0 {
        eprintln!(
            "FAIL: cold run did not tune (misses {}, candidates {})",
            first.tune_disk_misses, first.candidates_timed
        );
        failed = true;
    }
    if second.tune_disk_hits == 0 || second.tune_disk_misses > 0 {
        eprintln!(
            "FAIL: warm run was not served from the tuner cache \
             (hits {}, misses {})",
            second.tune_disk_hits, second.tune_disk_misses
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "smokecheck: ok — cold (tune misses {}, {} candidates timed), \
         warm (tune hits {}, misses {})",
        first.tune_disk_misses,
        first.candidates_timed,
        second.tune_disk_hits,
        second.tune_disk_misses
    );
    std::process::exit(0);
}

/// Per-row `verify` certificate facts for the `--verify` assertions.
struct VerifyFacts {
    implementation: String,
    stencils_checked: u64,
    witnesses: u64,
}

/// Extract the `verify` block of every Snowflake row that has a report.
/// A Snowflake row *without* a `verify` block is itself an error under
/// `--verify`: the run was not certified.
fn verify_facts(path: &str) -> Result<Vec<VerifyFacts>, String> {
    let mut facts = Vec::new();
    for (implementation, report) in snowflake_reports(path)? {
        let verify = report
            .get("verify")
            .ok_or_else(|| format!("{path}: {implementation} report has no verify block"))?;
        let field_u64 = |key: &str| {
            verify
                .get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("{path}: {implementation} verify block missing {key}"))
        };
        let (stencils_checked, witnesses) =
            (field_u64("stencils_checked")?, field_u64("witnesses")?);
        facts.push(VerifyFacts {
            implementation,
            stencils_checked,
            witnesses,
        });
    }
    Ok(facts)
}

/// Per-row `lint` counter facts for the `--lint` assertions.
struct LintFacts {
    implementation: String,
    rules_run: u64,
    lints: u64,
}

/// Extract the `lint` block of every Snowflake row that has a report. A
/// Snowflake row *without* a `lint` block is itself an error under
/// `--lint`: the run was not linted.
fn lint_facts(path: &str) -> Result<Vec<LintFacts>, String> {
    let mut facts = Vec::new();
    for (implementation, report) in snowflake_reports(path)? {
        let lint = report
            .get("lint")
            .ok_or_else(|| format!("{path}: {implementation} report has no lint block"))?;
        let field_u64 = |key: &str| {
            lint.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("{path}: {implementation} lint block missing {key}"))
        };
        let (rules_run, lints) = (field_u64("rules_run")?, field_u64("lints")?);
        facts.push(LintFacts {
            implementation,
            rules_run,
            lints,
        });
    }
    Ok(facts)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_verify = arg_flag(&args, "--verify");
    let check_lint = arg_flag(&args, "--lint");
    let tune_mode = arg_flag(&args, "--tune");
    let paths: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let [first_path, second_path] = match paths.as_slice() {
        [a, b] => [(*a).clone(), (*b).clone()],
        _ => {
            eprintln!("usage: smokecheck [--verify|--lint|--tune] <first.json> <second.json>");
            std::process::exit(2);
        }
    };
    for path in [&first_path, &second_path] {
        let failures = op_table_failures(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        if !failures.is_empty() {
            failures.iter().for_each(|f| eprintln!("FAIL: {f}"));
            std::process::exit(1);
        }
    }
    if tune_mode {
        check_tune(&first_path, &second_path);
    }
    let load = |path: &str| {
        cjit_facts(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    };
    let (Some(first), Some(second)) = (load(&first_path), load(&second_path)) else {
        println!("smokecheck: no cjit rows (no C compiler?) — skipped");
        return;
    };

    let mut failed = false;
    if check_verify {
        for path in [&first_path, &second_path] {
            let facts = verify_facts(path).unwrap_or_else(|e| {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            });
            if facts.is_empty() {
                eprintln!("FAIL: {path}: no certified Snowflake rows to check");
                failed = true;
            }
            for f in &facts {
                if f.stencils_checked == 0 {
                    eprintln!(
                        "FAIL: {path}: {} ran with an uncertified plan \
                         (0 stencils checked)",
                        f.implementation
                    );
                    failed = true;
                }
                if f.witnesses > 0 {
                    eprintln!(
                        "FAIL: {path}: {} certificate records {} witness(es)",
                        f.implementation, f.witnesses
                    );
                    failed = true;
                }
            }
            if !failed {
                println!(
                    "smokecheck: {path}: {} Snowflake row(s) certified",
                    facts.len()
                );
            }
        }
    }
    if check_lint {
        for path in [&first_path, &second_path] {
            let facts = lint_facts(path).unwrap_or_else(|e| {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            });
            if facts.is_empty() {
                eprintln!("FAIL: {path}: no linted Snowflake rows to check");
                failed = true;
            }
            for f in &facts {
                if f.rules_run == 0 {
                    eprintln!(
                        "FAIL: {path}: {} ran with an unlinted plan (0 rules run)",
                        f.implementation
                    );
                    failed = true;
                }
                if f.lints > 0 {
                    eprintln!(
                        "FAIL: {path}: {} plan carries {} lint finding(s)",
                        f.implementation, f.lints
                    );
                    failed = true;
                }
            }
            if !failed {
                println!(
                    "smokecheck: {path}: {} Snowflake row(s) linted clean",
                    facts.len()
                );
            }
        }
    }
    if second.disk_hits == 0 {
        eprintln!(
            "FAIL: second run had no disk-cache hits \
             (hits {}, misses {})",
            second.disk_hits, second.disk_misses
        );
        failed = true;
    }
    if first.disk_misses > 0 && second.compile_seconds >= first.compile_seconds {
        eprintln!(
            "FAIL: cached plan build was not faster: compile_seconds \
             {:.4} (cold) -> {:.4} (warm)",
            first.compile_seconds, second.compile_seconds
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "smokecheck: ok — cold (hits {}, misses {}, compile {:.4}s), \
         warm (hits {}, misses {}, compile {:.4}s)",
        first.disk_hits,
        first.disk_misses,
        first.compile_seconds,
        second.disk_hits,
        second.disk_misses,
        second.compile_seconds
    );
}
