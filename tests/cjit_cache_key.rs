//! The cjit artifact cache key covers the compiler's identity, not just
//! its name: an upgraded compiler must not be served artifacts built by
//! the one it replaced.
//!
//! Each build runs in a child process (this test binary re-run on the
//! `child_build` test), as a compiler upgrade happens between processes
//! and the backend probes each compiler once per process. The compiler is
//! a wrapper script at one fixed path that prints its own `--version`
//! banner and hands every other invocation to the real compiler.

use std::os::unix::fs::PermissionsExt;
use std::path::Path;
use std::process::Command;

use snowflake::core::ShapeMap;
use snowflake::prelude::*;

/// Set in the child process: the `(wrapper compiler, cache dir)` to build with.
const CHILD_CC: &str = "SNOWFLAKE_TEST_CHILD_CC";
const CHILD_CACHE: &str = "SNOWFLAKE_TEST_CHILD_CACHE";

/// Compile one stencil with the wrapper compiler over the cache directory
/// and print the artifact cache counters; a no-op outside a child run.
#[test]
fn child_build() {
    let (Some(cc), Some(cache)) = (std::env::var_os(CHILD_CC), std::env::var_os(CHILD_CACHE))
    else {
        return;
    };
    let backend = CJitBackend::new()
        .with_cc(cc.to_string_lossy())
        .with_cache_dir(cache);
    let group = StencilGroup::from(Stencil::new(
        Expr::read_at("x", &[0, 1]) * 0.5,
        "y",
        RectDomain::interior(2),
    ));
    let mut shapes = ShapeMap::new();
    shapes.insert("x".into(), vec![8, 8]);
    shapes.insert("y".into(), vec![8, 8]);
    backend.compile(&group, &shapes).unwrap();
    let stats = backend.stats();
    println!("disk-stats {} {}", stats.disk_hits, stats.disk_misses);
}

/// Write the wrapper compiler at `path`, reporting `banner` as its version.
fn write_wrapper(path: &Path, banner: &str, real_cc: &str) {
    let script = format!(
        "#!/bin/sh\n\
         if [ \"$1\" = --version ]; then echo '{banner}'; exit 0; fi\n\
         exec {real_cc} \"$@\"\n"
    );
    // Write under a staging name, then rename: the script is never open
    // for writing at the path that gets executed.
    let staging = path.with_extension("staging");
    std::fs::write(&staging, script).unwrap();
    std::fs::set_permissions(&staging, std::fs::Permissions::from_mode(0o755)).unwrap();
    std::fs::rename(&staging, path).unwrap();
}

/// Run `child_build` in a fresh process; returns its `(hits, misses)`.
fn build_in_child(cc: &Path, cache: &Path) -> (u64, u64) {
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "child_build", "--nocapture", "--test-threads=1"])
        .env(CHILD_CC, cc)
        .env(CHILD_CACHE, cache)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child build failed:\n{stdout}");
    // The harness may print the test name on the same line.
    let counts: Vec<u64> = stdout
        .split("disk-stats ")
        .nth(1)
        .and_then(|rest| rest.lines().next())
        .unwrap_or_else(|| panic!("no disk-stats in:\n{stdout}"))
        .split(' ')
        .map(|w| w.parse().unwrap())
        .collect();
    (counts[0], counts[1])
}

#[test]
fn compiler_version_change_misses_the_artifact_cache() {
    if !CJitBackend::available() {
        eprintln!("skipping: no C compiler for cjit");
        return;
    }
    let dir = std::env::temp_dir().join(format!("snowflake-cache-key-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (cc, cache) = (dir.join("cc"), dir.join("cache"));
    let real_cc = CJitBackend::new().cc;

    write_wrapper(&cc, "snowcc 1.0", &real_cc);
    assert_eq!(build_in_child(&cc, &cache), (0, 1), "cold cache");
    assert_eq!(build_in_child(&cc, &cache), (1, 0), "same compiler hits");

    // Same path, same flags, same source: only the banner changed.
    write_wrapper(&cc, "snowcc 2.0", &real_cc);
    assert_eq!(build_in_child(&cc, &cache), (0, 1), "upgraded compiler");
    assert_eq!(build_in_child(&cc, &cache), (1, 0), "upgrade now cached");
    let _ = std::fs::remove_dir_all(&dir);
}
