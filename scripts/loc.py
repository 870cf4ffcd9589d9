#!/usr/bin/env python3
"""Count the non-test Rust lines of the repository.

Usage, from anywhere inside the repository:

    python3 scripts/loc.py            # total non-test LoC of the work tree
    python3 scripts/loc.py <rev>      # the total, its delta against the git
                                      # revision <rev>, and per-file deltas

Counted: every `.rs` file under `crates/`, `src/`, `examples/` and
`shims/`, outside any `tests/` or `benches/` directory. Each file counts
its lines up to its first top-level `#[cfg(test)]` line (the unit-test
module), or all of them when it has none.
"""

import os
import subprocess
import sys

ROOTS = ("crates", "src", "examples", "shims")
SKIP_DIRS = {"tests", "benches"}


def counted(path):
    """Whether `path` (relative, `/`-separated) is a counted source file."""
    parts = path.split("/")
    return (
        path.endswith(".rs")
        and parts[0] in ROOTS
        and not SKIP_DIRS.intersection(parts[:-1])
    )


def non_test_lines(text):
    """Lines before the first top-level `#[cfg(test)]`."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return i
    return len(lines)


def git(root, *args):
    return subprocess.run(
        ["git", "-C", root, *args], check=True, capture_output=True, text=True
    ).stdout


def work_tree(root):
    counts = {}
    for top in ROOTS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            for name in filenames:
                path = os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
                if counted(path):
                    with open(os.path.join(root, path), encoding="utf-8") as f:
                        counts[path] = non_test_lines(f.read())
    return counts


def at_revision(root, rev):
    counts = {}
    for path in git(root, "ls-tree", "-r", "--name-only", rev).splitlines():
        if counted(path):
            counts[path] = non_test_lines(git(root, "show", f"{rev}:{path}"))
    return counts


def usage(problem):
    """Print `problem` and the usage text to stderr; exit with status 2."""
    print(f"loc.py: {problem}\n\n{__doc__.strip()}", file=sys.stderr)
    sys.exit(2)


def main():
    if len(sys.argv) > 2:
        usage("too many arguments")
    root = git(os.getcwd(), "rev-parse", "--show-toplevel").strip()
    now = work_tree(root)
    total = sum(now.values())
    if len(sys.argv) == 1:
        print(total)
        return
    rev = sys.argv[1]
    try:
        then = at_revision(root, rev)
    except subprocess.CalledProcessError:
        usage(f"not a git revision: {rev!r}")
    for path in sorted(set(now) | set(then)):
        delta = now.get(path, 0) - then.get(path, 0)
        if delta:
            print(f"{delta:+6d}  {path}")
    before = sum(then.values())
    print(f"{before} -> {total} ({total - before:+d}) against {rev}")


if __name__ == "__main__":
    main()
