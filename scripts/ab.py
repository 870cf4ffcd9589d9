#!/usr/bin/env python3
"""A/B comparison of two revisions on the solver benchmark, in alternating pairs.

Usage, from anywhere inside the repository:

    python3 scripts/ab.py <base-rev> [<head-rev>] [--pairs N]
        [--workload vc,cc] [--seconds S] [--trace 0|1] [--seed S0]
        [--scratch DIR] [--out FILE]

Each revision is exported with `git archive` into its own directory under
the scratch directory (no `git worktree` is registered, so the repository's
`.git` is left as it was), and built there with its own CARGO_TARGET_DIR.
Without <head-rev> the head is the working tree itself, uncommitted changes
included, with a CARGO_TARGET_DIR of its own under the scratch directory.
Naming one revision twice (`HEAD HEAD`) is an A/A run.

For each workload, pair p runs `perfbench/run.py` once per side on the
shared seed S0 + p: the base first on odd seeds, the head first on even
ones. A warm-up run per side (at the first workload, on seed S0 - 1, for at
most a second, its result discarded) builds each side first, so no build
falls inside a pair. Every run must exit 0 and print its JSON result, or
the comparison stops with the tail of that run's standard error.

Per workload and metric the script prints each side's median [quartiles],
the ratio of the medians (head / base), the pairs the head won, and the
ratio of the medians of the per-run ratios to `hand_vcycle_ms` (hand is the
control: a host that slows every implementation alike leaves that ratio
alone). A metric is *resolved* when the medians differ by more than the
base's interquartile range and at least 90% of the pairs agree with that
direction; otherwise it is *unresolved*. Whether lower or higher is better
comes from the base's BENCHMARK.json (lower where it names no direction).
A JSON summary with every run's values goes to --out.

Nothing but `git` and `perfbench/run.py` is run, and no network is used.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

CONTROL = "hand_vcycle_ms"
# Share of the pairs that must agree with the medians' direction: nine in
# ten, as the benchmark's rule for a claimed gain asks.
AGREE = 0.9


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", repo, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def quantile(values, q):
    """The q-quantile, interpolating linearly between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def spread(values):
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
    }


class Side:
    """One revision: its source tree and its own build directory."""

    def __init__(self, repo, scratch, label, rev):
        self.label = label
        if rev is None:
            self.rev = "working tree"
            self.tree = repo
            self.target = os.path.join(scratch, f"{label}-worktree", "target")
        else:
            self.rev = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
            # The build directory is keyed by the commit: an archive's files
            # carry the commit's time, which a reused build directory could
            # mistake for up to date.
            home = os.path.join(scratch, f"{label}-{self.rev[:12]}")
            self.tree = os.path.join(home, "tree")
            self.target = os.path.join(home, "target")
            shutil.rmtree(self.tree, ignore_errors=True)
            os.makedirs(self.tree)
            archive = subprocess.run(
                ["git", "-C", repo, "archive", self.rev], check=True, capture_output=True
            ).stdout
            subprocess.run(["tar", "-x", "-C", self.tree], input=archive, check=True)
        os.makedirs(self.target, exist_ok=True)

    def run(self, args, workload, seed, seconds=None):
        cmd = [
            sys.executable,
            os.path.join(self.tree, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", repr(seconds or args.seconds),
            "--trace", str(args.trace),
        ]
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        run = subprocess.run(
            cmd, cwd=self.tree, env=env, capture_output=True, text=True
        )
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            tail = "\n".join(run.stderr.splitlines()[-20:])
            sys.exit(f"{tail}\nab: {self.label} run ({workload}, seed {seed}) failed with "
                     f"exit code {run.returncode}")
        return json.loads(lines[-1])

    def directions(self):
        """Metric name -> "lower" or "higher", from the tree's BENCHMARK.json."""
        try:
            with open(os.path.join(self.tree, "BENCHMARK.json")) as f:
                bench = json.load(f)
        except (OSError, ValueError):
            return {}
        return {
            m["name"]: m.get("better", "lower")
            for key in ("end_to_end", "per_layer")
            for m in bench.get(key, [])
        }


def compare(base_runs, head_runs, better):
    """Per metric both sides report: the statistics and the verdict."""
    values = lambda runs, m: [r["metrics"][m]["value"] for r in runs]
    shared = [m for m in base_runs[0]["metrics"] if all(
        m in r["metrics"] for r in base_runs + head_runs)]
    out = {}
    for m in shared:
        b, h = values(base_runs, m), values(head_runs, m)
        sb, sh = spread(b), spread(h)
        sign = -1.0 if better.get(m, "lower") == "lower" else 1.0
        won = sum(sign * (y - x) > 0 for x, y in zip(b, h))
        lost = sum(sign * (y - x) < 0 for x, y in zip(b, h))
        diff = sh["median"] - sb["median"]
        agree = won if sign * diff > 0 else lost
        resolved = abs(diff) > sb["q3"] - sb["q1"] and agree >= AGREE * len(b)
        row = {
            "base": sb,
            "head": sh,
            "ratio": sh["median"] / sb["median"] if sb["median"] else None,
            "pairs": len(b),
            "won": won,
            "better": better.get(m, "lower"),
            "verdict": ("better" if sign * diff > 0 else "worse") if resolved else "unresolved",
            "base_values": b,
            "head_values": h,
        }
        if m != CONTROL and CONTROL in shared:
            rb = [x / c for x, c in zip(b, values(base_runs, CONTROL))]
            rh = [y / c for y, c in zip(h, values(head_runs, CONTROL))]
            row["ratio_to_control"] = quantile(rh, 0.5) / quantile(rb, 0.5)
        out[m] = row
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="vc,cc")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "snowflake-ab"))
    parser.add_argument("--out", help="JSON summary (default: <scratch>/ab_summary.json)")
    args = parser.parse_args()
    workloads = [w for w in args.workload.split(",") if w]
    if args.pairs < 1 or not workloads or args.seed < 1:
        parser.error("--pairs and --seed must be positive and --workload non-empty")

    repo = git(os.getcwd(), "rev-parse", "--show-toplevel")
    os.makedirs(args.scratch, exist_ok=True)
    base = Side(repo, args.scratch, "base", args.base)
    head = Side(repo, args.scratch, "head", args.head)
    better = base.directions()
    for side in (base, head):
        side.run(args, workloads[0], args.seed - 1, seconds=min(args.seconds, 1.0))

    summary = {
        "base": base.rev,
        "head": head.rev,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "workloads": {},
    }
    for w in workloads:
        runs = {"base": [], "head": []}
        for p in range(args.pairs):
            seed = args.seed + p
            order = (base, head) if seed % 2 == 1 else (head, base)
            for side in order:
                runs[side.label].append(side.run(args, w, seed))
            print(f"{w} pair {p + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        metrics = compare(runs["base"], runs["head"], better)
        summary["workloads"][w] = {
            "correct": {k: sum(bool(r["correct"]) for r in v) for k, v in runs.items()},
            "failed": {k: sum(r["failed"] for r in v) for k, v in runs.items()},
            "metrics": metrics,
        }
        report(w, summary["workloads"][w])

    out = args.out or os.path.join(args.scratch, "ab_summary.json")
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"summary: {out}")


def report(workload, result):
    print(f"\n== {workload}: base {result['correct']['base']} correct, "
          f"{result['failed']['base']} failed; head {result['correct']['head']} correct, "
          f"{result['failed']['head']} failed")
    fmt = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}-{s['q3']:.4g}]"
    for m, r in result["metrics"].items():
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}x"
        control = r.get("ratio_to_control")
        control = "" if control is None else f"  vs hand {control:.3f}x"
        print(f"{m:32} {fmt(r['base']):>28} -> {fmt(r['head']):>28}  {ratio:>7}  "
              f"won {r['won']}/{r['pairs']}{control}  {r['verdict']}")


if __name__ == "__main__":
    main()
