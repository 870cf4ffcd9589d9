#!/usr/bin/env python3
"""Unit test of scripts/ab.py against a stub perfbench/run.py.

Usage: python3 scripts/test_ab.py

Each case builds a throwaway git repository whose perfbench/run.py is a
stub: it prints a fixed result per seed and workload, scaled per metric by
a factor table committed with it, and logs each call. No cargo build runs.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

AB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ab.py")

STUB = '''import argparse, json, os
FACTOR = %s
p = argparse.ArgumentParser()
for a in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(a)
a = p.parse_args()
with open(os.environ["AB_STUB_LOG"], "a") as log:
    log.write(json.dumps([os.getcwd(), os.environ["CARGO_TARGET_DIR"], a.workload, int(a.seed)]) + "\\n")
noise = 1 + 0.01 * ((int(a.seed) * 37 + len(a.workload)) %% 7 - 3)
base = {"hand_vcycle_ms": 9.0, "seq_vcycle_ms": 25.0, "setup_s": 0.25, "stream_gbs": 30.0}
metrics = {m: {"value": v * FACTOR.get(m, 1.0) * noise, "unit": "x"} for m, v in base.items()}
print("build log line")
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}))
'''

BENCH = {"end_to_end": [{"name": "setup_s", "better": "lower"}],
         "per_layer": [{"name": "stream_gbs", "better": "higher"}]}


class AbTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.repo = os.path.join(self.tmp.name, "repo")
        self.log = os.path.join(self.tmp.name, "calls.log")
        os.makedirs(os.path.join(self.repo, "perfbench"))
        self.git("init", "-q")
        with open(os.path.join(self.repo, "BENCHMARK.json"), "w") as f:
            json.dump(BENCH, f)
        self.base = self.commit({})
        self.head = self.commit({"setup_s": 0.5, "stream_gbs": 1.2})

    def tearDown(self):
        self.tmp.cleanup()

    def git(self, *args):
        return subprocess.run(
            ["git", "-C", self.repo, "-c", "user.name=t", "-c", "user.email=t@t", *args],
            check=True, capture_output=True, text=True,
        ).stdout.strip()

    def write_stub(self, factor):
        with open(os.path.join(self.repo, "perfbench", "run.py"), "w") as f:
            f.write(STUB % json.dumps(factor))

    def commit(self, factor):
        self.write_stub(factor)
        self.git("add", "-A")
        self.git("commit", "-q", "-m", "stub")
        return self.git("rev-parse", "HEAD")

    def ab(self, *revs, pairs=5):
        out = os.path.join(self.tmp.name, "summary.json")
        scratch = os.path.join(self.tmp.name, "scratch")
        subprocess.run(
            [sys.executable, AB, *revs, "--pairs", str(pairs), "--workload", "vc,cc",
             "--seconds", "0.5", "--scratch", scratch, "--out", out],
            cwd=self.repo, env=dict(os.environ, AB_STUB_LOG=self.log),
            check=True, capture_output=True, text=True,
        )
        with open(out) as f:
            summary = json.load(f)
        with open(self.log) as f:
            calls = [json.loads(line) for line in f]
        os.remove(self.log)
        return summary, calls

    def verdicts(self, summary, workload):
        return {m: r["verdict"] for m, r in summary["workloads"][workload]["metrics"].items()}

    def test_a_change_resolves_only_the_metrics_it_moves(self):
        summary, calls = self.ab(self.base, self.head)
        for w in ("vc", "cc"):
            self.assertEqual(self.verdicts(summary, w), {
                "hand_vcycle_ms": "unresolved", "seq_vcycle_ms": "unresolved",
                "setup_s": "better", "stream_gbs": "better"})
            setup = summary["workloads"][w]["metrics"]["setup_s"]
            self.assertAlmostEqual(setup["ratio"], 0.5)
            self.assertAlmostEqual(setup["ratio_to_control"], 0.5)
            self.assertEqual(setup["won"], 5)
            self.assertEqual(summary["workloads"][w]["failed"], {"base": 0, "head": 0})

    def test_pairs_alternate_and_each_side_builds_apart(self):
        _, calls = self.ab(self.base, self.head, pairs=4)
        trees = {c[0] for c in calls}
        targets = {c[1] for c in calls}
        self.assertEqual((len(trees), len(targets)), (2, 2))
        base_tree = calls[0][0]
        # One warm-up per side, then for each workload base first on odd seeds.
        self.assertEqual([c[3] for c in calls[:2]], [0, 0])
        timed = calls[2:]
        self.assertEqual(len(timed), 2 * 2 * 4)
        for w_i, w in enumerate(("vc", "cc")):
            block = timed[w_i * 8:(w_i + 1) * 8]
            for p in range(4):
                first, second = block[2 * p], block[2 * p + 1]
                seed = p + 1
                self.assertEqual((first[2], first[3], second[3]), (w, seed, seed))
                self.assertEqual(first[0] == base_tree, seed % 2 == 1)
                self.assertNotEqual(first[0], second[0])

    def test_a_and_a_resolves_nothing(self):
        summary, _ = self.ab(self.base, self.base)
        for w in ("vc", "cc"):
            self.assertEqual(set(self.verdicts(summary, w).values()), {"unresolved"})

    def test_the_working_tree_is_the_default_head(self):
        self.write_stub({"seq_vcycle_ms": 2.0})
        summary, calls = self.ab(self.base)
        self.assertEqual(summary["head"], "working tree")
        self.assertIn(self.repo, {c[0] for c in calls})
        self.assertEqual(self.verdicts(summary, "vc")["seq_vcycle_ms"], "worse")


if __name__ == "__main__":
    unittest.main()
