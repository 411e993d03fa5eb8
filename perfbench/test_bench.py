"""Tests of the benchmark itself, at tiny scale (a few minutes on 4 cores).

    python3 perfbench/test_bench.py [--second-seed N] [unittest options]

  - every workload emits every metric of BENCHMARK.json, with its unit, in
    both the untraced and the traced run, and passes its output check;
  - an engine that drops a single update makes the output check fail;
  - for a fixed seed, the traced counts walk.steps, engine.apply_calls and
    core.group_conversions repeat exactly, for two seeds (the second one can
    be passed on the command line).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
# go-fresh-rounds is not in BENCHMARK.json (see README.md) but stays runnable
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["go-fresh-rounds"]
SEEDS = [3, 20261017]
EXACT_COUNTS = ["walk.steps", "engine.apply_calls", "core.group_conversions"]

_runs = {}


def run(workload, seed, trace, *extra, repeat=0):
    """Run the benchmark at tiny scale; memoised per argument set."""
    key = (workload, seed, trace, extra, repeat)
    if key not in _runs:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = r.stdout.strip().splitlines()
        out = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        _runs[key] = (r.returncode, out, r.stdout + r.stderr)
    return _runs[key]


class TinyRuns(unittest.TestCase):

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for w in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, out, log = run(w, SEEDS[0], trace)
                    self.assertEqual(code, 0, log)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"], log)
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[kind]}
                    got = {name: m["unit"] for name, m in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in out["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_a_dropped_update_fails_the_check(self):
        code, out, log = run("go-fresh-rounds", SEEDS[0], 0, "--fault", "drop-one-update")
        self.assertNotEqual(code, 0, log)
        self.assertIsNotNone(out, log)
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["failed"], 1)

    def test_counts_repeat_for_a_fixed_seed(self):
        for seed in SEEDS:
            for w in WORKLOADS:
                with self.subTest(workload=w, seed=seed):
                    a = run(w, seed, 1)
                    b = run(w, seed, 1, repeat=1)
                    self.assertEqual(a[0], 0, a[2])
                    self.assertEqual(b[0], 0, b[2])
                    for name in EXACT_COUNTS:
                        self.assertEqual(a[1]["metrics"][name]["value"], b[1]["metrics"][name]["value"], name)
                        self.assertGreater(a[1]["metrics"][name]["value"], 0, name)


if __name__ == "__main__":
    if "--second-seed" in sys.argv:
        i = sys.argv.index("--second-seed")
        SEEDS[1] = int(sys.argv[i + 1])
        del sys.argv[i:i + 2]
    unittest.main()
