#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the root of the repository (builds the benchmark on first use,
then takes about two and a half minutes on a 4-core 2.1 GHz VM):

    python3 -m unittest perfbench/test_perfbench.py

They check that
  * the same seed twice gives identical inputs and identical deterministic
    counters, and a second seed gives different inputs, with every output
    check passing on both seeds;
  * the metric contract printed by the binary matches BENCHMARK.json;
  * a traced run reports every per-layer metric and its top-level spans
    cover the traced wall time within 5%;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Deterministic counters each workload must repeat exactly for one seed.
COUNTERS = {
    "batch-search": ["core.sim_steps", "core.schedules_explored",
                     "core.pairs_evaluated", "schedule_cost"],
    "batch-bulk": ["core.pairs_evaluated", "solver.components",
                   "schedule_cost"],
    "stream-inorder": ["stream.fast_appends", "stream.full_resolves",
                       "stream.epochs", "stream.pairs_evaluated",
                       "schedule_cost"],
    "stream-interleaved": ["stream.fast_appends", "stream.full_resolves",
                           "stream.epochs", "stream.pairs_evaluated",
                           "schedule_cost"],
    "chaos-hostile": ["simnet.events", "convergence_ticks",
                      "replica.merges", "replica.commit_decisions"],
}


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True)
    return proc


def bench(workload, seed, trace=0):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counters = {}
    inputs = None
    for line in lines:
        fields = line.split()
        if fields[0] == "counter":
            counters[fields[1]] = float(fields[2])
        elif fields[0] == "inputs":
            inputs = fields[1]
    return result, counters, inputs, proc.stdout


class Determinism(unittest.TestCase):
    def test_same_seed_repeats_and_other_seed_differs(self):
        for workload, names in COUNTERS.items():
            with self.subTest(workload=workload):
                first, c1, in1, _ = bench(workload, 1)
                again, c2, in2, _ = bench(workload, 1)
                other, _, in3, _ = bench(workload, 2)
                for result in (first, again, other):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                self.assertEqual(in1, in2)
                self.assertNotEqual(in1, in3)
                for name in names:
                    self.assertIn(name, c1)
                    self.assertEqual(c1[name], c2[name], name)


class Contract(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        proc = run("--list-metrics")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        listed = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         listed["workloads"])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in spec[key]],
                [(m["name"], m["unit"], m["better"]) for m in listed[key]])

    def test_traced_run_reports_every_layer(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [m["name"] for m in json.load(f)["per_layer"]]
        result, _, _, _ = bench("batch-bulk", 3, trace=1)
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        coverage = result["metrics"]["trace.coverage"]["value"]
        self.assertGreater(coverage, 0.95)
        self.assertLess(coverage, 1.05)
        self.assertGreater(result["metrics"]["solver.graph_s"]["value"], 0)

    def test_fails_without_engine_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "batch-bulk", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
