#!/usr/bin/env python3
"""Tests of the repository benchmark itself (not of the simulator).

Run from the repository root:

    python3 perfbench/test_perfbench.py

* every metric BENCHMARK.json names is printed, with its unit, by a
  tiny-size run of each workload (untraced and traced);
* a deliberately invalid trial (degree >= nodes) is counted as failed
  instead of aborting the run;
* the traced run of each full-size workload finds its predicted dominant
  layers (sim.attribution_met is 1);
* two runs of one seed give the same summary-CSV digest;
* the benchmark program builds from perfbench/ against a copy of the
  sources with only the root CMakeLists.txt and src/ next to it, and a
  directory that holds only BENCHMARK.json and perfbench/ exits non-zero
  without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-tests")


def run_bench(workload, trace, *extra, cwd=ROOT, seed=7, seconds=1):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in declared}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_smoke_prints_every_metric(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace, "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = result_of(proc)
                    self.check_metrics(result, self.spec[key])
                    self.assertTrue(result["correct"], proc.stdout[-3000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_invalid_trial_counted_as_failed(self):
        proc = run_bench("fig3_grid", 0, "--tiny", "--invalid-trial")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])
        self.check_metrics(result, self.spec["end_to_end"])

    def test_full_size_attribution_meets_prediction(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                proc = run_bench(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertTrue(result["correct"], proc.stdout[-3000:])
                met = result["metrics"]["sim.attribution_met"]["value"]
                self.assertEqual(met, 1, re.search(r"attribution:.*",
                                                   proc.stdout).group(0))

    def test_same_seed_same_csv_digest(self):
        digests = []
        for _ in range(2):
            proc = run_bench("lossy_exchange", 0, "--tiny")
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            digests.append(re.search(r"csv digest ([0-9a-f]{16})",
                                     proc.stdout).group(1))
        self.assertEqual(digests[0], digests[1])

    def test_standalone_build_and_missing_sources(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        checkout = os.path.join(SCRATCH, "checkout")
        os.makedirs(checkout)
        shutil.copy(os.path.join(ROOT, "CMakeLists.txt"), checkout)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), checkout)
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(checkout, "src"))
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(checkout, "perfbench"), ignore=ignore)
        proc = run_bench("fleet_10k", 0, "--tiny", cwd=checkout)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.check_metrics(result_of(proc), self.spec["end_to_end"])

        bare = os.path.join(SCRATCH, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"), ignore=ignore)
        proc = run_bench("fleet_10k", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
