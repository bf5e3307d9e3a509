#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_perfbench.py      # from the repository root

Runs every workload at the tiny --smoke scale, untraced and traced, and
checks that each run passes its correctness gate, that it prints exactly the
metrics BENCHMARK.json names for that mode, each with its unit, and that the
traced run's stage self times account for the root span. Also checks that the
benchmark fails without printing a result when the sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_bench(workload, trace, cwd=ROOT, smoke=True):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "2", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in expected])
        for spec in expected:
            self.assertEqual(metrics[spec["name"]]["unit"], spec["unit"])
            self.assertIsInstance(metrics[spec["name"]]["value"],
                                  (int, float))
        if trace:
            self.assertGreater(metrics["trace.queries"]["value"], 0)
            self.assertLessEqual(metrics["trace.unattributed_frac"]["value"],
                                 0.01)
        else:
            for spec in expected:
                self.assertNotEqual(metrics[spec["name"]]["value"], 0,
                                    spec["name"])
        return metrics

    def test_workloads(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_layers_idle_outside_their_workload(self):
        # The service layer runs on anns_serve only.
        metrics = self.check("cts_query", 1)
        self.assertEqual(metrics["service.run_ms.p50"]["value"], 0)
        self.assertGreater(metrics["cts.cluster_search_ms"]["value"], 0)
        metrics = self.check("anns_serve", 1)
        self.assertGreater(metrics["service.run_ms.p50"]["value"], 0)
        self.assertEqual(metrics["flat.scan_ms"]["value"], 0)

    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(scratch, path))
        proc = run_bench("exs_scan", 0, cwd=scratch, smoke=False)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
