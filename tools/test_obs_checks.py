#!/usr/bin/env python3
"""Tests of the offline subcommands of tools/obs_checks.py (metrics, trace,
kernels, service-load) over synthetic documents: a well-formed document
passes, and a document broken in one place fails with exit 1 naming it.

    python3 tools/test_obs_checks.py      # from anywhere
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import obs_checks  # noqa: E402

HIST = {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        "p50": 2.0, "p90": 3.0, "p99": 3.0,
        "buckets": [[1.0, 1.5, 1], [1.5, 2.5, 1], [2.5, 3.5, 1]],
        "exemplars": [[3.0, 7]]}
METRICS = {
    "counters": {f"mira.query.count.{m}": 1 for m in ("exs", "anns", "cts")},
    "gauges": {"mira.pool.exs.threads": 4},
    "histograms": {f"mira.query.latency_ms.{m}": HIST
                   for m in ("exs", "anns", "cts")},
}
TRACE = [
    {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "q"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
     "args": {"name": "query"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
     "args": {"name": "worker"}},
    {"name": "query", "cat": "q", "ph": "X", "pid": 0, "tid": 0, "ts": 0,
     "dur": 10},
    {"name": "scan", "cat": "q", "ph": "X", "pid": 0, "tid": 0, "ts": 1,
     "dur": 5},
    {"name": "scan_relation", "cat": "q", "ph": "X", "pid": 0, "tid": 1,
     "ts": 2, "dur": 3},
]
KERNELS = {"bench": "bench_kernels", "meta": {"simd_tier": "avx2"},
           "rows": [{"op": "dot_batch", "dim": 192, "n": 1000,
                     "tier": "avx2", "ns_per_op": 1.0, "gbps": 2.0,
                     "speedup_vs_scalar": 3.0}]}


def service_row(offered, completed, rejected, p99=2.0):
    return {"mode": "open", "offered_qps": offered,
            "completed_qps": completed, "completed": completed,
            "rejected": rejected, "evicted": 0, "failed": 0,
            "shed_fraction": rejected / offered, "p50_ms": 1.0,
            "p99_ms": p99}


SERVICE = {"bench": "service_load",
           "meta": {"unloaded_p50_ms": 1.0, "unloaded_p99_ms": 2.0,
                    "saturation_qps": 100.0, "window_seconds": 1.0,
                    "worker_threads": 4, "max_queue_depth": 4},
           "rows": [service_row(50, 50, 0), service_row(200, 120, 80)]}


class ObsChecksTest(unittest.TestCase):
    def run_check(self, args, doc):
        """(exit code, stderr) of `obs_checks.py args... FILE`."""
        obs_checks.ERRORS.clear()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = obs_checks.main([*args, path])
        return code, err.getvalue()

    def assert_fails(self, args, doc, needle):
        code, err = self.run_check(args, doc)
        self.assertEqual(code, 1, err)
        self.assertIn(needle, err)

    def test_well_formed_documents_pass(self):
        for args, doc in ((["metrics", "--expect-queries"], METRICS),
                          (["trace", "--expect-worker-spans"], TRACE),
                          (["kernels"], KERNELS),
                          (["service-load", "--expect-shedding"], SERVICE)):
            code, err = self.run_check(args, doc)
            self.assertEqual(code, 0, (args, err))

    def test_unreadable_input_is_a_usage_error(self):
        obs_checks.ERRORS.clear()
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(obs_checks.main(["metrics", "/nonexistent"]), 2)

    def test_metrics_failures(self):
        doc = copy.deepcopy(METRICS)
        doc["histograms"]["mira.query.latency_ms.exs"]["count"] = 4
        self.assert_fails(["metrics"], doc, "bucket counts sum to 3")
        doc = copy.deepcopy(METRICS)
        doc["histograms"]["mira.query.latency_ms.cts"]["exemplars"] = [[9, 1]]
        self.assert_fails(["metrics"], doc, "outside [min=1.0, max=3.0]")
        doc = copy.deepcopy(METRICS)
        del doc["counters"]["mira.query.count.anns"]
        self.assertEqual(self.run_check(["metrics"], doc)[0], 0)
        self.assert_fails(["metrics", "--expect-queries"], doc,
                          "mira.query.count.anns")
        self.assert_fails(["metrics"], {"counters": {"c": -1}},
                          "missing top-level section 'gauges'")
        self.assert_fails(["metrics"], dict(METRICS, gauges={"g": "x"}),
                          "gauge 'g': expected finite number")

    def test_trace_failures(self):
        doc = copy.deepcopy(TRACE)
        doc[4]["dur"] = 20  # scan outlives its enclosing query span
        self.assert_fails(["trace"], doc, "straddles the end")
        doc = copy.deepcopy(TRACE)
        del doc[2]
        self.assert_fails(["trace"], doc, "tid=1 has no thread_name")
        doc = copy.deepcopy(TRACE)
        doc[5]["tid"] = 0
        doc[5]["ts"] = 7
        self.assertEqual(self.run_check(["trace"], doc)[0], 0)
        self.assert_fails(["trace", "--expect-worker-spans"], doc,
                          "worker-thread span")
        self.assert_fails(["trace"], {"not": "an array"},
                          "top level is not a JSON array")

    def test_kernels_failures(self):
        doc = copy.deepcopy(KERNELS)
        del doc["rows"][0]["gbps"]
        self.assert_fails(["kernels"], doc, "missing field 'gbps'")
        self.assert_fails(["kernels"], dict(KERNELS, rows=[]),
                          "missing or empty 'rows'")
        self.assert_fails(["kernels"], dict(KERNELS, bench="x"),
                          "expected 'bench_kernels'")

    def test_service_load_failures(self):
        doc = copy.deepcopy(SERVICE)
        doc["rows"][0]["completed"] = 40
        self.assert_fails(["service-load"], doc, "conservation broken")
        doc = copy.deepcopy(SERVICE)
        doc["rows"][1] = service_row(200, 200, 0)
        self.assertEqual(self.run_check(["service-load"], doc)[0], 0)
        self.assert_fails(["service-load", "--expect-shedding"], doc,
                          "overload row never shed")
        doc = copy.deepcopy(SERVICE)
        doc["rows"][1] = service_row(200, 120, 80, p99=40.0)
        self.assert_fails(["service-load", "--expect-shedding"], doc,
                          "exceeds 3.0x unloaded p99")
        doc = copy.deepcopy(SERVICE)
        doc["rows"] = doc["rows"][:1]
        self.assert_fails(["service-load", "--expect-shedding"], doc,
                          "overload never measured")


if __name__ == "__main__":
    unittest.main()
