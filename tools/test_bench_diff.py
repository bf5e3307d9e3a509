#!/usr/bin/env python3
"""Tests of tools/bench_diff.py over synthetic perfbench result lines and
quality tables.

    python3 tools/test_bench_diff.py      # from anywhere
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "ok_frac", "unit": "ratio", "better": "higher",
         "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "build.embed_ms", "unit": "ms", "better": "lower"},
    ],
}


def result(correct=True, **metrics):
    return {"correct": correct, "attempted": 100, "failed": 0,
            "metrics": {k: {"value": v, "unit": ""}
                        for k, v in metrics.items()}}


def runs(n, **metrics):
    return [result(**metrics) for _ in range(n)]


BASE = dict(p50_ms=1.0, qps=1000.0, ok_frac=1.0, setup_s=0.4)


class DiffTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        lines, failures = bench_diff.diff(runs(3, **BASE), runs(3, **BASE),
                                          SPEC)
        self.assertEqual(failures, [])
        self.assertTrue(any("setup_s" in l and "same" in l for l in lines))

    def test_gain_is_better_and_counts_wins(self):
        change = dict(BASE, setup_s=0.2)
        lines, failures = bench_diff.diff(runs(4, **BASE), runs(4, **change),
                                          SPEC)
        self.assertEqual(failures, [])
        row = next(l for l in lines if l.startswith("setup_s"))
        self.assertIn("0.500", row)
        self.assertIn("4/4", row)
        self.assertIn("better", row)

    def test_worse_within_bound_passes(self):
        change = dict(BASE, qps=900.0)
        lines, failures = bench_diff.diff(runs(3, **BASE), runs(3, **change),
                                          SPEC)
        self.assertEqual(failures, [])
        row = next(l for l in lines if l.startswith("qps"))
        self.assertIn("within bound", row)

    def test_worse_beyond_bound_fails(self):
        change = dict(BASE, p50_ms=1.3)
        lines, failures = bench_diff.diff(runs(3, **BASE), runs(3, **change),
                                          SPEC)
        self.assertEqual(len(failures), 1)
        self.assertIn("p50_ms", failures[0])
        row = next(l for l in lines if l.startswith("p50_ms"))
        self.assertIn("WORSE", row)

    def test_higher_is_better_beyond_bound_fails(self):
        change = dict(BASE, qps=700.0)
        _, failures = bench_diff.diff(runs(3, **BASE), runs(3, **change),
                                      SPEC)
        self.assertTrue(any("qps" in f for f in failures))

    def test_ok_frac_fall_fails_inside_its_bound(self):
        change = dict(BASE, ok_frac=0.99)
        _, failures = bench_diff.diff(runs(3, **BASE), runs(3, **change),
                                      SPEC)
        self.assertEqual(len(failures), 1)
        self.assertIn("ok_frac fell", failures[0])

    def test_incorrect_run_fails(self):
        change = runs(3, **BASE)
        change[1]["correct"] = False
        _, failures = bench_diff.diff(runs(3, **BASE), change, SPEC)
        self.assertEqual(failures, ["1 change run(s) not correct"])

    def test_medians_and_per_layer_ratio(self):
        parent = [result(**BASE, **{"build.embed_ms": v})
                  for v in (300.0, 400.0, 380.0)]
        change = [result(**BASE, **{"build.embed_ms": v})
                  for v in (150.0, 190.0, 500.0)]
        lines, failures = bench_diff.diff(parent, change, SPEC)
        self.assertEqual(failures, [])
        row = next(l for l in lines if l.startswith("build.embed_ms"))
        self.assertEqual(row.split()[1:], ["380", "190", "0.500"])

    def test_per_layer_zero_on_both_sides_is_left_out(self):
        both = runs(2, **BASE, **{"build.embed_ms": 0.0})
        lines, _ = bench_diff.diff(both, both, SPEC)
        self.assertFalse(any("per-layer" in l for l in lines))

    def test_parent_quartile_spread(self):
        parent = [result(**dict(BASE, setup_s=v))
                  for v in (0.30, 0.40, 0.50, 0.60, 0.70)]
        lines, _ = bench_diff.diff(parent, parent, SPEC)
        row = next(l for l in lines if l.startswith("setup_s"))
        self.assertEqual(row.split()[5], "0.2")

    def test_unpaired_tail_is_noted(self):
        lines, _ = bench_diff.diff(runs(3, **BASE), runs(2, **BASE), SPEC)
        self.assertIn("pairs cut", lines[0])


class CliTest(unittest.TestCase):
    def write(self, directory, name, rows):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n\n")
        return path

    def run_cli(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = bench_diff.main(list(args))
        return code, out.getvalue()

    def test_exit_codes(self):
        # The CLI reads the repository's BENCHMARK.json.
        with tempfile.TemporaryDirectory() as d:
            parent = self.write(d, "p.jsonl", runs(3, **BASE))
            good = self.write(d, "g.jsonl", runs(3, **BASE))
            bad = self.write(d, "b.jsonl",
                             runs(3, **dict(BASE, setup_s=0.6)))
            code, out = self.run_cli(parent, good)
            self.assertEqual(code, 0)
            self.assertTrue(out.startswith("3 parent runs"))
            self.assertIn("p50_ms", out)
            code, out = self.run_cli(parent, bad)
            self.assertEqual(code, 1)
            self.assertIn("FAIL: setup_s", out)
            garbage = os.path.join(d, "x.jsonl")
            with open(garbage, "w") as f:
                f.write("not json\n")
            code, _ = self.run_cli(parent, garbage)
            self.assertEqual(code, 2)

META = {"ld_tables": 300, "dim": 192, "queries_per_class": 20,
        "eval_depth": 100, "corpus": "wikitables", "simd_tier": "scalar"}


def quality_rows(**overrides):
    """Two partitions x one class x two methods; `overrides` maps
    'partition/method' to a dict of metric values to replace."""
    rows = []
    for partition in ("LD", "SD"):
        for method, base in (("ANNS", 0.5), ("ExS", 0.4)):
            row = {"partition": partition, "class": "long", "method": method,
                   "map": base, "mrr": base + 0.1, "ndcg@10": base + 0.2,
                   "p50_ms": 1.0}
            row.update(overrides.get(f"{partition}/{method}", {}))
            rows.append(row)
    return rows


def quality_grid(meta=META, **overrides):
    return bench_diff.load_quality_docs([
        {"bench": "table1_quality_long", "meta": meta,
         "rows": quality_rows(**overrides)}])


class QualityDiffTest(unittest.TestCase):
    def test_identical_grids_pass_exactly(self):
        lines, failures = bench_diff.quality_diff(quality_grid(),
                                                  quality_grid())
        self.assertEqual(failures, [])
        self.assertIn("compared exactly", lines[0])

    def test_timing_fields_are_ignored(self):
        run = quality_grid(**{"LD/ExS": {"p50_ms": 9.0}})
        _, failures = bench_diff.quality_diff(quality_grid(), run)
        self.assertEqual(failures, [])

    def test_any_changed_digit_fails_exact_mode(self):
        run = quality_grid(**{"SD/ExS": {"mrr": 0.5000000001}})
        _, failures = bench_diff.quality_diff(quality_grid(), run)
        self.assertEqual(len(failures), 1)
        self.assertIn("SD/long/ExS mrr", failures[0])

    def test_a_gain_also_fails_exact_mode(self):
        run = quality_grid(**{"LD/ANNS": {"map": 0.9}})
        _, failures = bench_diff.quality_diff(quality_grid(), run)
        self.assertEqual(len(failures), 1)

    def test_missing_row_and_meta_drift_fail(self):
        run = quality_grid(meta=dict(META, simd_tier="avx2"))
        del run["table1_quality_long"][1][("SD", "long", "ANNS")]
        _, failures = bench_diff.quality_diff(quality_grid(), run)
        self.assertTrue(any("simd_tier" in f for f in failures))
        self.assertTrue(any("SD/long/ANNS missing" in f for f in failures))

    def test_extra_row_or_bench_fails(self):
        snapshot = quality_grid()
        del snapshot["table1_quality_long"][1][("LD", "long", "ExS")]
        _, failures = bench_diff.quality_diff(snapshot, quality_grid())
        self.assertTrue(any("not in the snapshot" in f for f in failures))
        _, failures = bench_diff.quality_diff(quality_grid(), {})
        self.assertEqual(failures, ["table1_quality_long: missing from the "
                                    "run"])

    def test_outcome_mode_reports_mean_deltas(self):
        # ANNS: LD map +0.1, SD map -0.04 -> mean +0.03; ExS unchanged.
        run = quality_grid(**{"LD/ANNS": {"map": 0.6},
                              "SD/ANNS": {"map": 0.46}})
        lines, failures = bench_diff.quality_diff(quality_grid(), run, 0.01)
        self.assertEqual(failures, [])
        row = next(l for l in lines if l.startswith("ANNS"))
        self.assertIn("0.5300 (+0.0300)", row)
        self.assertIn("0.6000 (+0.0000)", row)
        self.assertEqual(lines[-1], "every digit unchanged: ExS")

    def test_outcome_mode_fails_a_drop_beyond_tolerance(self):
        run = quality_grid(**{"LD/ExS": {"ndcg@10": 0.5},
                              "SD/ExS": {"ndcg@10": 0.5}})
        _, failures = bench_diff.quality_diff(quality_grid(), run, 0.05)
        self.assertEqual(failures,
                         ["ExS long ndcg@10 fell by 0.1000 (tolerance 0.05)"])
        _, failures = bench_diff.quality_diff(quality_grid(), run, 0.15)
        self.assertEqual(failures, [])


class QualityCliTest(unittest.TestCase):
    def write_grid(self, directory, **overrides):
        with open(os.path.join(directory, "BENCH_table1_quality_long.json"),
                  "w") as f:
            json.dump({"bench": "table1_quality_long", "meta": META,
                       "rows": quality_rows(**overrides)}, f)
        # Other bench outputs in the directory are not quality tables.
        with open(os.path.join(directory, "BENCH_case_study.json"), "w") as f:
            f.write("{}")

    def run_cli(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = bench_diff.main(list(args))
            except SystemExit as e:  # argparse usage errors
                code = e.code
        return code, out.getvalue()

    def test_exit_codes(self):
        with tempfile.TemporaryDirectory() as snap, \
                tempfile.TemporaryDirectory() as same, \
                tempfile.TemporaryDirectory() as moved, \
                tempfile.TemporaryDirectory() as empty:
            self.write_grid(snap)
            self.write_grid(same)
            self.write_grid(moved, **{"LD/ANNS": {"map": 0.45}})
            self.assertEqual(self.run_cli("--quality", snap, same)[0], 0)
            code, out = self.run_cli("--quality", snap, moved)
            self.assertEqual(code, 1)
            self.assertIn("FAIL: table1_quality_long LD/long/ANNS map", out)
            code, out = self.run_cli("--quality", snap, moved,
                                     "--outcome", "0.05")
            self.assertEqual(code, 0)
            self.assertIn("-0.0250", out)
            self.assertEqual(self.run_cli("--quality", snap, moved,
                                          "--outcome", "0.01")[0], 1)
            self.assertEqual(self.run_cli("--quality", snap, empty)[0], 2)
            self.assertEqual(self.run_cli(snap, same, "--outcome", "0.1")[0],
                             2)


if __name__ == "__main__":
    unittest.main()
