#!/usr/bin/env python3
"""Compares paired perfbench runs of a parent and a change.

    python3 tools/bench_diff.py PARENT.jsonl CHANGE.jsonl

Each file holds perfbench result lines (the last stdout line of
`python3 perfbench/run.py ...`), one run per line, of one workload; line i of
PARENT and line i of CHANGE are a pair (same seed, run back to back). For
every end-to-end metric BENCHMARK.json names, prints both medians, the
change/parent ratio, how many pairs the change won, the spread of the
parent's runs (the distance between their quartiles, which a claimed gain
must exceed) and a verdict from the metric's `better` direction and
`bound`. Per-layer metrics present on both sides, and not 0 on both, get
their medians and ratio, without a verdict.

Exits 1 when a run is `correct: false`, when the median ok_frac falls, or
when an end-to-end metric is worse than the parent's median by more than its
bound; 2 on unreadable input. It reads the repository's BENCHMARK.json and
changes nothing.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    """The result objects of a JSON-lines file; blank lines are skipped."""
    runs = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                run = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{number}: not JSON ({e})")
            if not isinstance(run, dict) or "metrics" not in run:
                raise ValueError(f"{path}:{number}: not a perfbench result")
            runs.append(run)
    if not runs:
        raise ValueError(f"{path}: no runs")
    return runs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def quartile_spread(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def ratio(parent, change):
    if parent == 0:
        return 1.0 if change == 0 else float("inf")
    return change / parent


def wins(parent_runs, change_runs, name, better):
    """Pairs in which the change is strictly better, and pairs compared."""
    won = compared = 0
    for p, c in zip(parent_runs, change_runs):
        if name not in p["metrics"] or name not in c["metrics"]:
            continue
        pv, cv = p["metrics"][name]["value"], c["metrics"][name]["value"]
        compared += 1
        won += cv < pv if better == "lower" else cv > pv
    return won, compared


def verdict(parent, change, better, bound):
    """'worse' beyond the bound, else 'better', 'same' or 'within bound'."""
    if change == parent:
        return "same"
    improved = change < parent if better == "lower" else change > parent
    if improved:
        return "better"
    limit = parent * (1 + bound) if better == "lower" else parent * (1 - bound)
    beyond = change > limit if better == "lower" else change < limit
    return "WORSE" if beyond else "within bound"


def diff(parent_runs, change_runs, spec):
    """Report lines and the reasons, if any, to fail."""
    lines, failures = [], []
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        bad = sum(1 for r in runs if r.get("correct") is not True)
        if bad:
            failures.append(f"{bad} {side} run(s) not correct")
    if len(parent_runs) != len(change_runs):
        lines.append(f"note: {len(parent_runs)} parent runs, "
                     f"{len(change_runs)} change runs; pairs cut to the "
                     f"shorter side")

    row = "{:<26} {:>12} {:>12} {:>8} {:>7} {:>11}  {}"
    lines.append(row.format("end-to-end", "parent", "change", "ratio",
                            "wins", "parent IQR", "verdict"))
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        p, c = values(parent_runs, name), values(change_runs, name)
        if not p or not c:
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        won, compared = wins(parent_runs, change_runs, name, better)
        v = verdict(pm, cm, better, metric["bound"])
        lines.append(row.format(name, f"{pm:.6g}", f"{cm:.6g}",
                                f"{ratio(pm, cm):.3f}", f"{won}/{compared}",
                                f"{quartile_spread(p):.3g}", v))
        if v == "WORSE":
            failures.append(f"{name} worse than its {metric['bound']:.0%} "
                            f"bound: {pm:.6g} -> {cm:.6g}")
        if name == "ok_frac" and cm < pm:
            failures.append(f"ok_frac fell: {pm:.6g} -> {cm:.6g}")

    layer_rows = []
    for metric in spec.get("per_layer", []):
        name = metric["name"]
        p, c = values(parent_runs, name), values(change_runs, name)
        if not p or not c:
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        if pm == cm == 0:
            continue  # a stage this workload does not run
        layer_rows.append(row.format(name, f"{pm:.6g}", f"{cm:.6g}",
                                     f"{ratio(pm, cm):.3f}", "", "",
                                     "").rstrip())
    if layer_rows:
        lines.append("")
        lines.append(row.format("per-layer", "parent", "change", "ratio", "",
                                "", "").rstrip())
        lines.extend(layer_rows)
    return lines, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent result lines (JSONL)")
    parser.add_argument("change", help="change result lines (JSONL)")
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        parent_runs = load_runs(args.parent)
        change_runs = load_runs(args.change)
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2

    print(f"{len(parent_runs)} parent runs, {len(change_runs)} change runs")
    lines, failures = diff(parent_runs, change_runs, spec)
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
