#!/usr/bin/env python3
"""Compares paired perfbench runs, or quality grids, of a parent and a change.

    python3 tools/bench_diff.py PARENT.jsonl CHANGE.jsonl
    python3 tools/bench_diff.py --quality SNAPSHOT_DIR RUN_DIR [--outcome TOL]

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

--quality compares two directories of quality-table results (the
BENCH_table*_quality_*.json that bench_quality_tables writes; see
tools/quality_grid.sh and bench_results/quality_gate/). Rows are keyed by
bench, partition, query class and method. By default the comparison is
exact: every MAP, MRR and nDCG@10 digit must match, and the run must cover
the snapshot's rows with the same grid settings. --outcome TOL compares
outcomes instead: per method and query class it prints the change of each
metric's mean over the partitions, names the methods whose every digit still
matches, and fails when a mean falls by more than TOL.
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


QUALITY_METRICS = ("map", "mrr", "ndcg@10")
# Grid settings two quality runs must share to be comparable.
QUALITY_META = ("ld_tables", "dim", "queries_per_class", "eval_depth",
                "corpus", "simd_tier")


def load_quality_docs(docs):
    """{bench: (meta, {(partition, class, method): row})} of parsed tables."""
    return {doc["bench"]: (doc["meta"],
                           {(r["partition"], r["class"], r["method"]): r
                            for r in doc["rows"]})
            for doc in docs}


def load_quality(directory):
    """load_quality_docs() of a directory's BENCH_table*_quality_*.json."""
    docs = []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_table") and "_quality_" in name
                and name.endswith(".json")):
            continue
        with open(os.path.join(directory, name)) as f:
            try:
                docs.append(json.load(f))
            except json.JSONDecodeError as e:
                raise ValueError(f"{f.name}: not JSON ({e})")
    if not docs:
        raise ValueError(f"{directory}: no BENCH_table*_quality_*.json")
    try:
        return load_quality_docs(docs)
    except (KeyError, TypeError) as e:
        raise ValueError(f"{directory}: not a quality table ({e!r})")


def quality_diff(snapshot, run, outcome_tol=None):
    """Report lines and the reasons, if any, to fail (see the module doc)."""
    lines, failures = [], []
    # (method, class) -> metric -> [snapshot values], [run values]
    means = {}
    exact_methods, changed_methods = set(), set()
    for bench, (meta, rows) in sorted(snapshot.items()):
        if bench not in run:
            failures.append(f"{bench}: missing from the run")
            continue
        run_meta, run_rows = run[bench]
        for key in QUALITY_META:
            if meta.get(key) != run_meta.get(key):
                failures.append(f"{bench}: meta {key} {meta.get(key)!r} != "
                                f"{run_meta.get(key)!r}")
        for key, row in sorted(rows.items()):
            partition, cls, method = key
            if key not in run_rows:
                failures.append(f"{bench}: row {'/'.join(key)} missing "
                                f"from the run")
                continue
            run_row = run_rows[key]
            for metric in QUALITY_METRICS:
                old, new = row.get(metric), run_row.get(metric)
                if old is None or new is None:
                    failures.append(f"{bench} {'/'.join(key)}: no {metric}")
                    continue
                if old == new:
                    exact_methods.add(method)
                else:
                    changed_methods.add(method)
                    if outcome_tol is None:
                        failures.append(f"{bench} {partition}/{cls}/{method} "
                                        f"{metric}: {old!r} -> {new!r}")
                pair = means.setdefault((method, cls), {}).setdefault(
                    metric, ([], []))
                pair[0].append(old)
                pair[1].append(new)
        for key in sorted(set(run_rows) - set(rows)):
            failures.append(f"{bench}: row {'/'.join(key)} not in the "
                            f"snapshot")
    if outcome_tol is None:
        lines.append(f"quality: {len(means)} method/class groups compared "
                     f"exactly")
        return lines, failures

    row = "{:<6} {:<9} " + " ".join(["{:>19}"] * len(QUALITY_METRICS))
    lines.append(row.format("method", "class", *(
        f"{m} (delta)" for m in QUALITY_METRICS)))
    for (method, cls), metrics in sorted(means.items()):
        cells = []
        for metric in QUALITY_METRICS:
            old, new = metrics.get(metric, ([], []))
            if not old:
                cells.append("-")
                continue
            old_mean = sum(old) / len(old)
            new_mean = sum(new) / len(new)
            delta = new_mean - old_mean
            cells.append(f"{new_mean:.4f} ({delta:+.4f})")
            if delta < -outcome_tol:
                failures.append(f"{method} {cls} {metric} fell by "
                                f"{-delta:.4f} (tolerance {outcome_tol})")
        lines.append(row.format(method, cls, *cells))
    unchanged = sorted(exact_methods - changed_methods)
    lines.append(f"every digit unchanged: {', '.join(unchanged) or 'none'}")
    return lines, failures


def quality_main(args):
    try:
        snapshot = load_quality(args.parent)
        run = load_quality(args.change)
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    lines, failures = quality_diff(snapshot, run, args.outcome)
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent result lines (JSONL), or the "
                        "snapshot directory with --quality")
    parser.add_argument("change", help="change result lines (JSONL), or the "
                        "run directory with --quality")
    parser.add_argument("--quality", action="store_true",
                        help="compare quality-table directories")
    parser.add_argument("--outcome", type=float, metavar="TOL",
                        help="with --quality: compare per method and class "
                        "means, failing a fall larger than TOL")
    args = parser.parse_args(argv)
    if args.outcome is not None and not args.quality:
        parser.error("--outcome needs --quality")
    if args.quality:
        return quality_main(args)
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
