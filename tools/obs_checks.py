#!/usr/bin/env python3
"""Validates the observability artefacts and live debugz endpoints CI gates.

    tools/obs_checks.py metrics [--expect-queries] METRICS.json
    tools/obs_checks.py trace [--expect-worker-spans] TRACE.json
    tools/obs_checks.py kernels BENCH_bench_kernels.json
    tools/obs_checks.py service-load [--expect-shedding] [--p99-multiple X]
                                     [--slack-ms MS] BENCH_service_load.json
    tools/obs_checks.py debugz [--profile-seconds S] [--expect-page PATH]...
                               [--arg ARG]... BINARY
    tools/obs_checks.py slo [--recovery-seconds S] [--slice-tolerance N] BINARY

The first four read files a bench wrote; `debugz` and `slo` start a bench
binary with `--debug-server --hold`, read the "[bench] debugz listening on
http://127.0.0.1:PORT/" line from its stderr, scrape it, and stop it with
SIGINT (the hold loop's stop signal), requiring a clean exit. Each
subcommand's checks are listed in its function's docstring
(`tools/obs_checks.py SUBCOMMAND --help` prints them).

Exit: 0 ok, 1 validation failure, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

ERRORS: list[str] = []

LISTEN_RE = re.compile(
    r"\[bench\] debugz listening on http://127\.0\.0\.1:(\d+)/")


class UsageError(Exception):
    """Unreadable input, or a binary that never served: exit 2."""


def fail(msg: str) -> None:
    ERRORS.append(msg)


def is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot load {path}: {e}") from e


def parse_json(what: str, body: bytes | str) -> dict | None:
    """The body as a JSON object, or None after recording the failure."""
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as e:
        fail(f"{what}: not valid JSON: {e}")
        return None
    if not isinstance(doc, dict):
        fail(f"{what}: top level is not an object")
        return None
    return doc


def load_bench_doc(path: str, bench: str) -> tuple[dict, list]:
    """(meta, rows) of a BenchJsonWriter document (bench/meta/rows) that
    must be named `bench`; a missing part is recorded and comes back
    empty."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail("top level is not an object")
        return {}, []
    if doc.get("bench") != bench:
        fail(f"bench name is {doc.get('bench')!r}, expected {bench!r}")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        fail("missing or non-object 'meta'")
        meta = {}
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail("missing or empty 'rows'")
        rows = []
    return meta, rows


def fetch(port: int, path: str, timeout: float = 30.0) -> tuple[int, bytes]:
    """Returns (status_code, body); HTTP error statuses are returned, not
    raised (0 means the connection itself failed)."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as e:
        return e.code, e.read()
    except (urllib.error.URLError, OSError) as e:
        fail(f"GET {path}: connection failed: {e}")
        return 0, b""


def fetch_json(port: int, path: str) -> dict | None:
    """GET + parse_json; None after recording a non-200 or bad body."""
    status, body = fetch(port, path)
    if status != 200:
        fail(f"{path}: HTTP {status}")
        return None
    return parse_json(path, body)


def wait_for_port(proc: subprocess.Popen, deadline_s: float = 300.0) -> int:
    """Reads the binary's stderr until the listening line appears. The serve
    tail comes after the binary's normal workload, which for the table benches
    is minutes of evaluation — hence the generous deadline."""
    start = time.monotonic()
    assert proc.stderr is not None
    while time.monotonic() - start < deadline_s:
        line = proc.stderr.readline()
        if not line:
            if proc.poll() is not None:
                break
            time.sleep(0.05)
            continue
        match = LISTEN_RE.search(line)
        if match:
            return int(match.group(1))
    return 0


@contextlib.contextmanager
def live_server(argv: list[str]):
    """Runs `argv` (which must pass --debug-server --hold) and yields its
    debugz port; on exit stops it with SIGINT and requires a clean exit."""
    try:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
    except OSError as e:
        raise UsageError(f"cannot start {argv[0]}: {e}") from e
    try:
        port = wait_for_port(proc)
        if port == 0:
            raise UsageError("no listening line on stderr (binary exited or "
                             "--debug-server unsupported)")
        yield port
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("binary ignored SIGINT (hold loop did not stop)")
        if proc.stderr is not None:
            proc.stderr.close()
        if proc.returncode not in (0, None):
            fail(f"binary exited with {proc.returncode} after SIGINT")


# ---------- metrics: a MetricRegistry::ExportJson document ----------

HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean", "p50", "p90", "p99",
                    "buckets")
QUERY_METHODS = ("exs", "anns", "cts")


def check_values(kind: str, values: object, ok, expected: str) -> None:
    """Every value of the `kind`s section passes `ok`."""
    if not isinstance(values, dict):
        fail(f"'{kind}s' is not an object")
        return
    for name, value in values.items():
        if not ok(value):
            fail(f"{kind} {name!r}: expected {expected}, got {value!r}")


def check_histogram(name: str, hist: object) -> None:
    if not isinstance(hist, dict):
        fail(f"histogram {name!r}: not an object")
        return
    for field in HISTOGRAM_FIELDS:
        if field not in hist:
            fail(f"histogram {name!r}: missing field {field!r}")
    count = hist.get("count")
    if not isinstance(count, int) or count < 0:
        fail(f"histogram {name!r}: bad count {count!r}")
        return
    buckets = hist.get("buckets")
    if not isinstance(buckets, list):
        fail(f"histogram {name!r}: 'buckets' is not a list")
        return
    bucket_total = 0
    previous_upper = -math.inf
    for entry in buckets:
        if (not isinstance(entry, list) or len(entry) != 3
                or not isinstance(entry[0], (int, float))
                or not isinstance(entry[1], (int, float))
                or not isinstance(entry[2], int) or entry[2] <= 0):
            fail(f"histogram {name!r}: bucket entry {entry!r} is not "
                 "[lower_bound, upper_bound, positive_count]")
            return
        lower, upper, bucket_count = entry
        if lower >= upper:
            fail(f"histogram {name!r}: bucket [{lower}, {upper}) is empty "
                 "or inverted")
        if lower < previous_upper:
            fail(f"histogram {name!r}: bucket [{lower}, {upper}) overlaps "
                 "or reorders the previous bucket")
        previous_upper = upper
        bucket_total += bucket_count
    if bucket_total != count:
        fail(f"histogram {name!r}: bucket counts sum to {bucket_total}, "
             f"count says {count}")
    check_exemplars(name, hist)
    if count > 0:
        ordered = (hist["min"], hist["p50"], hist["p90"], hist["p99"],
                   hist["max"])
        for lo, hi, what in zip(ordered, ordered[1:],
                                ("min<=p50", "p50<=p90", "p90<=p99",
                                 "p99<=max")):
            if lo > hi + 1e-9:
                fail(f"histogram {name!r}: quantile order violated "
                     f"({what}: {lo} > {hi})")
        if hist["sum"] < 0 and hist["min"] >= 0:
            fail(f"histogram {name!r}: negative sum with non-negative min")


def check_exemplars(name: str, hist: dict) -> None:
    if "exemplars" not in hist:
        return  # optional: only emitted once a tail observation was captured
    exemplars = hist["exemplars"]
    if not isinstance(exemplars, list) or not exemplars:
        fail(f"histogram {name!r}: 'exemplars' present but not a non-empty "
             "list")
        return
    for entry in exemplars:
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], (int, float))
                or not math.isfinite(entry[0])
                or not isinstance(entry[1], int) or entry[1] <= 0):
            fail(f"histogram {name!r}: exemplar {entry!r} is not "
                 "[finite_value, positive_id]")
            return
        minimum = hist.get("min")
        maximum = hist.get("max")
        if (isinstance(minimum, (int, float)) and isinstance(
                maximum, (int, float)) and hist.get("count", 0) > 0
                and not minimum <= entry[0] <= maximum):
            fail(f"histogram {name!r}: exemplar value {entry[0]} outside "
                 f"[min={minimum}, max={maximum}]")


def check_metrics(args: argparse.Namespace) -> str:
    """Checks a MetricRegistry::ExportJson document (METRICS_case_study.json,
    or any metrics dump):
      * top level is an object with "counters" / "gauges" / "histograms";
      * counters are non-negative integers, gauges are finite numbers;
      * every histogram carries count/sum/min/max/mean/p50/p90/p99/buckets;
      * bucket entries are [lower_bound, upper_bound, count] triples with
        lower < upper, non-overlapping ascending ranges, and counts that sum
        to the histogram's count;
      * quantiles are ordered (min <= p50 <= p90 <= p99 <= max) when
        count > 0, and the sum is not negative when min is not;
      * "exemplars", when present, is a non-empty list of [value, id] pairs
        with finite values inside [min, max] and positive query-log ids;
      * with --expect-queries, the per-method query metrics the engine
        publishes (mira.query.count.* / mira.query.latency_ms.* for
        ExS/ANNS/CTS) are present and populated."""
    doc = load_json(args.path)
    if not isinstance(doc, dict):
        fail("top level is not an object")
        return ""
    for section in ("counters", "gauges", "histograms"):
        if section not in doc:
            fail(f"missing top-level section {section!r}")
    check_values("counter", doc.get("counters", {}),
                 lambda v: isinstance(v, int) and not isinstance(v, bool)
                 and v >= 0, "non-negative integer")
    check_values("gauge", doc.get("gauges", {}),
                 lambda v: is_number(v) and math.isfinite(v), "finite number")
    histograms = doc.get("histograms", {})
    if isinstance(histograms, dict):
        for name, hist in histograms.items():
            check_histogram(name, hist)
    else:
        fail("'histograms' is not an object")
    if args.expect_queries and isinstance(histograms, dict):
        counters = doc.get("counters", {})
        for method in QUERY_METHODS:
            count_name = f"mira.query.count.{method}"
            latency_name = f"mira.query.latency_ms.{method}"
            if counters.get(count_name, 0) <= 0:
                fail(f"expected populated counter {count_name!r}")
            hist = histograms.get(latency_name)
            if not isinstance(hist, dict) or hist.get("count", 0) <= 0:
                fail(f"expected populated histogram {latency_name!r}")
    return (f"{len(doc.get('counters', {}))} counters, "
            f"{len(doc.get('gauges', {}))} gauges, "
            f"{len(histograms)} histograms")


# ---------- trace: a Chrome trace_event file from ChromeTraceWriter ----------

X_FIELDS = ("name", "ph", "pid", "tid", "ts", "dur")


def check_metadata(i: int, event: dict, named_processes: set,
                   named_threads: set) -> None:
    name = event.get("name")
    if name not in ("process_name", "thread_name"):
        fail(f"event {i}: metadata event with unexpected name {name!r}")
        return
    if not isinstance(event.get("pid"), int):
        fail(f"event {i}: metadata event without integer pid")
        return
    args = event.get("args")
    if not isinstance(args, dict) or not isinstance(args.get("name"), str):
        fail(f"event {i}: metadata event without args.name string")
    if name == "process_name":
        named_processes.add(event["pid"])
    else:
        if not isinstance(event.get("tid"), int):
            fail(f"event {i}: thread_name event without integer tid")
            return
        named_threads.add((event["pid"], event["tid"]))


def check_complete_event(i: int, event: dict) -> bool:
    ok = True
    for field in X_FIELDS:
        if field not in event:
            fail(f"event {i}: X event missing field {field!r}")
            ok = False
    if not ok:
        return False
    if not isinstance(event["name"], str) or not event["name"]:
        fail(f"event {i}: X event name must be a non-empty string")
        ok = False
    for field in ("pid", "tid"):
        if not isinstance(event[field], int):
            fail(f"event {i}: X event {field} must be an integer")
            ok = False
    for field in ("ts", "dur"):
        if not is_number(event[field]):
            fail(f"event {i}: X event {field} must be a number")
            ok = False
    if ok and event["dur"] < 0:
        fail(f"event {i}: X event has negative dur {event['dur']!r}")
        ok = False
    return ok


def check_lane(lane: tuple, events: list) -> None:
    """Per-(pid, tid) checks: monotonic ts and balanced span nesting."""
    previous_ts = None
    for i, event in events:
        if previous_ts is not None and event["ts"] < previous_ts - 1e-9:
            fail(f"event {i}: ts {event['ts']} goes backwards on lane "
                 f"pid={lane[0]} tid={lane[1]} (previous {previous_ts})")
        previous_ts = event["ts"]

    # Balanced nesting: walking spans by (start, -duration), each span must
    # lie fully inside whatever enclosing span is still open, never straddle
    # its end. A small epsilon absorbs float rounding in ms -> us conversion.
    eps = 1e-6
    ordered = sorted(events, key=lambda e: (e[1]["ts"], -e[1]["dur"]))
    stack: list = []  # (end, event index)
    for i, event in ordered:
        start, end = event["ts"], event["ts"] + event["dur"]
        while stack and start >= stack[-1][0] - eps:
            stack.pop()
        if stack and end > stack[-1][0] + eps:
            fail(f"event {i}: span [{start}, {end}] straddles the end of "
                 f"enclosing span (ends {stack[-1][0]}) on lane "
                 f"pid={lane[0]} tid={lane[1]}")
        stack.append((end, i))


def check_trace(args: argparse.Namespace) -> str:
    """Checks a Chrome trace_event file written by obs::ChromeTraceWriter
    (TRACE_case_study.json, or any exported trace):
      * top level is a JSON array (the trace_event "JSON Array Format");
      * metadata events ("ph": "M") are process_name / thread_name records
        with pid/tid and an args.name string;
      * every other event is a complete event ("ph": "X") carrying a
        non-empty name, integer pid/tid, and numeric ts/dur microseconds
        with dur >= 0;
      * per (pid, tid) lane, ts is monotonically non-decreasing in file
        order;
      * per lane, spans nest: sorted by start, every event either starts
        after the enclosing interval ends or lies fully inside it;
      * every (pid, tid) an X event references has a thread_name metadata
        record and every pid a process_name record;
      * with --expect-worker-spans, at least one X event runs on a worker
        lane (tid != 0): cross-thread trace propagation spliced pool-worker
        spans into the exported query."""
    doc = load_json(args.path)
    if not isinstance(doc, list):
        fail("top level is not a JSON array")
        return ""
    named_processes: set = set()
    named_threads: set = set()
    lanes: dict = {}
    worker_events = 0
    x_events = 0
    for i, event in enumerate(doc):
        if not isinstance(event, dict):
            fail(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph == "M":
            check_metadata(i, event, named_processes, named_threads)
            continue
        if ph != "X":
            fail(f"event {i}: unexpected phase {ph!r} (only M/X are emitted)")
            continue
        if not check_complete_event(i, event):
            continue
        x_events += 1
        if event["tid"] != 0:
            worker_events += 1
        lanes.setdefault((event["pid"], event["tid"]), []).append((i, event))

    for lane, events in lanes.items():
        check_lane(lane, events)
        if lane not in named_threads:
            fail(f"lane pid={lane[0]} tid={lane[1]} has no thread_name "
                 "metadata event")
        if lane[0] not in named_processes:
            fail(f"pid {lane[0]} has no process_name metadata event")

    if args.expect_worker_spans and worker_events == 0:
        fail("expected at least one worker-thread span (tid != 0), found "
             "none — cross-thread propagation did not contribute spans")
    return (f"{len(doc)} events ({x_events} spans, {worker_events} on worker "
            f"threads, {len(lanes)} lanes)")


# ---------- kernels: BENCH_bench_kernels.json ----------

KERNEL_ROW_FIELDS = ("op", "dim", "n", "tier", "ns_per_op", "gbps",
                     "speedup_vs_scalar")


def check_kernels(args: argparse.Namespace) -> str:
    """Checks BENCH_bench_kernels.json from `bench_kernels --quick`:
      * bench is "bench_kernels", with a meta object;
      * rows is a non-empty list;
      * every row carries op, dim, n, tier, ns_per_op, gbps and
        speedup_vs_scalar."""
    meta, rows = load_bench_doc(args.path, "bench_kernels")
    for i, row in enumerate(rows):
        for key in KERNEL_ROW_FIELDS:
            if not isinstance(row, dict) or key not in row:
                fail(f"row {i}: missing field {key!r}: {row!r}")
                break
    return f"{len(rows)} rows, tier {meta.get('simd_tier')}"


# ---------- service-load: BENCH_service_load.json ----------

SERVICE_ROW_FIELDS = ("mode", "offered_qps", "completed_qps", "completed",
                      "rejected", "evicted", "failed", "shed_fraction",
                      "p50_ms", "p99_ms")
SERVICE_META_FIELDS = ("unloaded_p50_ms", "unloaded_p99_ms", "saturation_qps",
                       "window_seconds", "worker_threads", "max_queue_depth")


def check_service_row(i: int, row: dict, window_s: float) -> None:
    for field in SERVICE_ROW_FIELDS:
        if field not in row:
            fail(f"row {i}: missing field {field!r}")
            return
    if row["mode"] not in ("closed", "open"):
        fail(f"row {i}: unknown mode {row['mode']!r}")
    for field in ("offered_qps", "completed_qps", "completed", "rejected",
                  "evicted", "failed", "p50_ms", "p99_ms"):
        value = row[field]
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"row {i}: {field} = {value!r} is not a non-negative number")
            return
    if not 0.0 <= row["shed_fraction"] <= 1.0:
        fail(f"row {i}: shed_fraction {row['shed_fraction']} outside [0, 1]")
    if row["completed"] > 0 and row["p99_ms"] < row["p50_ms"]:
        fail(f"row {i}: p99 {row['p99_ms']} below p50 {row['p50_ms']}")
    total = (row["completed"] + row["rejected"] + row["evicted"] +
             row["failed"])
    offered = row["offered_qps"] * window_s
    if total > 0 and abs(total - offered) > max(2.0, 0.02 * total):
        fail(f"row {i}: conservation broken — counts sum to {total} but "
             f"offered_qps*window = {offered:.1f}")


def check_service_load(args: argparse.Namespace) -> str:
    """Checks BENCH_service_load.json from bench_service_load:
      * the document has the BenchJsonWriter layout (bench/meta/rows), with
        bench "service_load";
      * meta carries the unloaded baseline (unloaded_p50_ms,
        unloaded_p99_ms), saturation_qps, window_seconds, worker_threads and
        max_queue_depth, all positive numbers;
      * every row has mode ("closed"/"open"), offered_qps, completed_qps,
        completed/rejected/evicted/failed counts, shed_fraction and
        p50_ms/p99_ms, with fractions in [0, 1], non-negative numbers and
        p99 >= p50 when anything completed;
      * request conservation per row: completed + rejected + evicted + failed
        equals offered_qps * window within max(2, 2 %).
    With --expect-shedding (the overload acceptance gate):
      * at least one row is measured past saturation
        (offered_qps >= 1.5 * saturation_qps);
      * every such row sheds (rejected > 0) rather than queueing unboundedly;
      * on those rows the p99 of *accepted* requests stays within
        --p99-multiple times the unloaded p99, plus --slack-ms of absolute
        scheduler-noise allowance."""
    meta, rows = load_bench_doc(args.json_file, "service_load")
    for field in SERVICE_META_FIELDS:
        value = meta.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"meta.{field} = {value!r} is not a positive number")

    window_s = meta.get("window_seconds") or 1.0
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(f"row {i}: not an object")
            continue
        check_service_row(i, row, window_s)

    if args.expect_shedding and not ERRORS:
        unloaded_p99 = meta["unloaded_p99_ms"]
        saturation = meta["saturation_qps"]
        bound = args.p99_multiple * unloaded_p99 + args.slack_ms
        overload = [r for r in rows
                    if r["offered_qps"] >= 1.5 * saturation]
        if not overload:
            fail(f"no row offered >= 1.5x saturation "
                 f"({saturation:.1f} qps) — overload never measured")
        for row in overload:
            label = f"{row['mode']} @ {row['offered_qps']:.0f} qps"
            if row["rejected"] <= 0:
                fail(f"{label}: overload row never shed "
                     f"(rejected = {row['rejected']}) — the queue absorbed "
                     f"~{row['offered_qps'] / saturation:.1f}x saturation")
            if row["completed"] > 0 and row["p99_ms"] > bound:
                fail(f"{label}: accepted p99 {row['p99_ms']:.2f} ms exceeds "
                     f"{args.p99_multiple}x unloaded p99 "
                     f"({unloaded_p99:.2f} ms) + {args.slack_ms} ms slack")
        if not ERRORS:
            worst = max(r["p99_ms"] for r in overload)
            print(f"ok: {len(overload)} overload row(s) shed with accepted "
                  f"p99 <= {worst:.2f} ms (bound {bound:.2f} ms)")
    return f"BENCH_service_load.json carries {len(rows)} valid rows"


# ---------- query-log export, shared by debugz and slo ----------

def querylog_entries(port: int) -> list[dict] | None:
    """/querylogz?format=jsonl as a list of objects; None after a failure."""
    status, body = fetch(port, "/querylogz?format=jsonl")
    if status != 200:
        fail(f"/querylogz?format=jsonl: HTTP {status}")
        return None
    lines = [line for line in body.decode("utf-8").splitlines() if line]
    if not lines:
        fail("/querylogz?format=jsonl: empty export after a full bench run")
        return None
    entries = []
    for i, line in enumerate(lines):
        entry = parse_json(f"/querylogz jsonl line {i}", line)
        if entry is None:
            return None
        entries.append(entry)
    return entries


def require_fields(entries: list[dict], fields: tuple) -> bool:
    for i, entry in enumerate(entries):
        for field in fields:
            if field not in entry:
                fail(f"/querylogz jsonl line {i}: missing field {field!r}")
                return False
    return True


# ---------- debugz: every endpoint of a live bench binary ----------

DEBUGZ_ENDPOINTS = ("/", "/healthz", "/statusz", "/metricsz", "/varz",
                    "/querylogz", "/tracez", "/memz")
QUERYLOG_FIELDS = ("id", "method", "duration_ms")
FOLDED_LINE_RE = re.compile(r"^[^ ](?:.*[^ ])? \d+$")


def check_profile(body: bytes) -> None:
    text = body.decode("utf-8", errors="replace")
    lines = [line for line in text.splitlines() if line]
    if not lines:
        fail("/profilez: empty folded output (hold loop not burning CPU?)")
        return
    for line in lines:
        if not FOLDED_LINE_RE.match(line):
            fail(f"/profilez: malformed folded line {line[:120]!r}")
            return
    if not any("vecmath" in line for line in lines):
        fail("/profilez: no vecmath frames in any stack — symbolization or "
             "-rdynamic (ENABLE_EXPORTS) regressed")
    print(f"ok: /profilez captured {len(lines)} distinct stacks")


def check_debugz(args: argparse.Namespace) -> str:
    """Scrapes the embedded debugz server of a live bench binary, started as
    BINARY [--arg ...] --debug-server --hold (the hold loop drives queries so
    /profilez has CPU time to sample):
      * every endpoint (/, /healthz, /statusz, /metricsz, /varz, /querylogz,
        /tracez, /memz), plus each --expect-page, serves HTTP 200 with a
        non-empty body, and the index links each --expect-page;
      * /healthz leads with "ok";
      * /varz is a JSON object with counters/gauges/histograms objects and
        at least one counter;
      * /querylogz?format=jsonl is non-empty, one JSON object per line, each
        carrying id, method and duration_ms;
      * /profilez?seconds=bogus gets HTTP 400;
      * a --profile-seconds /profilez capture serves folded stacks
        ("frame[;frame...] <count>" lines), some mentioning vecmath;
      * the binary exits cleanly on SIGINT."""
    argv = [args.binary, *args.extra_args, "--debug-server", "--hold"]
    with live_server(argv) as port:
        for path in DEBUGZ_ENDPOINTS + tuple(args.expect_page):
            status, body = fetch(port, path)
            if status != 200:
                fail(f"GET {path}: HTTP {status}")
            elif not body:
                fail(f"GET {path}: empty body")

        if args.expect_page:
            status, body = fetch(port, "/")
            index = body.decode("utf-8", errors="replace")
            for page in args.expect_page:
                if status == 200 and page.lstrip("/") not in index:
                    fail(f"index does not link registered page {page}")

        status, body = fetch(port, "/healthz")
        if status == 200 and not body.startswith(b"ok"):
            fail(f"/healthz does not lead with 'ok': {body[:80]!r}")

        status, body = fetch(port, "/varz")
        varz = parse_json("/varz", body) if status == 200 else None
        if varz is not None:
            for section in ("counters", "gauges", "histograms"):
                if not isinstance(varz.get(section), dict):
                    fail(f"/varz: missing or non-object section {section!r}")
            if not varz.get("counters"):
                fail("/varz: no counters registered after a full bench run")

        entries = querylog_entries(port)
        if entries is not None and require_fields(entries, QUERYLOG_FIELDS):
            print(f"ok: /querylogz jsonl carries {len(entries)} entries")

        status, body = fetch(port, "/profilez?seconds=bogus")
        if status != 400:
            fail(f"/profilez?seconds=bogus: expected HTTP 400, got {status}")

        seconds = args.profile_seconds
        status, body = fetch(port, f"/profilez?seconds={seconds}",
                             timeout=seconds + 30.0)
        if status != 200:
            fail(f"/profilez?seconds={seconds}: HTTP {status}")
        else:
            check_profile(body)
    return (f"all {len(DEBUGZ_ENDPOINTS)} endpoints + profilez on port "
            f"{port}")


# ---------- slo: SLO burn rates, tenant slices and exemplars, live ----------

TRACE_ID_RE = re.compile(r"tracez\?id=(\d+)")
# The bench's synthetic tenants plus the bounded-slice overflow bucket.
TENANTS = ("alpha", "beta", "gamma", "_other")
BENCH_TENANTS = ("alpha", "beta", "gamma")


def shed_transitions(doc: dict) -> list[dict]:
    transitions = doc.get("transitions")
    if not isinstance(transitions, list):
        fail("/slozz.json: 'transitions' is not a list")
        return []
    return [t for t in transitions
            if isinstance(t, dict) and t.get("objective") == "shed_fraction"]


def check_breach(doc: dict) -> None:
    breaches = [t for t in shed_transitions(doc) if t.get("to") == "breach"]
    if not breaches:
        fail("no shed_fraction transition into 'breach' — the overload "
             "points shed 40%+ against a 2% objective, the burn detector "
             "had to fire")
        return
    if not any(t.get("burn_fast", 0) > 0 for t in breaches):
        fail("shed_fraction breach recorded with zero fast burn rate")
        return
    worst = max(t.get("burn_fast", 0) for t in breaches)
    print(f"ok: shed_fraction breached (peak fast burn {worst:.1f}x)")


def await_recovery(port: int, deadline_s: float) -> None:
    """The hold loop drives gentle serial load, so the shed windows drain
    and the objective must leave breach within the deadline."""
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        doc = fetch_json(port, "/slozz.json")
        if doc is None:
            return
        recoveries = [t for t in shed_transitions(doc)
                      if t.get("from") == "breach" and t.get("to") != "breach"]
        if recoveries:
            print(f"ok: shed_fraction recovered "
                  f"(breach -> {recoveries[-1].get('to')})")
            return
        time.sleep(0.5)
    fail(f"shed_fraction never left 'breach' within {deadline_s:.0f}s of "
         "gentle hold-loop load — burn windows are not draining")


def check_tenant_slices(port: int, tolerance: int) -> None:
    doc = fetch_json(port, "/varz")
    if doc is None:
        return
    counters = doc.get("counters", {})
    if not isinstance(counters, dict):
        fail("/varz: 'counters' is not an object")
        return
    service_admitted = counters.get("mira.service.admitted", 0)
    slice_admitted = sum(
        counters.get(f"mira.tenant.{tenant}.admitted", 0)
        for tenant in TENANTS)
    if service_admitted <= 0:
        fail("/varz: mira.service.admitted is zero after a full bench run")
        return
    for tenant in BENCH_TENANTS:
        if counters.get(f"mira.tenant.{tenant}.admitted", 0) <= 0:
            fail(f"/varz: tenant slice {tenant!r} admitted nothing — the "
                 "bench spreads requests over all three tenants")
    # The hold loop admits requests between the two counter reads, so allow
    # a small skew; a label-dimension bug would be off by thousands.
    if abs(slice_admitted - service_admitted) > tolerance:
        fail(f"tenant slices sum to {slice_admitted} admitted, service "
             f"total says {service_admitted} (tolerance {tolerance})")
        return
    print(f"ok: tenant slices sum to service totals "
          f"({slice_admitted} vs {service_admitted})")


def engine_exemplar_ids(doc: dict) -> set[int]:
    ids: set[int] = set()
    histograms = doc.get("histograms", {})
    if not isinstance(histograms, dict):
        return ids
    for name, hist in histograms.items():
        if not name.startswith("mira.query.latency_ms."):
            continue
        if not isinstance(hist, dict):
            continue
        for entry in hist.get("exemplars", []):
            if (isinstance(entry, list) and len(entry) == 2
                    and isinstance(entry[1], int)):
                ids.add(entry[1])
    return ids


def check_exemplar_trace_link(port: int, deadline_s: float) -> None:
    """At least one engine-histogram exemplar id must appear among the
    promoted /tracez ids. Exemplar capture is best-effort (TryLock) and the
    hold loop keeps promoting, so poll briefly rather than single-shot."""
    start = time.monotonic()
    last_exemplars: set[int] = set()
    last_promoted: set[int] = set()
    while time.monotonic() - start < deadline_s:
        doc = fetch_json(port, "/varz")
        if doc is None:
            return
        last_exemplars = engine_exemplar_ids(doc)
        status, body = fetch(port, "/tracez")
        if status != 200:
            fail(f"/tracez: HTTP {status}")
            return
        last_promoted = {
            int(m) for m in TRACE_ID_RE.findall(
                body.decode("utf-8", errors="replace"))}
        linked = last_exemplars & last_promoted
        if linked:
            print(f"ok: {len(linked)} exemplar id(s) resolve to promoted "
                  f"traces (e.g. id {min(linked)})")
            return
        time.sleep(0.5)
    fail(f"no engine latency exemplar resolves to a promoted trace id "
         f"(exemplars: {sorted(last_exemplars)}, promoted: "
         f"{sorted(last_promoted)})")


def check_querylog_tenancy(port: int) -> None:
    entries = querylog_entries(port)
    if entries is None or not require_fields(entries, ("tenant", "priority")):
        return
    tenants_seen = {entry["tenant"] for entry in entries}
    if not tenants_seen & set(BENCH_TENANTS):
        fail(f"/querylogz jsonl: no bench tenant in export "
             f"(saw {sorted(tenants_seen)})")
        return
    print(f"ok: query log carries tenant + priority "
          f"({len(entries)} entries, tenants {sorted(tenants_seen)})")


def check_slo(args: argparse.Namespace) -> str:
    """End-to-end gate for the service SLO / tenant-slice / exemplar
    plumbing, against BINARY --quick --debug-server --hold
    (bench_service_load). The bench runs its closed- and open-loop load
    points before the serve tail, so the overload phase already happened
    when the listening line appears. Then:
      * /slozz.json records a shed_fraction transition into "breach" with a
        nonzero fast burn rate, and carries a watchdog section that has
        scanned at least once;
      * /varz per-tenant slice counters (mira.tenant.<t>.admitted) sum to
        the service-level admitted counter within --slice-tolerance, the
        service admitted something, and every bench tenant admitted
        something;
      * at least one latency exemplar of the engine histograms
        (mira.query.latency_ms.*) resolves to a trace id promoted on /tracez
        (polled for 30 s);
      * /querylogz?format=jsonl entries carry "tenant" and "priority", and
        some entry names a bench tenant;
      * /slozz.json shows a transition out of breach within
        --recovery-seconds of the hold loop's gentle load;
      * the binary exits cleanly on SIGINT."""
    argv = [args.binary, "--quick", "--debug-server", "--hold"]
    with live_server(argv) as port:
        doc = fetch_json(port, "/slozz.json")
        if doc is not None:
            check_breach(doc)
            if doc.get("watchdog") is None:
                fail("/slozz.json: watchdog section missing (bench enables "
                     "the stuck-query watchdog)")
            elif doc["watchdog"].get("scans", 0) <= 0:
                fail("/slozz.json: watchdog never scanned")
        check_tenant_slices(port, args.slice_tolerance)
        check_exemplar_trace_link(port, deadline_s=30.0)
        check_querylog_tenancy(port)
        await_recovery(port, args.recovery_seconds)
    return (f"SLO breach + recovery, tenant slices, exemplar->trace link on "
            f"port {port}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            name, description=inspect.cleandoc(run.__doc__),
            formatter_class=argparse.RawTextHelpFormatter)
        sub.set_defaults(run=run)
        return sub

    sub = command("metrics", check_metrics)
    sub.add_argument("path", help="metrics JSON file to validate")
    sub.add_argument("--expect-queries", action="store_true",
                     help="require populated mira.query.* metrics for "
                          "ExS/ANNS/CTS")

    sub = command("trace", check_trace)
    sub.add_argument("path", help="Chrome trace JSON file to validate")
    sub.add_argument("--expect-worker-spans", action="store_true",
                     help="require at least one X event with tid != 0 "
                          "(spans propagated from pool workers)")

    sub = command("kernels", check_kernels)
    sub.add_argument("path", help="path to BENCH_bench_kernels.json")

    sub = command("service-load", check_service_load)
    sub.add_argument("json_file", help="path to BENCH_service_load.json")
    sub.add_argument("--expect-shedding", action="store_true",
                     help="require overload rows to shed and bound their "
                          "accepted-request p99 against the unloaded p99")
    sub.add_argument("--p99-multiple", type=float, default=3.0,
                     help="allowed accepted-p99 multiple of the unloaded "
                          "p99 on overload rows (default 3)")
    sub.add_argument("--slack-ms", type=float, default=25.0,
                     help="absolute p99 allowance on top of the multiple, "
                          "for CI scheduler noise (default 25)")

    sub = command("debugz", check_debugz)
    sub.add_argument("binary",
                     help="bench binary supporting --debug-server/--hold")
    sub.add_argument("--profile-seconds", type=float, default=1.0,
                     help="length of the /profilez capture (default 1)")
    sub.add_argument("--expect-page", action="append", default=[],
                     metavar="PATH",
                     help="extra registered page (e.g. /servicez) that "
                          "must serve HTTP 200 with a non-empty body and "
                          "be linked from the index; repeatable")
    sub.add_argument("--arg", action="append", default=[], dest="extra_args",
                     metavar="ARG",
                     help="extra argument passed to the binary before "
                          "--debug-server/--hold (e.g. --quick); repeatable")

    sub = command("slo", check_slo)
    sub.add_argument("binary",
                     help="bench_service_load binary (supports --quick "
                          "--debug-server --hold)")
    sub.add_argument("--recovery-seconds", type=float, default=60.0,
                     help="max wait for the breached objective to recover "
                          "under hold-loop load (default 60)")
    sub.add_argument("--slice-tolerance", type=int, default=32,
                     help="allowed skew between the tenant-slice sum and "
                          "the service admitted counter (default 32)")

    args = parser.parse_args(argv)
    prefix = f"obs_checks {args.command}"
    try:
        summary = args.run(args)
    except UsageError as e:
        print(f"{prefix}: {e}", file=sys.stderr)
        return 2
    if ERRORS:
        for err in ERRORS:
            print(f"{prefix}: {err}", file=sys.stderr)
        return 1
    print(f"ok: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
