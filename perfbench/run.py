#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <cts_query|anns_serve|exs_scan> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. The first call configures and builds the MIRA
libraries and the benchmark binary (perfbench/mira_perfbench.cc) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls only re-check the build. The binary's last stdout line is the
result JSON, which this script passes through unchanged, with the binary's
exit code. Build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout):
    """Runs cmd with stdout sent to stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 124


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_checked(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        if code != 0:
            return code
    jobs = str(min(os.cpu_count() or 1, 4))
    return run_checked(
        ["cmake", "--build", build_dir, "--target", "mira_perfbench",
         "-j", jobs], timeout=840)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cts_query", "anns_serve", "exs_scan"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, for the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: the MIRA sources (../src) are missing",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    code = build(build_dir)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code

    cmd = [os.path.join(build_dir, "mira_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
