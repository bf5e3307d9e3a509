#!/usr/bin/env bash
# Runs the reduced quality grid that bench_results/quality_gate/ snapshots:
# bench_quality_tables, Tables 1-3 (ExS, ANNS, CTS and the five baselines over
# the LD/MD/SD partitions of a 300-table WikiTables-style corpus), on the
# forced scalar tier, so every MAP/MRR/nDCG digit repeats on any CPU.
#
# Usage:
#   tools/quality_grid.sh BENCH_DIR OUT_DIR
#
# BENCH_DIR holds the built bench binaries (e.g. build/release/bench); the
# BENCH_table*_quality_*.json results go to OUT_DIR. Compare with
#   python3 tools/bench_diff.py --quality bench_results/quality_gate OUT_DIR
# and re-record the snapshot by passing bench_results/quality_gate as OUT_DIR.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BENCH_DIR OUT_DIR" >&2
  exit 2
fi
bench_dir="$1"
out_dir="$2"
mkdir -p "$out_dir"
MIRA_FORCE_SCALAR=1 MIRA_BENCH_TABLES=300 MIRA_BENCH_JSON_DIR="$out_dir" \
  "$bench_dir/bench_quality_tables" > "$out_dir/bench_quality_tables.txt"
