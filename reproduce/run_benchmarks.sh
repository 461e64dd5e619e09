#!/usr/bin/env bash
# Runs every bench_* binary and collects per-bench logs plus a JSON report
# (pmembench-style): one JSON object per bench with status, wall time, and
# the log location, assembled into reproduce/reports/summary.json.
#
# It also regenerates BENCH_paper.json at the repo root from bench_paper
# (every figure and table of the paper): a `default` block with every cell
# at the default scale, and a `ci` block with the deterministic counters
# (counters and modeled seconds) at the scale CI runs and compares exactly.
# Both paper runs ignore the DE_BENCH_* scale variables of the environment.
#
# Usage:
#   reproduce/run_benchmarks.sh [build_dir] [report_dir]
#
# Scale knobs of the other benches are inherited from the environment
# (DE_BENCH_INPUTS, DE_BENCH_QOS_*, ...). For a quick smoke pass:
#   DE_BENCH_INPUTS=120 DE_BENCH_QOS_DEVICE_SCALE=2 reproduce/run_benchmarks.sh
set -u

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
REPORT_DIR="${2:-$REPO_ROOT/reproduce/reports}"
# The scale of the `ci` block; .github/workflows/ci.yml runs bench_paper at
# the same scale and checks it against the block's recorded scale.
CI_SCALE="DE_BENCH_INPUTS=200 DE_BENCH_TRIALS=1 DE_BENCH_WORKLOAD_QUERIES=24 DE_BENCH_IQA_QUERIES=8"
NO_SCALE="-u DE_BENCH_INPUTS -u DE_BENCH_TRIALS -u DE_BENCH_WORKLOAD_QUERIES -u DE_BENCH_IQA_QUERIES"

if [ ! -d "$BUILD_DIR" ]; then
  echo "error: build directory '$BUILD_DIR' not found." >&2
  echo "Configure and build first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

mkdir -p "$REPORT_DIR"
SUMMARY="$REPORT_DIR/summary.json"

benches=$(find "$BUILD_DIR" -maxdepth 1 -name 'bench_*' ! -name '*_test' \
  -type f -perm -u+x | sort)
if [ -z "$benches" ]; then
  echo "error: no bench_* binaries under '$BUILD_DIR'." >&2
  exit 1
fi

echo "{" > "$SUMMARY"
echo "  \"generated_by\": \"reproduce/run_benchmarks.sh\"," >> "$SUMMARY"
echo "  \"benches\": [" >> "$SUMMARY"

total=0
failed=0
first=1
# run NAME LOG COMMAND...: runs one bench and appends its summary entry.
run() {
  local name=$1 log=$2
  shift 2
  total=$((total + 1))
  echo "== $name (log: $log)"
  local start end seconds status
  start=$(date +%s.%N)
  if "$@" > "$log" 2>&1; then
    status="ok"
  else
    status="failed"
    failed=$((failed + 1))
    echo "   FAILED - tail of log:"
    tail -5 "$log" | sed 's/^/   | /'
  fi
  end=$(date +%s.%N)
  seconds=$(echo "$end $start" | awk '{printf "%.2f", $1 - $2}')
  echo "   $status in ${seconds}s"

  [ "$first" -eq 1 ] || echo "    ," >> "$SUMMARY"
  first=0
  {
    echo "    {"
    echo "      \"bench\": \"$name\","
    echo "      \"status\": \"$status\","
    echo "      \"wall_seconds\": $seconds,"
    echo "      \"log\": \"$log\""
    echo "    }"
  } >> "$SUMMARY"
}

for bench in $benches; do
  name=$(basename "$bench")
  if [ "$name" = "bench_paper" ]; then
    # shellcheck disable=SC2086
    run "$name" "$REPORT_DIR/$name.log" \
      env $NO_SCALE "$bench" "$REPORT_DIR/paper_default.json"
    # shellcheck disable=SC2086
    run "${name}_ci_scale" "$REPORT_DIR/${name}_ci_scale.log" \
      env $NO_SCALE $CI_SCALE "$bench" "$REPORT_DIR/paper_ci.json"
  else
    run "$name" "$REPORT_DIR/$name.log" "$bench"
  fi
done

echo "  ]," >> "$SUMMARY"
echo "  \"total\": $total," >> "$SUMMARY"
echo "  \"failed\": $failed" >> "$SUMMARY"
echo "}" >> "$SUMMARY"

if [ -f "$REPORT_DIR/paper_default.json" ] && [ -f "$REPORT_DIR/paper_ci.json" ]; then
  python3 - "$REPORT_DIR/paper_default.json" "$REPORT_DIR/paper_ci.json" \
    "$REPO_ROOT/BENCH_paper.json" <<'EOF' || failed=$((failed + 1))
import json, os, sys

default_path, ci_path, out_path = sys.argv[1:4]
cpu = next((line.split(':', 1)[1].strip() for line in open('/proc/cpuinfo')
            if line.startswith('model name')), 'unknown CPU')
host = '%s, %d cores' % (cpu, os.cpu_count())
keys = ('figure', 'system', 'row', 'col')
blocks = []
for name, path in (('default', default_path), ('ci', ci_path)):
    run = json.load(open(path))
    cells = run['cells']
    if name == 'ci':  # only the deterministic fields, which CI compares
        cells = [dict([(k, c[k]) for k in keys] +
                      [(k, c[k]) for k in ('counters', 'modeled_s') if c[k]])
                 for c in cells if c['counters'] or c['modeled_s']]
    head = {'scale': run['scale']}
    if name == 'default':
        head['host'] = host
    blocks.append('"%s": %s, "cells": [\n%s\n]}' % (
        name, json.dumps(head)[:-1],
        ',\n'.join(json.dumps(c) for c in cells)))
with open(out_path, 'w') as f:
    f.write('{' + ',\n'.join(blocks) + '}\n')
print('wrote', out_path)
EOF
fi

echo
echo "Report: $SUMMARY ($total benches, $failed failed)"
[ "$failed" -eq 0 ]
