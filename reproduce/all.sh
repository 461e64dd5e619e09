#!/usr/bin/env bash
# The one entry point for every bench. It builds the tree and runs the
# tier-1 tests, and stops before any bench if either fails. Then it runs
# each bench in the list below at its default scale and at its ci scale,
# and writes BENCH_<bench>.json at the repo root (bench_paper ->
# BENCH_paper.json); a bench missing from the build dir fails the run:
#   default  every cell at the default scale, with the host and the date;
#   ci       the deterministic fields (counters, modeled_s) of every cell at
#            the ci scale, which CI requires exactly.
# Every bench writes the same cell schema (bench/bench_common.h):
#   {"scale": {...}, "cells": [{figure, system, row, col,
#                               counters, modeled_s, wall_s}]}
#
# With --check it writes no BENCH file: it runs every bench at its ci scale
# only and checks each run against the committed file's ci block. That is
# what CI runs, in both kernel dispatch modes. Both modes also check the
# shapes each file must keep (the checks in CHECKER below).
#
# The DE_BENCH_* scale variables of the calling environment are ignored.
#
# Usage: reproduce/all.sh [--check] [build_dir]
set -u

check=0
if [ "${1:-}" = "--check" ]; then
  check=1
  shift
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
REPORTS="$ROOT/reproduce/reports"

cmake -B "$BUILD" -S "$ROOT" && cmake --build "$BUILD" -j "$(nproc)" &&
  (cd "$BUILD" && ctest --output-on-failure -j "$(nproc)") || exit 1

for var in $(env | sed -n 's/^\(DE_BENCH_[A-Z_]*\)=.*/\1/p'); do
  unset "$var"
done

# The ci scale of each bench: small enough for every CI run.
ci_scale() {
  case "$1" in
    bench_paper) echo DE_BENCH_INPUTS=200 DE_BENCH_TRIALS=1 \
      DE_BENCH_WORKLOAD_QUERIES=24 DE_BENCH_IQA_QUERIES=8 ;;
    bench_ingest) echo DE_BENCH_INGEST_BASE=120 DE_BENCH_INGEST_BATCHES=6 \
      DE_BENCH_INGEST_BATCH=8 ;;
    bench_kernels) echo DE_BENCH_KERNEL_ROWS=256 DE_BENCH_KERNEL_COUNT=65536 \
      DE_BENCH_KERNEL_REPS=3 ;;
    bench_service_qos) echo DE_BENCH_INPUTS=120 DE_BENCH_QOS_INTERACTIVE=6 \
      DE_BENCH_QOS_BATCH_SESSIONS=4 DE_BENCH_QOS_OUTSTANDING=2 \
      DE_BENCH_QOS_DEVICE_SCALE=2 ;;
  esac
}

CHECKER=$(cat <<'EOF'
import json, os, sys, time

KEYS = ('figure', 'system', 'row', 'col')
key = lambda c: tuple(c[k] for k in KEYS)
det = lambda c: {k: c[k] for k in ('counters', 'modeled_s') if c.get(k)}

def assemble(out, default_path, ci_path):
    cpu = next((l.split(':', 1)[1].strip() for l in open('/proc/cpuinfo')
                if l.startswith('model name')), 'unknown CPU')
    blocks = []
    for name, path in (('default', default_path), ('ci', ci_path)):
        run = json.load(open(path))
        head, cells = {'scale': run['scale']}, run['cells']
        if name == 'default':
            head['host'] = '%s, %d cores' % (cpu, os.cpu_count())
            head['date'] = time.strftime('%Y-%m-%d')
        else:
            cells = [dict([(k, c[k]) for k in KEYS] + list(det(c).items()))
                     for c in cells if det(c)]
        blocks.append('"%s": %s, "cells": [\n%s\n]}' % (
            name, json.dumps(head)[:-1],
            ',\n'.join(json.dumps(c) for c in cells)))
    with open(out, 'w') as f:
        f.write('{' + ',\n'.join(blocks) + '}\n')
    print('wrote', out)

def check(committed_path, run_path):
    committed = json.load(open(committed_path))
    run = json.load(open(run_path))
    assert run['scale'] == committed['ci']['scale'], run['scale']
    want = {key(c): det(c) for c in committed['ci']['cells']}
    got = {key(c): det(c) for c in run['cells'] if det(c)}
    bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not bad, [(k, want.get(k), got.get(k)) for k in bad[:5]]
    # Answers that differ from their reference, kernel outputs that differ
    # between dispatch modes.
    for c in run['cells'] + committed['default']['cells']:
        for name, value in c['counters'].items():
            assert not name.endswith('mismatches') or value == 0, (c, name)
    default = committed['default']['cells']
    name = os.path.basename(committed_path)
    if name == 'BENCH_paper.json':
        for system in {c['system'] for c in run['cells']}:
            fig10 = [c for c in run['cells']
                     if c['figure'] == 'fig10' and c['system'] == system]
            last = max(fig10, key=lambda c: int(c['row']))
            assert last['wall_s']['DE index'] > 0, last
        fig5 = [c for c in default if c['figure'] == 'fig5']
        assert len(fig5) == 54, len(fig5)
        assert all(c['counters']['inputs_run_frac'] < 1 for c in fig5)
        storage = [c for c in default if c['figure'] == 'fig5_storage']
        assert len(storage) == 2, storage
        assert all(c['counters']['accounted_frac'] <= 0.2 for c in storage)
    if name == 'BENCH_kernels.json':
        # The four MiniVgg conv2d_hwc rows, timed in every mode the host
        # has, so the convolution kernel cannot drop out of the parity check.
        flags = next((l.split() for l in open('/proc/cpuinfo')
                      if l.startswith('flags')), [])
        modes = {'scalar', 'avx2'} if 'avx2' in flags else {'scalar'}
        conv = [c for c in run['cells'] if c['row'].startswith('conv2d_hwc')]
        assert len(conv) == 4, conv
        assert all(set(c['wall_s']) == modes for c in conv), (modes, conv)
        assert all(t > 0 for c in run['cells'] for t in c['wall_s'].values())
    print('ok:', run_path, 'matches the ci block of', committed_path)

{'assemble': assemble, 'check': check}[sys.argv[1]](*sys.argv[2:])
EOF
)

mkdir -p "$REPORTS"
failed=0
for name in bench_paper bench_ingest bench_kernels bench_service_qos; do
  bench="$BUILD/$name"
  if [ ! -x "$bench" ]; then
    echo "error: $bench was not built" >&2
    failed=1
    continue
  fi
  scale=$(ci_scale "$name")
  runs="default ci"
  [ "$check" -eq 0 ] || runs="ci"
  for run in $runs; do
    env_scale=""
    [ "$run" = "ci" ] && env_scale=$scale
    log="$REPORTS/${name}_$run.log"
    echo "== $name at its $run scale (log: $log)"
    # shellcheck disable=SC2086
    if ! env $env_scale "$bench" "$REPORTS/${name}_$run.json" > "$log" 2>&1; then
      echo "   FAILED, tail of the log:"
      tail -5 "$log" | sed 's/^/   | /'
      failed=1
      continue 2
    fi
  done
  out="$ROOT/BENCH_${name#bench_}.json"
  if [ "$check" -eq 0 ]; then
    python3 -c "$CHECKER" assemble "$out" "$REPORTS/${name}_default.json" \
      "$REPORTS/${name}_ci.json" || failed=1
  fi
  python3 -c "$CHECKER" check "$out" "$REPORTS/${name}_ci.json" || failed=1
done
exit "$failed"
