#!/usr/bin/env bash
# Repo lint: project invariants the compiler cannot enforce.
#
# Rules (each can be waived per line with a `lint:allow(<rule>)` comment
# next to a justification):
#
#   console       No std::cout/std::cerr/printf-family output in src/ —
#                 everything goes through common/logging so sinks and
#                 levels apply. src/common/logging.cc's terminal backend
#                 is the one legitimate writer.
#   sleep-under-lock
#                 No sleeping while a scoped lock is held: a sleeping
#                 holder stalls every contender (and under TSan, every
#                 test). Tracked textually per scope, so release-before-
#                 sleep patterns pass.
#   include-guard Headers use DEEPEVEREST_<PATH>_H_ include guards, never
#                 `#pragma once` — one convention, greppable.
#   double-format Doubles are formatted with %.17g only (outside
#                 src/common/json.cc, which owns the canonical
#                 implementation): shorter precisions silently break the
#                 bit-exact wire round-trip the JSON layer guarantees.
#   raw-mutex     No raw std::mutex/std::condition_variable/std locks in
#                 src/ outside common/mutex.h: the annotated
#                 common::Mutex wrappers are what clang's thread-safety
#                 analysis can see; a raw std type is an unchecked lock.
#   simd-intrinsics
#                 No <immintrin.h> (or sibling x86 intrinsic headers) and
#                 no raw _mm*/__m128/__m256/__m512 intrinsics in src/
#                 outside src/kernels/: every SIMD body lives behind the
#                 dispatched KernelTable so the scalar-vs-AVX2 parity
#                 suite covers it and non-x86 builds stay portable.
#   raw-io        No raw POSIX file IO (::open/::write/::rename, fsync,
#                 O_* flags) in src/ outside src/storage/ and
#                 src/persist/: durability lives behind FileStore's
#                 write-temp/fsync/rename primitives so crash-safety is
#                 provable in one place. A stray ::write elsewhere is an
#                 unaudited commit point.
#   metric-names  No "deepeverest_ string literal in src/ outside
#                 src/net/serving_surface.cc, where every served field
#                 (/v1/stats key and /v1/metrics series) is declared once:
#                 a series named anywhere else is a second, hand-written
#                 copy that the two surfaces can disagree on.
#
# Usage:
#   scripts/lint.sh              lint the repository
#   scripts/lint.sh --self-test  seed one violation per rule into a
#                                scratch tree and assert each is caught
set -u

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "${SCRIPT_DIR}")"

FAIL=0

note() { echo "lint: $*" >&2; }

# --- rule: console -----------------------------------------------------------
check_console() {
  local root="$1"
  [ -d "${root}/src" ] || return 0
  local out
  out="$(grep -rnE '(^|[^[:alnum:]_])(std::cout|std::cerr|(printf|fprintf|puts|fputs)[[:space:]]*\()' \
      "${root}/src" --include='*.h' --include='*.cc' \
      --exclude='logging.cc' --exclude='logging.h' 2>/dev/null |
    grep -v 'lint:allow(console)' |
    grep -vE ':[0-9]+:[[:space:]]*(//|\*)' || true)"
  if [ -n "${out}" ]; then
    while IFS= read -r hit; do
      note "console: raw console output (use DE_LOG): ${hit}"
    done <<<"${out}"
    FAIL=1
  fi
  return 0
}

# --- rule: sleep-under-lock --------------------------------------------------
check_sleep_under_lock() {
  local root="$1"
  [ -d "${root}/src" ] || return 0
  local out
  out="$(find "${root}/src" \( -name '*.cc' -o -name '*.h' \) -print0 2>/dev/null |
    xargs -0 -r awk '
      FNR == 1 { depth = 0; nlocks = 0 }
      {
        raw = $0
        line = $0
        sub(/\/\/.*/, "", line)  # line comments do not hold locks
        if (nlocks > 0 &&
            line ~ /(sleep_for|sleep_until|[^[:alnum:]_](sleep|usleep|nanosleep)[[:space:]]*\()/ &&
            raw !~ /lint:allow\(sleep-under-lock\)/) {
          printf "%s:%d: sleep while holding a lock\n", FILENAME, FNR
        }
        if (line ~ /(MutexLock|lock_guard|unique_lock|scoped_lock|shared_lock)[<[:space:]]/ &&
            line !~ /^[[:space:]]*(class|\/)/) {
          lockdepth[nlocks++] = depth
        }
        open = gsub(/{/, "", line)
        close_ = gsub(/}/, "", line)
        depth += open - close_
        while (nlocks > 0 && depth < lockdepth[nlocks - 1]) nlocks--
      }
    ')"
  if [ -n "${out}" ]; then
    while IFS= read -r hit; do note "sleep-under-lock: ${hit}"; done <<<"${out}"
    FAIL=1
  fi
  return 0
}

# --- rule: include-guard -----------------------------------------------------
check_include_guards() {
  local root="$1"
  local header
  while IFS= read -r -d '' header; do
    if grep -q '#pragma once' "${header}" &&
        ! grep -q 'lint:allow(include-guard)' "${header}"; then
      note "include-guard: ${header}: uses #pragma once (use DEEPEVEREST_*_H_ guards)"
      FAIL=1
    fi
    if ! grep -qE '#ifndef DEEPEVEREST_[A-Z0-9_]*_H_' "${header}" &&
        ! grep -q 'lint:allow(include-guard)' "${header}"; then
      note "include-guard: ${header}: missing DEEPEVEREST_*_H_ include guard"
      FAIL=1
    fi
  done < <(find "${root}/src" "${root}/tests" -name '*.h' -print0 2>/dev/null)
  return 0
}

# --- rule: double-format -----------------------------------------------------
check_double_format() {
  local root="$1"
  [ -d "${root}/src" ] || return 0
  local out
  out="$(grep -rnE '%[-+ #0-9.]*l?[efgEFG]' "${root}/src" \
      --include='*.h' --include='*.cc' 2>/dev/null |
    grep -vE '%\.17g' |
    grep -v '/src/common/json\.cc:' |
    grep -v 'lint:allow(double-format)' |
    grep -vE ':[0-9]+:[[:space:]]*(//|\*)' || true)"  # comments may cite formats
  if [ -n "${out}" ]; then
    while IFS= read -r hit; do
      note "double-format: non-%.17g double formatting (breaks bit-exactness): ${hit}"
    done <<<"${out}"
    FAIL=1
  fi
  return 0
}

# --- rule: raw-mutex ---------------------------------------------------------
check_raw_mutex() {
  local root="$1"
  [ -d "${root}/src" ] || return 0
  local out
  out="$(grep -rnE 'std::(mutex|shared_mutex|recursive_mutex|condition_variable|lock_guard|unique_lock|shared_lock|scoped_lock)[^A-Za-z0-9_]' \
      "${root}/src" --include='*.h' --include='*.cc' 2>/dev/null |
    grep -v '/src/common/mutex\.h:' |
    grep -v 'lint:allow(raw-mutex)' |
    grep -vE ':[0-9]+:[[:space:]]*(//|\*|///)' || true)"
  if [ -n "${out}" ]; then
    while IFS= read -r hit; do
      note "raw-mutex: raw std lock type (use common::Mutex wrappers): ${hit}"
    done <<<"${out}"
    FAIL=1
  fi
  return 0
}

# --- rule: simd-intrinsics ---------------------------------------------------
check_simd_intrinsics() {
  local root="$1"
  [ -d "${root}/src" ] || return 0
  local out
  out="$(grep -rnE '(#[[:space:]]*include[[:space:]]*<(immintrin|x86intrin|[epstnwax]mmintrin|avx[0-9a-z]*intrin)\.h>|(^|[^A-Za-z0-9_])(_mm(256|512)?_[a-z0-9_]+[[:space:]]*\(|__m(128|256|512)[di]?[^A-Za-z0-9_]))' \
      "${root}/src" --include='*.h' --include='*.cc' 2>/dev/null |
    grep -v "^${root}/src/kernels/" |
    grep -v 'lint:allow(simd-intrinsics)' |
    grep -vE ':[0-9]+:[[:space:]]*(//|\*)' || true)"
  if [ -n "${out}" ]; then
    while IFS= read -r hit; do
      note "simd-intrinsics: raw SIMD outside src/kernels/ (add a KernelTable entry instead): ${hit}"
    done <<<"${out}"
    FAIL=1
  fi
  return 0
}

# --- rule: raw-io ------------------------------------------------------------
check_raw_io() {
  local root="$1"
  [ -d "${root}/src" ] || return 0
  local out
  out="$(grep -rnE '(::(open|write|pwrite|rename|fsync|fdatasync)[[:space:]]*\(|(^|[^A-Za-z0-9_:.])(fsync|fdatasync|pwrite)[[:space:]]*\(|[^A-Za-z0-9_]O_(WRONLY|RDWR|CREAT|APPEND|TRUNC|SYNC|DSYNC)[^A-Za-z0-9_])' \
      "${root}/src" --include='*.h' --include='*.cc' 2>/dev/null |
    grep -vE "^${root}/src/(storage|persist)/" |
    grep -v 'lint:allow(raw-io)' |
    grep -vE ':[0-9]+:[[:space:]]*(//|\*|///)' || true)"
  if [ -n "${out}" ]; then
    while IFS= read -r hit; do
      note "raw-io: raw file IO outside src/storage//src/persist/ (go through storage::FileStore): ${hit}"
    done <<<"${out}"
    FAIL=1
  fi
  return 0
}

# --- rule: metric-names ------------------------------------------------------
check_metric_names() {
  local root="$1"
  [ -d "${root}/src" ] || return 0
  local out
  out="$(grep -rn '"deepeverest_' "${root}/src" --include='*.h' --include='*.cc' 2>/dev/null |
    grep -v "^${root}/src/net/serving_surface\.cc:" |
    grep -v 'lint:allow(metric-names)' || true)"
  if [ -n "${out}" ]; then
    while IFS= read -r hit; do
      note "metric-names: metric name outside src/net/serving_surface.cc (declare the field there): ${hit}"
    done <<<"${out}"
    FAIL=1
  fi
  return 0
}

run_all() {
  local root="$1"
  FAIL=0
  check_console "${root}"
  check_sleep_under_lock "${root}"
  check_include_guards "${root}"
  check_double_format "${root}"
  check_raw_mutex "${root}"
  check_simd_intrinsics "${root}"
  check_raw_io "${root}"
  check_metric_names "${root}"
  return "${FAIL}"
}

# --- self-test: every rule must fire on a seeded violation -------------------
self_test() {
  local scratch
  scratch="$(mktemp -d)"
  trap 'rm -rf "${scratch}"' EXIT
  mkdir -p "${scratch}/src/core" "${scratch}/tests"

  local ok=0 bad=0
  expect_fire() {
    local rule="$1"
    if run_all "${scratch}" 2>/dev/null; then
      echo "self-test: FAIL — seeded ${rule} violation not caught" >&2
      bad=1
    else
      echo "self-test: ok — ${rule} caught"
      ok=$((ok + 1))
    fi
    rm -f "${scratch}/src/core/seeded.cc" "${scratch}/src/core/seeded.h"
  }

  printf '#include <iostream>\nvoid f() { std::cout << "x"; }\n' \
      > "${scratch}/src/core/seeded.cc"
  expect_fire console

  printf 'void f() {\n  common::MutexLock lock(&mu_);\n  std::this_thread::sleep_for(t);\n}\n' \
      > "${scratch}/src/core/seeded.cc"
  expect_fire sleep-under-lock

  printf '#pragma once\nstruct S {};\n' > "${scratch}/src/core/seeded.h"
  expect_fire include-guard

  printf 'void f(char* b, double v) { snprintf(b, 8, "%%.6g", v); }\n' \
      > "${scratch}/src/core/seeded.cc"
  expect_fire double-format

  printf '#include <mutex>\nstd::mutex mu;\n' > "${scratch}/src/core/seeded.cc"
  expect_fire raw-mutex

  printf '#include <immintrin.h>\n__m256d f(__m256d v) { return _mm256_add_pd(v, v); }\n' \
      > "${scratch}/src/core/seeded.cc"
  expect_fire simd-intrinsics

  printf '#include <fcntl.h>\nint f(const char* p) { return ::open(p, O_WRONLY | O_CREAT, 0644); }\n' \
      > "${scratch}/src/core/seeded.cc"
  expect_fire raw-io

  printf 'void f(E* e) { e->Counter("deepeverest_stray_total", "", {}, 1); }\n' \
      > "${scratch}/src/core/seeded.cc"
  expect_fire metric-names

  # And a clean tree must pass.
  if ! run_all "${scratch}"; then
    echo "self-test: FAIL — clean tree reported a violation" >&2
    bad=1
  else
    echo "self-test: ok — clean tree passes"
  fi

  if [ "${bad}" -ne 0 ]; then
    echo "self-test: FAILED" >&2
    exit 1
  fi
  echo "self-test: all ${ok} rules fire and a clean tree passes"
  exit 0
}

if [ "${1:-}" = "--self-test" ]; then
  self_test
fi

if run_all "${REPO_ROOT}"; then
  echo "lint: clean"
  exit 0
fi
echo "lint: FAILED (see findings above; waive a line only with a justified lint:allow(<rule>) comment)" >&2
exit 1
