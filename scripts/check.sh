#!/usr/bin/env bash
# Full verify ladder for elitenet, in increasing strictness:
#
#   1. tier-1: Release-ish build + the whole ctest suite (the CI gate);
#   2. tsan:   ThreadSanitizer build, "tsan"-labelled tests (parallel
#              scheduler, traversal kernels, serving cache + executor,
#              live delta-overlay reader/writer/compactor hammer, QoS
#              executor + sharded-router concurrent submit/admin hammer,
#              clustering + fingerprint per-chunk scratch);
#   3. asan:   AddressSanitizer + UBSan build, every test except the
#              "perf"-labelled smoke benches;
#   4. perf:   the "perf"-labelled ctest smoke benches (graph kernels,
#              serving load, sharded serving + QoS overload, cold start,
#              distance oracle, telemetry overhead, out-of-core scale,
#              live mutations) — each is a hard-asserting harness that
#              fails on response divergence, cache/oracle/telemetry
#              slowdowns, degraded queries, sharded-vs-unsharded checksum
#              mismatches, interactive shedding under overload, or a
#              busted streamed-vs-in-memory / compaction-vs-cold-rebuild
#              byte identity / RSS ceiling.
#
# Usage: scripts/check.sh [--skip-tsan]
# Runs from any cwd; builds live in build/, build-tsan/ and build-asan/.

set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

if [[ "$SKIP_TSAN" -eq 0 ]]; then
  echo "== tsan: thread-focused tests under ThreadSanitizer =="
  cmake -B build-tsan -S . -DELITENET_ENABLE_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$JOBS"
  (cd build-tsan && ctest -L tsan --output-on-failure -j "$JOBS")
else
  echo "== tsan: skipped (--skip-tsan) =="
fi

echo "== asan: every non-perf test under AddressSanitizer + UBSan =="
cmake -B build-asan -S . -DELITENET_ENABLE_ASAN=ON >/dev/null
cmake --build build-asan -j "$JOBS"
# halt_on_error turns a UBSan report into a test failure.
(cd build-asan && UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest -LE perf --output-on-failure -j "$JOBS")

echo "== perf: smoke benches (kernels, serving, cold start, oracle, telemetry, mutations) =="
(cd build && ctest -L perf --output-on-failure -j "$JOBS")

echo "== all checks passed =="
