#!/usr/bin/env bash
# Full pre-merge gate:
#   1. tier-1 contract: configure + build + ctest (all tests and
#      registered bench smokes);
#   2. every bench_e* binary in --smoke mode, distinguishing a failed
#      self-check criterion (exit 1) from a usage error (exit 2);
#   3. trace_lint over the flight-recorder bundles the E25 smoke dumped:
#      the standalone validator proves the exported chrome traces load
#      in Perfetto (structure + span forest + root reachability);
#   4. a ThreadSanitizer build (EVEREST_SANITIZE=thread) of the
#      concurrency-heavy test binaries (serve, obs, data, cluster,
#      storage, stream, jit, runtime — the last two cover the JIT's
#      KnowledgeBase hot-swap against concurrent selection) run under
#      ctest;
#   5. an AddressSanitizer build (EVEREST_SANITIZE=address) of the
#      I/O-error-path-heavy test binaries (storage, data): fault
#      injection exercises every short-write/EIO/ENOSPC cleanup path,
#      and ASan proves none of them leaks or double-frees. test_common
#      runs here too, so the hostile-JSON (nesting-depth) cases execute
#      under the sanitizers, and so does test_stream, whose pump moves
#      batches of events between threads. test_serve joins them because
#      TwoLaneQueue hands whole vector buffers between producer and
#      consumer threads (pop_all's buffer swap), and so does
#      test_cluster, whose federation servers form and run batches on
#      their own worker threads;
#   6. the dead-code sweep (tools/dead_symbols.sh): a Release build of the
#      repo, plus perfbench/ configured into a scratch build dir, with
#      -ffunction-sections -fdata-sections -Wl,--gc-sections; an `nm` diff
#      then fails on any src/* library function that no linked binary
#      keeps unless tools/dead_symbols.allow lists it with a reason.
# Any failure aborts the script with a non-zero exit.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

echo "=== [1/6] tier-1: configure + build + ctest ==="
cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
cmake --build "$ROOT/build" -j "$JOBS"
(cd "$ROOT/build" && ctest --output-on-failure -j "$JOBS")

echo
echo "=== [2/6] bench smokes (exit 1 = criterion failed, 2 = bad usage) ==="
smoke_failures=0
for bench in "$ROOT"/build/bench/bench_e*; do
  [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  set +e
  # Run from build/ so relative artifacts (E25's e25_flight/ dumps) land
  # in a predictable place for the later gates.
  (cd "$ROOT/build" && "$bench" --smoke >/dev/null 2>&1)
  code=$?
  set -e
  case "$code" in
    0) echo "  PASS $name" ;;
    1) echo "  FAIL $name (self-check criterion failed)"; smoke_failures=$((smoke_failures + 1)) ;;
    2) echo "  FAIL $name (rejected --smoke as bad usage)"; smoke_failures=$((smoke_failures + 1)) ;;
    *) echo "  FAIL $name (exit $code)"; smoke_failures=$((smoke_failures + 1)) ;;
  esac
done
if [ "$smoke_failures" -ne 0 ]; then
  echo "bench smoke: $smoke_failures failure(s)"
  exit 1
fi

echo
echo "=== [3/6] trace lint: flight-recorder bundles load in Perfetto ==="
if ls "$ROOT"/build/e25_flight/*.trace.json >/dev/null 2>&1; then
  "$ROOT"/build/tools/trace_lint "$ROOT"/build/e25_flight/*.trace.json
else
  echo "no flight bundles found (expected from the E25 smoke)" >&2
  exit 1
fi

echo
echo "=== [4/6] TSan: serve + obs + data + cluster + storage + stream + jit + runtime tests ==="
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DEVEREST_SANITIZE=thread >/dev/null
cmake --build "$ROOT/build-tsan" -j "$JOBS" \
  --target test_serve test_obs test_data test_cluster test_storage test_stream \
  test_jit test_runtime
(cd "$ROOT/build-tsan" && ctest --output-on-failure -j "$JOBS" \
  -R 'test_serve|test_obs|test_data|test_cluster|test_storage|test_stream|test_jit|test_runtime')

echo
echo "=== [5/6] ASan: storage + data + common + stream + serve + cluster (leaks, hostile input) ==="
cmake -B "$ROOT/build-asan" -S "$ROOT" -DEVEREST_SANITIZE=address >/dev/null
cmake --build "$ROOT/build-asan" -j "$JOBS" \
  --target test_storage test_data test_common test_stream test_serve \
  test_cluster
(cd "$ROOT/build-asan" && ctest --output-on-failure -j "$JOBS" \
  -R 'test_storage|test_data|test_common|test_stream|test_serve|test_cluster')

echo
echo "=== [6/6] dead code: no library function outside every linked binary ==="
"$ROOT/tools/dead_symbols.sh" "$ROOT/build-gc"

echo
echo "check.sh: all gates passed."
