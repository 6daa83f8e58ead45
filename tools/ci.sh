#!/usr/bin/env sh
# Full CI pipeline: configure, build, a dead-translation-unit check, lint
# (clang-tidy on changed files + the static leakage linter cross-checked
# against the trace oracle), tier-1 tests, the time-to-verdict
# benchmark's own build and self-tests (tree build-ci-perf), then the
# same suite under AddressSanitizer + UBSan, then the concurrency tests
# under ThreadSanitizer — each sanitizer in its own build tree.
#
#   tools/ci.sh [build-dir]
#
# build-dir: plain (uninstrumented) build directory, default build-ci.
# The sanitized passes reuse tools/run_sanitized_tests.sh with their own
# trees (build-ci-sanitize, build-ci-tsan) so instrumented and plain
# objects never mix.  The TSan pass covers the code that runs on more
# than one thread: the thread pool, the sharded campaign executor (which
# also runs the fixed-vs-random screen), supervision (cancel, deadline,
# failover), the sweep's replay fan-out, and the evaluation service (its
# executors, the socket front end's per-connection threads and the
# protocol's long polls).
#
# Set SCE_CI_SKIP_SANITIZERS=1 to run only the plain suite (useful on
# hosts whose toolchain lacks the sanitizer runtimes).  A toolchain
# without libtsan skips just the TSan stage, with a notice.
set -eu

BUILD_DIR="${1:-build-ci}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> configuring $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DCMAKE_BUILD_TYPE=Release

echo "==> building"
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "==> dead code: every library member reaches a shipped binary"
# A library translation unit that no bench, tool or example links is
# code whose only users are its own tests.  The script names the few
# members kept on purpose, each with its reason.
"$SRC_DIR/tools/check_dead_units.sh" "$BUILD_DIR"

echo "==> lint: clang-tidy (changed files)"
"$SRC_DIR/tools/run_clang_tidy.sh" "$BUILD_DIR"

echo "==> lint: static leakage analysis"
# The countermeasure deployment (constant-flow kernels) is the designated
# clean configuration: it must pass the gate, and the cross-check pins
# every contract to the uarch trace oracle.  The JSON report is the CI
# artifact.
"$BUILD_DIR/tools/leakage_lint" --model mnist --mode constant-flow \
  --fail-on leaks_control_flow --fail-on-undeclared --cross-check \
  --json lint_report.json
# The gate must also *fail*: the same model with data-dependent kernels
# leaks, and leakage_lint has to say so with a non-zero exit.
if "$BUILD_DIR/tools/leakage_lint" --model mnist --mode data-dependent \
     --fail-on leaks_control_flow --quiet; then
  echo "==> lint gate failed to reject the data-dependent model" >&2
  exit 1
fi
echo "==> lint gate rejects the data-dependent model (expected)"

echo "==> lint: derived contracts, oracle-pinned (zoo x modes x paths)"
# The symbolic verifier derives every layer's LeakageContract from the
# kernel code, and that derived contract is the one the gate uses.  On
# the instrumented cells --cross-check pins it to the uarch trace oracle
# and --fail-on-undeclared rejects any zoo layer without a symbolic
# model.  On every cell --fail-on-unverified requires an authority behind
# each contract (trace oracle on the instrumented path, refinement link
# on the fast path).  The SARIF report from the deployment configuration
# (fast path) is the CI artifact.
for sce_model in mnist cifar sequence; do
  for sce_mode in data-dependent constant-flow; do
    for sce_path in instrumented fast; do
      sce_pin=""
      if [ "$sce_path" = instrumented ]; then
        sce_pin="--cross-check --fail-on-undeclared"
      fi
      # shellcheck disable=SC2086  # $sce_pin is a word list by design
      "$BUILD_DIR/tools/leakage_lint" --model "$sce_model" \
        --mode "$sce_mode" --path "$sce_path" --fail-on-unverified --quiet \
        $sce_pin
    done
  done
done
"$BUILD_DIR/tools/leakage_lint" --model mnist --mode data-dependent \
  --path fast --fail-on-unverified --quiet --sarif lint_findings.sarif
echo "==> derived contracts verified, instrumented cells oracle-pinned (12/12)"

echo "==> running tier-1 suite"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "==> chaos: supervised-runtime kill-point matrix"
# Deterministic kill points — cancel at exact measurement counts,
# pre-expired deadlines, instrument death with failover, cadence
# checkpoint cuts — each cell gating on bit-identical recovery.  Any
# divergence between an interrupted-then-resumed run and the
# uninterrupted reference exits non-zero.
"$BUILD_DIR/tools/chaos_harness"

echo "==> smoke: record-once/replay-many hardware sweep"
# Tiny sample budget: the point is to exercise the sweep engine end to
# end (record, replay, verify_live bit-identity — the bench exits
# non-zero on any replay/live mismatch) and to publish the speedup
# accounting in BENCH_uarch_sweep.json as a CI artifact.
SCE_BENCH_SAMPLES=4 "$BUILD_DIR/bench/ablation_uarch_sweep"

echo "==> smoke: evaluation service (submit, cache hit, shutdown)"
# Boot the multi-tenant evaluation server, submit the mnist campaign
# twice with identical (weights, config), and assert the second reply is
# served from the result cache with zero new measurements
# (--expect-cached exits 3 otherwise).  The client publishes cold/warm
# wall-clock and measurement accounting in BENCH_service.json as the CI
# artifact.
SVC_SOCK="$BUILD_DIR/eval.sock"
SVC_LOG="$BUILD_DIR/eval_server.log"
rm -f "$SVC_SOCK" BENCH_service.json
rm -rf "$BUILD_DIR/eval_work"
"$BUILD_DIR/tools/leakage_eval_server" --socket "$SVC_SOCK" \
  --work-dir "$BUILD_DIR/eval_work" --executors 2 > "$SVC_LOG" 2>&1 &
SVC_PID=$!
svc_up=0
for _ in $(seq 1 100); do
  [ -S "$SVC_SOCK" ] && { svc_up=1; break; }
  sleep 0.1
done
if [ "$svc_up" != 1 ]; then
  echo "==> evaluation server did not come up" >&2
  cat "$SVC_LOG" >&2 || true
  exit 1
fi
SVC_CLIENT="$BUILD_DIR/tools/leakage_eval_client"
SVC_ARGS="--socket $SVC_SOCK --arch mnist-cnn --categories 0,1 \
  --samples 4 --examples-per-class 4 --wait --bench-json BENCH_service.json"
"$SVC_CLIENT" submit $SVC_ARGS --bench-label cold --expect-executed
"$SVC_CLIENT" submit $SVC_ARGS --bench-label warm --expect-cached
# A malformed category list is refused (exit 2) before anything is sent.
bad_rc=0
"$SVC_CLIENT" submit --socket "$SVC_SOCK" --arch mnist-cnn \
  --categories 1,2x > /dev/null 2>&1 || bad_rc=$?
if [ "$bad_rc" != 2 ]; then
  echo "==> client accepted --categories 1,2x (exit $bad_rc)" >&2
  exit 1
fi
"$SVC_CLIENT" shutdown --socket "$SVC_SOCK"
wait "$SVC_PID"
echo "==> evaluation service smoke OK (warm submit served from cache)"

echo "==> bench: fast-vs-scalar inference speedups"
# Publishes BENCH_inference.json (allocating / planned-scalar /
# planned-fast per model, plus conv/dense hot-loop scalar-vs-fast
# timings) as the CI artifact backing the fast kernels' speedup claims.
"$BUILD_DIR/bench/micro_kernels" --benchmark_filter=DoNotRunMicrobenches

echo "==> bench: time-to-verdict benchmark builds and self-tests"
# bench/perf is a standalone CMake project that compiles ../../src itself,
# so nothing above builds it.  Build it into its own tree and run that
# tree's ctest: bench_perf_smoke (every workload's traced pass and
# correctness checks on a tiny budget) and bench_compare_selftest.
PERF_DIR="${BUILD_DIR}-perf"
cmake -S "$SRC_DIR/bench/perf" -B "$PERF_DIR"
cmake --build "$PERF_DIR" -j "$JOBS"
ctest --test-dir "$PERF_DIR" --output-on-failure

if [ "${SCE_CI_SKIP_SANITIZERS:-0}" = "1" ]; then
  echo "==> SCE_CI_SKIP_SANITIZERS=1: skipping sanitized passes"
else
  echo "==> kernel refactor gates under address;undefined"
  # The refactor-critical gates get their own named stage: KernelPath
  # asserts the SIMD fast kernels are bit-for-bit identical to the
  # instrumented scalar loops (every zoo model, both kernel modes, edge
  # shapes, plan buffer reuse); KernelTrace pins the instrumented event
  # streams; Symbolic, ContractOracle, ContractFixtures and Lint run the
  # kernels' symbolic instantiation, which indexes engine buffers with
  # kernel-computed indices and diffs if_else arms as raw slices of the
  # engine's shared event stack.  PinnedCounts pins every uarch model's
  # counts on seeded streams, and MachineDispatch requires the kernels'
  # direct-call instantiation over the simulated machine to count exactly
  # like the virtual TraceSink one.  RecentLines checks the simulated
  # machine's recent-line filter against a bare hierarchy fed addresses
  # the test normalises itself.  MruRehit requires an access repeated at
  # once to add only hits, which lets a hit on the most recently used
  # way skip the replacement update.  The full sanitized suite below
  # reuses the same build tree.
  "$SRC_DIR/tools/run_sanitized_tests.sh" "address;undefined" \
    "${BUILD_DIR}-sanitize" \
    'KernelPath|KernelTrace|Symbolic|ContractOracle|ContractFixtures|Lint|PinnedCounts|MachineDispatch|RecentLines|MruRehit'

  echo "==> running tier-1 suite under address;undefined"
  "$SRC_DIR/tools/run_sanitized_tests.sh" "address;undefined" \
    "${BUILD_DIR}-sanitize"

  if echo 'int main(void){return 0;}' | \
     cc -fsanitize=thread -x c - -o /dev/null 2>/dev/null; then
    echo "==> running concurrency tests under thread sanitizer"
    "$SRC_DIR/tools/run_sanitized_tests.sh" "thread" "${BUILD_DIR}-tsan" \
      'ThreadPool|CampaignParallel|CampaignRecall|FixedVsRandom|FvrSupervision|Sweep|Supervision|EvaluationServer|Socket|Protocol|CancelToken|ResultCache'
  else
    echo "==> toolchain lacks libtsan: skipping TSan stage"
  fi
fi

echo "==> CI OK"
