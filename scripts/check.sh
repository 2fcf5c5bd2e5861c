#!/usr/bin/env bash
# Repo verification gate:
#   0. vectorize: compile scripts/vectorize_probe.cpp with
#      -O3 -march=x86-64-v3 -fopt-info-vec-optimized and fail if any filter
#      kernel family (operators/filter_kernels.h) stops auto-vectorizing
#   1. tier-1 verify: configure + build + full ctest (ROADMAP.md), run once:
#      the suites wait for the engine through TelegraphCQ::Drain() /
#      Executor::WaitQuiescent() instead of sleeping, so a failure is a
#      failure, never retried
#   1b. crash-recovery: the checkpoint/restore suite standalone — the
#       crash-sim multiset-equality pins (DESIGN.md §13) must hold without
#       the parallel-suite CPU noise ctest adds
#   2. AddressSanitizer configure + build + ctest in a separate build dir
#   3. ThreadSanitizer build running the concurrency-heavy suites
#      (exec — including the wake-path tests: parked EOs, signals across DU
#      moves, the quiescence barrier — exec_lifecycle, exec_sharding —
#      including shard failover racing a concurrent pusher — fjords, cacq,
#      obs, window,
#      recovery, batch — its MPMC queue and fjord segment tests — ingress —
#      wrapper threads produce into fjords — egress — the shards of a query
#      enter PushEgress::OfferBatch concurrently, with no lock between
#      them, while clients pop from the egress's other side; a kBlock
#      OfferBatch blocks until a client makes room or Close() wakes it —
#      plus the whole server suite (a 4-shard join projects on every
#      shard's EO at once):
#      windowed DUs share the executor's EO threads with class DUs, and a
#      pusher races windowed submit/cancel — aliased self-joins included,
#      whose cancels hand their alias ids back and make the executor forget
#      them — and the executor's checkpoint detach/re-attach of every
#      windowed DU, all changing its one per-source routing table under
#      live ingest) — must be TSan-clean
#   4. UBSan build running the trace/queue/routing/window/batch/sharding/
#      recovery suites (the seqlock ring and histogram interpolation are the
#      prime UB suspects); the routing suite (eddy_test) runs the production
#      SharedEddy under every routing policy; window_test drives the
#      windowed runner's lane admission over null masks and typed lanes;
#      batch_test and exec_sharding_test drive ColumnStore::Gather, which
#      indexes lanes and null masks through a selection, and the shard
#      partition that reads key lanes; recovery_test drives the checkpoint
#      reader, which decodes bytes from disk, and restore's re-submission
#   5. bench smoke: batched-vs-per-tuple comparison -> BENCH_batching.json,
#      class lifecycle (merge/GC/rebalance) -> BENCH_exec_lifecycle.json,
#      tracing overhead -> BENCH_tracing.json,
#      shard scaling (1/2/4/8 replicas) -> BENCH_cacq_scaling.json,
#      event-time disorder latency/exactness sweep -> BENCH_disorder.json,
#      checkpoint/restore cost sweep -> BENCH_recovery.json,
#      a quick run of the routing microbenches on SharedEddy (E1 adaptivity,
#      E2 hybrid join, E4 shared-vs-one-query eddies, E7 batch x drift),
#      a quick E6 window-semantics run (window classes, online batch
#      admission),
#      a quick E8 Flux run on the sharded executor (fails if a replicated
#      shard failover loses a result), plus a quick 2-shard correctness
#      smoke
#
# Usage: scripts/check.sh [--no-asan] [--no-tsan] [--no-ubsan] [--no-bench]
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_ASAN=1
RUN_TSAN=1
RUN_UBSAN=1
RUN_BENCH=1
for arg in "$@"; do
  case "$arg" in
    --no-asan) RUN_ASAN=0 ;;
    --no-tsan) RUN_TSAN=0 ;;
    --no-ubsan) RUN_UBSAN=0 ;;
    --no-bench) RUN_BENCH=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$(uname -m)" == "x86_64" ]]; then
  echo "== vectorize: filter kernels must auto-vectorize =="
  VEC_OBJ="$(mktemp --suffix=.o)"
  VEC_REPORT="$(g++ -std=c++20 -O3 -march=x86-64-v3 \
    -fopt-info-vec-optimized -Isrc \
    -c scripts/vectorize_probe.cpp -o "$VEC_OBJ" 2>&1)"
  rm -f "$VEC_OBJ"
  VEC_COUNT="$(grep -c "loop vectorized" <<<"$VEC_REPORT" || true)"
  # Distinct filter_kernels.h loop lines with a vectorized report == kernel
  # families that vectorized (AccumBound, AccumRange, AnyNaN — one for-loop
  # each; instantiations share the line).
  VEC_FAMILIES="$(grep "loop vectorized" <<<"$VEC_REPORT" \
    | grep -o "filter_kernels\.h:[0-9]*" | sort -u | wc -l)"
  echo "vectorized-loop reports: $VEC_COUNT (floor 8);" \
       "kernel families: $VEC_FAMILIES (need 3)"
  FAIL=0
  if (( VEC_COUNT < 8 )); then FAIL=1; fi
  if (( VEC_FAMILIES < 3 )); then FAIL=1; fi
  if (( FAIL )); then
    echo "$VEC_REPORT" >&2
    echo "vectorize gate FAILED" >&2
    exit 1
  fi
else
  echo "== vectorize: skipped (non-x86_64 host) =="
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "== crash-recovery: checkpoint/restore suite =="
./build/tests/recovery_test

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== asan: configure + build + ctest =="
  cmake -B build-asan -S . -DTCQ_SANITIZE=address
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== tsan: configure + build + concurrency suites =="
  cmake -B build-tsan -S . -DTCQ_SANITIZE=thread
  cmake --build build-tsan -j --target \
    exec_test exec_lifecycle_test exec_sharding_test fjords_test cacq_test \
    obs_test window_test server_test recovery_test batch_test ingress_test \
    egress_test
  # server_test: punctuations flow source -> fjord -> class -> window ->
  # egress across threads, windowed DUs run beside class DUs on the shared
  # EOs, and PushRacesWindowedSubmitCancelAndCheckpoint pushes while
  # windowed queries are hosted, removed and detached/re-attached (the
  # executor's routing table changes under IngestBatch); recovery_test
  # has Executor::CheckpointTo detach and re-attach those DUs while the EO
  # threads run; batch_test and ingress_test move
  # whole batch segments between producer and consumer threads;
  # egress_test: producers offer runs on one side of PushEgress while
  # Poll/Receive pop from the other and swap the sides over; under kBlock
  # OfferBatch blocks until a client's pop makes room or Close() wakes it.
  # exec_sharding_test and server_test: a sharded query's shards call its
  # sink concurrently from their EOs (no merge lock).
  for t in exec_test exec_lifecycle_test exec_sharding_test fjords_test \
           cacq_test obs_test window_test server_test recovery_test \
           batch_test ingress_test egress_test; do
    echo "-- tsan: $t"
    ./build-tsan/tests/"$t"
  done
fi

if [[ "$RUN_UBSAN" == 1 ]]; then
  echo "== ubsan: configure + build + trace/queue/routing/window/batch/" \
       "sharding/recovery suites =="
  cmake -B build-ubsan -S . -DTCQ_SANITIZE=undefined
  cmake --build build-ubsan -j --target obs_test fjords_test eddy_test \
    window_test batch_test exec_sharding_test recovery_test
  for t in obs_test fjords_test eddy_test window_test batch_test \
           exec_sharding_test recovery_test; do
    echo "-- ubsan: $t"
    UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/"$t"
  done
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== bench smoke: BENCH_batching.json =="
  scripts/bench_batching.sh build
  echo "== bench smoke: BENCH_exec_lifecycle.json =="
  scripts/bench_exec_lifecycle.sh build
  echo "== bench smoke: BENCH_tracing.json =="
  scripts/bench_tracing.sh build
  echo "== bench smoke: BENCH_cacq_scaling.json =="
  scripts/bench_cacq_scaling.sh build
  echo "== bench smoke: BENCH_disorder.json =="
  scripts/bench_disorder.sh build
  echo "== bench smoke: BENCH_recovery.json =="
  scripts/bench_recovery.sh build
  echo "== window-semantics microbench smoke: E6 =="
  ./build/bench/bench_window_semantics --benchmark_min_time=0.01
  echo "== routing microbench smoke: E1/E2/E4/E7, Flux smoke: E8 =="
  ./build/bench/bench_eddy_adaptivity --benchmark_min_time=0.01
  ./build/bench/bench_stem_hybrid_join --benchmark_min_time=0.01
  ./build/bench/bench_cacq_scaling --benchmark_min_time=0.01 \
    --benchmark_filter='BM_SharedCACQ/(1|4|16)$|BM_QueryAtATime/(1|4|16)$'
  ./build/bench/bench_adaptivity_knobs --benchmark_min_time=0.01
  ./build/bench/bench_flux --benchmark_min_time=0.01
  echo "== 2-shard correctness smoke =="
  ./build/tests/exec_sharding_test \
    --gtest_filter='ExecShardingTest.ShardedJoinMatchesSingleShardAndReference'
fi

echo "== check.sh: all gates passed =="
