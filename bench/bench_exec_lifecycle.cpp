// E11: query-class lifecycle costs, plus the idle-wake latency. Four
// experiments:
//   * BM_MergePause — how long a bridging-query submission stalls while two
//     classes (S shards each, N SteM entries per stream) merge into one;
//   * BM_PostGcIngest — ingest cost on a stream whose class was GC'd (fast
//     FailedPrecondition) vs a live routed stream;
//   * BM_RebalanceGain — time to drain a skewed workload on 2 EOs (two hot
//     classes pinned to one EO) with the rebalance pass off vs on;
//   * BM_IdleWake — one row pushed into a drained server that then sat idle
//     for 1 ms (its EOs parked) until a spinning Poll sees the result,
//     p50/p99 over 1k rows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "server/telegraphcq.h"

namespace tcq {
namespace {

SchemaRef Sch(SourceId source) {
  return Schema::Make({
      {"k", ValueType::kInt64, source},
      {"v", ValueType::kInt64, source},
  });
}

Tuple Row(SourceId source, int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make(Sch(source), {Value::Int64(k), Value::Int64(v)}, ts);
}

CQSpec JoinSpec(SourceId l, SourceId r) {
  CQSpec spec;
  spec.joins.push_back({{l, "k"}, {r, "k"}});
  return spec;
}

CQSpec FilterSpec(SourceId s) {
  CQSpec spec;
  spec.filters.push_back({{s, "k"}, CmpOp::kGe, Value::Int64(0)});
  return spec;
}

/// The quiescence barrier: every ingested tuple processed and delivered.
void Drain(Executor* exec) {
  (void)exec->WaitQuiescent(std::chrono::steady_clock::now() +
                            std::chrono::seconds(30));
}

/// Merge pause: two 2-stream join classes at S shards each, N tuples per
/// stream already absorbed into their SteMs, then a bridging join submitted.
/// The timed region is the SubmitQuery call — it covers the one
/// re-partition of both classes (quiesce, SteM placement, re-admission) and
/// the bridge's admission.
void BM_MergePause(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    Executor exec(
        {.num_eos = 2, .queue_capacity = 4 * n + 16, .shards = shards});
    for (SourceId s = 0; s < 4; ++s) {
      (void)exec.RegisterStream(s, Sch(s));
    }
    std::atomic<size_t> q01{0}, q23{0};
    (void)exec.SubmitQuery(JoinSpec(0, 1),
                           [&](GlobalQueryId, const std::vector<Tuple>& run) {
                             q01 += run.size();
                           });
    (void)exec.SubmitQuery(JoinSpec(2, 3),
                           [&](GlobalQueryId, const std::vector<Tuple>& run) {
                             q23 += run.size();
                           });
    exec.Start();
    Timestamp ts = 1;
    for (size_t i = 0; i < n; ++i) {
      for (SourceId s = 0; s < 4; ++s) {
        // Unique keys: each tuple joins its counterpart exactly once, so
        // SteMs grow to n entries without a quadratic result blow-up.
        (void)exec.IngestTuple(
            s, Row(s, static_cast<int64_t>(i), 0, ts++));
      }
    }
    Drain(&exec);

    auto t0 = std::chrono::steady_clock::now();
    (void)exec.SubmitQuery(JoinSpec(1, 2),
                           [](GlobalQueryId, const std::vector<Tuple>&) {});
    auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    exec.Stop();
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["stem_entries_per_stream"] = static_cast<double>(n);
}
BENCHMARK(BM_MergePause)
    ->ArgNames({"shards", "entries"})
    ->ArgsProduct({{1, 4}, {1000, 10000}})
    ->Iterations(10)  // setup (4N tuples joined) dominates; bound the run
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Ingest cost after the class was GC'd (routed=0: the producer is gone, so
/// the batch fast-fails as unrouted) vs a live class (routed=1: the batch
/// lands in the class fjord and is consumed).
void BM_PostGcIngest(benchmark::State& state) {
  const bool routed = state.range(0) != 0;
  constexpr size_t kBatch = 64;
  Executor exec({.num_eos = 1, .queue_capacity = 1 << 16});
  (void)exec.RegisterStream(0, Sch(0));
  auto id = exec.SubmitQuery(FilterSpec(0),
                             [](GlobalQueryId, const std::vector<Tuple>&) {});
  exec.Start();
  if (!routed) (void)exec.RemoveQuery(*id);  // GC: stream loses its consumer
  Timestamp ts = 1;
  size_t tuples = 0;
  for (auto _ : state) {
    TupleBatch batch(0);
    for (size_t i = 0; i < kBatch; ++i) {
      batch.push_back(Row(0, static_cast<int64_t>(i), 0, ts++));
    }
    benchmark::DoNotOptimize(exec.IngestBatch(std::move(batch)));
    tuples += kBatch;
  }
  exec.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["routed"] = routed ? 1 : 0;
}
BENCHMARK(BM_PostGcIngest)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Skewed 2-EO workload: classes for streams 0 and 2 land on eo0, stream
/// 1's on eo1; streams 0 and 2 carry the load. Without rebalance both hot
/// DUs share one thread; with it, one migrates to the near-idle EO. Timed
/// region: Start() until every delivery arrived (ingest is pre-queued).
void BM_RebalanceGain(benchmark::State& state) {
  const bool rebalance = state.range(0) != 0;
  constexpr size_t kHot = 60000, kCold = 200;
  for (auto _ : state) {
    Executor exec({.num_eos = 2,
                   .quantum = 64,
                   .queue_capacity = kHot + 16,
                   .rebalance = rebalance,
                   .rebalance_interval_ms = 2});
    std::atomic<size_t> delivered{0};
    for (SourceId s = 0; s < 3; ++s) {
      (void)exec.RegisterStream(s, Sch(s));
      (void)exec.SubmitQuery(FilterSpec(s),
                             [&](GlobalQueryId,
                                 const std::vector<Tuple>& run) {
                               delivered += run.size();
                             });
    }
    Timestamp ts = 1;
    for (size_t i = 0; i < kHot; ++i) {
      (void)exec.IngestTuple(0, Row(0, 1, 0, ts));
      (void)exec.IngestTuple(2, Row(2, 1, 0, ts));
      ++ts;
    }
    for (size_t i = 0; i < kCold; ++i) {
      (void)exec.IngestTuple(1, Row(1, 1, 0, ts++));
    }
    for (SourceId s = 0; s < 3; ++s) (void)exec.CloseStream(s);

    auto t0 = std::chrono::steady_clock::now();
    exec.Start();
    Drain(&exec);
    auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    state.counters["migrations"] = static_cast<double>(exec.class_migrations());
    exec.Stop();
  }
  state.counters["rebalance"] = rebalance ? 1 : 0;
}
BENCHMARK(BM_RebalanceGain)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(8)  // each iteration drains a full 40k-tuple workload
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Idle wake: a server whose EOs are parked (Drain() returned, then 1 ms of
/// quiet) gets one row; the sample is PushBuilt's start until a spinning
/// Poll returns the result. Reports p50/p99 over kSamples rows (counters,
/// microseconds).
void BM_IdleWake(benchmark::State& state) {
  constexpr int kSamples = 1000;
  for (auto _ : state) {
    TelegraphCQ server;
    (void)server.DefineStream("S", {{"k", ValueType::kInt64, 0}});
    auto handle = server.Submit("SELECT * FROM S");
    if (!handle.ok()) {
      state.SkipWithError(handle.status().ToString().c_str());
      return;
    }
    server.Start();
    std::vector<double> us;
    us.reserve(kSamples);
    Delivery d;
    for (int i = 0; i < kSamples; ++i) {
      (void)server.Drain();
      // Models sparse arrivals: the server sits idle before each row.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      auto batch = server.NewBatch("S");
      (void)batch->Append(i, {Value::Int64(i)});
      auto t0 = std::chrono::steady_clock::now();
      (void)server.PushBuilt(std::move(*batch));
      while (!handle->results->Poll(&d)) {
      }
      auto t1 = std::chrono::steady_clock::now();
      us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    server.Stop();
    std::sort(us.begin(), us.end());
    state.counters["p50_us"] = us[us.size() / 2];
    state.counters["p99_us"] = us[us.size() * 99 / 100];
  }
}
BENCHMARK(BM_IdleWake)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcq

BENCHMARK_MAIN();
