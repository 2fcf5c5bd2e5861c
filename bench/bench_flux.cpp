// E8 — Flux (paper §2.4; shape from [SHCF03]) on the executor's sharded
// query classes (4 shards over a keyed join): (1) online re-partitioning
// bounds the hot shard's backlog under zipf skew; (2) replicated failover
// keeps every join and filter result while unreplicated failover loses
// some, and counts them; (3) replication's cost, the "reliability-based
// quality-of-service knob": throughput without a failure, and the failover
// pause (tcq_shard_repartition_pause_us) against SteM size.
//
// The binary exits non-zero if a replicated failover loses a result, so a
// quick run (--benchmark_min_time=0.01) doubles as a correctness smoke.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "bench_common.h"
#include "exec/executor.h"

namespace tcq {
namespace {

using bench::KVRow;
using bench::KVSchema;
using bench::UniformStream;

constexpr size_t kShards = 4;
constexpr size_t kIngestBatch = 256;

/// Results a replicated failover lost, over every run of the process.
std::atomic<uint64_t> g_replicated_lost{0};

Executor::Options FluxOptions(bool replication) {
  Executor::Options opts;
  opts.num_eos = kShards;
  opts.shards = kShards;
  opts.shard_replication = replication;
  return opts;
}

std::string ShardName(size_t k) {
  return k == 0 ? "class0" : "class0/s" + std::to_string(k);
}

void Ingest(Executor* exec, SourceId source, const std::vector<Tuple>& rows,
            size_t begin, size_t end) {
  for (size_t off = begin; off < end; off += kIngestBatch) {
    TupleBatch batch(source);
    for (size_t i = off; i < std::min(off + kIngestBatch, end); ++i) {
      batch.push_back(rows[i]);
    }
    (void)exec->IngestBatch(std::move(batch));
  }
}

bool Drain(Executor* exec) {
  return exec
      ->WaitQuiescent(std::chrono::steady_clock::now() +
                      std::chrono::seconds(60))
      .ok();
}

// (1) A dimension stream R (one row per key) joined with a zipf-keyed fact
// stream L: every L row has one partner, so a shard's work is its share of
// L. With rebalancing a skew pass runs every 16 batches and re-partitions
// once the busiest shard's ingest passes 1.5x the least busy one's.
void BM_SkewedJoinBacklog(benchmark::State& state) {
  const bool rebalance = state.range(0) != 0;
  const double theta = static_cast<double>(state.range(1)) / 100.0;
  constexpr int64_t kKeys = 4096;
  constexpr size_t kFacts = 60000;
  std::vector<Tuple> dim;
  for (int64_t k = 0; k < kKeys; ++k) dim.push_back(KVRow(1, k, k, k));
  std::vector<Tuple> facts;
  Rng rng(3);
  for (size_t i = 0; i < kFacts; ++i) {
    facts.push_back(KVRow(0, static_cast<int64_t>(rng.Zipf(kKeys, theta)),
                          static_cast<int64_t>(i),
                          static_cast<Timestamp>(i)));
  }

  int64_t max_backlog = 0;
  uint64_t repartitions = 0;
  double skew = 0;
  bool drained = true;
  for (auto _ : state) {
    Executor::Options opts = FluxOptions(false);
    opts.shard_skew_threshold = 1.5;
    Executor exec(opts);
    (void)exec.RegisterStream(0, KVSchema(0));
    (void)exec.RegisterStream(1, KVSchema(1));
    std::atomic<uint64_t> delivered{0};
    CQSpec join;
    join.joins.push_back({{0, "k"}, {1, "k"}});
    (void)exec.SubmitQuery(join, [&delivered](GlobalQueryId,
                                              const std::vector<Tuple>& run) {
      delivered.fetch_add(run.size(), std::memory_order_relaxed);
    });
    exec.Start();
    Ingest(&exec, 1, dim, 0, dim.size());
    (void)Drain(&exec);
    std::vector<uint64_t> half(kShards, 0);
    size_t batches = 0;
    for (size_t off = 0; off < kFacts; off += kIngestBatch, ++batches) {
      if (rebalance && batches % 16 == 15) (void)exec.RepartitionSkewedOnce();
      Ingest(&exec, 0, facts, off, std::min(off + kIngestBatch, kFacts));
      auto snap = exec.metrics()->Snapshot();
      for (size_t k = 0; k < kShards; ++k) {
        max_backlog = std::max(
            max_backlog, snap.GaugeValue("tcq_shard_occupancy{shard=\"" +
                                         ShardName(k) + "\"}"));
        if (off < kFacts / 2) {
          half[k] = snap.CounterValue("tcq_shard_ingest_total{shard=\"" +
                                      ShardName(k) + "\"}");
        }
      }
    }
    (void)exec.CloseStream(0);
    (void)exec.CloseStream(1);
    drained = drained && Drain(&exec) && delivered.load() == kFacts;
    // Ingest imbalance (max/min per shard) over the run's second half.
    auto snap = exec.metrics()->Snapshot();
    uint64_t mx = 0;
    uint64_t mn = UINT64_MAX;
    for (size_t k = 0; k < kShards; ++k) {
      uint64_t d = snap.CounterValue("tcq_shard_ingest_total{shard=\"" +
                                     ShardName(k) + "\"}") -
                   half[k];
      mx = std::max(mx, d);
      mn = std::min(mn, d);
    }
    skew = static_cast<double>(mx) / static_cast<double>(std::max<uint64_t>(mn, 1));
    repartitions = exec.class_repartitions();
    exec.Stop();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kFacts));
  state.counters["rebalance"] = rebalance ? 1 : 0;
  state.counters["skew_theta"] = theta;
  state.counters["max_backlog"] = static_cast<double>(max_backlog);
  state.counters["repartitions"] = static_cast<double>(repartitions);
  state.counters["ingest_skew"] = skew;
  state.counters["drained"] = drained ? 1 : 0;
}
BENCHMARK(BM_SkewedJoinBacklog)
    ->Args({0, 90})
    ->Args({1, 90})
    ->Args({0, 120})
    ->Args({1, 120})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// (2) + (3) L join R on k (uniform keys, ~2.4 partners per row) plus a
// filter on each side. With `fail`, shard 1 crashes halfway through the
// ingest, with rows in flight. Lost = ground truth - delivered.
void BM_Failover(benchmark::State& state) {
  const bool replication = state.range(0) != 0;
  const bool fail = state.range(1) != 0;
  constexpr size_t kSide = 20000;
  constexpr int64_t kKeys = 8192;
  auto l = UniformStream(0, kSide, kKeys, 21);
  auto r = UniformStream(1, kSide, kKeys, 22);
  uint64_t expected = 0;
  {
    std::map<int64_t, uint64_t> lhs;
    for (const Tuple& row : l) ++lhs[row.at(0).AsInt64()];
    for (const Tuple& row : r) expected += lhs[row.at(0).AsInt64()];
    for (const auto* side : {&l, &r}) {
      for (const Tuple& row : *side) expected += row.at(1).AsInt64() < 50;
    }
  }

  uint64_t lost = 0;
  uint64_t counted_lost = 0;
  int64_t shadow_rows = 0;
  uint64_t dropped = 0;
  double pause_us = 0;
  for (auto _ : state) {
    Executor exec(FluxOptions(replication));
    (void)exec.RegisterStream(0, KVSchema(0));
    (void)exec.RegisterStream(1, KVSchema(1));
    std::atomic<uint64_t> delivered{0};
    Executor::Sink sink = [&delivered](GlobalQueryId,
                                       const std::vector<Tuple>& run) {
      delivered.fetch_add(run.size(), std::memory_order_relaxed);
    };
    CQSpec join;
    join.joins.push_back({{0, "k"}, {1, "k"}});
    (void)exec.SubmitQuery(join, sink);
    for (SourceId s : {SourceId{0}, SourceId{1}}) {
      CQSpec filter;
      filter.filters.push_back({{s, "v"}, CmpOp::kLt, Value::Int64(50)});
      (void)exec.SubmitQuery(filter, sink);
    }
    exec.Start();
    for (size_t off = 0; off < kSide; off += kIngestBatch) {
      if (fail && off == (kSide / 2 / kIngestBatch) * kIngestBatch) {
        auto t0 = std::chrono::steady_clock::now();
        (void)exec.FailShard(0, 1);
        pause_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
      }
      size_t end = std::min(off + kIngestBatch, kSide);
      Ingest(&exec, 0, l, off, end);
      Ingest(&exec, 1, r, off, end);
    }
    (void)exec.CloseStream(0);
    (void)exec.CloseStream(1);
    (void)Drain(&exec);
    exec.Stop();
    lost = expected - std::min(expected, delivered.load());
    auto snap = exec.metrics()->Snapshot();
    counted_lost =
        snap.CounterValue("tcq_shard_failover_lost_total{class=\"class0\"}");
    shadow_rows = snap.GaugeValue("tcq_shard_shadow_rows{class=\"class0\"}");
    // Rows back-pressure dropped at ingest lose results no failover caused.
    dropped = exec.tuples_dropped_backpressure();
    if (replication && dropped == 0) g_replicated_lost += lost;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 2 * kSide));
  state.counters["replication"] = replication ? 1 : 0;
  state.counters["failover"] = fail ? 1 : 0;
  state.counters["results_expected"] = static_cast<double>(expected);
  state.counters["results_lost"] = static_cast<double>(lost);
  state.counters["results_kept"] = static_cast<double>(expected - lost);
  state.counters["lost_counter"] = static_cast<double>(counted_lost);
  state.counters["shadow_rows"] = static_cast<double>(shadow_rows);
  state.counters["dropped"] = static_cast<double>(dropped);
  state.counters["failover_us"] = pause_us;
}
BENCHMARK(BM_Failover)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// (3) The failover pause against SteM size: `rows` rows per stream are
// built and drained, then shard 1 crashes. The surviving shards' SteMs (and
// shadows) move by reference and only the failed shard's rows replay, so
// the pause tracks the failed shard's state plus a fixed rebuild cost. The
// reported time is the pause (tcq_shard_repartition_pause_us).
void BM_FailoverPause(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const bool replication = state.range(1) != 0;
  auto l = UniformStream(0, rows, static_cast<int64_t>(rows), 31);
  auto r = UniformStream(1, rows, static_cast<int64_t>(rows), 32);
  for (auto _ : state) {
    Executor exec(FluxOptions(replication));
    (void)exec.RegisterStream(0, KVSchema(0));
    (void)exec.RegisterStream(1, KVSchema(1));
    CQSpec join;
    join.joins.push_back({{0, "k"}, {1, "k"}});
    (void)exec.SubmitQuery(join,
                           [](GlobalQueryId, const std::vector<Tuple>&) {});
    exec.Start();
    Ingest(&exec, 0, l, 0, rows);
    Ingest(&exec, 1, r, 0, rows);
    (void)Drain(&exec);
    Histogram* pause = exec.metrics()->GetHistogram(
        "tcq_shard_repartition_pause_us{class=\"class0\"}");
    uint64_t before = pause->Sum();
    (void)exec.FailShard(0, 1);
    double us = static_cast<double>(pause->Sum() - before);
    state.SetIterationTime(us / 1e6);
    exec.Stop();
  }
  state.counters["stem_rows"] = static_cast<double>(2 * rows);
  state.counters["replication"] = replication ? 1 : 0;
}
BENCHMARK(BM_FailoverPause)
    ->ArgsProduct({{4096, 16384, 65536}, {0, 1}})
    ->Iterations(10)  // setup (2 x rows joined) dominates; bound the run
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcq

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (tcq::g_replicated_lost.load() > 0) {
    std::fprintf(stderr, "E8 FAILED: replicated failover lost %llu result(s)\n",
                 static_cast<unsigned long long>(tcq::g_replicated_lost.load()));
    return 1;
  }
  return 0;
}
