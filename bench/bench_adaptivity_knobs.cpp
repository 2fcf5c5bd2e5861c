// E7 — "Adapting adaptivity" (paper §4.3): coarser routing lowers the
// per-tuple routing cost at the price of slower reaction to drift. On the
// shared eddy the lever is the ingest batch size: within one batch the
// drain-scoped decision cache reuses a ranked slot for every envelope with
// the same lineage, and batches of 4 rows or more run the grouped filters
// as a columnar prefilter in slot order (no per-tuple routing at all). The
// sweep crosses batch size with drift period; the counters show the
// paper's predicted shape: decisions_per_tuple falls as batches grow, and
// under drift work_per_tuple stops improving — the coarse plan cannot
// follow the data.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "cacq/shared_eddy.h"

namespace tcq {
namespace {

using bench::DriftStream;
using bench::KVSchema;

constexpr size_t kTuples = 20000;

// drift_period = 0 means a static environment.
void RunSweep(benchmark::State& state, size_t batch, size_t drift_period) {
  auto stream = DriftStream(0, kTuples, drift_period, 7);
  CQSpec spec;
  spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(10)});
  spec.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(10)});

  uint64_t invocations = 0, decisions = 0, tuples = 0;
  for (auto _ : state) {
    SharedEddy eddy(MakeLotteryPolicy(19));
    eddy.RegisterStream(0, KVSchema(0));
    (void)eddy.AddQuery(spec);
    eddy.SetOutput([](QueryId, const Tuple&) {});
    for (size_t i = 0; i < stream.size(); i += batch) {
      TupleBatch b(0);
      for (size_t j = i; j < std::min(stream.size(), i + batch); ++j) {
        b.push_back(stream[j]);
      }
      eddy.IngestBatch(b);
    }
    invocations += eddy.module_invocations();
    decisions += eddy.routing_decisions();
    tuples += stream.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["drift_period"] = static_cast<double>(drift_period);
  state.counters["work_per_tuple"] =
      static_cast<double>(invocations) / static_cast<double>(tuples);
  state.counters["decisions_per_tuple"] =
      static_cast<double>(decisions) / static_cast<double>(tuples);
}

void BatchArgs(benchmark::internal::Benchmark* b) {
  for (int64_t batch : {1, 2, 3, 4, 16, 64, 256, 1024}) b->Arg(batch);
  b->Unit(benchmark::kMillisecond);
}

void BM_BatchSweepStatic(benchmark::State& state) {
  RunSweep(state, static_cast<size_t>(state.range(0)), /*drift_period=*/0);
}
BENCHMARK(BM_BatchSweepStatic)->Apply(BatchArgs);

void BM_BatchSweepSlowDrift(benchmark::State& state) {
  RunSweep(state, static_cast<size_t>(state.range(0)),
           /*drift_period=*/5000);
}
BENCHMARK(BM_BatchSweepSlowDrift)->Apply(BatchArgs);

void BM_BatchSweepFastDrift(benchmark::State& state) {
  RunSweep(state, static_cast<size_t>(state.range(0)),
           /*drift_period=*/500);
}
BENCHMARK(BM_BatchSweepFastDrift)->Apply(BatchArgs);

}  // namespace
}  // namespace tcq

BENCHMARK_MAIN();
