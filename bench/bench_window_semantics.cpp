// E6 — Window classes and their state/cost (paper §4.1.2): a MAX aggregate
// over landmark, sliding, and hopping windows. Landmark MAX runs with O(1)
// state; sliding MAX must retain the window (state grows with width);
// hopping with hop > width recomputes and skips stream portions. Counters
// report peak state bytes alongside throughput. BM_OnlineWindowIngest
// measures the online runner's batch admission at three selectivities.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "window/window_exec.h"

namespace tcq {
namespace {

StreamHistory MakeHistory(Timestamp n) {
  StreamHistory h;
  Rng rng(4);
  SchemaRef schema = bench::KVSchema(0);
  for (Timestamp t = 1; t <= n; ++t) {
    h.Append(bench::KVRow(0, rng.UniformInt(0, 1000000), 0, t));
  }
  return h;
}

constexpr Timestamp kStreamLen = 20000;

void BM_LandmarkMax(benchmark::State& state) {
  StreamHistory h = MakeHistory(kStreamLen);
  auto loop = ForLoopSpec::Landmark(0, 1, 1, kStreamLen);
  size_t peak = 0;
  uint64_t windows = 0;
  for (auto _ : state) {
    auto r = RunAggregateOverHistory(loop, AggFn::kMax, {0, "k"}, h,
                                     1u << 20, &peak);
    windows += r.size();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(windows));
  state.counters["peak_state_bytes"] = static_cast<double>(peak);
}
BENCHMARK(BM_LandmarkMax)->Unit(benchmark::kMillisecond);

void BM_SlidingMax(benchmark::State& state) {
  Timestamp width = state.range(0);
  StreamHistory h = MakeHistory(kStreamLen);
  auto loop = ForLoopSpec::Sliding({0}, width, width, kStreamLen);
  size_t peak = 0;
  uint64_t windows = 0;
  for (auto _ : state) {
    auto r = RunAggregateOverHistory(loop, AggFn::kMax, {0, "k"}, h,
                                     1u << 20, &peak);
    windows += r.size();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(windows));
  state.counters["width"] = static_cast<double>(width);
  state.counters["peak_state_bytes"] = static_cast<double>(peak);
}
BENCHMARK(BM_SlidingMax)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_HoppingMax(benchmark::State& state) {
  Timestamp hop = state.range(0);  // width fixed at 64; hop > width skips
  StreamHistory h = MakeHistory(kStreamLen);
  auto loop = ForLoopSpec::Sliding({0}, 64, 64, kStreamLen, hop);
  size_t peak = 0;
  uint64_t windows = 0;
  for (auto _ : state) {
    auto r = RunAggregateOverHistory(loop, AggFn::kMax, {0, "k"}, h,
                                     1u << 20, &peak);
    windows += r.size();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(windows));
  state.counters["hop"] = static_cast<double>(hop);
  state.counters["class"] =
      static_cast<double>(loop.Classify() == WindowClass::kHopping);
  state.counters["peak_state_bytes"] = static_cast<double>(peak);
}
BENCHMARK(BM_HoppingMax)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Backward windows (the browsing pattern §4.1.1 motivates): recompute cost
// per window over a long retained history.
void BM_BackwardBrowse(benchmark::State& state) {
  StreamHistory h = MakeHistory(kStreamLen);
  auto loop = ForLoopSpec::Backward(0, 256, kStreamLen, 256, 32);
  uint64_t windows = 0;
  for (auto _ : state) {
    auto r = RunAggregateOverHistory(loop, AggFn::kAvg, {0, "k"}, h);
    windows += r.size();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(windows));
}
BENCHMARK(BM_BackwardBrowse)->Unit(benchmark::kMillisecond);

// Online runner end-to-end: set-based sliding windows over a live stream,
// including the history-pruning path.
void BM_OnlineSlidingSets(benchmark::State& state) {
  Timestamp width = state.range(0);
  SchemaRef schema = bench::KVSchema(0);
  Rng rng(5);
  uint64_t fired = 0, tuples = 0;
  for (auto _ : state) {
    WindowedQuery q;
    q.loop = ForLoopSpec::Sliding({0}, width, width, kStreamLen / 4);
    q.predicates = {
        MakeCompareConst({0, "k"}, CmpOp::kLt, Value::Int64(500000))};
    OnlineWindowRunner runner(q);
    for (Timestamp t = 1; t <= kStreamLen / 4; ++t) {
      runner.Ingest(0, bench::KVRow(0, rng.UniformInt(0, 1000000), 0, t));
      runner.Poll([&](const WindowResult&) { ++fired; });
      ++tuples;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["width"] = static_cast<double>(width);
  state.counters["windows_fired"] = static_cast<double>(fired);
}
BENCHMARK(BM_OnlineSlidingSets)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

// Online runner batch admission (DESIGN.md §12): columnar 64-row batches
// into an event-time sliding window (width 64, hop 16) whose filter admits
// range(0) percent of the rows, each batch carrying its punctuation.
// range(1) = 1 feeds whole batches to IngestBatch (lane admission, only
// admitted rows materialized); 0 feeds the same rows one Ingest at a time.
void BM_OnlineWindowIngest(benchmark::State& state) {
  const int64_t percent = state.range(0);
  const bool columnar = state.range(1) != 0;
  constexpr size_t kRows = 16384, kBatch = 64, kPerTs = 4;
  Rng rng(6);
  std::vector<TupleBatch> batches;
  for (size_t b = 0; b < kRows; b += kBatch) {
    std::vector<Tuple> rows;
    for (size_t i = b; i < b + kBatch; ++i) {
      rows.push_back(bench::KVRow(0, rng.UniformInt(0, 999), 0,
                                  static_cast<Timestamp>(i / kPerTs + 1)));
    }
    TupleBatch batch(0, ColumnStore::FromRows(rows.data(), rows.size()));
    batch.AddPunctuation(Punctuation{0, rows.back().timestamp()});
    batches.push_back(std::move(batch));
  }
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0}, 64, 64, kRows / kPerTs, 16);
  q.loop.semantics = TimeSemantics::kEvent;
  q.predicates = {
      MakeCompareConst({0, "k"}, CmpOp::kLt, Value::Int64(percent * 10))};
  uint64_t fired = 0, buffered_peak = 0;
  for (auto _ : state) {
    OnlineWindowRunner runner(q);
    for (const TupleBatch& b : batches) {
      if (columnar) {
        runner.IngestBatch(0, b);
      } else {
        for (size_t i = 0; i < b.size(); ++i) runner.Ingest(0, b.RowAt(i));
        for (const Punctuation& p : b.punctuations()) runner.OnPunctuation(p);
      }
      buffered_peak = std::max<uint64_t>(buffered_peak,
                                         runner.buffered_tuples());
      runner.Poll([&](const WindowResult&) { ++fired; });
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
  state.counters["selectivity_pct"] = static_cast<double>(percent);
  state.counters["windows_fired"] = benchmark::Counter(
      static_cast<double>(fired), benchmark::Counter::kAvgIterations);
  state.counters["buffered_peak"] = static_cast<double>(buffered_peak);
}
BENCHMARK(BM_OnlineWindowIngest)
    ->ArgsProduct({{100, 10, 1}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcq

BENCHMARK_MAIN();
