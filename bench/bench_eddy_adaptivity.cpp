// E1 — Eddy adaptivity vs static plans (paper §2.2; shape from Eddies
// [AH00] Figs 6-9): one query with two filters whose selectivities swap
// halfway through the stream, run on the shared eddy the engine uses. The
// data drifts, not the query: in the first half k < 10 keeps 10% of rows
// and v < 10 keeps ~91%; in the second half the reverse. A static plan is
// optimal for one phase and pessimal for the other; the eddy re-learns the
// order online. The `work_per_tuple` counter (module invocations / tuple)
// is the cost the routing policy is minimizing. Tuples are ingested one at
// a time so every tuple gets its own routing decision.

#include <benchmark/benchmark.h>

#include <iostream>
#include <mutex>

#include "bench_common.h"
#include "cacq/shared_eddy.h"
#include "common/metrics.h"
#include "eddy/routing_policy.h"

namespace tcq {
namespace {

using bench::DriftStream;
using bench::KVSchema;

constexpr size_t kTuples = 20000;

// Grouped-filter slots follow attribute order: slot 0 filters k (f1),
// slot 1 filters v (f2).
std::unique_ptr<RoutingPolicy> PolicyFor(int id) {
  switch (id) {
    case 0:
      return MakeFixedOrderPolicy({0, 1});  // static plan: f1 first
    case 1:
      return MakeFixedOrderPolicy({1, 0});  // static plan: f2 first
    case 2:
      return MakeLotteryPolicy(17);
    case 3:
      return MakeGreedyPolicy(0.05, 17);
    default:
      return MakeRoundRobinPolicy();
  }
}

const char* PolicyName(int id) {
  switch (id) {
    case 0:
      return "static(f1,f2)";
    case 1:
      return "static(f2,f1)";
    case 2:
      return "eddy-lottery";
    case 3:
      return "eddy-greedy";
    default:
      return "eddy-roundrobin";
  }
}

CQSpec TwoFilterQuery() {
  CQSpec spec;
  spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(10)});  // f1
  spec.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(10)});  // f2
  return spec;
}

struct RunTotals {
  uint64_t invocations = 0, decisions = 0, outputs = 0, tuples = 0;
};

void RunOnce(int policy_id, const std::vector<Tuple>& stream,
             const MetricsRegistryRef& metrics, RunTotals* totals) {
  // Every run of one policy reports into the same labelled instruments, so
  // this run's share is the difference across it.
  SharedEddy eddy(PolicyFor(policy_id), metrics, PolicyName(policy_id));
  const uint64_t invocations0 = eddy.module_invocations();
  const uint64_t decisions0 = eddy.routing_decisions();
  const uint64_t outputs0 = eddy.deliveries();
  eddy.RegisterStream(0, KVSchema(0));
  (void)eddy.AddQuery(TwoFilterQuery());
  eddy.SetOutput([](QueryId, const Tuple&) {});
  for (const Tuple& t : stream) eddy.Ingest(0, t);
  totals->invocations += eddy.module_invocations() - invocations0;
  totals->decisions += eddy.routing_decisions() - decisions0;
  totals->outputs += eddy.deliveries() - outputs0;
  totals->tuples += stream.size();
}

void Report(benchmark::State& state, int policy_id, const RunTotals& t) {
  state.SetItemsProcessed(static_cast<int64_t>(t.tuples));
  state.counters["work_per_tuple"] =
      static_cast<double>(t.invocations) / static_cast<double>(t.tuples);
  state.counters["decisions_per_tuple"] =
      static_cast<double>(t.decisions) / static_cast<double>(t.tuples);
  state.counters["selected_frac"] =
      static_cast<double>(t.outputs) / static_cast<double>(t.tuples);
  state.SetLabel(PolicyName(policy_id));
}

void BM_SelectivityDrift(benchmark::State& state) {
  const int policy_id = static_cast<int>(state.range(0));
  auto stream = DriftStream(0, kTuples, kTuples / 2, 42);
  auto metrics = std::make_shared<MetricsRegistry>();
  RunTotals totals;
  for (auto _ : state) RunOnce(policy_id, stream, metrics, &totals);
  Report(state, policy_id, totals);
  // One-shot text dump of the eddy's instruments (routing decisions,
  // per-module selectivity gauges, ...) so a bench run doubles as a smoke
  // test of the metrics exposition.
  static std::once_flag dumped;
  std::call_once(dumped, [&] {
    std::cout << "--- metrics dump (" << PolicyName(policy_id) << ") ---\n"
              << metrics->FormatText();
  });
}
BENCHMARK(BM_SelectivityDrift)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

// Static environment: the eddy should match (not beat) the best static
// plan, paying only its routing overhead [AH00 "does no harm" claim].
void BM_StaticEnvironment(benchmark::State& state) {
  const int policy_id = static_cast<int>(state.range(0));
  auto stream = DriftStream(0, kTuples, /*period=*/0, 43);
  auto metrics = std::make_shared<MetricsRegistry>();
  RunTotals totals;
  for (auto _ : state) RunOnce(policy_id, stream, metrics, &totals);
  Report(state, policy_id, totals);
}
BENCHMARK(BM_StaticEnvironment)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcq

BENCHMARK_MAIN();
