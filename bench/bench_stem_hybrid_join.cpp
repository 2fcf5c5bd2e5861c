// E2 — SteM join hybridization (paper §2.2; shape from SteMs [RDH02]):
// stream S joins a remote-indexed table T. Three plans:
//   (a) index-join        : every S tuple pays a remote lookup
//                           (RemoteIndexProbe operator, no cache);
//   (b) hybrid (cache)    : the same operator with a SteM on T caching
//                           fetched entries; repeated keys (zipf) are
//                           served locally;
//   (c) symmetric hash    : T is streamed and built into the shared eddy's
//                           SteM up front (no remote lookups, but full T
//                           state), then S probes it through the eddy.
// (a) and (b) call the operator directly: a plan with one module leaves an
// eddy no routing choice to make.
// The reported `simulated_cost_us` counts remote latency, the dominant cost
// in the paper's wide-area setting — the hybrid tracks whichever of (a)/(c)
// is better as key skew changes, which is the hybridization claim.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "cacq/shared_eddy.h"
#include "ingress/remote_index.h"

namespace tcq {
namespace {

using bench::KVRow;
using bench::KVSchema;

constexpr size_t kProbes = 8000;
constexpr int64_t kTableKeys = 2000;
constexpr Timestamp kLookupUs = 1000;

std::vector<Tuple> ZipfProbeStream(double theta, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    out.push_back(KVRow(0, static_cast<int64_t>(rng.Zipf(kTableKeys, theta)),
                        0, static_cast<Timestamp>(i)));
  }
  return out;
}

void FillIndex(SimulatedRemoteIndex* index) {
  for (int64_t k = 0; k < kTableKeys; ++k) {
    index->Insert(KVRow(1, k, k * 10, 0));
  }
}

void BM_IndexJoinNoCache(benchmark::State& state) {
  double theta = static_cast<double>(state.range(0)) / 100.0;
  auto stream = ZipfProbeStream(theta, 3);
  uint64_t cost = 0, outputs = 0, tuples = 0;
  for (auto _ : state) {
    SimulatedRemoteIndex index(1, KVSchema(1), "k",
                               {.lookup_cost_us = kLookupUs});
    FillIndex(&index);
    RemoteIndexProbe probe(&index, AttrRef{0, "k"});
    std::vector<Tuple> joined;
    for (const Tuple& t : stream) {
      joined.clear();
      outputs += probe.Probe(t, &joined);
    }
    cost += static_cast<uint64_t>(index.simulated_cost_us());
    tuples += stream.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["skew_theta"] = theta;
  // Same join result under every plan: matches per run.
  state.counters["joined"] =
      static_cast<double>(outputs) / static_cast<double>(state.iterations());
  state.counters["simulated_cost_us"] =
      static_cast<double>(cost) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_IndexJoinNoCache)->Arg(0)->Arg(90)->Arg(120);

void BM_HybridIndexWithSteMCache(benchmark::State& state) {
  double theta = static_cast<double>(state.range(0)) / 100.0;
  auto stream = ZipfProbeStream(theta, 3);
  uint64_t cost = 0, outputs = 0, tuples = 0, hits = 0;
  for (auto _ : state) {
    SimulatedRemoteIndex index(1, KVSchema(1), "k",
                               {.lookup_cost_us = kLookupUs});
    FillIndex(&index);
    SteM cache("cacheT", 1, KVSchema(1), StemOptions{.key_attr = "k"});
    RemoteIndexProbe probe(&index, AttrRef{0, "k"}, &cache);
    std::vector<Tuple> joined;
    for (const Tuple& t : stream) {
      joined.clear();
      outputs += probe.Probe(t, &joined);
    }
    cost += static_cast<uint64_t>(index.simulated_cost_us());
    hits += probe.cache_hits();
    tuples += stream.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["skew_theta"] = theta;
  // Same join result under every plan: matches per run.
  state.counters["joined"] =
      static_cast<double>(outputs) / static_cast<double>(state.iterations());
  state.counters["simulated_cost_us"] =
      static_cast<double>(cost) / static_cast<double>(state.iterations());
  state.counters["cache_hit_frac"] =
      static_cast<double>(hits) /
      static_cast<double>(static_cast<uint64_t>(state.iterations()) * kProbes);
}
BENCHMARK(BM_HybridIndexWithSteMCache)->Arg(0)->Arg(90)->Arg(120);

void BM_SymmetricHashPreloaded(benchmark::State& state) {
  double theta = static_cast<double>(state.range(0)) / 100.0;
  auto stream = ZipfProbeStream(theta, 3);
  uint64_t outputs = 0, tuples = 0;
  for (auto _ : state) {
    // T is streamed in full first (paying bulk transfer once, modeled as one
    // lookup per table page of 50 rows), then S probes locally.
    SharedEddy eddy(MakeLotteryPolicy(3));
    eddy.RegisterStream(0, KVSchema(0), StemOptions{.key_attr = "k"});
    eddy.RegisterStream(1, KVSchema(1), StemOptions{.key_attr = "k"});
    CQSpec join;
    join.joins.push_back({{0, "k"}, {1, "k"}});
    (void)eddy.AddQuery(join);
    for (int64_t k = 0; k < kTableKeys; ++k) {
      eddy.Ingest(1, KVRow(1, k, k * 10, 0));
    }
    eddy.SetOutput([&](QueryId, const Tuple&) { ++outputs; });
    for (const Tuple& t : stream) eddy.Ingest(0, t);
    tuples += stream.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["skew_theta"] = theta;
  // Same join result under every plan: matches per run.
  state.counters["joined"] =
      static_cast<double>(outputs) / static_cast<double>(state.iterations());
  // Bulk-stream cost model: full table transfer.
  state.counters["simulated_cost_us"] =
      static_cast<double>(kTableKeys / 50 * kLookupUs);
  state.counters["stem_entries"] = static_cast<double>(kTableKeys);
}
BENCHMARK(BM_SymmetricHashPreloaded)->Arg(0)->Arg(90)->Arg(120);

}  // namespace
}  // namespace tcq

BENCHMARK_MAIN();
