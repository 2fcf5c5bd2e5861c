// Crash-recovery cost model (DESIGN.md §13): what an epoch-stamped
// checkpoint costs as the engine's durable state grows, and what a restore
// costs end to end — snapshot import plus the spool-suffix replay. One
// server hosts an L-join-R continuous query whose SteMs hold N tuples per
// side; BM_Checkpoint quiesces and snapshots that state, BM_Restore rebuilds
// a fresh server from the snapshot plus an N-tuple archived suffix.
// scripts/bench_recovery.sh turns the sweep into BENCH_recovery.json.

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "server/telegraphcq.h"

namespace tcq::bench {
namespace {

std::vector<Field> KVFields() {
  return {{"k", ValueType::kInt64, 0}, {"v", ValueType::kInt64, 0}};
}

TelegraphCQ::Options DurableOptions(const std::string& tag) {
  const auto base =
      std::filesystem::temp_directory_path() / ("tcq_bench_recovery_" + tag);
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base / "spool");
  std::filesystem::create_directories(base / "ckpt");
  TelegraphCQ::Options o;
  o.spool_dir = (base / "spool").string();
  o.checkpoint_dir = (base / "ckpt").string();
  // Nobody consumes the egress during the bench; never let it block the
  // quiesce (sheds are counted, not silently dropped).
  o.egress_shed = ShedPolicy::kDropNewest;
  return o;
}

/// Pushes one (k, v) row at timestamp k as a batch of one.
Status PushKV(TelegraphCQ* server, const std::string& stream, int64_t k,
              int64_t v) {
  Result<TelegraphCQ::BatchBuilder> batch = server->NewBatch(stream);
  if (!batch.ok()) return batch.status();
  TCQ_RETURN_IF_ERROR(batch->Append(k, {Value::Int64(k), Value::Int64(v)}));
  return server->PushBuilt(std::move(*batch));
}

/// N rows per side, unique keys starting at `key0`: every row lands in a
/// SteM, and each L/R key pair joins exactly once.
void IngestJoinRows(TelegraphCQ* server, int64_t key0, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const int64_t k = key0 + i;
    benchmark::DoNotOptimize(PushKV(server, "L", k, i));
    benchmark::DoNotOptimize(PushKV(server, "R", k, i));
  }
}

void BM_Checkpoint(benchmark::State& state) {
  const int64_t n = state.range(0);
  TelegraphCQ server(DurableOptions("ckpt_" + std::to_string(n)));
  if (!server.DefineStream("L", KVFields()).ok() ||
      !server.DefineStream("R", KVFields()).ok() ||
      !server.Submit("SELECT l.v, r.v FROM L l, R r WHERE l.k = r.k").ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  server.Start();
  IngestJoinRows(&server, 1, n);

  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto epoch = server.Checkpoint();
    const auto t1 = std::chrono::steady_clock::now();
    if (!epoch.ok()) {
      state.SkipWithError(epoch.status().message().c_str());
      break;
    }
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  auto view = server.Introspect();
  server.Stop();
  state.SetItemsProcessed(state.iterations() * 2 * n);
  if (view.checkpoint_epochs > 0) {
    state.counters["snapshot_bytes"] = static_cast<double>(
        view.checkpoint_bytes / view.checkpoint_epochs);
  }
}

void BM_Restore(benchmark::State& state) {
  const int64_t n = state.range(0);
  const TelegraphCQ::Options opts =
      DurableOptions("restore_" + std::to_string(n));
  // Durable state built once: N rows per side in the snapshot's SteMs, then
  // N archived suffix rows per side past the snapshot's high-water mark.
  {
    TelegraphCQ server(opts);
    if (!server.DefineStream("L", KVFields()).ok() ||
        !server.DefineStream("R", KVFields()).ok() ||
        !server.Submit("SELECT l.v, r.v FROM L l, R r WHERE l.k = r.k")
             .ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    server.Start();
    IngestJoinRows(&server, 1, n);
    if (!server.Checkpoint().ok() || !([&] {
          IngestJoinRows(&server, n + 1, n);
          return server.FlushSpools().ok();
        }())) {
      state.SkipWithError("checkpoint setup failed");
      return;
    }
    server.Stop();
  }

  uint64_t replayed = 0;
  for (auto _ : state) {
    TelegraphCQ server(opts);
    const auto t0 = std::chrono::steady_clock::now();
    auto epoch = server.Restore();
    const auto t1 = std::chrono::steady_clock::now();
    if (!epoch.ok()) {
      state.SkipWithError(epoch.status().message().c_str());
      break;
    }
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    replayed = server.Introspect().restore_replay_tuples;
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
  state.counters["replay_tuples"] = static_cast<double>(replayed);
}

BENCHMARK(BM_Checkpoint)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Restore)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcq::bench

BENCHMARK_MAIN();
