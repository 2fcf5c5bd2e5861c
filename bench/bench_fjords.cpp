// E9 — Fjords push vs blocking connections (paper §2.3): with a bursty
// producer, a consumer on a push-queue regains control when no data is
// available and spends the gaps doing other useful work; an Exchange-style
// blocking consumer is stalled. The `other_work` counter is the measure of
// non-blocking progress — the reason Fjords exist.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <mutex>
#include <thread>

#include "bench_common.h"
#include "common/metrics.h"
#include "fjords/fjord.h"
#include "tuple/column_store.h"

namespace tcq {
namespace {

constexpr size_t kTuplesTotal = 20000;
constexpr size_t kBurst = 200;

// Producer thread: kBurst tuples, then a quiet gap, repeated.
void ProduceBursts(FjordProducer producer) {
  SchemaRef schema = bench::KVSchema(0);
  size_t sent = 0;
  while (sent < kTuplesTotal) {
    for (size_t i = 0; i < kBurst && sent < kTuplesTotal; ++i, ++sent) {
      while (producer.Produce(bench::KVRow(
                 0, static_cast<int64_t>(sent), 0,
                 static_cast<Timestamp>(sent))) == QueueOp::kWouldBlock) {
        std::this_thread::yield();
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  producer.Close();
}

// A unit of "other computation" the consumer can do while the stream is
// quiet (paper: "the non-blocking dequeue allows the consumer to pursue
// other computation").
uint64_t OtherWorkUnit() {
  volatile uint64_t acc = 0;
  for (int i = 0; i < 50; ++i) acc = acc + static_cast<uint64_t>(i) * 2654435761u;
  return acc;
}

void BM_PushConsumerOverlapsWork(benchmark::State& state) {
  auto metrics = std::make_shared<MetricsRegistry>();
  uint64_t consumed_total = 0, other_work = 0;
  for (auto _ : state) {
    auto endpoints =
        Fjord::Make(FjordMode::kPush, 1024, "bench:push", metrics.get());
    std::thread producer(ProduceBursts, endpoints.producer);
    Tuple t;
    size_t consumed = 0;
    while (true) {
      QueueOp op = endpoints.consumer.Consume(&t);
      if (op == QueueOp::kOk) {
        ++consumed;
      } else if (op == QueueOp::kWouldBlock) {
        // Control returned: overlap other computation with the quiet gap.
        benchmark::DoNotOptimize(OtherWorkUnit());
        ++other_work;
      } else {
        break;
      }
    }
    producer.join();
    consumed_total += consumed;
  }
  state.SetItemsProcessed(static_cast<int64_t>(consumed_total));
  state.counters["other_work_done"] =
      static_cast<double>(other_work) / static_cast<double>(state.iterations());
  // One-shot dump of the queue instruments (depth, blocked ops, residence
  // time histogram) accumulated across iterations.
  static std::once_flag dumped;
  std::call_once(dumped,
                 [&] { std::cout << "--- metrics dump ---\n"
                                 << metrics->FormatText(); });
}
BENCHMARK(BM_PushConsumerOverlapsWork)->Unit(benchmark::kMillisecond);

void BM_BlockingConsumerIsStalled(benchmark::State& state) {
  uint64_t consumed_total = 0, other_work = 0;
  for (auto _ : state) {
    // Exchange semantics: blocking dequeue — no chance to do other work.
    auto endpoints = Fjord::Make(FjordMode::kExchange, 1024);
    std::thread producer(ProduceBursts, endpoints.producer);
    Tuple t;
    size_t consumed = 0;
    while (endpoints.consumer.Consume(&t) == QueueOp::kOk) ++consumed;
    producer.join();
    consumed_total += consumed;
  }
  state.SetItemsProcessed(static_cast<int64_t>(consumed_total));
  state.counters["other_work_done"] = static_cast<double>(other_work);
}
BENCHMARK(BM_BlockingConsumerIsStalled)->Unit(benchmark::kMillisecond);

// Raw queue throughput for the three modalities, single-threaded ping-pong.
void BM_QueueThroughput(benchmark::State& state) {
  FjordMode mode = static_cast<FjordMode>(state.range(0));
  auto endpoints = Fjord::Make(mode, 4096);
  SchemaRef schema = bench::KVSchema(0);
  Tuple in = bench::KVRow(0, 1, 2, 3);
  Tuple out;
  uint64_t transferred = 0;
  for (auto _ : state) {
    (void)endpoints.producer.Produce(in);
    (void)endpoints.consumer.Consume(&out);
    ++transferred;
  }
  state.SetItemsProcessed(static_cast<int64_t>(transferred));
  state.SetLabel(FjordModeName(mode));
}
BENCHMARK(BM_QueueThroughput)->Arg(0)->Arg(1)->Arg(2);

// Batched vs per-tuple transfer through a push fjord: one lock acquisition
// moves the whole batch, so tuples/sec should scale sharply with batch size
// (the BENCH_batching.json criterion compares Arg(64) against Arg(1)).
void BM_QueueBatchTransfer(benchmark::State& state) {
  size_t batch_size = static_cast<size_t>(state.range(0));
  auto endpoints = Fjord::Make(FjordMode::kPush, 4096);
  FjordProducer producer(endpoints.producer);
  TupleBatch staged;
  staged.set_source(0);
  for (size_t i = 0; i < batch_size; ++i) {
    staged.push_back(bench::KVRow(0, static_cast<int64_t>(i), 0,
                                  static_cast<Timestamp>(i)));
  }
  TupleBatch out;
  uint64_t transferred = 0;
  for (auto _ : state) {
    TupleBatch b = staged;  // staging copy is part of the producer's cost
    (void)producer.ProduceBatch(&b);
    out.clear();
    QueueOp op;
    (void)endpoints.consumer.ConsumeBatch(&out, batch_size, &op);
    transferred += batch_size;
  }
  state.SetItemsProcessed(static_cast<int64_t>(transferred));
  state.counters["batch_size"] = static_cast<double>(batch_size);
}
BENCHMARK(BM_QueueBatchTransfer)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

// The PushBuilt shape: 64-row columnar batches through a push fjord with
// metrics attached, as the server's executor and windowed-input fjords are.
// Reports ns/row (wall time, producer and consumer on one thread) and
// `columns_kept`, the share of batches that reached the consumer still
// sharing the producer's ColumnStore (1 = nothing was materialized).
void BM_ColumnarSegmentTransfer(benchmark::State& state) {
  constexpr int64_t kRows = 64;
  auto metrics = std::make_shared<MetricsRegistry>();
  auto endpoints =
      Fjord::Make(FjordMode::kPush, 4096, "bench:columnar", metrics.get());
  ColumnStoreBuilder builder(bench::KVSchema(0));
  for (int64_t i = 0; i < kRows; ++i) {
    builder.AppendTimestamp(i);
    (void)builder.Append(0, Value::Int64(i));
    (void)builder.Append(1, Value::Int64(i * 3));
  }
  ColumnStore::Ref cols = builder.Finish();
  TupleBatch out;
  uint64_t batches = 0, kept = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    TupleBatch b(0, cols);
    (void)endpoints.producer.ProduceBatch(&b);
    out.clear();
    QueueOp op;
    (void)endpoints.consumer.ConsumeBatch(&out, kRows, &op);
    kept += out.columns().get() == cols.get() ? 1 : 0;
    ++batches;
  }
  double ns = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  state.SetItemsProcessed(static_cast<int64_t>(batches) * kRows);
  state.counters["ns_per_row"] = ns / static_cast<double>(batches * kRows);
  state.counters["columns_kept"] =
      static_cast<double>(kept) / static_cast<double>(batches);
}
BENCHMARK(BM_ColumnarSegmentTransfer);

}  // namespace
}  // namespace tcq

BENCHMARK_MAIN();
