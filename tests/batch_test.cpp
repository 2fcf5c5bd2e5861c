// Batch-pipeline tests: TupleBatch container semantics, queue/fjord batch
// ops, and the load-bearing property of the batched pipeline — batched
// ingestion is RESULT-EQUIVALENT to per-tuple ingestion on every path (the
// shared eddy, PSoup, the server's continuous and windowed queries),
// differing only in result ordering for joins.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <thread>

#include "cacq/shared_eddy.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "exec/scheduler.h"
#include "exec/sharded_class.h"
#include "fjords/fjord.h"
#include "operators/grouped_filter.h"
#include "operators/predicate.h"
#include "psoup/psoup.h"
#include "reference/drain.h"
#include "reference/push.h"
#include "reference/reference.h"
#include "server/telegraphcq.h"
#include "tuple/column_store.h"
#include "tuple/tuple_batch.h"

namespace tcq {
namespace {

using testref::CanonicalMultiset;
using testref::NaiveFilter;
using testref::NaiveJoin;
using testref::PushRow;
using testref::PushRows;

SchemaRef Sch(SourceId source) {
  // One shared schema object per source: tuples of a real stream share their
  // schema pointer, and ColumnStore::FromRows columnarizes only such batches.
  static std::map<SourceId, SchemaRef> cache;
  SchemaRef& s = cache[source];
  if (s == nullptr) {
    s = Schema::Make({
        {"k", ValueType::kInt64, source},
        {"v", ValueType::kInt64, source},
    });
  }
  return s;
}

Tuple Row(SourceId source, int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make(Sch(source), {Value::Int64(k), Value::Int64(v)}, ts);
}

std::vector<Tuple> RandomStream(SourceId source, size_t n, int64_t key_range,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Row(source, rng.UniformInt(0, key_range - 1),
                      rng.UniformInt(0, 99), static_cast<Timestamp>(i)));
  }
  return out;
}

/// Cuts `stream` into batches of `batch_size` tagged with `source`.
std::vector<TupleBatch> Batched(const std::vector<Tuple>& stream,
                                SourceId source, size_t batch_size) {
  std::vector<TupleBatch> out;
  TupleBatch batch;
  batch.set_source(source);
  for (const Tuple& t : stream) {
    batch.push_back(t);
    if (batch.size() >= batch_size) {
      out.push_back(std::move(batch));
      batch = TupleBatch();
      batch.set_source(source);
    }
  }
  if (!batch.empty()) out.push_back(std::move(batch));
  return out;
}

// ---------------------------------------------------------------------------
// TupleBatch container semantics.

TEST(TupleBatchTest, PushBackKeepsContiguityAndOrder) {
  TupleBatch batch;
  batch.set_source(3);
  for (int i = 0; i < 20; ++i) {
    batch.push_back(Row(3, i, i * 10, i));
  }
  ASSERT_EQ(batch.size(), 20u);
  EXPECT_EQ(batch.source(), 3u);
  // data() is one contiguous run of rows.
  const Tuple* base = batch.data();
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(&batch[i], base + i);
    EXPECT_EQ(batch[i].Get("k").AsInt64(), static_cast<int64_t>(i));
  }
  size_t seen = 0;
  for (const Tuple& t : batch) {
    EXPECT_EQ(t.Get("v").AsInt64(), static_cast<int64_t>(seen) * 10);
    ++seen;
  }
  EXPECT_EQ(seen, 20u);
}

TEST(TupleBatchTest, DropFrontOnInlineAndHeapBatches) {
  for (size_t n : {size_t{6}, size_t{20}}) {  // below and above inline cap
    TupleBatch batch;
    for (size_t i = 0; i < n; ++i) batch.push_back(Row(0, i, 0, i));
    batch.DropFront(4);
    ASSERT_EQ(batch.size(), n - 4);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].Get("k").AsInt64(), static_cast<int64_t>(i + 4));
    }
    batch.DropFront(batch.size());
    EXPECT_TRUE(batch.empty());
  }
}

TEST(TupleBatchTest, CopyAndMovePreserveContentsAndSource) {
  TupleBatch a;
  a.set_source(7);
  for (int i = 0; i < 12; ++i) a.push_back(Row(7, i, i, i));

  TupleBatch copied = a;
  ASSERT_EQ(copied.size(), 12u);
  EXPECT_EQ(copied.source(), 7u);
  EXPECT_EQ(copied[11].Get("k").AsInt64(), 11);

  TupleBatch moved = std::move(a);
  ASSERT_EQ(moved.size(), 12u);
  EXPECT_EQ(moved.source(), 7u);

  copied.clear();
  EXPECT_TRUE(copied.empty());
  EXPECT_EQ(copied.source(), 7u);  // clear() keeps the stream tag
}

// ---------------------------------------------------------------------------
// Queue and fjord batch operations.

TEST(QueueBatchTest, TryPushTakesASegmentWholeOrNotAtAll) {
  MetricsRegistry registry;
  BoundedQueue<TupleBatch> q(4);
  q.SetMetrics(QueueMetrics::For(&registry, "q"));
  TupleBatch first(0);
  for (int i = 0; i < 3; ++i) first.push_back(Row(0, i, 0, i));
  ASSERT_EQ(q.TryPush(&first), QueueOp::kOk);
  // One unit of room for a two-row segment: refused whole, kept intact,
  // and counted as a blocked enqueue.
  TupleBatch second(0);
  for (int i = 3; i < 5; ++i) second.push_back(Row(0, i, 0, i));
  EXPECT_EQ(q.TryPush(&second), QueueOp::kWouldBlock);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].Get("k").AsInt64(), 3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.CheckRoom(2), QueueOp::kWouldBlock);
  EXPECT_EQ(q.CheckRoom(1), QueueOp::kOk);
  EXPECT_EQ(q.enqueue_blocked_count(), 2u);
  EXPECT_EQ(registry.Snapshot().CounterValue(
                "tcq_queue_enqueue_blocked_total{queue=\"q\"}"),
            2u);
  // A segment heavier than the whole capacity never fits: refused at once.
  TupleBatch heavy(0);
  for (int i = 0; i < 5; ++i) heavy.push_back(Row(0, i, 0, i));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.AwaitRoom(5, t0 + std::chrono::seconds(10)));
  EXPECT_EQ(q.PushUntil(&heavy, t0 + std::chrono::seconds(10)),
            QueueOp::kWouldBlock);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(heavy.size(), 5u);
  // Once the first segment leaves, the second goes in whole.
  TupleBatch out;
  ASSERT_EQ(q.TryDequeue(&out), QueueOp::kOk);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(q.TryPush(&second), QueueOp::kOk);
  EXPECT_EQ(q.size(), 2u);
}

TEST(QueueBatchTest, TryPushOnClosedQueueLeavesItemWithCaller) {
  BoundedQueue<int> q(4);
  q.Close();
  int item = 7;
  EXPECT_EQ(q.TryPush(&item), QueueOp::kClosed);
  EXPECT_EQ(item, 7);  // untouched, the caller still owns it
  EXPECT_EQ(q.CheckRoom(1), QueueOp::kClosed);
  EXPECT_EQ(q.dropped_on_close_count(), 0u);
}

TEST(QueueBatchTest, BlockingBatchRoundTripAcrossThreads) {
  BoundedQueue<int> q(8);
  constexpr int kTotal = 1000;
  std::thread producer([&q] {
    for (int i = 0; i < kTotal; ++i) {
      int item = i;
      EXPECT_EQ(q.PushUntil(&item, std::nullopt), QueueOp::kOk);
    }
    q.Close();
  });
  std::vector<int> got;
  std::vector<int> chunk;
  while (true) {
    chunk.clear();
    if (q.PopBatchBlocking(&chunk, 64) == 0) break;
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  producer.join();
  ASSERT_EQ(got.size(), static_cast<size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(got[i], i);  // FIFO preserved
}

TEST(QueueBatchTest, TryPopBatchDrainsThenReportsClosed) {
  BoundedQueue<int> q(8);
  ASSERT_EQ(q.TryEnqueue(1), QueueOp::kOk);
  ASSERT_EQ(q.TryEnqueue(2), QueueOp::kOk);
  q.Close();
  std::vector<int> out;
  QueueOp op;
  EXPECT_EQ(q.TryPopBatch(&out, 10, &op), 2u);
  EXPECT_EQ(op, QueueOp::kOk);
  EXPECT_EQ(q.TryPopBatch(&out, 10, &op), 0u);
  EXPECT_EQ(op, QueueOp::kClosed);
}

TEST(FjordBatchTest, PushModeProduceBatchIsWholeOrWouldBlock) {
  auto endpoints = Fjord::Make(FjordMode::kPush, /*capacity=*/4, "t");
  FjordProducer producer(endpoints.producer);
  TupleBatch first(0);
  for (int i = 0; i < 3; ++i) first.push_back(Row(0, i, 0, i));
  ASSERT_EQ(producer.ProduceBatch(&first), QueueOp::kOk);
  TupleBatch batch(0);
  for (int i = 3; i < 5; ++i) batch.push_back(Row(0, i, 0, i));

  // One free slot: the two-row batch is refused whole and stays in hand.
  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kWouldBlock);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].Get("k").AsInt64(), 3);

  TupleBatch out;
  QueueOp op;
  EXPECT_EQ(endpoints.consumer.ConsumeBatch(&out, 64, &op), 3u);
  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kOk);
  EXPECT_TRUE(batch.empty());
  producer.Close();
  out.clear();
  EXPECT_EQ(endpoints.consumer.ConsumeBatch(&out, 64, &op), 2u);
  EXPECT_EQ(out[0].Get("k").AsInt64(), 3);
  out.clear();
  EXPECT_EQ(endpoints.consumer.ConsumeBatch(&out, 64, &op), 0u);
  EXPECT_EQ(op, QueueOp::kClosed);
}

// ---------------------------------------------------------------------------
// Result equivalence: batched vs per-tuple ingestion.

TEST(BatchEquivalenceTest, ClassicEddyJoinMatchesPerTuple) {
  // The classic single-query eddy over a symmetric hash join is a shared
  // eddy running one join query.
  auto s = RandomStream(0, 200, 15, 11);
  auto t = RandomStream(1, 200, 15, 12);

  auto run = [&](bool batched) {
    SharedEddy eddy(MakeLotteryPolicy(5));
    eddy.RegisterStream(0, Sch(0));
    eddy.RegisterStream(1, Sch(1));
    std::vector<Tuple> results;
    eddy.SetOutput([&](QueryId, const Tuple& tu) { results.push_back(tu); });
    CQSpec join;
    join.joins.push_back({{0, "k"}, {1, "k"}});
    EXPECT_TRUE(eddy.AddQuery(join).ok());
    if (batched) {
      for (const TupleBatch& b : Batched(s, 0, 23)) eddy.IngestBatch(b);
      for (const TupleBatch& b : Batched(t, 1, 23)) eddy.IngestBatch(b);
    } else {
      for (const Tuple& tu : s) eddy.Ingest(0, tu);
      for (const Tuple& tu : t) eddy.Ingest(1, tu);
    }
    return results;
  };

  EXPECT_EQ(CanonicalMultiset(run(false)), CanonicalMultiset(run(true)));
  auto expected =
      NaiveJoin({s, t}, {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"})});
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(CanonicalMultiset(run(true)), CanonicalMultiset(expected));
}

TEST(BatchEquivalenceTest, SharedEddyMixedQueriesMatchPerTuple) {
  auto s = RandomStream(0, 250, 12, 21);
  auto t = RandomStream(1, 250, 12, 22);

  // One filter query, one join+filter, one join+residual — the three CACQ
  // module types, all live at once.
  auto run = [&](bool batched, uint64_t* reused) {
    SharedEddy eddy(MakeLotteryPolicy(9));
    eddy.RegisterStream(0, Sch(0));
    eddy.RegisterStream(1, Sch(1));
    std::map<QueryId, std::vector<Tuple>> results;
    eddy.SetOutput(
        [&](QueryId q, const Tuple& t) { results[q].push_back(t); });

    CQSpec filter_only;
    filter_only.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(6)});
    CQSpec join_filter;
    join_filter.joins.push_back({{0, "k"}, {1, "k"}});
    join_filter.filters.push_back({{0, "v"}, CmpOp::kGe, Value::Int64(40)});
    CQSpec join_residual;
    join_residual.joins.push_back({{0, "k"}, {1, "k"}});
    join_residual.residuals.push_back(
        MakeCompareAttrs({1, "v"}, CmpOp::kGt, {0, "v"}));
    EXPECT_TRUE(eddy.AddQuery(filter_only).ok());
    EXPECT_TRUE(eddy.AddQuery(join_filter).ok());
    EXPECT_TRUE(eddy.AddQuery(join_residual).ok());

    if (batched) {
      // Interleave stream batches the way the dispatch loop would.
      auto sb = Batched(s, 0, 17);
      auto tb = Batched(t, 1, 17);
      for (size_t i = 0; i < sb.size() || i < tb.size(); ++i) {
        if (i < sb.size()) eddy.IngestBatch(sb[i]);
        if (i < tb.size()) eddy.IngestBatch(tb[i]);
      }
    } else {
      for (size_t i = 0; i < s.size(); ++i) {
        eddy.Ingest(0, s[i]);
        eddy.Ingest(1, t[i]);
      }
    }
    if (reused != nullptr) *reused = eddy.routing_decisions_reused();
    return results;
  };

  uint64_t reused_batched = 0;
  auto per_tuple = run(false, nullptr);
  auto batched = run(true, &reused_batched);
  ASSERT_EQ(per_tuple.size(), batched.size());
  for (auto& [q, tuples] : per_tuple) {
    EXPECT_EQ(CanonicalMultiset(tuples), CanonicalMultiset(batched[q]))
        << "query " << q;
  }
  // The whole point of batch routing: identical-lineage runs reuse one
  // decision instead of re-ranking per envelope.
  EXPECT_GT(reused_batched, 0u);
}

TEST(BatchEquivalenceTest, PSoupInvokeMatchesPerTuple) {
  auto stream = RandomStream(0, 400, 20, 31);

  auto run = [&](bool batched) {
    PSoup psoup;
    psoup.RegisterStream(0, Sch(0), /*retention=*/1000);
    PSoupQuery q;
    q.where.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(8)});
    q.window = 100;
    auto id = psoup.Register(q);
    EXPECT_TRUE(id.ok());
    if (batched) {
      for (const TupleBatch& b : Batched(stream, 0, 29)) {
        psoup.IngestBatch(b);
      }
    } else {
      for (const Tuple& t : stream) psoup.Ingest(0, t);
    }
    auto answer = psoup.Invoke(*id, /*now=*/399);
    EXPECT_TRUE(answer.ok());
    return *answer;
  };

  auto per_tuple = run(false);
  auto batched = run(true);
  EXPECT_FALSE(per_tuple.empty());
  EXPECT_EQ(CanonicalMultiset(per_tuple), CanonicalMultiset(batched));
}

// ---------------------------------------------------------------------------
// Server-level equivalence and error paths.

std::vector<Field> StockFields() {
  return {{"timestamp", ValueType::kTimestamp, 0},
          {"stockSymbol", ValueType::kString, 0},
          {"closingPrice", ValueType::kDouble, 0}};
}

PushRow StockRow(Timestamp day, const char* symbol, double price) {
  return {day,
          {Value::TimestampVal(day), Value::String(symbol),
           Value::Double(price)}};
}


// The three ServerBatchTest cases below keep the names they had when the
// server also took row-shaped batches; the batch they push is
// now the one PushRows builds through NewBatch/Append/PushBuilt.

// Runs the MSFT-above-45 continuous query over 30 days of MSFT and AAPL
// closes, fed by `push`, and returns how many results it delivered.
template <typename PushFn>
size_t RunMsftQuery(PushFn push) {
  TelegraphCQ server;
  EXPECT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' AND closingPrice > 45.0");
  EXPECT_TRUE(handle.ok()) << handle.status();
  if (!handle.ok()) return 0;
  server.Start();
  push(&server);
  EXPECT_TRUE(server.Drain().ok());
  size_t got = testref::PollAll(handle->results.get());
  server.Stop();
  return got;
}

std::vector<PushRow> MsftAndAaplDays() {
  std::vector<PushRow> rows;
  for (Timestamp d = 1; d <= 30; ++d) {
    rows.push_back(StockRow(d, "MSFT", 50.0));
    rows.push_back(StockRow(d, "AAPL", d % 2 == 0 ? 60.0 : 40.0));
  }
  return rows;
}

TEST(ServerBatchTest, PushBatchMatchesPerTuplePushOnContinuousQuery) {
  // One 60-row batch vs 60 one-row batches.
  size_t per_row = RunMsftQuery([](TelegraphCQ* server) {
    for (PushRow& row : MsftAndAaplDays()) {
      EXPECT_TRUE(
          PushRows(server, "ClosingStockPrices", {std::move(row)}).ok());
    }
  });
  size_t batched = RunMsftQuery([](TelegraphCQ* server) {
    EXPECT_TRUE(
        PushRows(server, "ClosingStockPrices", MsftAndAaplDays()).ok());
  });
  EXPECT_EQ(per_row, 30u);
  EXPECT_EQ(batched, per_row);
}

TEST(ServerBatchTest, PushBuiltMatchesPushBatchResults) {
  // A batch built by hand through the builder API vs the same rows pushed
  // as one batch by PushRows.
  size_t built = RunMsftQuery([](TelegraphCQ* server) {
    auto batch = server->NewBatch("ClosingStockPrices");
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(batch->stream(), "ClosingStockPrices");
    for (PushRow& row : MsftAndAaplDays()) {
      EXPECT_TRUE(batch->Append(row.ts, std::move(row.values)).ok());
    }
    EXPECT_EQ(batch->num_rows(), 60u);
    EXPECT_TRUE(server->PushBuilt(std::move(*batch)).ok());
  });
  size_t via_rows = RunMsftQuery([](TelegraphCQ* server) {
    EXPECT_TRUE(
        PushRows(server, "ClosingStockPrices", MsftAndAaplDays()).ok());
  });
  EXPECT_EQ(via_rows, 30u);
  EXPECT_EQ(built, via_rows);
}

TEST(ServerBatchTest, BatchedPushBuiltFeedsWindowedQuery) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();

  std::vector<PushRow> rows;
  for (Timestamp d = 1; d <= 10; ++d) rows.push_back(StockRow(d, "MSFT", 50.0));
  ASSERT_TRUE(PushRows(&server, "ClosingStockPrices", std::move(rows)).ok());
  ASSERT_TRUE(server.Drain().ok());
  std::vector<WindowResult> fired = testref::PollWindows(handle->windows.get());
  server.Stop();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].tuples.size(), 5u);
}

TEST(ServerBatchTest, PushBatchValidationIsAtomic) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE closingPrice > 0.0");
  ASSERT_TRUE(handle.ok());
  server.Start();

  // Row 1 of 3 is malformed (arity): NO row may enter the engine, because
  // a batch reaches it only at PushBuilt, after every Append succeeded.
  std::vector<PushRow> rows;
  rows.push_back(StockRow(1, "MSFT", 50.0));
  rows.push_back({2, {Value::TimestampVal(2)}});
  rows.push_back(StockRow(3, "MSFT", 52.0));
  Status s = PushRows(&server, "ClosingStockPrices", std::move(rows));
  EXPECT_TRUE(s.IsInvalidArgument()) << s;
  EXPECT_NE(s.message().find("row 1"), std::string::npos) << s;

  ASSERT_TRUE(server.Drain().ok());
  EXPECT_EQ(server.tuples_ingested(), 0u);
  Delivery d;
  EXPECT_FALSE(handle->results->Poll(&d));
  server.Stop();
}

TEST(ServerBatchTest, CloseStreamMidBatchSequenceIsOrderly) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();

  // First half of the data arrives, then the stream closes with the window
  // still open — the windowed query must fire off the tuples it has.
  std::vector<PushRow> first;
  for (Timestamp d = 1; d <= 4; ++d) first.push_back(StockRow(d, "MSFT", 50.0));
  ASSERT_TRUE(PushRows(&server, "ClosingStockPrices", std::move(first)).ok());
  ASSERT_TRUE(server.CloseStream("ClosingStockPrices").ok());
  EXPECT_TRUE(server.CloseStream("ClosingStockPrices").ok());  // idempotent

  // Batches after close are rejected whole — none of their rows leak in.
  std::vector<PushRow> late;
  for (Timestamp d = 5; d <= 8; ++d) late.push_back(StockRow(d, "MSFT", 50.0));
  Status s = PushRows(&server, "ClosingStockPrices", std::move(late));
  EXPECT_TRUE(s.code() == StatusCode::kFailedPrecondition) << s;
  EXPECT_TRUE(server.CloseStream("Nope").IsNotFound());

  ASSERT_TRUE(server.Drain().ok());
  std::vector<WindowResult> fired = testref::PollWindows(handle->windows.get());
  server.Stop();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].tuples.size(), 4u);  // days 1..4; late batch kept out
  EXPECT_EQ(server.tuples_ingested(), 4u);
}

TEST(ServerBatchTest, CancelErrorsAndWindowedCancel) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto windowed = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(windowed.ok()) << windowed.status();
  server.Start();

  EXPECT_TRUE(server.Cancel(9999).IsNotFound());
  ASSERT_TRUE(server.Cancel(windowed->id).ok());
  EXPECT_TRUE(windowed->windows->Finished());
  EXPECT_TRUE(server.Cancel(windowed->id).IsNotFound());  // double-cancel

  // The stream outlives the cancelled query; pushes still succeed and are
  // simply unrouted past the detached subscription.
  EXPECT_TRUE(
      PushRows(&server, "ClosingStockPrices", {StockRow(1, "MSFT", 50.0)})
          .ok());
  server.Stop();
}

TEST(ExecutorBatchTest, UnroutedBatchIsCountedPerStreamAndSurfaced) {
  Executor exec;
  SchemaRef schema = Sch(0);
  ASSERT_TRUE(exec.RegisterStream(0, schema).ok());
  exec.Start();

  TupleBatch batch;
  batch.set_source(0);
  for (int i = 0; i < 5; ++i) batch.push_back(Row(0, i, i, i));
  Status s = exec.IngestBatch(std::move(batch));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  EXPECT_EQ(exec.tuples_dropped_unrouted(), 5u);
  EXPECT_EQ(exec.stream_tuples_dropped(0), 5u);
  EXPECT_EQ(exec.stream_tuples_dropped(42), 0u);  // unknown stream: zero

  TupleBatch unknown;
  unknown.set_source(42);
  unknown.push_back(Row(0, 1, 1, 1));
  EXPECT_TRUE(exec.IngestBatch(std::move(unknown)).IsNotFound());
  exec.Stop();
}

TEST(ServerBatchTest, IntrospectReportsPerStreamStats) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE closingPrice > 0.0");
  ASSERT_TRUE(handle.ok());
  server.Start();
  std::vector<PushRow> rows;
  for (Timestamp d = 1; d <= 8; ++d) rows.push_back(StockRow(d, "MSFT", 50.0));
  ASSERT_TRUE(PushRows(&server, "ClosingStockPrices", std::move(rows)).ok());
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_EQ(testref::PollAll(handle->results.get()), 8u);
  server.Stop();

  TelegraphCQ::Introspection view = server.Introspect();
  ASSERT_EQ(view.streams.size(), 1u);
  EXPECT_EQ(view.streams[0].name, "ClosingStockPrices");
  EXPECT_EQ(view.streams[0].tuples_in, 8u);
  EXPECT_EQ(view.streams[0].dropped, 0u);
  // The per-stream drop counter exists in the registry even when zero.
  EXPECT_EQ(view.metrics.CounterFamilySum("tcq_executor_stream_dropped_total"),
            0u);
}

// ---------------------------------------------------------------------------
// Columnar representation (DESIGN.md §11): row<->column round trips must be
// value- AND type-exact, selection filtering must pin the exact row multiset,
// and every kernel dispatch (grouped filter, eddy prefilter) must agree with
// the scalar path it replaces.

SchemaRef MixedSchema(SourceId source) {
  return Schema::Make({
      {"i", ValueType::kInt64, source},
      {"d", ValueType::kDouble, source},
      {"s", ValueType::kString, source},
      {"b", ValueType::kBool, source},
  });
}

std::vector<Tuple> RandomMixedStream(SourceId source, size_t n, uint64_t seed,
                                     double null_rate) {
  Rng rng(seed);
  SchemaRef schema = MixedSchema(source);
  std::vector<Tuple> out;
  for (size_t i = 0; i < n; ++i) {
    auto nullable = [&](Value v) {
      return rng.Bernoulli(null_rate) ? Value::Null() : v;
    };
    out.push_back(Tuple::Make(
        schema,
        {nullable(Value::Int64(rng.UniformInt(-1000, 1000))),
         nullable(Value::Double(rng.UniformDouble(-5.0, 5.0))),
         nullable(Value::String("s" + std::to_string(rng.UniformInt(0, 9)))),
         nullable(Value::Bool(rng.Bernoulli(0.5)))},
        static_cast<Timestamp>(i)));
  }
  return out;
}

TEST(ColumnarBatchTest, RowColumnRoundTripIsValueAndTypeExact) {
  for (uint64_t seed : {101u, 102u, 103u}) {
    auto stream = RandomMixedStream(0, 120, seed, seed == 103u ? 0.25 : 0.0);
    TupleBatch batch(0);
    for (const Tuple& t : stream) batch.push_back(t);

    const ColumnStore::Ref& cols = batch.columns();
    ASSERT_NE(cols, nullptr);
    ASSERT_EQ(cols->num_rows(), stream.size());
    for (size_t r = 0; r < stream.size(); ++r) {
      Tuple round = cols->MaterializeRow(r);
      ASSERT_EQ(round.num_fields(), stream[r].num_fields());
      EXPECT_EQ(round.timestamp(), stream[r].timestamp());
      for (size_t c = 0; c < stream[r].num_fields(); ++c) {
        // Type-exact, not just Compare-equal: a lane that silently promoted
        // int64 to double would still Compare equal but break downstream
        // type dispatch.
        EXPECT_EQ(round.at(c).type(), stream[r].at(c).type())
            << "seed " << seed << " row " << r << " col " << c;
        EXPECT_EQ(round.at(c), stream[r].at(c))
            << "seed " << seed << " row " << r << " col " << c;
      }
    }
  }
}

TEST(ColumnarBatchTest, ColumnarConstructedBatchReadsBackBuilderInput) {
  ColumnStoreBuilder builder(Sch(0));
  for (int64_t i = 0; i < 10; ++i) {
    builder.AppendTimestamp(i);
    ASSERT_TRUE(builder.Append(0, Value::Int64(i)));
    ASSERT_TRUE(builder.Append(1, Value::Int64(i * 7)));
  }
  ColumnStore::Ref cols = builder.Finish();
  ASSERT_NE(cols, nullptr);

  TupleBatch batch(0, cols);
  ASSERT_EQ(batch.size(), 10u);
  EXPECT_FALSE(batch.empty());
  // Column-backed read paths never materialize copies of the store.
  EXPECT_EQ(batch.columns().get(), cols.get());
  TupleBatch copy = batch;
  EXPECT_EQ(copy.columns().get(), cols.get());  // copies share the store
  for (size_t r = 0; r < batch.size(); ++r) {
    Tuple t = batch.RowAt(r);
    EXPECT_EQ(t.Get("k").AsInt64(), static_cast<int64_t>(r));
    EXPECT_EQ(t.Get("v").AsInt64(), static_cast<int64_t>(r) * 7);
    EXPECT_EQ(t.timestamp(), static_cast<Timestamp>(r));
  }
}

TEST(ColumnarBatchTest, GatherRoundTripsEveryRepresentation) {
  // One column per ColumnRep: int64 (nulls), timestamp-typed int64, double
  // (nulls), bool, string (nulls), and generic (int64 mixed with
  // timestamps). A gather through any selection materializes exactly the
  // source's rows; a null mask survives only where a gathered row is null.
  SchemaRef schema = Schema::Make({
      {"i", ValueType::kInt64, 0},
      {"t", ValueType::kTimestamp, 0},
      {"d", ValueType::kDouble, 0},
      {"b", ValueType::kBool, 0},
      {"s", ValueType::kString, 0},
      {"g", ValueType::kInt64, 0},
  });
  constexpr int64_t kRows = 40;
  ColumnStoreBuilder builder(schema);
  for (int64_t r = 0; r < kRows; ++r) {
    builder.AppendTimestamp(100 + r);
    ASSERT_TRUE(builder.Append(
        0, r % 5 == 0 ? Value::Null() : Value::Int64(r * 3 - 50)));
    ASSERT_TRUE(builder.Append(1, Value::TimestampVal(r * 1000)));
    ASSERT_TRUE(builder.Append(
        2, r % 7 == 3 ? Value::Null() : Value::Double(r * 0.5)));
    ASSERT_TRUE(builder.Append(3, Value::Bool(r % 3 == 0)));
    ASSERT_TRUE(builder.Append(
        4, r % 4 == 1 ? Value::Null() : Value::String("s" + std::to_string(r))));
    ASSERT_TRUE(builder.Append(5, r % 2 == 0 ? Value::Int64(r)
                                             : Value::TimestampVal(r)));
  }
  ColumnStore::Ref src = builder.Finish();
  ASSERT_NE(src, nullptr);
  const ColumnRep want[] = {ColumnRep::kInt64,  ColumnRep::kInt64,
                            ColumnRep::kDouble, ColumnRep::kBool,
                            ColumnRep::kString, ColumnRep::kGeneric};
  for (size_t c = 0; c < 6; ++c) ASSERT_EQ(src->column(c).rep, want[c]);

  const std::vector<std::vector<uint32_t>> selections = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
       20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37,
       38, 39},
      {39, 0, 17, 17, 5},  // any order, repeats
      {2, 4, 6, 8},        // no null i, d or s among these
      {10},
  };
  for (const std::vector<uint32_t>& sel : selections) {
    ColumnStore::Ref g = src->Gather(sel.data(), sel.size());
    ASSERT_EQ(g->num_rows(), sel.size());
    EXPECT_EQ(g->schema().get(), schema.get());
    for (size_t c = 0; c < 6; ++c) {
      const Column& col = g->column(c);
      EXPECT_EQ(col.rep, want[c]);
      EXPECT_EQ(col.is_timestamp, src->column(c).is_timestamp);
      bool any_null = false;
      for (uint32_t r : sel) any_null |= src->column(c).IsNull(r);
      EXPECT_EQ(col.has_nulls(), any_null && col.rep != ColumnRep::kGeneric)
          << "column " << c;
    }
    for (size_t i = 0; i < sel.size(); ++i) {
      Tuple got = g->MaterializeRow(i);
      Tuple expect = src->MaterializeRow(sel[i]);
      EXPECT_EQ(got.timestamp(), expect.timestamp());
      for (size_t c = 0; c < 6; ++c) {
        EXPECT_EQ(got.at(c).type(), expect.at(c).type()) << i << "," << c;
        EXPECT_EQ(got.at(c), expect.at(c)) << i << "," << c;
      }
    }
    // Sized exactly: the lanes, their alignment and one alignment's slack,
    // not the 4 KiB chunk an unsized arena starts with.
    EXPECT_LE(g->arena_bytes(), g->arena_capacity());
    EXPECT_LT(g->arena_capacity(), 4096u);
  }
}

// A PushBuilt-shaped batch: n rows (k = i % 16, v = i, ts = i) as columns.
ColumnStore::Ref KvColumns(int64_t n) {
  ColumnStoreBuilder builder(Sch(0));
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendTimestamp(i);
    EXPECT_TRUE(builder.Append(0, Value::Int64(i % 16)));
    EXPECT_TRUE(builder.Append(1, Value::Int64(i)));
  }
  return builder.Finish();
}

TEST(ColumnarBatchTest, ColumnsSurviveAPushFjord) {
  ColumnStore::Ref cols = KvColumns(64);
  auto endpoints = Fjord::Make(FjordMode::kPush, 4096, "cols");
  TupleBatch batch(0, cols);
  batch.AddPunctuation(Punctuation{0, 63});
  ASSERT_EQ(endpoints.producer.ProduceBatch(&batch), QueueOp::kOk);
  EXPECT_TRUE(batch.empty() && batch.punctuations().empty());
  EXPECT_EQ(endpoints.consumer.Pending(), 65u);  // 64 rows + one lane entry

  TupleBatch out(0);
  QueueOp op;
  ASSERT_EQ(endpoints.consumer.ConsumeBatch(&out, 4096, &op), 65u);
  EXPECT_EQ(out.columns().get(), cols.get());  // the same store, unmaterialized
  ASSERT_EQ(out.punctuations().size(), 1u);
  EXPECT_EQ(out.punctuations()[0].low_watermark, 63);
}

TEST(ColumnarBatchTest, ColumnsSurviveExecutorIngestIntoOneShardClass) {
  Executor exec({.num_eos = 1});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  CQSpec q;
  q.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(2)});
  std::atomic<int> delivered{0};
  ASSERT_TRUE(exec.SubmitQuery(q, [&](GlobalQueryId,
                                      const std::vector<Tuple>& run) {
                    delivered += static_cast<int>(run.size());
                  }).ok());
  ColumnStore::Ref cols = KvColumns(64);
  ASSERT_TRUE(exec.IngestBatch(TupleBatch(0, cols)).ok());
  // No EO runs yet: the batch waits in the class's shard fjord, still
  // sharing the store — neither materialized into rows nor copied.
  EXPECT_EQ(cols.use_count(), 2);

  exec.Start();
  ASSERT_TRUE(testref::Drain(&exec).ok());
  exec.Stop();
  EXPECT_EQ(delivered.load(), 8);  // k in {0, 1}: 4 rows each
}

TEST(ColumnarBatchTest, ColumnsComeOutOfAOneShardClassUnchanged) {
  // The class Executor::IngestBatch routes into, read at its shard DU's
  // input: the consumer receives the very store the producer built.
  ExecutionObject eo("eo", std::make_unique<RoundRobinScheduler>());
  ShardedClass sc("c", ShardedClass::Options{}, {&eo}, nullptr, nullptr);
  sc.ClaimStream(0, Sch(0), StemOptions{});
  CQSpec q;
  q.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(2)});
  ASSERT_TRUE(sc.AdmitQuery(q, 1, [](uint64_t, const std::vector<Tuple>&) {},
                            /*started=*/false,
                            [](const ShardedClass::RemapMap&) {})
                  .ok());
  ASSERT_EQ(sc.num_shards(), 1u);
  ColumnStore::Ref cols = KvColumns(64);
  TupleBatch batch(0, cols);
  ShardedClass::Full full;
  ASSERT_EQ(sc.Check(batch, &full), QueueOp::kOk);
  sc.Produce(&batch);

  auto inputs = sc.shard_du(0)->DetachInputs();
  ASSERT_EQ(inputs.size(), 1u);
  TupleBatch out(0);
  QueueOp op;
  ASSERT_EQ(inputs[0].second.ConsumeBatch(&out, 64, &op), 64u);
  EXPECT_EQ(out.columns().get(), cols.get());
  sc.Shutdown();
}

TEST(ColumnarBatchTest, FilterSelectsExactRowMultisetOnBothBackings) {
  auto stream = RandomMixedStream(0, 200, 42, 0.1);
  TupleBatch row_backed(0);
  for (const Tuple& t : stream) row_backed.push_back(t);
  TupleBatch col_backed(0, row_backed.columns());
  ASSERT_NE(col_backed.columns(), nullptr);

  Rng rng(43);
  SelectionVector sel(stream.size(), false);
  std::vector<Tuple> expected;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (rng.Bernoulli(0.4)) {
      sel.Set(i);
      expected.push_back(stream[i]);
    }
  }
  for (const TupleBatch* src : {&row_backed, &col_backed}) {
    TupleBatch kept = src->Filter(sel);
    EXPECT_EQ(kept.source(), src->source());
    ASSERT_EQ(kept.size(), expected.size());
    std::vector<Tuple> got(kept.begin(), kept.end());
    EXPECT_EQ(CanonicalMultiset(got), CanonicalMultiset(expected));
  }

  SelectionVector none(stream.size(), false);
  TupleBatch empty = row_backed.Filter(none);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.source(), row_backed.source());
}

TEST(ColumnarBatchTest, MutationDropsAndRebuildsColumnCache) {
  TupleBatch batch(0);
  batch.push_back(Row(0, 1, 10, 1));
  const ColumnStore::Ref before = batch.columns();
  ASSERT_NE(before, nullptr);
  batch.push_back(Row(0, 2, 20, 2));
  const ColumnStore::Ref& after = batch.columns();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after.get(), before.get());  // cache was invalidated, not stale
  EXPECT_EQ(after->num_rows(), 2u);
  EXPECT_EQ(after->ValueAt(0, 1).AsInt64(), 2);

  TupleBatch empty(0);
  EXPECT_EQ(empty.columns(), nullptr);  // no columnar form for zero rows
}

// ---------------------------------------------------------------------------
// GroupedFilter::MatchBatch vs per-row Match: the columnar count-sweep
// kernels (and every guard that routes around them) must reproduce the
// scalar QuerySet exactly.

TEST(GroupedFilterBatchTest, MatchBatchAgreesWithMatchOnRandomFactors) {
  Rng rng(71);
  GroupedFilter gf({0, "x"});
  QueryId q = 0;
  const CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                        CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  for (int i = 0; i < 40; ++i) {
    CmpOp op = kOps[rng.UniformInt(0, 5)];
    Value lit = rng.Bernoulli(0.5)
                    ? Value::Int64(rng.UniformInt(-100, 100))
                    : Value::Double(rng.UniformDouble(-100.0, 100.0));
    gf.AddFactor(q++, op, std::move(lit));
  }
  for (int i = 0; i < 15; ++i) {
    int64_t lo = rng.UniformInt(-100, 50);
    Value lo_v = rng.Bernoulli(0.5) ? Value::Int64(lo)
                                    : Value::Double(static_cast<double>(lo));
    Value hi_v = rng.Bernoulli(0.5)
                     ? Value::Int64(lo + rng.UniformInt(0, 100))
                     : Value::Double(lo + rng.UniformDouble(0.0, 100.0));
    gf.AddRange(q++, std::move(lo_v), rng.Bernoulli(0.5), std::move(hi_v),
                rng.Bernoulli(0.5));
  }
  // Guard-tripping factors: a double literal past 2^53 (exact-int compare
  // diverges from double rounding) and a NaN literal (Value::Compare says
  // NaN == everything). Both must force the scalar path, not wrong answers.
  gf.AddFactor(q++, CmpOp::kGt, Value::Double(9007199254740993.0));
  gf.AddFactor(q++, CmpOp::kEq, Value::Double(std::nan("")));

  auto check_lane = [&](const char* what, const Column& col, size_t n) {
    std::vector<QuerySet> batch_out(n);
    gf.MatchBatch(col, n, batch_out.data());
    for (size_t r = 0; r < n; ++r) {
      QuerySet expect;
      gf.Match(col.ValueAt(r), &expect);
      EXPECT_EQ(batch_out[r], expect) << what << " row " << r;
    }
  };

  SchemaRef int_sch = Schema::Make({{"x", ValueType::kInt64, 0}});
  ColumnStoreBuilder ib(int_sch);
  for (int i = 0; i < 300; ++i) {
    ib.AppendTimestamp(i);
    ASSERT_TRUE(ib.Append(0, Value::Int64(rng.UniformInt(-120, 120))));
  }
  ColumnStore::Ref int_cols = ib.Finish();
  ASSERT_NE(int_cols, nullptr);
  check_lane("int64 lane", int_cols->column(0), int_cols->num_rows());

  SchemaRef dbl_sch = Schema::Make({{"x", ValueType::kDouble, 0}});
  ColumnStoreBuilder db(dbl_sch);
  for (int i = 0; i < 300; ++i) {
    db.AppendTimestamp(i);
    ASSERT_TRUE(db.Append(0, Value::Double(rng.UniformDouble(-120.0, 120.0))));
  }
  ColumnStore::Ref dbl_cols = db.Finish();
  ASSERT_NE(dbl_cols, nullptr);
  check_lane("double lane", dbl_cols->column(0), dbl_cols->num_rows());
}

TEST(GroupedFilterBatchTest, MatchBatchFallsBackOnNullAndNaNLanes) {
  GroupedFilter gf({0, "x"});
  gf.AddFactor(0, CmpOp::kGe, Value::Int64(10));
  gf.AddFactor(1, CmpOp::kLt, Value::Double(25.5));
  gf.AddRange(2, Value::Int64(5), true, Value::Int64(40), false);

  // A lane containing NaN data: Value::Compare reports NaN equal to
  // everything, which IEEE kernels cannot reproduce — dispatch must take the
  // scalar path and still agree with per-row Match.
  SchemaRef dbl_sch = Schema::Make({{"x", ValueType::kDouble, 0}});
  ColumnStoreBuilder db(dbl_sch);
  Rng rng(77);
  for (int i = 0; i < 64; ++i) {
    db.AppendTimestamp(i);
    Value v = i == 17 ? Value::Double(std::nan(""))
                      : Value::Double(rng.UniformDouble(0.0, 50.0));
    ASSERT_TRUE(db.Append(0, std::move(v)));
  }
  ColumnStore::Ref nan_cols = db.Finish();
  ASSERT_NE(nan_cols, nullptr);
  ASSERT_FALSE(nan_cols->column(0).has_nulls());

  // A lane containing nulls: kernels have no null story, scalar fallback.
  SchemaRef int_sch = Schema::Make({{"x", ValueType::kInt64, 0}});
  ColumnStoreBuilder ib(int_sch);
  for (int i = 0; i < 64; ++i) {
    ib.AppendTimestamp(i);
    Value v = i % 9 == 0 ? Value::Null()
                         : Value::Int64(rng.UniformInt(0, 50));
    ASSERT_TRUE(ib.Append(0, std::move(v)));
  }
  ColumnStore::Ref null_cols = ib.Finish();
  ASSERT_NE(null_cols, nullptr);
  ASSERT_TRUE(null_cols->column(0).has_nulls());

  for (const auto& [what, cols] :
       {std::pair{"NaN lane", nan_cols}, std::pair{"null lane", null_cols}}) {
    const Column& col = cols->column(0);
    const size_t n = cols->num_rows();
    std::vector<QuerySet> batch_out(n);
    gf.MatchBatch(col, n, batch_out.data());
    for (size_t r = 0; r < n; ++r) {
      QuerySet expect;
      gf.Match(col.ValueAt(r), &expect);
      EXPECT_EQ(batch_out[r], expect) << what << " row " << r;
    }
  }
}

TEST(GroupedFilterBatchTest, NullsSatisfyNoFactorAsInEvalCmp) {
  // A null value, or a null literal, satisfies no factor — EvalCmp's rule —
  // on the scalar path and in the compiled kernels.
  struct Factor {
    CmpOp op;
    Value literal;
  };
  const std::vector<std::vector<Factor>> queries = {
      {{CmpOp::kLt, Value::Int64(5)}},
      {{CmpOp::kNe, Value::Int64(3)}},
      {{CmpOp::kLe, Value::Int64(100)}, {CmpOp::kGe, Value::Int64(-100)}},
      {{CmpOp::kGt, Value::Null()}},
      {{CmpOp::kNe, Value::Null()}},
      {{CmpOp::kLt, Value::Int64(5)}, {CmpOp::kEq, Value::Null()}},
  };
  GroupedFilter gf({0, "x"});
  for (QueryId q = 0; q < queries.size(); ++q) {
    for (const Factor& f : queries[q]) gf.AddFactor(q, f.op, f.literal);
  }
  // Query 6: a two-sided range with a null end.
  gf.AddRange(6, Value::Null(), true, Value::Int64(10), true);
  auto expected = [&](const Value& v) {
    QuerySet out;
    for (QueryId q = 0; q < queries.size(); ++q) {
      bool all = true;
      for (const Factor& f : queries[q]) all &= EvalCmp(v, f.op, f.literal);
      if (all) out.Add(q);
    }
    return out;  // query 6 never matches
  };

  SchemaRef sch = Schema::Make({{"x", ValueType::kInt64, 0}});
  for (bool with_nulls : {false, true}) {
    ColumnStoreBuilder b(sch);
    for (int i = 0; i < 12; ++i) {
      b.AppendTimestamp(i);
      ASSERT_TRUE(b.Append(0, with_nulls && i % 3 == 0 ? Value::Null()
                                                       : Value::Int64(i - 2)));
    }
    ColumnStore::Ref cols = b.Finish();
    ASSERT_NE(cols, nullptr);
    const Column& col = cols->column(0);
    EXPECT_EQ(gf.MatchBatchUsesKernels(col, 12), !with_nulls);
    std::vector<QuerySet> batch_out(12);
    gf.MatchBatch(col, 12, batch_out.data());
    for (size_t r = 0; r < 12; ++r) {
      QuerySet one;
      gf.Match(col.ValueAt(r), &one);
      EXPECT_EQ(one, expected(col.ValueAt(r))) << with_nulls << " row " << r;
      EXPECT_EQ(batch_out[r], one) << with_nulls << " row " << r;
    }
  }
  QuerySet none;
  gf.Match(Value::Null(), &none);
  EXPECT_TRUE(none.Empty());
}

TEST(BatchEquivalenceTest, EddyColumnarPrefilterMatchesPerTuple) {
  auto stream = RandomStream(0, 400, 100, 21);
  auto p_kernel = MakeCompareConst({0, "k"}, CmpOp::kLt, Value::Int64(70));
  auto p_lo = MakeCompareConst({0, "v"}, CmpOp::kGe, Value::Int64(10));
  auto p_hi = MakeCompareConst({0, "v"}, CmpOp::kLt, Value::Int64(90));
  auto p_residual = MakeCompareConst({0, "v"}, CmpOp::kNe, Value::Int64(55));

  auto run = [&](size_t batch_size) {
    SharedEddy eddy(MakeLotteryPolicy(5));
    eddy.RegisterStream(0, Sch(0));
    // Two grouped filters (k bound, v range) that the columnar prefilter
    // absorbs on batches of 4 rows or more, plus a residual factor that
    // still routes through Drain.
    CQSpec spec;
    spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(70)});
    spec.filters.push_back({{0, "v"}, CmpOp::kGe, Value::Int64(10)});
    spec.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(90)});
    spec.residuals.push_back(p_residual);
    EXPECT_TRUE(eddy.AddQuery(spec).ok());
    EXPECT_EQ(eddy.num_modules(), 3u);
    std::vector<Tuple> results;
    eddy.SetOutput([&](QueryId, const Tuple& t) { results.push_back(t); });
    if (batch_size == 0) {
      for (const Tuple& t : stream) eddy.Ingest(0, t);
    } else {
      for (const TupleBatch& b : Batched(stream, 0, batch_size)) {
        eddy.IngestBatch(b);
      }
    }
    return results;
  };

  // The prefilter only engages on batches that columnarize; guard against a
  // test-helper regression (distinct schema pointers defeat FromRows).
  ASSERT_NE(Batched(stream, 0, 37).front().columns(), nullptr);

  auto expected = NaiveFilter(stream, {p_kernel, p_lo, p_hi, p_residual});
  auto per_tuple = run(0);
  auto batched = run(37);  // prefilter engaged
  auto tiny = run(3);      // below the prefilter threshold: Drain only
  EXPECT_EQ(CanonicalMultiset(per_tuple), CanonicalMultiset(expected));
  EXPECT_EQ(CanonicalMultiset(batched), CanonicalMultiset(expected));
  EXPECT_EQ(CanonicalMultiset(tiny), CanonicalMultiset(expected));
}

// ---------------------------------------------------------------------------
// The redesigned batch-building API: NewBatch / BatchBuilder / PushBuilt.

TEST(ServerBatchTest, BatchBuilderRejectsBadRowsWithoutSideEffects) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());

  EXPECT_TRUE(server.NewBatch("NoSuchStream").status().IsNotFound());

  auto batch = server.NewBatch("ClosingStockPrices");
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE(
      batch->Append(1, {Value::TimestampVal(1), Value::String("MSFT"),
                        Value::Double(50.0)})
          .ok());
  // Arity mismatch and type mismatch: typed errors, and the builder keeps
  // exactly the rows that were accepted (no partial appends).
  EXPECT_TRUE(batch->Append(2, {Value::String("MSFT")})
                  .IsInvalidArgument());
  EXPECT_TRUE(batch
                  ->Append(2, {Value::TimestampVal(2), Value::Int64(7),
                               Value::Double(50.0)})
                  .IsInvalidArgument());
  EXPECT_EQ(batch->num_rows(), 1u);

  ASSERT_TRUE(server.CloseStream("ClosingStockPrices").ok());
  // The stream closed between NewBatch and PushBuilt: typed refusal.
  EXPECT_TRUE(server.PushBuilt(std::move(*batch)).IsFailedPrecondition());
  // And a builder for a closed stream is refused up front.
  EXPECT_TRUE(
      server.NewBatch("ClosingStockPrices").status().IsFailedPrecondition());
}

TEST(ServerBatchTest, EmptyBuilderPushIsOkAndIngestsNothing) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  server.Start();
  auto batch = server.NewBatch("ClosingStockPrices");
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->num_rows(), 0u);
  EXPECT_TRUE(server.PushBuilt(std::move(*batch)).ok());
  server.Stop();
  TelegraphCQ::Introspection view = server.Introspect();
  ASSERT_EQ(view.streams.size(), 1u);
  EXPECT_EQ(view.streams[0].tuples_in, 0u);
}

}  // namespace
}  // namespace tcq
