// Ingest admission: a push is admitted by every consumer of its stream or
// by none. A batch whose parts fit some shards of a class but not all is
// refused whole, before and after Start(); a push that one windowed input
// cannot take reaches none of the stream's consumers (the class, the
// windowed queries' inputs, a self-join's alias input) and PushBuilt names
// the refusing query; a part heavier than its fjord is refused without
// waiting; and concurrent pushers see every batch delivered whole or
// refused whole, with delivered + refused = pushed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "reference/drain.h"
#include "reference/push.h"
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

/// Every row of `s` (v is never that large).
CQSpec AllRows(SourceId s) {
  CQSpec spec;
  spec.filters.push_back({{s, "v"}, CmpOp::kLt, Value::Int64(1 << 30)});
  return spec;
}

TupleBatch Batch(SourceId s, const std::vector<int64_t>& keys, int64_t v0,
                 Timestamp ts) {
  TupleBatch b(s);
  for (size_t i = 0; i < keys.size(); ++i) {
    b.push_back(Row(s, keys[i], v0 + static_cast<int64_t>(i), ts));
  }
  return b;
}

/// A thread-safe sink recording the v of every delivered row. A row with
/// v == kGate holds its EO inside the sink until Release().
class Recorder {
 public:
  static constexpr int64_t kGate = -1;

  Executor::Sink Sink() {
    return [this](GlobalQueryId, const std::vector<Tuple>& run) {
      bool gate = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const Tuple& t : run) {
          const int64_t v = t.Get("v").AsInt64();
          vs_.insert(v);
          if (v == kGate) gate = true;
        }
      }
      if (!gate) return;
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
  }
  void AwaitGate() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::set<int64_t> vs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return vs_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::set<int64_t> vs_;
  bool entered_ = false;
  bool released_ = false;
};

// One class (a join of 0 and 1 on k, plus a query reading every row of 0)
// with 4-slot fjords. Stream 0's key-0 shard is filled to 2 of 4 slots;
// then a batch with three key-0 rows (and, at 4 shards, one row each of
// keys 1..4, which fit the other shards) is pushed: it is refused whole.
void PartialFitIsRefusedWhole(size_t shards, bool started) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               (started ? " after Start()" : " before Start()"));
  Executor exec({.num_eos = 1, .queue_capacity = 4, .shards = shards});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  Recorder rows;
  ASSERT_TRUE(exec.SubmitQuery(JoinSpec(0, 1), [](auto, const auto&) {}).ok());
  ASSERT_TRUE(exec.SubmitQuery(AllRows(0), rows.Sink()).ok());
  ASSERT_EQ(exec.Topology().at(0).shards, shards);
  std::set<int64_t> want;
  if (started) {
    // The gate row parks the one EO inside the sink, so nothing drains.
    exec.Start();
    ASSERT_TRUE(exec.IngestBatch(Batch(0, {0}, Recorder::kGate, 1)).ok());
    rows.AwaitGate();
    want.insert(Recorder::kGate);
  }
  ASSERT_TRUE(exec.IngestBatch(Batch(0, {0, 0}, 100, 2)).ok());
  want.insert({100, 101});
  std::vector<int64_t> keys = {0, 0, 0};
  if (shards > 1) keys.insert(keys.end(), {1, 2, 3, 4});
  const Status st = exec.IngestBatch(Batch(0, keys, 200, 3));
  EXPECT_TRUE(st.IsResourceExhausted()) << st;
  EXPECT_NE(st.message().find("shard"), std::string::npos) << st;
  EXPECT_EQ(exec.tuples_dropped_backpressure(), keys.size());
  EXPECT_EQ(exec.stream_tuples_dropped(0), keys.size());
  if (started) {
    rows.Release();
  } else {
    exec.Start();
  }
  ASSERT_TRUE(testref::Drain(&exec).ok());
  EXPECT_EQ(rows.vs(), want);  // nothing of the refused batch
  exec.Stop();
}

TEST(AdmissionTest, PartialFitIsRefusedWholeAtOneAndFourShards) {
  for (size_t shards : {1u, 4u}) {
    for (bool started : {false, true}) PartialFitIsRefusedWhole(shards, started);
  }
}

TEST(AdmissionTest, FullWindowedInputRefusesThePushForEveryConsumer) {
  TelegraphCQ::Options opts;
  opts.executor.queue_capacity = 4;
  TelegraphCQ server(opts);
  ASSERT_TRUE(server.DefineStream("S", {{"ts", ValueType::kTimestamp, 0},
                                        {"k", ValueType::kInt64, 0}})
                  .ok());
  auto push = [&](Timestamp ts) {
    return testref::PushRows(
        &server, "S", {{ts, {Value::TimestampVal(ts), Value::Int64(ts)}}});
  };
  // Before Start() nothing drains: rows 1..4 fill the windowed query's
  // 4-slot input.
  auto win = server.Submit(
      "SELECT * FROM S for (t = 5; t <= 20; t += 5) { WindowIs(S, t - 4, t); "
      "}");
  ASSERT_TRUE(win.ok()) << win.status();
  for (Timestamp ts = 1; ts <= 4; ++ts) ASSERT_TRUE(push(ts).ok());
  // Three more consumers, all with room: a continuous query's class and a
  // windowed self-join's canonical and alias inputs.
  auto filter = server.Submit("SELECT * FROM S WHERE k < 1000");
  ASSERT_TRUE(filter.ok()) << filter.status();
  auto join = server.Submit(
      "SELECT c2.k FROM S c1, S c2 WHERE c1.k = c2.k "
      "for (t = 5; t <= 20; t += 5) { "
      "WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }");
  ASSERT_TRUE(join.ok()) << join.status();

  const Status st = push(5);
  ASSERT_TRUE(st.IsResourceExhausted()) << st;
  EXPECT_NE(st.message().find("stream 'S'"), std::string::npos) << st;
  EXPECT_NE(st.message().find("query " + std::to_string(win->id) + "'s"),
            std::string::npos)
      << st;

  server.Start();
  for (Timestamp ts = 6; ts <= 25; ++ts) ASSERT_TRUE(push(ts).ok());
  ASSERT_TRUE(server.Drain().ok());
  // Row 5 reached none of the four targets.
  size_t filtered = 0;
  Delivery d;
  while (filter->results->Poll(&d)) {
    EXPECT_NE(d.tuple.timestamp(), 5) << "the class admitted the refused row";
    ++filtered;
  }
  EXPECT_EQ(filtered, 20u);
  std::vector<WindowResult> w = testref::PollWindows(win->windows.get());
  std::vector<WindowResult> j = testref::PollWindows(join->windows.get());
  ASSERT_FALSE(w.empty());
  ASSERT_FALSE(j.empty());
  EXPECT_EQ(w[0].t, 5);
  EXPECT_EQ(w[0].tuples.size(), 4u);  // rows 1..4, not 5
  EXPECT_EQ(j[0].t, 5);
  EXPECT_EQ(j[0].tuples.size(), 0u);  // neither self-join input took row 5
  // Counted once: on the stream and on the refusing query's input.
  TelegraphCQ::Introspection view = server.Introspect();
  ASSERT_EQ(view.streams.size(), 1u);
  EXPECT_EQ(view.streams[0].dropped, 1u);
  EXPECT_EQ(view.metrics.CounterValue(MetricName(
                "tcq_window_input_dropped_total", "query",
                "q" + std::to_string(win->id))),
            1u);
  EXPECT_EQ(view.metrics.CounterFamilySum("tcq_window_input_dropped_total"),
            1u);
  EXPECT_EQ(view.metrics.CounterValue(
                "tcq_executor_tuples_dropped_backpressure_total"),
            0u);
  server.Stop();
}

TEST(AdmissionTest, HeavierThanCapacityIsRefusedWithoutWaiting) {
  Executor exec({.num_eos = 1, .queue_capacity = 4});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  Recorder rows;
  ASSERT_TRUE(exec.SubmitQuery(AllRows(0), rows.Sink()).ok());
  exec.Start();
  // Each push would wait out the 20ms deadline if it waited at all.
  constexpr int kPushes = 10;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kPushes; ++i) {
    EXPECT_TRUE(exec.IngestBatch(Batch(0, {0, 1, 2, 3, 4}, 10 * i, i))
                    .IsResourceExhausted());
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(150));
  // A batch that fits is admitted as ever.
  ASSERT_TRUE(exec.IngestBatch(Batch(0, {0, 1, 2, 3}, 500, 20)).ok());
  ASSERT_TRUE(testref::Drain(&exec).ok());
  EXPECT_EQ(rows.vs(), (std::set<int64_t>{500, 501, 502, 503}));
  EXPECT_EQ(exec.tuples_dropped_backpressure(), 5u * kPushes);
  exec.Stop();
}

// Two pushers race 6-row batches into 8-slot fjords while the sinks stall
// now and then, so pushes wait and some are refused. Each batch's rows carry
// v = batch id * 100 + i; a query reading every row of each stream records
// them. Every batch is delivered whole or not at all, and delivered +
// refused = pushed.
void ConcurrentPushersAdmitWholeBatches(size_t shards, bool same_stream) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               (same_stream ? " one stream" : " two streams"));
  Executor exec({.num_eos = 2, .queue_capacity = 8, .shards = shards});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  std::mutex mu;
  std::map<int64_t, size_t> delivered;  // batch id -> rows delivered
  std::atomic<uint64_t> runs{0};
  auto sink = [&](GlobalQueryId, const std::vector<Tuple>& run) {
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const Tuple& t : run) ++delivered[t.Get("v").AsInt64() / 100];
    }
    // A stall longer than the 20ms admission wait now and then.
    if (runs.fetch_add(1) % 64 == 63) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  };
  ASSERT_TRUE(exec.SubmitQuery(JoinSpec(0, 1), [](auto, const auto&) {}).ok());
  ASSERT_TRUE(exec.SubmitQuery(AllRows(0), sink).ok());
  ASSERT_TRUE(exec.SubmitQuery(AllRows(1), sink).ok());
  exec.Start();

  constexpr int kBatches = 120;
  constexpr size_t kRows = 6;
  std::atomic<size_t> admitted{0}, refused{0};
  std::vector<int64_t> refused_ids[2];
  auto pusher = [&](int p, SourceId source) {
    for (int b = 0; b < kBatches; ++b) {
      const int64_t id = p * kBatches + b;
      std::vector<int64_t> keys;
      for (size_t i = 0; i < kRows; ++i) keys.push_back((id + i) % 5);
      Status st = exec.IngestBatch(Batch(source, keys, id * 100, b));
      if (st.ok()) {
        admitted.fetch_add(1);
      } else {
        EXPECT_TRUE(st.IsResourceExhausted()) << st;
        refused.fetch_add(1);
        refused_ids[p].push_back(id);
      }
    }
  };
  std::thread a(pusher, 0, SourceId{0});
  std::thread b(pusher, 1, SourceId{same_stream ? 0u : 1u});
  a.join();
  b.join();
  ASSERT_TRUE(testref::Drain(&exec).ok());
  exec.Stop();

  EXPECT_EQ(admitted.load() + refused.load(), 2u * kBatches);
  EXPECT_GT(refused.load(), 0u) << "no push was refused; the test shows "
                                   "nothing about refusals";
  std::set<int64_t> refused_set(refused_ids[0].begin(), refused_ids[0].end());
  refused_set.insert(refused_ids[1].begin(), refused_ids[1].end());
  size_t whole = 0;
  for (int64_t id = 0; id < 2 * kBatches; ++id) {
    const size_t got = delivered.contains(id) ? delivered.at(id) : 0;
    if (refused_set.contains(id)) {
      EXPECT_EQ(got, 0u) << "refused batch " << id << " was delivered";
    } else {
      EXPECT_EQ(got, kRows) << "admitted batch " << id << " was cut";
      ++whole;
    }
  }
  EXPECT_EQ(whole, admitted.load());
  EXPECT_EQ(exec.tuples_dropped_backpressure(), refused.load() * kRows);
  EXPECT_EQ(exec.stream_tuples_dropped(0) + exec.stream_tuples_dropped(1),
            refused.load() * kRows);
}

TEST(AdmissionTest, ConcurrentPushersAdmitWholeBatches) {
  for (size_t shards : {1u, 4u}) {
    for (bool same_stream : {false, true}) {
      ConcurrentPushersAdmitWholeBatches(shards, same_stream);
    }
  }
}

}  // namespace
}  // namespace tcq
