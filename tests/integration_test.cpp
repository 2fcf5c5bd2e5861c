// Full-stack integration: one server running continuous, windowed, and
// self-join queries simultaneously over spooled streams, with history scans
// racing the live dataflow, query churn, and a final consistency audit.

#include <gtest/gtest.h>

#include <filesystem>

#include "ingress/generators.h"
#include "psoup/psoup.h"
#include "reference/push.h"
#include "server/telegraphcq.h"

namespace tcq {
namespace {

std::vector<Field> StockFields() {
  return {{"timestamp", ValueType::kTimestamp, 0},
          {"stockSymbol", ValueType::kString, 0},
          {"closingPrice", ValueType::kDouble, 0}};
}

// Deterministic two-symbol ticker: MSFT fixed at 50, AAPL alternating
// (beats MSFT on even days).
void PushDay(TelegraphCQ* server, Timestamp d) {
  ASSERT_TRUE(testref::PushRows(server, "Stocks",
                                {{d,
                                  {Value::TimestampVal(d), Value::String("MSFT"),
                                   Value::Double(50.0)}}})
                  .ok());
  ASSERT_TRUE(testref::PushRows(server, "Stocks",
                                {{d,
                                  {Value::TimestampVal(d), Value::String("AAPL"),
                                   Value::Double(d % 2 == 0 ? 60.0 : 40.0)}}})
                  .ok());
}

TEST(IntegrationTest, MixedQueryKindsOverOneSpooledStream) {
  std::string dir = testing::TempDir() + "/tcq_integration";
  std::filesystem::create_directories(dir);
  TelegraphCQ::Options opts;
  opts.spool_dir = dir;
  opts.executor.num_eos = 2;
  TelegraphCQ server(opts);
  ASSERT_TRUE(server.DefineStream("Stocks", StockFields()).ok());

  // 1. Continuous: all AAPL wins.
  auto cq = server.Submit(
      "SELECT closingPrice, timestamp FROM Stocks "
      "WHERE stockSymbol = 'AAPL' AND closingPrice > 50.0");
  ASSERT_TRUE(cq.ok());
  // 2. Sliding window over days 4..40, width 4.
  auto win = server.Submit(
      "SELECT timestamp FROM Stocks WHERE stockSymbol = 'AAPL' "
      "AND closingPrice > 50.0 "
      "for (t = 4; t <= 40; t++) { WindowIs(Stocks, t - 3, t); }");
  ASSERT_TRUE(win.ok());
  // 3. Self-join: AAPL beating MSFT on the same day, hopping windows.
  auto join = server.Submit(
      "SELECT c2.stockSymbol FROM Stocks c1, Stocks c2 "
      "WHERE c1.stockSymbol = 'MSFT' AND c2.closingPrice > c1.closingPrice "
      "AND c2.timestamp = c1.timestamp "
      "for (t = 10; t <= 40; t += 10) { "
      "WindowIs(c1, t - 9, t); WindowIs(c2, t - 9, t); }");
  ASSERT_TRUE(join.ok());

  server.Start();
  for (Timestamp d = 1; d <= 20; ++d) PushDay(&server, d);

  // Mid-stream: scan spooled history while data keeps flowing.
  auto hist = server.ScanHistory("Stocks", 5, 10);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->size(), 12u);  // 6 days x 2 symbols

  // Drain the class's backlog before admitting the next query: a query
  // folded in mid-stream applies from its admission quantum onward, so
  // tuples still queued at admission would (correctly) reach it too.
  ASSERT_TRUE(server.Drain().ok());
  size_t pre = testref::PollAll(cq->results.get());
  ASSERT_EQ(pre, 10u);  // even days 2..20

  // Mid-stream: add one more continuous query (folded into the running
  // class) and cancel it again after a few days.
  auto late = server.Submit("SELECT * FROM Stocks WHERE closingPrice < 45.0");
  ASSERT_TRUE(late.ok());
  for (Timestamp d = 21; d <= 30; ++d) PushDay(&server, d);
  ASSERT_TRUE(server.Drain().ok());
  EXPECT_EQ(testref::PollAll(late->results.get()), 5u);  // odd days 21..29
  ASSERT_TRUE(server.Cancel(late->id).ok());
  // Removal takes effect at the next quantum; the barrier runs it.
  ASSERT_TRUE(server.Drain().ok());
  for (Timestamp d = 31; d <= 44; ++d) PushDay(&server, d);
  ASSERT_TRUE(server.Drain().ok());
  EXPECT_EQ(testref::PollAll(late->results.get()), 0u);

  // Audit 1: continuous query saw every remaining even day once.
  size_t cq_got = pre;
  Delivery d;
  while (cq->results->Poll(&d)) {
    EXPECT_EQ(d.tuple.Get("timestamp").AsInt64() % 2, 0);
    ++cq_got;
  }
  EXPECT_EQ(cq_got, 22u);  // even days 2..44

  // Audit 2: sliding windows fired for every t in [4, 40] with the even
  // days of [t-3, t].
  std::vector<WindowResult> windows = testref::PollWindows(win->windows.get());
  ASSERT_EQ(windows.size(), 37u);
  for (const WindowResult& wr : windows) {
    EXPECT_EQ(wr.tuples.size(), 2u) << "4-wide window has 2 even days";
  }

  // Audit 3: hopping self-join windows (width 10) have 5 even days each.
  std::vector<WindowResult> joins = testref::PollWindows(join->windows.get());
  ASSERT_EQ(joins.size(), 4u);
  for (const WindowResult& wr : joins) {
    EXPECT_EQ(wr.tuples.size(), 5u) << "window ending " << wr.t;
  }

  // Audit 4: the full spool matches everything ingested.
  auto all = server.ScanHistory("Stocks", kMinTimestamp, kMaxTimestamp);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 88u);  // 44 days x 2 symbols
  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, PSoupOverGeneratorAgreesWithServerHistory) {
  // The same generated stream fed to (a) PSoup and (b) a spooling server;
  // PSoup's materialized answers must equal filtering the server's spool.
  std::string dir = testing::TempDir() + "/tcq_integration2";
  std::filesystem::create_directories(dir);
  TelegraphCQ::Options opts;
  opts.spool_dir = dir;
  TelegraphCQ server(opts);
  ASSERT_TRUE(server
                  .DefineStream("Sensors",
                                {{"timestamp", ValueType::kTimestamp, 0},
                                 {"sensorId", ValueType::kInt64, 0},
                                 {"temperature", ValueType::kDouble, 0}})
                  .ok());
  server.Start();

  PSoup psoup;
  psoup.RegisterStream(0, SensorGenerator::MakeSchema(0));
  PSoupQuery hot;
  hot.where.filters.push_back(
      {{0, "temperature"}, CmpOp::kGt, Value::Double(20.0)});
  hot.window = 0;
  auto qid = psoup.Register(hot);
  ASSERT_TRUE(qid.ok());

  SensorGenerator gen("s", 0,
                      SensorGenerator::Options{.num_sensors = 6,
                                               .drift = 0.5,
                                               .seed = 5,
                                               .count = 800});
  Tuple t;
  Timestamp now = 0;
  while (gen.Next(&t)) {
    psoup.Ingest(0, t);
    ASSERT_TRUE(testref::PushRows(&server, "Sensors",
                                  {{t.timestamp(), t.values()}})
                    .ok());
    now = std::max(now, t.timestamp());
  }

  auto psoup_answer = psoup.Invoke(*qid, now);
  ASSERT_TRUE(psoup_answer.ok());
  auto spool = server.ScanHistory("Sensors", kMinTimestamp, kMaxTimestamp);
  ASSERT_TRUE(spool.ok());
  size_t spool_hot = 0;
  for (const Tuple& x : *spool) {
    if (x.Get("temperature").AsDouble() > 20.0) ++spool_hot;
  }
  EXPECT_EQ(psoup_answer->size(), spool_hot);
  server.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tcq
