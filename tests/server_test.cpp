// End-to-end server tests: SQL in, streams through the wrapper/executor,
// results out through egress — including the paper's §4.1 windowed queries
// and self-joins against the full stack.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ingress/generators.h"
#include "operators/predicate.h"
#include "reference/push.h"
#include "server/telegraphcq.h"

namespace tcq {
namespace {

std::vector<Field> StockFields() {
  return {{"timestamp", ValueType::kTimestamp, 0},
          {"stockSymbol", ValueType::kString, 0},
          {"closingPrice", ValueType::kDouble, 0}};
}

// Pushes `days` of deterministic prices: MSFT at 50, AAPL alternating
// 40/60 (beats MSFT on even days).
void PushStocks(TelegraphCQ* server, Timestamp days) {
  for (Timestamp d = 1; d <= days; ++d) {
    ASSERT_TRUE(testref::PushRows(server, "ClosingStockPrices",
                                  {{d,
                                    {Value::TimestampVal(d),
                                     Value::String("MSFT"),
                                     Value::Double(50.0)}}})
                    .ok());
    double aapl = d % 2 == 0 ? 60.0 : 40.0;
    ASSERT_TRUE(testref::PushRows(server, "ClosingStockPrices",
                                  {{d,
                                    {Value::TimestampVal(d),
                                     Value::String("AAPL"),
                                     Value::Double(aapl)}}})
                    .ok());
  }
}

using testref::PollAll;
using testref::PollWindows;

TEST(ServerTest, ContinuousFilterQueryEndToEnd) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' AND closingPrice > 45.0");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_NE(handle->results, nullptr);
  server.Start();

  PushStocks(&server, 50);
  ASSERT_TRUE(server.Drain().ok());
  size_t got = PollAll(handle->results.get());
  server.Stop();
  EXPECT_EQ(got, 50u);  // MSFT every day; AAPL filtered by symbol
}

TEST(ServerTest, ProjectionIsApplied) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'AAPL'");
  ASSERT_TRUE(handle.ok());
  server.Start();
  PushStocks(&server, 5);
  ASSERT_TRUE(server.Drain().ok());
  Delivery d;
  ASSERT_TRUE(handle->results->Poll(&d));
  server.Stop();
  ASSERT_EQ(d.tuple.num_fields(), 1u);
  EXPECT_EQ(d.tuple.schema()->field(0).name, "closingPrice");
}

TEST(ServerTest, MultipleQueriesShareOneStream) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto q_msft = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'");
  auto q_cheap = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE closingPrice < 45.0");
  ASSERT_TRUE(q_msft.ok() && q_cheap.ok());
  EXPECT_EQ(server.executor().num_classes(), 1u);  // shared class
  server.Start();
  PushStocks(&server, 40);
  ASSERT_TRUE(server.Drain().ok());
  size_t msft = PollAll(q_msft->results.get());
  size_t cheap = PollAll(q_cheap->results.get());
  server.Stop();
  EXPECT_EQ(msft, 40u);
  EXPECT_EQ(cheap, 20u);  // AAPL on odd days at 40 < 45
}

TEST(ServerTest, ContinuousQueryAfterWindowedQueryStillDelivers) {
  // Regression: a windowed query and a continuous query bind the same
  // logical source. Whichever is submitted first, the executor routes the
  // source to both: the class and the windowed DU's input.
  for (bool windowed_first : {true, false}) {
    SCOPED_TRACE(windowed_first ? "windowed first" : "continuous first");
    TelegraphCQ server;
    ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
    const std::string win_sql =
        "SELECT closingPrice FROM ClosingStockPrices "
        "WHERE stockSymbol = 'MSFT' "
        "for (t = 5; t <= 10; t += 1) { WindowIs(ClosingStockPrices, t-4, t); }";
    const std::string cq_sql =
        "SELECT * FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'";
    auto first = server.Submit(windowed_first ? win_sql : cq_sql);
    ASSERT_TRUE(first.ok()) << first.status();
    auto second = server.Submit(windowed_first ? cq_sql : win_sql);
    ASSERT_TRUE(second.ok()) << second.status();
    const auto& win = windowed_first ? first : second;
    const auto& cq = windowed_first ? second : first;
    server.Start();
    PushStocks(&server, 12);
    ASSERT_TRUE(server.Drain().ok());
    size_t got = PollAll(cq->results.get());
    size_t fired = PollWindows(win->windows.get()).size();
    server.Stop();
    EXPECT_EQ(got, 12u);    // the continuous query is actually fed
    EXPECT_EQ(fired, 6u);   // and the windowed query still fires t=5..10
  }
}

/// Source ids the catalog allocated as self-join aliases of `stream`.
std::vector<SourceId> AliasesOf(const TelegraphCQ& server,
                                const std::string& stream) {
  std::vector<SourceId> out;
  const SourceId canonical = server.catalog().Lookup(stream)->source;
  for (const auto& [id, entry] : server.catalog().entries()) {
    if (entry.name == stream && id != canonical) out.push_back(id);
  }
  return out;
}

TEST(ServerTest, CancelledSelfJoinStopsRoutingItsAlias) {
  // Regression: cancelling a continuous self-join released its class but
  // left its sources routed, so every later push re-tagged into the dead
  // alias and counted as unrouted. The alias must stop being routed. The
  // standing reader is windowed, so no class outlives the self-joins.
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto standing = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (t = 5; t <= 10; t += 1) { WindowIs(ClosingStockPrices, t-4, t); }");
  ASSERT_TRUE(standing.ok()) << standing.status();
  server.Start();
  std::vector<SourceId> aliases;
  for (int i = 0; i < 3; ++i) {
    auto joined = server.Submit(
        "SELECT c2.stockSymbol FROM ClosingStockPrices c1, "
        "ClosingStockPrices c2 WHERE c1.stockSymbol = c2.stockSymbol");
    ASSERT_TRUE(joined.ok()) << joined.status();
    for (SourceId alias : AliasesOf(server, "ClosingStockPrices")) {
      aliases.push_back(alias);
    }
    ASSERT_TRUE(server.Cancel(joined->id).ok());
  }
  ASSERT_EQ(aliases.size(), 3u);
  // Cancelling each self-join returned its alias id to the catalog.
  ASSERT_EQ(AliasesOf(server, "ClosingStockPrices").size(), 0u);
  PushStocks(&server, 10);
  ASSERT_TRUE(server.Drain().ok());
  // Arrival time: day 10 seals the windows ending at 5..9.
  EXPECT_EQ(PollWindows(standing->windows.get()).size(), 5u);
  server.Stop();

  TelegraphCQ::Introspection view = server.Introspect();
  EXPECT_EQ(view.metrics.CounterValue(
                "tcq_executor_tuples_dropped_unrouted_total"),
            0u);
  for (SourceId alias : aliases) {
    EXPECT_EQ(server.executor().stream_tuples_dropped(alias), 0u)
        << "alias s" << alias;
  }
  ASSERT_EQ(view.streams.size(), 1u);
  EXPECT_EQ(view.streams[0].dropped, 0u);
}

TEST(ServerTest, WindowedInputDropsReachStreamStats) {
  // A windowed query's input refuses rows once full (nothing drains it
  // before Start()): each refused row is one drop on the query's counter
  // and on the stream's, so Introspect() sees where the rows went.
  TelegraphCQ::Options opts;
  opts.executor.queue_capacity = 4;
  opts.egress_capacity = 4;
  TelegraphCQ server(opts);
  ASSERT_TRUE(server.DefineStream("S", {{"ts", ValueType::kTimestamp, 0},
                                        {"k", ValueType::kInt64, 0}})
                  .ok());
  auto h = server.Submit(
      "SELECT * FROM S for (t = 5; t <= 1000; t += 5) { WindowIs(S, t - 4, t); "
      "}");
  ASSERT_TRUE(h.ok()) << h.status();
  for (Timestamp ts = 1; ts <= 20; ++ts) {
    ASSERT_TRUE(testref::PushRows(&server, "S",
                                  {{ts, {Value::TimestampVal(ts),
                                         Value::Int64(ts)}}})
                    .ok());
  }
  TelegraphCQ::Introspection view = server.Introspect();
  const uint64_t window_dropped =
      view.metrics.CounterFamilySum("tcq_window_input_dropped_total");
  ASSERT_EQ(view.streams.size(), 1u);
  EXPECT_GT(window_dropped, 0u);
  EXPECT_EQ(view.streams[0].dropped, window_dropped);
  EXPECT_EQ(view.metrics.CounterValue(
                "tcq_executor_tuples_dropped_unrouted_total"),
            0u);
}

TEST(ServerTest, CancelStopsDeliveries) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle =
      server.Submit("SELECT * FROM ClosingStockPrices WHERE closingPrice > 0.0");
  ASSERT_TRUE(handle.ok());
  server.Start();
  PushStocks(&server, 10);
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_EQ(PollAll(handle->results.get()), 20u);
  ASSERT_TRUE(server.Cancel(handle->id).ok());
  ASSERT_TRUE(server.Drain().ok());
  PushStocks(&server, 10);
  ASSERT_TRUE(server.Drain().ok());
  Delivery d;
  EXPECT_FALSE(handle->results->Poll(&d));
  server.Stop();
}

TEST(ServerTest, WindowedSnapshotQuery) {
  // Paper example 1: the first five days of MSFT.
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_NE(handle->windows, nullptr);
  server.Start();
  PushStocks(&server, 10);
  ASSERT_TRUE(server.Drain().ok());
  std::vector<WindowResult> fired = PollWindows(handle->windows.get());
  server.Stop();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].tuples.size(), 5u);
  for (const Tuple& t : fired[0].tuples) {
    EXPECT_LE(t.Get("timestamp").AsInt64(), 5);
  }
}

TEST(ServerTest, WindowedSlidingSelfJoin) {
  // Paper example 5: stocks that beat MSFT, over 5-day sliding windows.
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT c2.stockSymbol, c2.closingPrice "
      "FROM ClosingStockPrices c1, ClosingStockPrices c2 "
      "WHERE c1.stockSymbol = 'MSFT' "
      "AND c2.closingPrice > c1.closingPrice "
      "AND c2.timestamp = c1.timestamp "
      "for (t = 5; t <= 12; t += 1) { "
      "WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();
  PushStocks(&server, 20);
  ASSERT_TRUE(server.Drain().ok());
  std::vector<WindowResult> fired = PollWindows(handle->windows.get());
  server.Stop();
  ASSERT_EQ(fired.size(), 8u);
  for (const WindowResult& wr : fired) {
    // AAPL beats MSFT on even days: each 5-day window has 2 or 3 of them.
    size_t evens = 0;
    for (Timestamp d = wr.t - 4; d <= wr.t; ++d) {
      if (d % 2 == 0) ++evens;
    }
    EXPECT_EQ(wr.tuples.size(), evens) << "window ending " << wr.t;
    for (const Tuple& t : wr.tuples) {
      EXPECT_EQ(t.Get("stockSymbol").AsString(), "AAPL");
      EXPECT_DOUBLE_EQ(t.Get("closingPrice").AsDouble(), 60.0);
    }
  }
}

std::vector<Field> KeyedFields() {
  return {{"ts", ValueType::kTimestamp, 0}, {"k", ValueType::kInt64, 0}};
}

/// Pushes rows ts = first..last with k = ts % 10, `per_batch` rows a batch.
void PushKeyed(TelegraphCQ* server, const std::string& stream,
               Timestamp first, Timestamp last, size_t per_batch) {
  std::vector<testref::PushRow> rows;
  for (Timestamp ts = first; ts <= last; ++ts) {
    rows.push_back({ts, {Value::TimestampVal(ts), Value::Int64(ts % 10)}});
    if (rows.size() == per_batch || ts == last) {
      ASSERT_TRUE(testref::PushRows(server, stream, std::move(rows)).ok());
      rows.clear();
    }
  }
}

/// Per fired window: its right end -> the multiset of its rows' timestamps.
using WindowContents = std::map<Timestamp, std::multiset<Timestamp>>;

WindowContents Contents(const std::vector<WindowResult>& results) {
  WindowContents out;
  for (const WindowResult& r : results) {
    std::multiset<Timestamp>& rows = out[r.t];
    for (const Tuple& t : r.tuples) rows.insert(t.timestamp());
  }
  return out;
}

TEST(ServerTest, CompletedWindowLoopFinishesItsBuffer) {
  // Regression: a loop that runs to its end finishes its client's buffer
  // and leaves its EO, without a Cancel.
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("S", KeyedFields()).ok());
  auto handle = server.Submit(
      "SELECT * FROM S for (t = 3; t <= 5; t += 1) { WindowIs(S, t - 2, t); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();
  PushKeyed(&server, "S", 1, 5, 1);
  ASSERT_TRUE(server.CloseStream("S").ok());

  ASSERT_TRUE(server.Drain().ok());
  std::vector<WindowResult> fired = PollWindows(handle->windows.get());
  EXPECT_TRUE(handle->windows->Finished());
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired.back().t, 5);
  server.Stop();  // joins the EO threads: the retirement has happened
  auto view = server.Introspect();
  int64_t dus = 0;
  for (size_t e = 0; e < server.executor().num_eos(); ++e) {
    dus += view.metrics.GaugeValue("tcq_eo_dus{eo=\"eo" + std::to_string(e) +
                                   "\"}");
  }
  EXPECT_EQ(dus, 0);  // the finished DU retired from its EO
  EXPECT_TRUE(server.Cancel(handle->id).ok());  // its id stays cancellable
}

TEST(ServerTest, WindowedQueriesShareTheExecutorEos) {
  // 64 windowed queries and one continuous filter on a single EO: the
  // windowed DUs run beside the class DU (no thread of their own), every
  // one matches the offline reference, and the filter is not starved.
  TelegraphCQ::Options opts;
  opts.executor.num_eos = 1;
  TelegraphCQ server(opts);
  auto source = server.DefineStream("S", KeyedFields());
  ASSERT_TRUE(source.ok());
  auto filter = server.Submit("SELECT * FROM S WHERE k < 5");
  ASSERT_TRUE(filter.ok()) << filter.status();
  struct Windowed {
    Timestamp width, hop;
    TelegraphCQ::ClientHandle handle;
  };
  std::vector<Windowed> queries;
  for (Timestamp i = 0; i < 64; ++i) {
    Timestamp width = 1 + i % 8, hop = 1 + (i / 8) % 4;
    // The loop outlives the pushed rows, so no DU finishes (and retires).
    auto h = server.Submit("SELECT * FROM S for (t = " + std::to_string(width) +
                           "; t <= 1000; t += " + std::to_string(hop) +
                           ") { WindowIs(S, t - " + std::to_string(width - 1) +
                           ", t); }");
    ASSERT_TRUE(h.ok()) << h.status();
    queries.push_back({width, hop, *h});
  }
  server.Start();
  PushKeyed(&server, "S", 1, 40, 8);
  ASSERT_TRUE(server.Drain().ok());

  // Arrival time: the last row (ts 40) seals every window ending before it.
  StreamHistory history;
  for (Timestamp ts = 1; ts <= 40; ++ts) {
    history.Append(Tuple::Make(server.catalog().Lookup("S")->schema,
                               {Value::TimestampVal(ts), Value::Int64(ts % 10)},
                               ts));
  }
  for (const Windowed& q : queries) {
    WindowedQuery ref;
    ref.loop = ForLoopSpec::Sliding({*source}, q.width, q.width, 39, q.hop);
    WindowContents want = Contents(RunOverHistory(ref, {{*source, history}}));
    EXPECT_EQ(Contents(PollWindows(q.handle.windows.get())), want)
        << "width " << q.width << " hop " << q.hop;
  }
  EXPECT_EQ(PollAll(filter->results.get()), 20u);

  MetricsSnapshot m = server.Introspect().metrics;
  for (const auto& [name, value] : m.gauges) {
    EXPECT_EQ(name.find("eo=\"win-eo"), std::string::npos) << name;
  }
  for (const auto& [name, value] : m.counters) {
    EXPECT_EQ(name.find("eo=\"win-eo"), std::string::npos) << name;
  }
  const std::string dus = "tcq_eo_dus{eo=\"eo0\"}";
  EXPECT_EQ(m.GaugeValue(dus), 1 + 64);  // the class + every windowed DU
  for (const Windowed& q : queries) {
    ASSERT_TRUE(server.Cancel(q.handle.id).ok());
    EXPECT_TRUE(q.handle.windows->Finished());
  }
  EXPECT_EQ(server.Introspect().metrics.GaugeValue(dus), 1);
  server.Stop();
}

TEST(ServerTest, PushRacesWindowedSubmitCancelAndCheckpoint) {
  // A pusher feeds S while this thread submits and cancels windowed queries
  // (aliased self-joins among them) and checkpoints, which detaches and
  // re-attaches every windowed DU: the executor's routing table changes
  // under a live ingest path. A windowed query standing through the race
  // must equal the offline reference, and nothing may be dropped.
  const std::string dir = testing::TempDir() + "/tcq_server_race_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TelegraphCQ::Options opts;
  opts.checkpoint_dir = dir;
  TelegraphCQ server(opts);
  auto source = server.DefineStream("S", KeyedFields());
  ASSERT_TRUE(source.ok());
  auto standing = server.Submit(
      "SELECT * FROM S for (t = 10; t <= 100000; t += 5) { "
      "WindowIs(S, t - 9, t); }");
  ASSERT_TRUE(standing.ok()) << standing.status();
  server.Start();
  // Fewer rows than an input holds (queue_capacity): no input can overflow
  // even if its DU does not run until the end.
  constexpr Timestamp kRows = 1200;
  std::thread pusher([&] { PushKeyed(&server, "S", 1, kRows, 8); });
  for (int i = 0; i < 12; ++i) {
    const std::string sql =
        i % 4 == 0 ? "SELECT c2.k FROM S c1, S c2 WHERE c1.k = c2.k "
                     "for (t = 4; t <= 100000; t += 4) { "
                     "WindowIs(c1, t - 3, t); WindowIs(c2, t - 3, t); }"
                   : "SELECT * FROM S for (t = 3; t <= 100000; t += 3) { "
                     "WindowIs(S, t - 2, t); }";
    auto h = server.Submit(sql);
    ASSERT_TRUE(h.ok()) << h.status();
    if (i % 3 == 0) {
      auto epoch = server.Checkpoint();
      ASSERT_TRUE(epoch.ok()) << epoch.status();
    }
    ASSERT_TRUE(server.Cancel(h->id).ok());
  }
  pusher.join();
  ASSERT_TRUE(server.Drain().ok());

  // Arrival time: the last row seals every window ending before it.
  StreamHistory history;
  for (Timestamp ts = 1; ts <= kRows; ++ts) {
    history.Append(Tuple::Make(server.catalog().Lookup("S")->schema,
                               {Value::TimestampVal(ts), Value::Int64(ts % 10)},
                               ts));
  }
  WindowedQuery ref;
  ref.loop = ForLoopSpec::Sliding({*source}, 10, 10, kRows - 1, 5);
  EXPECT_EQ(Contents(PollWindows(standing->windows.get())),
            Contents(RunOverHistory(ref, {{*source, history}})));
  server.Stop();

  TelegraphCQ::Introspection view = server.Introspect();
  EXPECT_EQ(view.tuples_ingested, static_cast<uint64_t>(kRows));
  for (const char* family :
       {"tcq_executor_tuples_dropped_unrouted_total",
        "tcq_executor_tuples_dropped_backpressure_total",
        "tcq_executor_stream_dropped_total", "tcq_window_input_dropped_total"}) {
    EXPECT_EQ(view.metrics.CounterFamilySum(family), 0u) << family;
  }
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, WrapperSourceFeedsQueries) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto gen = std::make_unique<StockTickGenerator>(
      "gen", SourceId{0},
      StockTickGenerator::Options{
          .symbols = {"MSFT", "AAPL"}, .seed = 1, .days = 100});
  ASSERT_TRUE(server.AttachSource("ClosingStockPrices", std::move(gen)).ok());
  auto handle = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'");
  ASSERT_TRUE(handle.ok());
  server.Start();
  ASSERT_TRUE(server.Drain().ok());  // the generator ends after 100 days
  size_t got = PollAll(handle->results.get());
  server.Stop();
  EXPECT_EQ(got, 100u);
}

TEST(ServerTest, IntrospectSeesEveryLayerAfterEndToEndRun) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  // A continuous self-join: exercises the shared eddy AND its SteMs.
  auto joined = server.Submit(
      "SELECT c2.stockSymbol FROM ClosingStockPrices c1, "
      "ClosingStockPrices c2 WHERE c1.stockSymbol = c2.stockSymbol "
      "AND c1.closingPrice > 55.0");
  ASSERT_TRUE(joined.ok()) << joined.status();
  // A windowed query: exercises window fjords and the fired-window stats.
  auto windowed = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(windowed.ok()) << windowed.status();
  server.Start();
  PushStocks(&server, 10);

  // Both clients saw output (AAPL beats 55 on even days and joins its own
  // history; the snapshot window fires once day 6 arrives).
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_GE(PollAll(joined->results.get()), 1u);
  ASSERT_EQ(PollWindows(windowed->windows.get()).size(), 1u);
  server.Stop();

  TelegraphCQ::Introspection view = server.Introspect();
  EXPECT_EQ(view.tuples_ingested, 20u);

  // Every layer of the engine reported into the one registry.
  const MetricsSnapshot& m = view.metrics;
  EXPECT_GT(m.CounterFamilySum("tcq_shared_eddy_routing_decisions_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_stem_builds_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_stem_probes_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_queue_enqueued_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_eo_quanta_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_egress_delivered_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_window_fired_total"), 0u);
  EXPECT_EQ(m.CounterValue(
                "tcq_server_stream_ingested_total{stream=\"ClosingStockPrices"
                "\"}"),
            20u);

  // Per-query stats distinguish the two clients.
  ASSERT_EQ(view.queries.size(), 2u);
  for (const TelegraphCQ::QueryStats& qs : view.queries) {
    EXPECT_EQ(qs.tuples_in, 20u);  // both read the one physical stream
    if (qs.windowed) {
      EXPECT_GE(qs.windows_fired, 1u);
      EXPECT_EQ(qs.tuples_out, 5u);  // MSFT days 1..5
    } else {
      EXPECT_EQ(qs.id, joined->id);
      EXPECT_GT(qs.tuples_out, 0u);
    }
  }

  // The text exposition renders the same registry.
  std::string text = server.metrics()->FormatText();
  EXPECT_NE(text.find("tcq_server_tuples_ingested_total 20"),
            std::string::npos);
  EXPECT_NE(text.find("tcq_queue_wait_us"), std::string::npos);
}

TEST(ServerTest, ShardedProjectedJoinDeliversTheReferenceMultiset) {
  // A 4-shard join whose sink projects on every shard's EO at once: the
  // shards call their own copies of the sink with no lock between them
  // (each copy with its own Projection), into one thread-safe egress.
  TelegraphCQ::Options opts;
  opts.executor.num_eos = 4;
  opts.executor.shards = 4;
  opts.egress_capacity = 1 << 16;
  TelegraphCQ server(opts);
  for (const char* name : {"L", "R"}) {
    ASSERT_TRUE(server
                    .DefineStream(name, {{"k", ValueType::kInt64, 0},
                                         {"x", ValueType::kInt64, 0}})
                    .ok());
  }
  auto join =
      server.Submit("SELECT l.x, r.x FROM L l, R r WHERE l.k = r.k");
  ASSERT_TRUE(join.ok()) << join.status();
  ASSERT_EQ(server.executor().Topology().size(), 1u);
  EXPECT_EQ(server.executor().Topology()[0].shards, 4u);
  server.Start();

  Rng rng(41);
  std::vector<std::pair<int64_t, int64_t>> rows[2];  // (k, x)
  Timestamp ts = 1;
  for (int b = 0; b < 40; ++b) {
    for (int s = 0; s < 2; ++s) {
      std::vector<testref::PushRow> batch;
      for (int i = 0; i < 32; ++i) {
        int64_t k = rng.UniformInt(0, 63);
        int64_t x = static_cast<int64_t>(rows[s].size()) * 2 + s;
        rows[s].emplace_back(k, x);
        batch.push_back({ts++, {Value::Int64(k), Value::Int64(x)}});
      }
      ASSERT_TRUE(
          testref::PushRows(&server, s == 0 ? "L" : "R", std::move(batch))
              .ok());
    }
  }
  ASSERT_TRUE(server.Drain().ok());
  std::multiset<std::pair<int64_t, int64_t>> got;
  Delivery d;
  while (join->results->Poll(&d)) {
    if (!d.tuple.IsData()) continue;
    ASSERT_EQ(d.tuple.num_fields(), 2u);
    got.emplace(d.tuple.at(0).AsInt64(), d.tuple.at(1).AsInt64());
  }
  server.Stop();
  std::multiset<std::pair<int64_t, int64_t>> expected;
  for (const auto& [lk, lx] : rows[0]) {
    for (const auto& [rk, rx] : rows[1]) {
      if (lk == rk) expected.emplace(lx, rx);
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(got, expected);
}

TEST(ServerTest, ContinuousFiltersRejectNullsAsCompareConstDoes) {
  // `v < 5` and `v != 3` over columnar batches with null v (one of them a
  // one-row batch): each query gets exactly the rows CompareConst accepts,
  // never a null.
  TelegraphCQ server;
  auto source = server.DefineStream(
      "N", {{"v", ValueType::kInt64, 0}, {"id", ValueType::kInt64, 0}});
  ASSERT_TRUE(source.ok());
  auto lt = server.Submit("SELECT * FROM N WHERE v < 5");
  auto ne = server.Submit("SELECT * FROM N WHERE v != 3");
  ASSERT_TRUE(lt.ok() && ne.ok());
  server.Start();

  const std::vector<std::vector<std::optional<int64_t>>> batches = {
      {std::nullopt},
      {1, std::nullopt, 3, std::nullopt, 5, std::nullopt, 7, std::nullopt},
      {3},
  };
  SchemaRef schema = Schema::Make(
      {{"v", ValueType::kInt64, *source}, {"id", ValueType::kInt64, *source}});
  auto pred_lt = MakeCompareConst({*source, "v"}, CmpOp::kLt, Value::Int64(5));
  auto pred_ne = MakeCompareConst({*source, "v"}, CmpOp::kNe, Value::Int64(3));
  std::multiset<int64_t> want_lt, want_ne;
  int64_t id = 0;
  Timestamp ts = 1;
  for (const auto& batch : batches) {
    std::vector<testref::PushRow> rows;
    for (const std::optional<int64_t>& v : batch) {
      Value val = v.has_value() ? Value::Int64(*v) : Value::Null();
      Tuple t = Tuple::Make(schema, {val, Value::Int64(id)}, ts);
      if (pred_lt->Eval(t)) want_lt.insert(id);
      if (pred_ne->Eval(t)) want_ne.insert(id);
      rows.push_back({ts++, {val, Value::Int64(id++)}});
    }
    ASSERT_TRUE(testref::PushRows(&server, "N", std::move(rows)).ok());
  }
  ASSERT_TRUE(server.Drain().ok());
  auto ids = [](PushEgress* egress) {
    std::multiset<int64_t> out;
    Delivery d;
    while (egress->Poll(&d)) {
      if (d.tuple.IsData()) out.insert(d.tuple.Get("id").AsInt64());
    }
    return out;
  };
  std::multiset<int64_t> got_lt = ids(lt->results.get());
  std::multiset<int64_t> got_ne = ids(ne->results.get());
  server.Stop();
  EXPECT_EQ(want_lt, (std::multiset<int64_t>{1, 3, 9}));  // v = 1, 3, 3
  EXPECT_EQ(got_lt, want_lt);
  EXPECT_EQ(got_ne, want_ne);
}

TEST(ServerTest, ErrorPaths) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("S", StockFields()).ok());
  EXPECT_TRUE(server.DefineStream("S", StockFields()).status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(server.Submit("SELECT * FROM Nope").status().IsNotFound());
  EXPECT_FALSE(server.Submit("garbage !!").ok());
  EXPECT_TRUE(testref::PushRows(&server, "Nope",
                                {{1,
                                  {Value::TimestampVal(1), Value::String("x"),
                                   Value::Double(1.0)}}})
                  .IsNotFound());
  // Arity mismatch caught by schema validation.
  EXPECT_TRUE(
      testref::PushRows(&server, "S", {{1, {Value::TimestampVal(1)}}})
          .IsInvalidArgument());
}

// --- Event time & punctuations (DESIGN.md §12) ---------------------------

/// One MSFT row per day, price 50 + d.
void PushDay(TelegraphCQ* server, Timestamp d) {
  ASSERT_TRUE(testref::PushRows(
                  server, "ClosingStockPrices",
                  {{d,
                    {Value::TimestampVal(d), Value::String("MSFT"),
                     Value::Double(50.0 + static_cast<double>(d))}}})
                  .ok());
}

/// Shuffles `days` within consecutive blocks of `block`: arrival disorder
/// is hard-bounded by block - 1.
std::vector<Timestamp> BlockShuffledDays(Timestamp days, size_t block,
                                         uint64_t seed) {
  std::vector<Timestamp> order;
  for (Timestamp d = 1; d <= days; ++d) order.push_back(d);
  Rng rng(seed);
  for (size_t i = 0; i < order.size(); i += block) {
    size_t end = std::min(i + block, order.size());
    for (size_t j = end - 1; j > i; --j) {
      std::swap(order[j], order[i + rng.UniformInt(0, j - i)]);
    }
  }
  return order;
}

TEST(EventTimeServerTest, DisorderedArrivalsYieldExactWindows) {
  // A punctuating stream with a disorder bound that covers the shuffle:
  // every event-time window must come out exactly as if arrivals had been
  // in order, with zero late drops.
  TelegraphCQ server;
  ASSERT_TRUE(server
                  .DefineStream("ClosingStockPrices", StockFields(),
                                {.punctuate = true, .disorder_bound = 4})
                  .ok());
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (t = 5; t <= 12; t += 1) { "
      "WindowIs(ClosingStockPrices, t - 4, t); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_NE(handle->windows, nullptr);
  server.Start();

  for (Timestamp d : BlockShuffledDays(20, 4, 7)) PushDay(&server, d);

  ASSERT_TRUE(server.Drain().ok());
  std::map<Timestamp, std::multiset<Timestamp>> got;
  for (const WindowResult& wr : PollWindows(handle->windows.get())) {
    for (const Tuple& t : wr.tuples) {
      got[wr.t].insert(t.Get("timestamp").AsInt64());
    }
  }
  auto intro = server.Introspect();
  server.Stop();

  ASSERT_EQ(got.size(), 8u);
  for (Timestamp t = 5; t <= 12; ++t) {
    std::multiset<Timestamp> want;
    for (Timestamp d = t - 4; d <= t; ++d) want.insert(d);
    EXPECT_EQ(got[t], want) << "window ending " << t;
  }
  for (const auto& ss : intro.streams) {
    if (ss.name == "ClosingStockPrices") {
      EXPECT_EQ(ss.late_tuples, 0u);
    }
  }
}

TEST(EventTimeServerTest, LateTuplesAreCountedAndExcluded) {
  // disorder_bound = 0: the watermark is the max timestamp seen, so a
  // replayed old row is provably late — counted per stream, and absent
  // from every event-time window.
  TelegraphCQ server;
  ASSERT_TRUE(server
                  .DefineStream("ClosingStockPrices", StockFields(),
                                {.punctuate = true, .disorder_bound = 0})
                  .ok());
  auto handle = server.Submit(
      "SELECT timestamp FROM ClosingStockPrices "
      "for (t = 5; t <= 8; t += 1) { "
      "WindowIs(ClosingStockPrices, t - 4, t); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();

  std::map<Timestamp, size_t> sizes;
  auto drain = [&] {
    WindowResult wr;
    while (handle->windows->Poll(&wr)) sizes[wr.t] = wr.tuples.size();
  };

  for (Timestamp d : {1, 2, 4, 5, 6}) PushDay(&server, d);
  // Window [1, 5] has fired: the runner has provably applied the
  // watermark-6 punctuation, so the replayed day 3 below is seen late by
  // the runner too (not just by the entrance scan).
  ASSERT_TRUE(server.Drain().ok());
  drain();
  ASSERT_EQ(sizes.count(5), 1u);
  PushDay(&server, 3);  // late: the watermark already reached 6
  for (Timestamp d = 7; d <= 16; ++d) PushDay(&server, d);

  ASSERT_TRUE(server.Drain().ok());
  drain();
  auto intro = server.Introspect();
  server.Stop();

  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[5], 4u);  // days {1,2,4,5}: day 3 never arrived in time
  EXPECT_EQ(sizes[6], 4u);  // days {2,4,5,6}: late day 3 dropped
  EXPECT_EQ(sizes[7], 4u);  // days {4,5,6,7}: late day 3 dropped
  EXPECT_EQ(sizes[8], 5u);  // days {4..8}
  bool saw_stream = false;
  for (const auto& ss : intro.streams) {
    if (ss.name != "ClosingStockPrices") continue;
    saw_stream = true;
    EXPECT_EQ(ss.late_tuples, 1u);
  }
  EXPECT_TRUE(saw_stream);
}

TEST(EventTimeServerTest, SpeculativeQueryConvergesToFinalWindows) {
  // With speculation on, early (kSpeculative) results stream out before the
  // watermark seals a window; accumulating additions minus retractions must
  // reproduce the exact final content, and kFinal seals every window.
  TelegraphCQ server;
  ASSERT_TRUE(server
                  .DefineStream("ClosingStockPrices", StockFields(),
                                {.punctuate = true, .disorder_bound = 0})
                  .ok());
  auto handle = server.Submit(
      "SELECT timestamp FROM ClosingStockPrices "
      "for (t = 5; t <= 8; t += 1) { "
      "WindowIs(ClosingStockPrices, t - 4, t); }",
      {.speculate = true});
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();

  // Two pushes with a drain between, so the runner sees window [1, 5]
  // unsealed (watermark 5) and speculates on it before day 6 seals it.
  for (Timestamp d = 1; d <= 5; ++d) PushDay(&server, d);
  ASSERT_TRUE(server.Drain().ok());
  for (Timestamp d = 6; d <= 10; ++d) PushDay(&server, d);
  ASSERT_TRUE(server.Drain().ok());

  std::map<Timestamp, std::map<Timestamp, int64_t>> acc;
  size_t finals = 0, speculative = 0;
  for (const WindowResult& wr : PollWindows(handle->windows.get())) {
    if (wr.kind == WindowResultKind::kFinal) ++finals;
    if (wr.kind == WindowResultKind::kSpeculative) ++speculative;
    int64_t sign = wr.kind == WindowResultKind::kRetraction ? -1 : 1;
    for (const Tuple& t : wr.tuples) {
      acc[wr.t][t.Get("timestamp").AsInt64()] += sign;
    }
  }
  auto intro = server.Introspect();
  server.Stop();

  ASSERT_EQ(finals, 4u);
  EXPECT_GT(speculative, 0u);
  for (Timestamp t = 5; t <= 8; ++t) {
    std::map<Timestamp, int64_t> want;
    for (Timestamp d = t - 4; d <= t; ++d) want[d] = 1;
    // Zero entries are retract-cancelled additions; drop before comparing.
    for (auto it = acc[t].begin(); it != acc[t].end();) {
      it = it->second == 0 ? acc[t].erase(it) : std::next(it);
    }
    EXPECT_EQ(acc[t], want) << "window ending " << t;
  }
  // The client-side and introspected retraction counts agree (SPJ windows
  // are monotone in arrivals, so this is typically zero — see DESIGN.md).
  for (const auto& qs : intro.queries) {
    if (qs.id == handle->id) {
      EXPECT_EQ(qs.retractions, handle->windows->retractions());
    }
  }
}

TEST(EventTimeServerTest, PunctuationsReachContinuousEgress) {
  // Continuous queries on a punctuating stream see the merged punctuations
  // in-band at egress, counted per client.
  TelegraphCQ server;
  ASSERT_TRUE(server
                  .DefineStream("ClosingStockPrices", StockFields(),
                                {.punctuate = true, .disorder_bound = 0})
                  .ok());
  auto handle =
      server.Submit("SELECT * FROM ClosingStockPrices");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_NE(handle->results, nullptr);
  server.Start();

  for (Timestamp d = 1; d <= 10; ++d) PushDay(&server, d);

  // 10 data rows plus at least one merged punctuation tuple.
  ASSERT_TRUE(server.Drain().ok());
  size_t data = 0, puncts = 0;
  Delivery d;
  while (handle->results->Poll(&d)) {
    if (d.tuple.IsPunctuation()) {
      ++puncts;
      EXPECT_GE(d.tuple.AsPunctuation().low_watermark, 1);
    } else {
      ++data;
    }
  }
  server.Stop();
  EXPECT_EQ(data, 10u);
  EXPECT_GT(puncts, 0u);
  EXPECT_EQ(handle->results->punctuations_delivered(), puncts);
}

}  // namespace
}  // namespace tcq
