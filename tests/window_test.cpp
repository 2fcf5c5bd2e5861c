// Window semantics tests: the paper's §4.1 examples (snapshot, landmark,
// sliding, hopping, backward), watermark-driven online firing, and the
// aggregate strategies of §4.1.2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/rng.h"
#include "reference/reference.h"
#include "window/time.h"
#include "window/window_exec.h"
#include "window/window_spec.h"

namespace tcq {
namespace {

SchemaRef StockSchema(SourceId source) {
  return Schema::Make({
      {"timestamp", ValueType::kTimestamp, source},
      {"stockSymbol", ValueType::kString, source},
      {"closingPrice", ValueType::kDouble, source},
  });
}

Tuple Stock(SourceId source, Timestamp ts, const std::string& sym,
            double price) {
  return Tuple::Make(
      StockSchema(source),
      {Value::TimestampVal(ts), Value::String(sym), Value::Double(price)}, ts);
}

// A daily stock history: one MSFT entry per trading day 1..n with price f(d).
StreamHistory MsftHistory(Timestamp n,
                          const std::function<double(Timestamp)>& price) {
  StreamHistory h;
  for (Timestamp d = 1; d <= n; ++d) h.Append(Stock(0, d, "MSFT", price(d)));
  return h;
}

// --- ForLoopSpec classification ---------------------------------------------

TEST(WindowSpecTest, SnapshotClassification) {
  auto spec = ForLoopSpec::Snapshot(0, 1, 5);
  EXPECT_EQ(spec.Classify(), WindowClass::kSnapshot);
  EXPECT_TRUE(spec.Bounded());
  EXPECT_EQ(spec.IterationCount().value(), 1u);
}

TEST(WindowSpecTest, LandmarkClassification) {
  auto spec = ForLoopSpec::Landmark(0, 101, 101, 1100);
  EXPECT_EQ(spec.Classify(), WindowClass::kLandmark);
  EXPECT_EQ(spec.IterationCount().value(), 1000u);
}

TEST(WindowSpecTest, SlidingClassification) {
  auto spec = ForLoopSpec::Sliding({0}, 5, 10, 30);
  EXPECT_EQ(spec.Classify(), WindowClass::kSliding);
}

TEST(WindowSpecTest, HoppingClassification) {
  // Paper example 4: windows of 5 days every 5 days — hop == width is still
  // "sliding" (nothing skipped); hop > width skips data and is hopping.
  auto tumbling = ForLoopSpec::Sliding({0}, 5, 5, 50, 5);
  EXPECT_EQ(tumbling.Classify(), WindowClass::kSliding);
  auto hopping = ForLoopSpec::Sliding({0}, 5, 5, 50, 8);
  EXPECT_EQ(hopping.Classify(), WindowClass::kHopping);
}

TEST(WindowSpecTest, BackwardClassification) {
  auto spec = ForLoopSpec::Backward(0, 10, 100, 10, 5);
  EXPECT_EQ(spec.Classify(), WindowClass::kBackward);
  EXPECT_EQ(spec.IterationCount().value(), 5u);
}

TEST(WindowSpecTest, UnboundedLoop) {
  ForLoopSpec spec;
  spec.condition = {LoopCondition::Kind::kAlways, 0};
  spec.windows.push_back({0, WindowBound::AtT(-4), WindowBound::AtT()});
  EXPECT_FALSE(spec.Bounded());
  EXPECT_FALSE(spec.IterationCount().has_value());
}

TEST(WindowSpecTest, IteratorProducesConcreteRanges) {
  auto spec = ForLoopSpec::Sliding({0, 1}, 5, 10, 12);
  WindowIterator iter(spec);
  ASSERT_TRUE(iter.HasNext());
  WindowInstance w0 = iter.Next();
  EXPECT_EQ(w0.t, 10);
  EXPECT_EQ(w0.RangeFor(0).value(), (std::pair<Timestamp, Timestamp>{6, 10}));
  EXPECT_EQ(w0.RangeFor(1).value(), (std::pair<Timestamp, Timestamp>{6, 10}));
  EXPECT_FALSE(w0.RangeFor(7).has_value());
  iter.Next();
  WindowInstance w2 = iter.Next();
  EXPECT_EQ(w2.t, 12);
  EXPECT_FALSE(iter.HasNext());
}

TEST(WindowSpecTest, ToStringRendersLoop) {
  auto spec = ForLoopSpec::Landmark(0, 101, 101, 1100);
  EXPECT_EQ(spec.ToString(),
            "for (t=101; t <= 1100; t+=1) { WindowIs(s0, 101, t); }");
}

// --- Paper §4.1 examples end to end ------------------------------------------

// --- StreamHistory ----------------------------------------------------------

TEST(StreamHistoryTest, OutOfOrderAppendKeepsTimestampOrder) {
  // Streams deliver roughly in timestamp order; slight disorder must land
  // tuples at their sorted position, not at the tail.
  StreamHistory h;
  h.Append(Stock(0, 1, "A", 1.0));
  h.Append(Stock(0, 5, "B", 2.0));
  h.Append(Stock(0, 3, "C", 3.0));  // late arrival
  h.Append(Stock(0, 5, "D", 4.0));  // duplicate timestamp
  h.Append(Stock(0, 2, "E", 5.0));  // late again
  ASSERT_EQ(h.size(), 5u);
  std::vector<Tuple> all;
  h.Range(0, 100, &all);
  ASSERT_EQ(all.size(), 5u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].timestamp(), all[i].timestamp());
  }
}

TEST(StreamHistoryTest, RangeIsClosedOnBothEnds) {
  // WindowIs(S, l, r) is a closed interval (§4.1): Range(l, r) must include
  // tuples at exactly l and exactly r.
  StreamHistory h = MsftHistory(10, [](Timestamp d) { return double(d); });
  std::vector<Tuple> out;
  h.Range(3, 7, &out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front().timestamp(), 3);
  EXPECT_EQ(out.back().timestamp(), 7);

  out.clear();
  h.Range(4, 4, &out);  // degenerate window: a single instant
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].timestamp(), 4);

  out.clear();
  h.Range(11, 20, &out);  // entirely past the data
  EXPECT_TRUE(out.empty());
}

TEST(WindowExecTest, WindowIsIncludesBothEndpoints) {
  // Pin the closed-interval contract end to end: a snapshot window [l, r]
  // returns the tuples at l and at r, not a half-open slice.
  StreamHistory h = MsftHistory(10, [](Timestamp d) { return double(d); });
  WindowedQuery q;
  q.loop = ForLoopSpec::Snapshot(0, 3, 7);
  auto results = RunOverHistory(q, {{0, std::move(h)}});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].tuples.size(), 5u);  // days 3,4,5,6,7
  EXPECT_EQ(results[0].tuples.front().timestamp(), 3);
  EXPECT_EQ(results[0].tuples.back().timestamp(), 7);
}

TEST(WindowExecTest, PaperExample1Snapshot) {
  // "Select the closing prices for MSFT on the first five days of trading."
  StreamHistory h = MsftHistory(20, [](Timestamp d) { return 40.0 + d; });
  WindowedQuery q;
  q.loop = ForLoopSpec::Snapshot(0, 1, 5);
  q.predicates = {MakeCompareConst({0, "stockSymbol"}, CmpOp::kEq,
                                   Value::String("MSFT"))};
  auto results = RunOverHistory(q, {{0, std::move(h)}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].tuples.size(), 5u);
  for (const Tuple& t : results[0].tuples) {
    EXPECT_LE(t.timestamp(), 5);
    EXPECT_GE(t.timestamp(), 1);
  }
}

TEST(WindowExecTest, PaperExample2Landmark) {
  // "All days after the hundredth trading day on which MSFT closed over
  // $50, standing for 1000 days": for (t=101; t<=1100; t++) window [101,t].
  StreamHistory h = MsftHistory(150, [](Timestamp d) {
    return d % 2 == 0 ? 55.0 : 45.0;  // closes above 50 on even days
  });
  WindowedQuery q;
  q.loop = ForLoopSpec::Landmark(0, 101, 101, 110);
  q.predicates = {MakeCompareConst({0, "closingPrice"}, CmpOp::kGt,
                                   Value::Double(50.0))};
  auto results = RunOverHistory(q, {{0, std::move(h)}});
  ASSERT_EQ(results.size(), 10u);
  // Window [101, 101]: day 101 is odd -> empty; [101, 102] has day 102; the
  // result set grows as the right end expands over even days.
  EXPECT_TRUE(results[0].tuples.empty());
  EXPECT_EQ(results[1].tuples.size(), 1u);
  EXPECT_EQ(results[9].tuples.size(), 5u);  // even days in [101, 110]
}

TEST(WindowExecTest, PaperExample5SlidingSelfJoin) {
  // "Stocks that closed higher than MSFT over windows of the five most
  // recent days": self-join c1 x c2 with c2.price > c1.price and equal
  // timestamps, c1 filtered to MSFT. Self-join = same data as two sources.
  StreamHistory c1, c2;
  Rng rng(1);
  for (Timestamp d = 1; d <= 30; ++d) {
    c1.Append(Stock(0, d, "MSFT", 50.0));
    c2.Append(Stock(1, d, "MSFT", 50.0));
    double aapl = d % 3 == 0 ? 60.0 : 40.0;  // beats MSFT every 3rd day
    c1.Append(Stock(0, d, "AAPL", aapl));
    c2.Append(Stock(1, d, "AAPL", aapl));
  }
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0, 1}, 5, 5, 24);
  q.predicates = {
      MakeCompareConst({0, "stockSymbol"}, CmpOp::kEq, Value::String("MSFT")),
      MakeCompareAttrs({1, "closingPrice"}, CmpOp::kGt, {0, "closingPrice"}),
      MakeCompareAttrs({1, "timestamp"}, CmpOp::kEq, {0, "timestamp"}),
  };
  auto results = RunOverHistory(q, {{0, std::move(c1)}, {1, std::move(c2)}});
  ASSERT_EQ(results.size(), 20u);
  for (const WindowResult& r : results) {
    // Each 5-day window contains either 1 or 2 third-days.
    size_t third_days = 0;
    for (Timestamp d = r.t - 4; d <= r.t; ++d) {
      if (d % 3 == 0) ++third_days;
    }
    EXPECT_EQ(r.tuples.size(), third_days) << "window ending " << r.t;
    for (const Tuple& m : r.tuples) {
      EXPECT_EQ(m.Get("stockSymbol").AsString(), "MSFT");
    }
  }
}

// Renders a tuple with its fields in schema order, so join outputs compare
// in layout as well as content.
std::string Ordered(const Tuple& t) {
  std::string out = std::to_string(t.timestamp()) + ":";
  for (size_t i = 0; i < t.num_fields(); ++i) {
    const Field& f = t.schema()->field(i);
    out += " s" + std::to_string(f.source) + "." + f.name + "=" +
           t.at(i).ToString();
  }
  return out;
}

// Every window of RunOverHistory equals the brute-force join of that
// window's contents, tuple for tuple and in order. `unbound` predicates
// reference a source the loop does not bind: they must stay ignored.
void ExpectWindowsMatchNaiveJoin(const WindowedQuery& q,
                                 const std::map<SourceId, StreamHistory>& hist,
                                 const std::vector<PredicateRef>& unbound) {
  WindowedQuery with_unbound = q;
  for (const PredicateRef& p : unbound) with_unbound.predicates.push_back(p);
  auto results = RunOverHistory(with_unbound, hist);
  WindowIterator iter(q.loop);
  size_t nonempty = 0;
  for (const WindowResult& r : results) {
    ASSERT_TRUE(iter.HasNext());
    WindowInstance inst = iter.Next();
    ASSERT_EQ(r.t, inst.t);
    std::vector<std::vector<Tuple>> streams;
    for (const auto& [source, range] : inst.ranges) {
      streams.emplace_back();
      auto it = hist.find(source);
      if (it != hist.end()) {
        it->second.Range(range.first, range.second, &streams.back());
      }
    }
    std::vector<Tuple> want = testref::NaiveJoin(streams, q.predicates);
    ASSERT_EQ(r.tuples.size(), want.size()) << "window t=" << r.t;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(Ordered(r.tuples[i]), Ordered(want[i])) << "window t=" << r.t;
    }
    if (!want.empty()) ++nonempty;
  }
  EXPECT_FALSE(iter.HasNext());
  EXPECT_GT(nonempty, 0u);  // the inputs must exercise the join
}

SchemaRef KvSchema(SourceId source) {
  return Schema::Make({{"k", ValueType::kInt64, source},
                       {"v", ValueType::kInt64, source}});
}

// `n` random rows at timestamps 1..horizon, in timestamp order.
std::vector<std::pair<Timestamp, std::pair<int64_t, int64_t>>> RandomRows(
    Rng* rng, Timestamp horizon, int n) {
  std::vector<std::pair<Timestamp, std::pair<int64_t, int64_t>>> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({rng->UniformInt(1, horizon),
                    {rng->UniformInt(0, 5), rng->UniformInt(0, 99)}});
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

StreamHistory HistoryOf(
    SourceId source,
    const std::vector<std::pair<Timestamp, std::pair<int64_t, int64_t>>>&
        rows) {
  StreamHistory h;
  for (const auto& [ts, kv] : rows) {
    h.Append(Tuple::Make(KvSchema(source),
                         {Value::Int64(kv.first), Value::Int64(kv.second)},
                         ts));
  }
  return h;
}

TEST(WindowExecTest, TwoWayAndSelfJoinWindowsMatchNaiveJoin) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Timestamp width = rng.UniformInt(3, 9);
    const Timestamp hop = rng.UniformInt(1, 6);
    auto left = RandomRows(&rng, 60, 90);
    // Odd seeds self-join: one physical stream bound under two aliases.
    auto right = seed % 2 == 1 ? left : RandomRows(&rng, 60, 90);
    std::map<SourceId, StreamHistory> hist;
    hist[0] = HistoryOf(0, left);
    hist[1] = HistoryOf(1, right);
    WindowedQuery q;
    q.loop = ForLoopSpec::Sliding({0, 1}, width, width, 60, hop);
    q.predicates = {
        MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"}),
        MakeCompareConst({0, "v"}, CmpOp::kLt, Value::Int64(70)),
        MakeCompareConst({1, "v"}, CmpOp::kGe, Value::Int64(10)),
        // Residual: a multi-source factor that is not an equi-join.
        MakeOr({MakeCompareAttrs({0, "v"}, CmpOp::kLt, {1, "v"}),
                MakeCompareConst({1, "k"}, CmpOp::kEq, Value::Int64(0))}),
    };
    std::vector<PredicateRef> unbound = {
        MakeCompareConst({7, "v"}, CmpOp::kLt, Value::Int64(0)),
        MakeCompareAttrs({0, "k"}, CmpOp::kNe, {7, "k"}),
    };
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectWindowsMatchNaiveJoin(q, hist, unbound);
  }
}

TEST(WindowExecTest, ThreeWayWindowsMatchNaiveJoin) {
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    Rng rng(seed);
    std::map<SourceId, StreamHistory> hist;
    for (SourceId s = 0; s < 3; ++s) {
      hist[s] = HistoryOf(s, RandomRows(&rng, 40, 50));
    }
    WindowedQuery q;
    q.loop = ForLoopSpec::Sliding({0, 1, 2}, rng.UniformInt(3, 7), 7, 40,
                                  rng.UniformInt(1, 4));
    q.predicates = {
        MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"}),
        MakeCompareAttrs({2, "v"}, CmpOp::kGt, {0, "v"}),
        MakeCompareConst({2, "k"}, CmpOp::kLe, Value::Int64(3)),
        // Covered only at the last depth, by all three sources at once.
        MakeOr({MakeCompareAttrs({0, "v"}, CmpOp::kLt, {1, "v"}),
                MakeCompareAttrs({1, "k"}, CmpOp::kEq, {2, "k"})}),
    };
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectWindowsMatchNaiveJoin(
        q, hist, {MakeCompareAttrs({1, "v"}, CmpOp::kEq, {9, "v"})});
  }
}

TEST(WindowExecTest, HoppingWindowsSkipData) {
  // hop (8) > width (5): timestamps 6..8 of each period never appear.
  StreamHistory h = MsftHistory(40, [](Timestamp) { return 50.0; });
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0}, 5, 5, 40, 8);
  auto results = RunOverHistory(q, {{0, std::move(h)}});
  std::set<Timestamp> covered;
  for (const auto& r : results) {
    for (const Tuple& t : r.tuples) covered.insert(t.timestamp());
  }
  EXPECT_FALSE(covered.contains(6));
  EXPECT_FALSE(covered.contains(7));
  EXPECT_FALSE(covered.contains(8));
  EXPECT_TRUE(covered.contains(5));
  EXPECT_TRUE(covered.contains(9));
}

TEST(WindowExecTest, BackwardWindowsBrowseHistory) {
  StreamHistory h = MsftHistory(100, [](Timestamp d) { return double(d); });
  WindowedQuery q;
  q.loop = ForLoopSpec::Backward(0, 10, 100, 10, 3);
  auto results = RunOverHistory(q, {{0, std::move(h)}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].t, 100);  // [91, 100]
  EXPECT_EQ(results[1].t, 90);   // [81, 90]
  EXPECT_EQ(results[2].t, 80);   // [71, 80]
  EXPECT_EQ(results[0].tuples.size(), 10u);
  EXPECT_EQ(results[2].tuples.front().timestamp(), 71);
}

// --- Online runner ------------------------------------------------------------

TEST(OnlineWindowTest, FiresOnlyWhenWatermarkPasses) {
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0}, 3, 3, 9);
  OnlineWindowRunner runner(q);
  std::vector<WindowResult> fired;
  auto cb = [&](const WindowResult& r) { fired.push_back(r); };

  for (Timestamp d = 1; d <= 4; ++d) {
    runner.Ingest(0, Stock(0, d, "MSFT", 50.0));
  }
  runner.Poll(cb);
  // Watermark at 4: the window ending at 3 fired; the one ending at 4 waits,
  // since more rows with ts == 4 may still arrive.
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].t, 3);
  EXPECT_EQ(fired[0].tuples.size(), 3u);

  for (Timestamp d = 5; d <= 9; ++d) {
    runner.Ingest(0, Stock(0, d, "MSFT", 50.0));
  }
  runner.Poll(cb);
  EXPECT_EQ(fired.size(), 6u);  // windows ending 3..8
  EXPECT_FALSE(runner.Done());
  runner.AdvanceWatermark(0, kMaxTimestamp);  // stream closed
  runner.Poll(cb);
  EXPECT_EQ(fired.size(), 7u);
  EXPECT_TRUE(runner.Done());
}

TEST(OnlineWindowTest, JoinWaitsForSlowestStream) {
  // Partial-order time: a two-stream window fires only when BOTH streams
  // pass its right end.
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0, 1}, 2, 2, 4);
  q.predicates = {
      MakeCompareAttrs({1, "timestamp"}, CmpOp::kEq, {0, "timestamp"})};
  OnlineWindowRunner runner(q);
  size_t fired = 0;
  auto cb = [&](const WindowResult&) { ++fired; };

  for (Timestamp d = 1; d <= 4; ++d) {
    runner.Ingest(0, Stock(0, d, "MSFT", 50.0));
  }
  runner.Poll(cb);
  EXPECT_EQ(fired, 0u);  // stream 1 has not arrived at all

  runner.Ingest(1, Stock(1, 1, "MSFT", 50.0));
  runner.Ingest(1, Stock(1, 2, "MSFT", 50.0));
  runner.Ingest(1, Stock(1, 3, "MSFT", 50.0));
  runner.Poll(cb);
  EXPECT_EQ(fired, 1u);  // window [1,2] complete on both streams

  runner.AdvanceWatermark(1, 5);  // heartbeat: stream 1 is quiet but current
  runner.Poll(cb);
  EXPECT_EQ(fired, 2u);  // [3,4] now waits for stream 0 to pass 4

  runner.AdvanceWatermark(0, 5);
  runner.Poll(cb);
  EXPECT_EQ(fired, 3u);
}

TEST(OnlineWindowTest, SlidingHistoryIsPruned) {
  WindowedQuery q;
  ForLoopSpec loop = ForLoopSpec::Sliding({0}, 10, 10, 100000);
  q.loop = loop;
  OnlineWindowRunner runner(q);
  size_t fired = 0;
  for (Timestamp d = 1; d <= 5000; ++d) {
    runner.Ingest(0, Stock(0, d, "MSFT", 50.0));
    runner.Poll([&](const WindowResult&) { ++fired; });
  }
  EXPECT_GT(fired, 4000u);
  // Only about one window's worth of history is retained.
  EXPECT_LE(runner.buffered_tuples(), 32u);
}

TEST(OnlineWindowTest, LandmarkHistoryIsKept) {
  WindowedQuery q;
  q.loop = ForLoopSpec::Landmark(0, 1, 1, 100000);
  OnlineWindowRunner runner(q);
  for (Timestamp d = 1; d <= 1000; ++d) {
    runner.Ingest(0, Stock(0, d, "MSFT", 50.0));
  }
  runner.Poll([](const WindowResult&) {});
  EXPECT_EQ(runner.buffered_tuples(), 1000u);  // left end is fixed: keep all
}

// --- Watermarks & time transforms ----------------------------------------------

TEST(WatermarkTest, TracksPerSourceAndJoint) {
  WatermarkTracker wm;
  EXPECT_EQ(wm.WatermarkOf(0), kMinTimestamp);
  wm.Update(0, 10);
  wm.Update(1, 5);
  wm.Update(0, 7);  // regression ignored
  EXPECT_EQ(wm.WatermarkOf(0), 10);
  EXPECT_EQ(wm.MinWatermark(SourceBit(0) | SourceBit(1)), 5);
  EXPECT_EQ(wm.MinWatermark(SourceBit(2)), kMinTimestamp);
  EXPECT_EQ(wm.GlobalWatermark(), 5);
}

TEST(WatermarkTest, EmptySourceSetIsVacuouslyComplete) {
  // Regression: min over an empty source set is the identity of min —
  // kMaxTimestamp — not kMinTimestamp. A participant watching no sources
  // must never hold a joint watermark back.
  WatermarkTracker wm;
  EXPECT_EQ(wm.MinWatermark(0), kMaxTimestamp);
  wm.Update(0, 10);
  EXPECT_EQ(wm.MinWatermark(0), kMaxTimestamp);  // unaffected by updates
}

TEST(WatermarkTest, OrderedOnlyBelowJointWatermark) {
  WatermarkTracker wm;
  wm.Update(0, 10);
  wm.Update(1, 5);
  EXPECT_TRUE(wm.Ordered(0, 3, 1, 4));
  EXPECT_FALSE(wm.Ordered(0, 8, 1, 4));  // 8 > joint watermark 5
}

TEST(TimeTransformTest, RoundTrips) {
  TimeTransform tt;
  tt.Observe(1, 1000);
  tt.Observe(2, 1500);
  tt.Observe(5, 4000);
  EXPECT_EQ(tt.ToPhysical(1), 1000);
  EXPECT_EQ(tt.ToPhysical(3), 1500);  // nearest at-or-before
  EXPECT_EQ(tt.ToPhysical(0), kMinTimestamp);
  EXPECT_EQ(tt.ToLogical(1500), 2);
  EXPECT_EQ(tt.ToLogical(3999), 2);
  EXPECT_EQ(tt.ToLogical(4000), 5);
  EXPECT_EQ(tt.ToLogical(10), kMinTimestamp);
}

// --- Aggregate strategies (§4.1.2) -----------------------------------------------

TEST(WindowAggregateTest, LandmarkMaxIncrementalMatchesRecompute) {
  StreamHistory h = MsftHistory(
      200, [](Timestamp d) { return 50.0 + ((d * 37) % 23) - 11; });
  auto loop = ForLoopSpec::Landmark(0, 1, 1, 200);
  size_t state = 0;
  auto results =
      RunAggregateOverHistory(loop, AggFn::kMax, {0, "closingPrice"}, h,
                              1u << 16, &state);
  ASSERT_EQ(results.size(), 200u);
  // Cross-check a few against brute force.
  for (Timestamp t : {1, 50, 200}) {
    double expect = -1;
    std::vector<Tuple> content;
    h.Range(1, t, &content);
    for (const Tuple& tup : content) {
      expect = std::max(expect, tup.Get("closingPrice").AsDouble());
    }
    EXPECT_DOUBLE_EQ(results[size_t(t) - 1].value.AsDouble(), expect);
  }
  EXPECT_LE(state, sizeof(LandmarkAggregator));  // O(1) state claim
}

TEST(WindowAggregateTest, SlidingMaxMatchesRecomputeAndNeedsWindowState) {
  StreamHistory h = MsftHistory(
      300, [](Timestamp d) { return 50.0 + ((d * 37) % 23) - 11; });
  auto loop = ForLoopSpec::Sliding({0}, 20, 20, 300);
  size_t state = 0;
  auto results = RunAggregateOverHistory(loop, AggFn::kMax,
                                         {0, "closingPrice"}, h, 1u << 16,
                                         &state);
  ASSERT_EQ(results.size(), 281u);
  for (size_t i = 0; i < results.size(); i += 40) {
    Timestamp t = results[i].t;
    double expect = -1;
    std::vector<Tuple> content;
    h.Range(t - 19, t, &content);
    for (const Tuple& tup : content) {
      expect = std::max(expect, tup.Get("closingPrice").AsDouble());
    }
    EXPECT_DOUBLE_EQ(results[i].value.AsDouble(), expect) << "t=" << t;
  }
  EXPECT_GT(state, sizeof(LandmarkAggregator));  // must hold window contents
}

TEST(WindowAggregateTest, HoppingRecomputesCorrectly) {
  StreamHistory h = MsftHistory(100, [](Timestamp d) { return double(d); });
  auto loop = ForLoopSpec::Sliding({0}, 5, 5, 100, 12);  // hop > width
  auto results = RunAggregateOverHistory(loop, AggFn::kSum,
                                         {0, "closingPrice"}, h);
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) {
    double expect = 0;
    for (Timestamp d = r.t - 4; d <= r.t; ++d) expect += double(d);
    EXPECT_DOUBLE_EQ(r.value.AsDouble(), expect);
  }
}

TEST(WindowAggregateTest, CountAvgMinOverSliding) {
  StreamHistory h = MsftHistory(50, [](Timestamp d) { return double(d); });
  auto loop = ForLoopSpec::Sliding({0}, 10, 10, 50);
  auto count = RunAggregateOverHistory(loop, AggFn::kCount,
                                       {0, "closingPrice"}, h);
  auto avg =
      RunAggregateOverHistory(loop, AggFn::kAvg, {0, "closingPrice"}, h);
  auto min =
      RunAggregateOverHistory(loop, AggFn::kMin, {0, "closingPrice"}, h);
  EXPECT_EQ(count.back().value.AsInt64(), 10);
  EXPECT_DOUBLE_EQ(avg.back().value.AsDouble(), (41 + 50) / 2.0);
  EXPECT_DOUBLE_EQ(min.back().value.AsDouble(), 41.0);
}

// --- Event time, punctuations & speculation (DESIGN.md §12) -----------------

// Canonical multiset key: retraction tuples compare equal to the data tuple
// they withdraw.
std::string DataKey(const Tuple& t) {
  return t.IsRetraction()
             ? Tuple::Make(t.schema(), t.values(), t.timestamp()).ToString()
             : t.ToString();
}

std::multiset<std::string> Multiset(const std::vector<Tuple>& tuples) {
  std::multiset<std::string> out;
  for (const Tuple& t : tuples) out.insert(DataKey(t));
  return out;
}

// Block-shuffles `tuples` in place: each consecutive block of `block` items
// is Fisher-Yates shuffled, blocks stay in order, so displacement (and thus
// timestamp disorder for unit-spaced streams) is HARD-bounded by block - 1.
void BlockShuffle(std::vector<Tuple>* tuples, size_t block, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < tuples->size(); i += block) {
    size_t end = std::min(i + block, tuples->size());
    std::vector<Tuple> chunk(tuples->begin() + i, tuples->begin() + end);
    rng.Shuffle(&chunk);
    std::copy(chunk.begin(), chunk.end(), tuples->begin() + i);
  }
}

TEST(EventTimeWindowTest, ShuffledArrivalMatchesOfflineReference) {
  // Acceptance pin: an event-time runner fed a bounded-disorder shuffle of
  // the stream produces windows multiset-identical to the offline reference
  // over the in-order history.
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0}, 5, 5, 120);
  q.loop.semantics = TimeSemantics::kEvent;

  StreamHistory h;
  std::vector<Tuple> arrivals;
  for (Timestamp d = 1; d <= 120; ++d) {
    Tuple t = Stock(0, d, "MSFT", 100.0 + static_cast<double>(d % 7));
    h.Append(t);
    arrivals.push_back(t);
  }
  WindowedQuery ref_q = q;
  ref_q.loop.semantics = TimeSemantics::kArrival;
  auto reference = RunOverHistory(ref_q, {{0, std::move(h)}});

  const Timestamp kBound = 8;
  BlockShuffle(&arrivals, static_cast<size_t>(kBound), /*seed=*/7);

  OnlineWindowRunner runner(q);
  std::vector<WindowResult> fired;
  auto cb = [&](const WindowResult& r) { fired.push_back(r); };
  Timestamp max_ts = kMinTimestamp;
  size_t n = 0;
  for (const Tuple& t : arrivals) {
    runner.Ingest(0, t);
    max_ts = std::max(max_ts, t.timestamp());
    if (++n % 16 == 0) {
      runner.OnPunctuation(Punctuation{0, max_ts - kBound});
      runner.Poll(cb);
    }
  }
  runner.OnPunctuation(Punctuation{0, kMaxTimestamp});
  runner.Poll(cb);

  // Disorder never exceeded the promised bound, so nothing was late.
  EXPECT_EQ(runner.late_dropped(OnlineWindowRunner::LateDrop::kBeyondBound),
            0u);
  ASSERT_EQ(fired.size(), reference.size());
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].t, reference[i].t);
    EXPECT_EQ(fired[i].kind, WindowResultKind::kFinal);
    EXPECT_EQ(Multiset(fired[i].tuples), Multiset(reference[i].tuples))
        << "window t=" << fired[i].t;
  }
}

TEST(EventTimeWindowTest, SpeculationAccumulatesToReference) {
  // Acceptance pin: with speculation on, summing additions (kSpeculative +
  // kFinal) minus retractions per window converges to the same multiset the
  // offline reference computes.
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0}, 5, 5, 120);
  q.loop.semantics = TimeSemantics::kEvent;

  StreamHistory h;
  std::vector<Tuple> arrivals;
  for (Timestamp d = 1; d <= 120; ++d) {
    Tuple t = Stock(0, d, "MSFT", 100.0 + static_cast<double>(d % 5));
    h.Append(t);
    arrivals.push_back(t);
  }
  WindowedQuery ref_q = q;
  ref_q.loop.semantics = TimeSemantics::kArrival;
  auto reference = RunOverHistory(ref_q, {{0, std::move(h)}});

  const Timestamp kBound = 8;
  BlockShuffle(&arrivals, static_cast<size_t>(kBound), /*seed=*/13);

  OnlineWindowRunner::Options sopts;
  sopts.speculate = true;
  OnlineWindowRunner runner(q, sopts);
  // Per-window accumulation: additions count +1, retractions -1.
  std::map<Timestamp, std::map<std::string, int>> acc;
  std::map<Timestamp, uint64_t> last_revision;
  auto cb = [&](const WindowResult& r) {
    // Revisions of one window arrive in monotone order.
    EXPECT_GT(r.revision, last_revision[r.t]);
    last_revision[r.t] = r.revision;
    int delta = r.kind == WindowResultKind::kRetraction ? -1 : 1;
    for (const Tuple& t : r.tuples) acc[r.t][DataKey(t)] += delta;
  };
  Timestamp max_ts = kMinTimestamp;
  size_t n = 0;
  for (const Tuple& t : arrivals) {
    runner.Ingest(0, t);
    max_ts = std::max(max_ts, t.timestamp());
    if (++n % 16 == 0) {
      runner.OnPunctuation(Punctuation{0, max_ts - kBound});
    }
    runner.Poll(cb);  // every poll may revise the head window
  }
  runner.OnPunctuation(Punctuation{0, kMaxTimestamp});
  runner.Poll(cb);

  // Speculation actually ran (early results before the windows sealed).
  EXPECT_GT(runner.speculative_emitted(), 0u);
  for (const WindowResult& ref : reference) {
    std::map<std::string, int> want;
    for (const Tuple& t : ref.tuples) ++want[DataKey(t)];
    std::erase_if(acc[ref.t], [](const auto& kv) { return kv.second == 0; });
    EXPECT_EQ(acc[ref.t], want) << "window t=" << ref.t;
  }
}

TEST(EventTimeWindowTest, BeyondBoundLateTuplesAreDroppedAndCounted) {
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0}, 5, 5, 100);
  q.loop.semantics = TimeSemantics::kEvent;
  OnlineWindowRunner runner(q);
  runner.Ingest(0, Stock(0, 12, "MSFT", 50.0));
  runner.OnPunctuation(Punctuation{0, 10});
  // ts 9 < watermark 10: the punctuation promised this cannot happen, so the
  // tuple is counted and dropped, never buffered.
  runner.Ingest(0, Stock(0, 9, "MSFT", 50.0));
  EXPECT_EQ(runner.late_dropped(OnlineWindowRunner::LateDrop::kBeyondBound),
            1u);
  EXPECT_EQ(runner.buffered_tuples(), 1u);
  // ts 10 == watermark is NOT late (the promise is about ts < W).
  runner.Ingest(0, Stock(0, 10, "MSFT", 50.0));
  EXPECT_EQ(runner.late_dropped(OnlineWindowRunner::LateDrop::kBeyondBound),
            1u);
  EXPECT_EQ(runner.buffered_tuples(), 2u);
}

TEST(EventTimeWindowTest, BehindLoopLateTuplesAreCounted) {
  // Hopping loop: windows [1,2], [5,6], ... — data in the gap is in time
  // but unreadable by any remaining window once the loop hops past it.
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0}, 2, 2, 100, 4);
  q.loop.semantics = TimeSemantics::kEvent;
  OnlineWindowRunner runner(q);
  size_t fired = 0;
  runner.Ingest(0, Stock(0, 1, "MSFT", 50.0));
  runner.Ingest(0, Stock(0, 2, "MSFT", 50.0));
  runner.OnPunctuation(Punctuation{0, 3});
  runner.Poll([&](const WindowResult&) { ++fired; });
  EXPECT_EQ(fired, 1u);  // [1,2] sealed; pending is [5,6], prune floor 5
  runner.Ingest(0, Stock(0, 3, "MSFT", 50.0));  // in time (ts >= watermark)
  EXPECT_EQ(runner.late_dropped(OnlineWindowRunner::LateDrop::kBehindLoop),
            1u);
  EXPECT_EQ(runner.late_dropped(OnlineWindowRunner::LateDrop::kBeyondBound),
            0u);
}

TEST(EventTimeWindowTest, EventModeFiresStrictlyPastRightEdge) {
  // Arrival mode fires [l, r] at W == r; event mode must wait for W > r
  // because ts == r tuples may still arrive while W == r.
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0}, 3, 3, 9);
  q.loop.semantics = TimeSemantics::kEvent;
  OnlineWindowRunner runner(q);
  size_t fired = 0;
  auto cb = [&](const WindowResult&) { ++fired; };
  runner.Ingest(0, Stock(0, 1, "MSFT", 50.0));
  runner.Ingest(0, Stock(0, 2, "MSFT", 50.0));
  runner.OnPunctuation(Punctuation{0, 3});
  runner.Poll(cb);
  EXPECT_EQ(fired, 0u);  // W == r == 3: a ts=3 tuple may still arrive
  runner.Ingest(0, Stock(0, 3, "MSFT", 50.0));
  runner.OnPunctuation(Punctuation{0, 4});
  runner.Poll(cb);
  EXPECT_EQ(fired, 1u);  // W == 4 > 3: sealed, with the ts=3 straggler in
}

TEST(EventTimeWindowTest, JoinTimestampIsMaxOfPartsAndWithinWatermark) {
  // Regression pin: a joined result's event time is the max of its
  // constituents' event times, and never exceeds the emitting query's joint
  // watermark at firing time.
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0, 1}, 3, 3, 9);
  q.loop.semantics = TimeSemantics::kEvent;
  q.predicates = {
      MakeCompareAttrs({1, "timestamp"}, CmpOp::kEq, {0, "timestamp"})};
  OnlineWindowRunner runner(q);
  std::vector<WindowResult> fired;
  std::vector<Timestamp> joint_at_fire;
  auto cb = [&](const WindowResult& r) {
    fired.push_back(r);
    joint_at_fire.push_back(runner.watermarks().MinWatermark(q.Sources()));
  };
  for (Timestamp d = 1; d <= 9; ++d) {
    runner.Ingest(0, Stock(0, d, "MSFT", 50.0));
    runner.Ingest(1, Stock(1, d, "MSFT", 60.0));
  }
  runner.OnPunctuation(Punctuation{0, 8});
  runner.OnPunctuation(Punctuation{1, 6});
  runner.Poll(cb);
  ASSERT_FALSE(fired.empty());
  for (size_t i = 0; i < fired.size(); ++i) {
    for (const Tuple& t : fired[i].tuples) {
      // Field 0 is stream 0's timestamp column, field 3 stream 1's.
      Timestamp left = t.values()[0].AsTimestamp();
      Timestamp right = t.values()[3].AsTimestamp();
      EXPECT_EQ(t.timestamp(), std::max(left, right));
      EXPECT_LE(t.timestamp(), joint_at_fire[i]);
    }
  }
  // The slower stream (watermark 6) gates firing: windows ending at 6 and
  // beyond stay open.
  for (const WindowResult& r : fired) EXPECT_LT(r.t, 6);
}

TEST(WatermarkTest, PunctuationDuplicatesAndRegressionsAreRejected) {
  WatermarkTracker wm;
  EXPECT_EQ(wm.OnPunctuation(Punctuation{0, 10}),
            WatermarkTracker::PunctResult::kAdvanced);
  // Shard broadcast delivers the same punctuation once per replica:
  // duplicates are idempotent no-ops.
  EXPECT_EQ(wm.OnPunctuation(Punctuation{0, 10}),
            WatermarkTracker::PunctResult::kDuplicate);
  // A regression would retract the promise already given downstream.
  EXPECT_EQ(wm.OnPunctuation(Punctuation{0, 7}),
            WatermarkTracker::PunctResult::kRegressed);
  EXPECT_EQ(wm.WatermarkOf(0), 10);
  EXPECT_EQ(wm.punctuations_applied(), 1u);
  EXPECT_EQ(wm.punctuations_regressed(), 1u);
  // Ordered() works off punctuation-driven watermarks exactly as off
  // data-driven ones.
  EXPECT_EQ(wm.OnPunctuation(Punctuation{1, 5}),
            WatermarkTracker::PunctResult::kAdvanced);
  EXPECT_TRUE(wm.Ordered(0, 3, 1, 4));
  EXPECT_FALSE(wm.Ordered(0, 8, 1, 4));
}

TEST(ShardMergedWatermarkTest, AdvancesOnlyWhenEveryShardReports) {
  ShardMergedWatermark merged;
  merged.Reset(3);
  // A broadcast punctuation lands on shards one by one; the merge is held
  // back by the unseen replicas until the last one reports.
  EXPECT_FALSE(merged.Observe(0, Punctuation{0, 10}).has_value());
  EXPECT_FALSE(merged.Observe(1, Punctuation{0, 10}).has_value());
  auto adv = merged.Observe(2, Punctuation{0, 10});
  ASSERT_TRUE(adv.has_value());
  EXPECT_EQ(*adv, 10);
  EXPECT_EQ(merged.MergedOf(0), 10);
  // Duplicate delivery (re-broadcast after a retry) is a no-op.
  EXPECT_FALSE(merged.Observe(1, Punctuation{0, 10}).has_value());
  // A regressed report cannot pull the merge back.
  EXPECT_FALSE(merged.Observe(0, Punctuation{0, 4}).has_value());
  EXPECT_EQ(merged.MergedOf(0), 10);
}

TEST(ShardMergedWatermarkTest, MergeIsMinAcrossUnevenShards) {
  ShardMergedWatermark merged;
  merged.Reset(2);
  EXPECT_FALSE(merged.Observe(0, Punctuation{0, 30}).has_value());
  auto adv = merged.Observe(1, Punctuation{0, 25});
  ASSERT_TRUE(adv.has_value());
  EXPECT_EQ(*adv, 25);  // min over {30, 25}
  // The slow shard catching up advances the merge to the new min.
  adv = merged.Observe(1, Punctuation{0, 30});
  ASSERT_TRUE(adv.has_value());
  EXPECT_EQ(*adv, 30);
  // Reset (repartition) is conservative: merged state restarts from scratch.
  merged.Reset(2);
  EXPECT_EQ(merged.MergedOf(0), kMinTimestamp);
}

}  // namespace

// White-box peer for the delta contract (see the friend declaration).
struct WindowRunnerTestPeer {
  static void EmitDelta(OnlineWindowRunner* r,
                        const OnlineWindowRunner::Callback& cb,
                        const std::vector<Tuple>& now, WindowResultKind kind) {
    r->EmitDelta(cb, now, kind);
  }
};

namespace {

TEST(WindowDeltaTest, ShrinkingContentEmitsTaggedRetractions) {
  // SPJ window content only grows, so the retraction branch is pinned here
  // directly: emit {A, A, B} speculatively, then seal with {A} — the delta
  // must retract one A and one B, tagged and revision-ordered.
  WindowedQuery q;
  q.loop = ForLoopSpec::Sliding({0}, 3, 3, 9);
  q.loop.semantics = TimeSemantics::kEvent;
  OnlineWindowRunner::Options sopts;
  sopts.speculate = true;
  OnlineWindowRunner runner(q, sopts);
  Tuple a = Stock(0, 1, "A", 1.0);
  Tuple b = Stock(0, 2, "B", 2.0);
  std::vector<WindowResult> out;
  auto cb = [&](const WindowResult& r) { out.push_back(r); };

  WindowRunnerTestPeer::EmitDelta(&runner, cb, {a, a, b},
                                  WindowResultKind::kSpeculative);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, WindowResultKind::kSpeculative);
  EXPECT_EQ(out[0].tuples.size(), 3u);

  WindowRunnerTestPeer::EmitDelta(&runner, cb, {a}, WindowResultKind::kFinal);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].kind, WindowResultKind::kRetraction);
  ASSERT_EQ(out[1].tuples.size(), 2u);
  for (const Tuple& t : out[1].tuples) {
    EXPECT_TRUE(t.IsRetraction());
  }
  EXPECT_EQ(Multiset(out[1].tuples),
            (std::multiset<std::string>{DataKey(a), DataKey(b)}));
  // The seal is a kFinal delta adding nothing new (content {A} was already
  // emitted), and revisions stay monotone across the three results.
  EXPECT_EQ(out[2].kind, WindowResultKind::kFinal);
  EXPECT_TRUE(out[2].tuples.empty());
  EXPECT_LT(out[0].revision, out[1].revision);
  EXPECT_LT(out[1].revision, out[2].revision);
  EXPECT_EQ(runner.retractions_emitted(), 2u);
  // Accumulation check: emitted - retracted == {A}.
  std::map<std::string, int> acc;
  for (const WindowResult& r : out) {
    int delta = r.kind == WindowResultKind::kRetraction ? -1 : 1;
    for (const Tuple& t : r.tuples) acc[DataKey(t)] += delta;
  }
  std::erase_if(acc, [](const auto& kv) { return kv.second == 0; });
  EXPECT_EQ(acc, (std::map<std::string, int>{{DataKey(a), 1}}));
}

TEST(TupleKindTest, PunctuationAndRetractionRoundTrip) {
  Tuple p = Tuple::MakePunctuation(3, 42);
  EXPECT_TRUE(p.IsPunctuation());
  EXPECT_FALSE(p.IsData());
  Punctuation decoded = p.AsPunctuation();
  EXPECT_EQ(decoded.source, 3u);
  EXPECT_EQ(decoded.low_watermark, 42);
  EXPECT_EQ(p.timestamp(), 42);

  Tuple d = Stock(0, 7, "MSFT", 50.0);
  Tuple r = Tuple::Retraction(d);
  EXPECT_TRUE(r.IsRetraction());
  EXPECT_FALSE(r.IsData());
  EXPECT_EQ(r.timestamp(), d.timestamp());
  EXPECT_EQ(r.values(), d.values());
  EXPECT_NE(r.ToString(), d.ToString());  // visibly tagged
}

// --- Batch admission (DESIGN.md §12) ----------------------------------------

// A columnar batch of `rows` (all of one schema) under `source`.
TupleBatch Columnar(SourceId source, const std::vector<Tuple>& rows) {
  ColumnStore::Ref cols = ColumnStore::FromRows(rows.data(), rows.size());
  EXPECT_NE(cols, nullptr);
  return TupleBatch(source, cols);
}

// Feeds one batch through the chosen ingest path: the columnar batch path,
// the row-form batch path, or one Ingest per tuple plus the lane.
enum class Path { kColumnar, kRowBatch, kPerTuple };

void Feed(OnlineWindowRunner* runner, Path path, SourceId source,
          const std::vector<Tuple>& rows,
          const std::vector<Punctuation>& lane = {}) {
  if (path == Path::kPerTuple) {
    for (const Tuple& t : rows) runner->Ingest(source, t);
    for (const Punctuation& p : lane) runner->OnPunctuation(p);
    return;
  }
  TupleBatch b = path == Path::kColumnar ? Columnar(source, rows)
                                         : TupleBatch(source);
  if (path == Path::kRowBatch) {
    for (const Tuple& t : rows) b.push_back(t);
  }
  ASSERT_EQ(b.columnar_only(), path == Path::kColumnar);
  for (const Punctuation& p : lane) b.AddPunctuation(p);
  runner->IngestBatch(source, b);
}

const Path kPaths[] = {Path::kColumnar, Path::kRowBatch, Path::kPerTuple};

// MSFT rows under one schema object (a columnar batch needs one).
std::vector<Tuple> Stocks(
    SourceId source, const std::vector<std::pair<Timestamp, double>>& rows) {
  SchemaRef schema = StockSchema(source);
  std::vector<Tuple> out;
  for (const auto& [ts, price] : rows) {
    out.push_back(Tuple::Make(schema,
                              {Value::TimestampVal(ts), Value::String("MSFT"),
                               Value::Double(price)},
                              ts));
  }
  return out;
}

std::vector<Tuple> CheapAndDear(SourceId source, Timestamp from,
                                Timestamp to) {
  // Even days are dear (price 150), odd days cheap (price 10).
  std::vector<std::pair<Timestamp, double>> rows;
  for (Timestamp d = from; d <= to; ++d) {
    rows.push_back({d, d % 2 == 0 ? 150.0 : 10.0});
  }
  return Stocks(source, rows);
}

PredicateRef DearOnly() {
  return MakeCompareConst({0, "closingPrice"}, CmpOp::kGt, Value::Double(100));
}

TEST(WindowAdmissionTest, ArrivalRejectedRowStillFiresWindows) {
  // kArrival: a row the filter rejects still advances its stream's
  // watermark, so it alone can complete a window.
  for (Path path : kPaths) {
    WindowedQuery q;
    q.loop = ForLoopSpec::Sliding({0}, 3, 3, 9);
    q.predicates = {DearOnly()};
    OnlineWindowRunner runner(q);
    std::vector<WindowResult> fired;
    auto cb = [&](const WindowResult& r) { fired.push_back(r); };
    Feed(&runner, path, 0, CheapAndDear(0, 1, 3));
    runner.Poll(cb);
    EXPECT_TRUE(fired.empty());  // W == 3: the window ending at 3 waits
    Feed(&runner, path, 0, {Stock(0, 5, "MSFT", 10.0)});  // rejected
    runner.Poll(cb);
    ASSERT_EQ(fired.size(), 2u);  // windows ending at 3 and 4
    EXPECT_EQ(fired[0].t, 3);
    ASSERT_EQ(fired[0].tuples.size(), 1u);  // day 2 is the only dear day
    EXPECT_EQ(fired[0].tuples[0].timestamp(), 2);
    EXPECT_EQ(fired[1].t, 4);
    EXPECT_EQ(runner.watermarks().WatermarkOf(0), 5);
  }
}

TEST(WindowAdmissionTest, EventRejectedLateRowsStillCount) {
  // kEvent: lateness is decided on the timestamp lane before admission, so
  // rows the filter rejects count under both late reasons exactly as
  // admitted rows do.
  for (Path path : kPaths) {
    WindowedQuery q;
    q.loop = ForLoopSpec::Sliding({0}, 2, 2, 100, 4);  // [1,2], [5,6], ...
    q.loop.semantics = TimeSemantics::kEvent;
    q.predicates = {DearOnly()};
    OnlineWindowRunner runner(q);
    size_t fired = 0;
    Feed(&runner, path, 0, CheapAndDear(0, 1, 2), {Punctuation{0, 3}});
    runner.Poll([&](const WindowResult&) { ++fired; });
    EXPECT_EQ(fired, 1u);  // [1,2] sealed; prune floor 5
    // ts 1 and 2 are below the watermark (3), ts 3 and 4 below the prune
    // floor; day 1 and 3 are cheap, days 2 and 4 dear.
    Feed(&runner, path, 0,
         Stocks(0, {{1, 10.0}, {2, 150.0}, {3, 10.0}, {4, 150.0}}));
    using LateDrop = OnlineWindowRunner::LateDrop;
    EXPECT_EQ(runner.late_dropped(LateDrop::kBeyondBound), 2u);
    EXPECT_EQ(runner.late_dropped(LateDrop::kBehindLoop), 2u);
    EXPECT_EQ(runner.buffered_tuples(), 0u);
  }
}

TEST(WindowAdmissionTest, BufferedTuplesCountsAdmittedRowsOnly) {
  for (Path path : kPaths) {
    for (TimeSemantics sem : {TimeSemantics::kArrival, TimeSemantics::kEvent}) {
      WindowedQuery q;
      q.loop = ForLoopSpec::Landmark(0, 1, 1, 100000);
      q.loop.semantics = sem;
      q.predicates = {DearOnly()};
      OnlineWindowRunner runner(q);
      Feed(&runner, path, 0, CheapAndDear(0, 1, 10));
      EXPECT_EQ(runner.buffered_tuples(), 5u);  // the dear even days
    }
  }
}

// --- Equivalence grid: IngestBatch vs Ingest vs RunOverHistory ---------------

SchemaRef GridSchema(SourceId source) {
  return Schema::Make({{"k", ValueType::kInt64, source},
                       {"i", ValueType::kInt64, source},
                       {"d", ValueType::kDouble, source},
                       {"big", ValueType::kInt64, source},
                       {"at", ValueType::kTimestamp, source},
                       {"name", ValueType::kString, source}});
}

constexpr int64_t kTwo53 = int64_t{1} << 53;

// Values of one grid row: sparse nulls and NaNs, so some 8-row batches
// reach the vectorized kernels and others take the exact per-cell path.
std::vector<Value> GridValues(Rng* rng, Timestamp ts) {
  auto maybe_null = [&](Value v) {
    return rng->Bernoulli(1.0 / 24) ? Value::Null() : std::move(v);
  };
  Value d = Value::Double(static_cast<double>(rng->UniformInt(0, 80)) / 10);
  if (rng->Bernoulli(1.0 / 24)) {
    d = Value::Double(std::numeric_limits<double>::quiet_NaN());
  }
  static const char* kNames[] = {"a", "b", "c"};
  return {Value::Int64(rng->UniformInt(0, 3)),
          maybe_null(Value::Int64(rng->UniformInt(0, 40))),
          maybe_null(std::move(d)),
          Value::Int64(kTwo53 + rng->UniformInt(-3, 3)),
          Value::TimestampVal(ts + rng->UniformInt(-4, 4)),
          maybe_null(Value::String(kNames[rng->UniformInt(0, 2)]))};
}

struct GridCase {
  std::string name;
  std::vector<SourceId> sources;  // two sources: a self-join of one stream
  std::vector<PredicateRef> predicates;
};

std::vector<GridCase> GridCases() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto c = [](SourceId s, const char* attr, CmpOp op, Value v) {
    return MakeCompareConst({s, attr}, op, std::move(v));
  };
  return {
      {"int64_and_double_lanes",
       {0},
       {c(0, "i", CmpOp::kLt, Value::Int64(30)),
        c(0, "d", CmpOp::kGe, Value::Double(2.5))}},
      {"double_literal_on_int64_lane",
       {0},
       {c(0, "i", CmpOp::kLe, Value::Double(20.5)),
        c(0, "i", CmpOp::kNe, Value::Int64(7))}},
      {"beyond_2_pow_53",
       {0},
       {c(0, "big", CmpOp::kEq, Value::Double(static_cast<double>(kTwo53))),
        c(0, "i", CmpOp::kGe, Value::Int64(5))}},
      {"beyond_2_pow_53_bounds",
       {0},
       {c(0, "big", CmpOp::kGt, Value::Int64(kTwo53 - 2)),
        c(0, "big", CmpOp::kLt,
          Value::Double(static_cast<double>(kTwo53 + 2)))}},
      {"nan_literal",
       {0},
       {c(0, "d", CmpOp::kEq, Value::Double(nan)),
        c(0, "i", CmpOp::kLt, Value::Int64(35))}},
      {"timestamp_and_string_columns",
       {0},
       {c(0, "at", CmpOp::kGe, Value::TimestampVal(20)),
        c(0, "at", CmpOp::kLt, Value::Int64(50)),
        c(0, "name", CmpOp::kNe, Value::String("b"))}},
      {"or_not_and_same_source_attrs",
       {0},
       {MakeOr({c(0, "i", CmpOp::kLt, Value::Int64(10)),
                c(0, "name", CmpOp::kEq, Value::String("c"))}),
        MakeNot(c(0, "d", CmpOp::kGt, Value::Double(5.0))),
        MakeCompareAttrs({0, "i"}, CmpOp::kGt, {0, "k"})}},
      {"self_join_filters_on_both_aliases",
       {0, 1},
       {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"}),
        c(0, "i", CmpOp::kLt, Value::Int64(25)),
        c(1, "d", CmpOp::kGe, Value::Double(1.0)),
        c(1, "name", CmpOp::kNe, Value::String("a"))}},
  };
}

// Every window rendered in order, kind and revision included.
std::vector<std::string> Render(const std::vector<WindowResult>& results) {
  std::vector<std::string> out;
  for (const WindowResult& r : results) {
    std::string line = std::to_string(r.t) + "/" +
                       std::to_string(static_cast<int>(r.kind)) + "/" +
                       std::to_string(r.revision) + ":";
    for (const Tuple& t : r.tuples) line += " [" + Ordered(t) + "]";
    out.push_back(std::move(line));
  }
  return out;
}

struct GridRun {
  std::vector<WindowResult> fired;
  uint64_t late = 0;  // both reasons
};

// One online run: 8-row batches in timestamp order, each aliased source fed
// the same rows under its own schema; kEvent batches also carry one late row
// each (after the first) and a punctuation at the newest timestamp.
GridRun RunGrid(const WindowedQuery& q, bool speculate, Path path,
                const std::vector<std::vector<Value>>& values,
                const std::vector<Timestamp>& stamps) {
  OnlineWindowRunner::Options opts;
  opts.speculate = speculate;
  OnlineWindowRunner runner(q, opts);
  GridRun run;
  auto cb = [&](const WindowResult& r) { run.fired.push_back(r); };
  const bool event = q.loop.semantics == TimeSemantics::kEvent;
  std::vector<SourceId> sources;
  for (const WindowIs& w : q.loop.windows) sources.push_back(w.source);
  Timestamp watermark = kMinTimestamp;
  for (size_t b = 0; b < values.size(); b += 8) {
    const size_t end = std::min(values.size(), b + 8);
    for (SourceId s : sources) {
      SchemaRef schema = GridSchema(s);
      std::vector<Tuple> rows;
      for (size_t i = b; i < end; ++i) {
        rows.push_back(Tuple::Make(schema, values[i], stamps[i]));
      }
      if (event && watermark != kMinTimestamp) {
        rows.insert(rows.begin() + 3,
                    Tuple::Make(schema, values[b], watermark - 1));
      }
      std::vector<Punctuation> lane;
      if (event) lane.push_back(Punctuation{s, stamps[end - 1]});
      Feed(&runner, path, s, rows, lane);
    }
    if (event) watermark = stamps[end - 1];
    runner.Poll(cb);
  }
  for (SourceId s : sources) {
    if (event) {
      runner.OnPunctuation(Punctuation{s, kMaxTimestamp});
    } else {
      runner.AdvanceWatermark(s, kMaxTimestamp);
    }
  }
  runner.Poll(cb);
  EXPECT_TRUE(runner.Done());
  using LateDrop = OnlineWindowRunner::LateDrop;
  run.late = runner.late_dropped(LateDrop::kBeyondBound) +
             runner.late_dropped(LateDrop::kBehindLoop);
  return run;
}

TEST(WindowAdmissionTest, BatchTupleAndOfflineResultsAreIdentical) {
  for (const GridCase& gc : GridCases()) {
    Rng rng(std::hash<std::string>{}(gc.name));
    std::vector<std::vector<Value>> values;
    std::vector<Timestamp> stamps;
    for (Timestamp ts = 1; ts <= 60; ++ts) {
      for (int64_t j = rng.UniformInt(1, 5); j > 0; --j) {
        values.push_back(GridValues(&rng, ts));
        stamps.push_back(ts);
      }
    }
    std::map<SourceId, StreamHistory> history;
    for (SourceId s : gc.sources) {
      for (size_t i = 0; i < values.size(); ++i) {
        history[s].Append(Tuple::Make(GridSchema(s), values[i], stamps[i]));
      }
    }
    for (TimeSemantics sem : {TimeSemantics::kArrival, TimeSemantics::kEvent}) {
      for (bool speculate : {false, true}) {
        if (speculate && sem == TimeSemantics::kArrival) continue;
        SCOPED_TRACE(gc.name + (sem == TimeSemantics::kEvent ? " event"
                                                             : " arrival") +
                     (speculate ? " speculative" : ""));
        WindowedQuery q;
        q.loop = ForLoopSpec::Sliding(gc.sources, 6, 6, 60, 3);
        q.loop.semantics = sem;
        q.predicates = gc.predicates;
        const std::vector<WindowResult> reference = RunOverHistory(q, history);
        size_t nonempty = 0;
        for (const WindowResult& r : reference) nonempty += !r.tuples.empty();
        EXPECT_GT(nonempty, 0u);  // the filters must leave something

        GridRun columnar =
            RunGrid(q, speculate, Path::kColumnar, values, stamps);
        for (Path path : {Path::kRowBatch, Path::kPerTuple}) {
          GridRun rows = RunGrid(q, speculate, path, values, stamps);
          EXPECT_EQ(Render(columnar.fired), Render(rows.fired));
          EXPECT_EQ(columnar.late, rows.late);
        }
        // One late row per source per batch after the first.
        const uint64_t batches = (values.size() + 7) / 8;
        EXPECT_EQ(columnar.late, sem == TimeSemantics::kEvent
                                     ? (batches - 1) * gc.sources.size()
                                     : 0u);
        if (!speculate) {
          EXPECT_EQ(Render(columnar.fired), Render(reference));
          continue;
        }
        // Speculation: per window, additions minus retractions accumulate
        // to the reference content.
        std::map<Timestamp, std::map<std::string, int>> acc;
        for (const WindowResult& r : columnar.fired) {
          int delta = r.kind == WindowResultKind::kRetraction ? -1 : 1;
          for (const Tuple& t : r.tuples) acc[r.t][DataKey(t)] += delta;
        }
        for (const WindowResult& ref : reference) {
          std::map<std::string, int> want;
          for (const Tuple& t : ref.tuples) ++want[DataKey(t)];
          std::erase_if(acc[ref.t],
                        [](const auto& kv) { return kv.second == 0; });
          EXPECT_EQ(acc[ref.t], want) << "window t=" << ref.t;
        }
      }
    }
  }
}

TEST(WindowAdmissionTest, LaneAdmissionMatchesPredicateEval) {
  // The history holds exactly the rows every predicate a lone row covers
  // accepts under Predicate::Eval: a never-firing loop keeps them all.
  for (const GridCase& gc : GridCases()) {
    SCOPED_TRACE(gc.name);
    Rng rng(std::hash<std::string>{}(gc.name) + 1);
    WindowedQuery q;
    q.loop = ForLoopSpec::Landmark(gc.sources.front(), 1, 1000, 2000);
    for (const SourceId s : gc.sources) {
      if (s != gc.sources.front()) {
        q.loop.windows.push_back({s, WindowBound::Constant(1),
                                  WindowBound::AtT()});
      }
    }
    q.predicates = gc.predicates;
    OnlineWindowRunner columnar(q), per_tuple(q);
    size_t want = 0;
    for (Timestamp ts = 1; ts <= 400; ts += 8) {
      for (SourceId s : gc.sources) {
        SchemaRef schema = GridSchema(s);
        std::vector<Tuple> rows;
        for (Timestamp j = 0; j < 8; ++j) {
          rows.push_back(
              Tuple::Make(schema, GridValues(&rng, ts + j), ts + j));
          bool admitted = true;
          for (const PredicateRef& p : gc.predicates) {
            if (p->CanEval(rows.back()) && !p->Eval(rows.back())) {
              admitted = false;
            }
          }
          want += admitted;
        }
        Feed(&columnar, Path::kColumnar, s, rows);
        Feed(&per_tuple, Path::kPerTuple, s, rows);
      }
    }
    EXPECT_EQ(columnar.buffered_tuples(), want);
    EXPECT_EQ(per_tuple.buffered_tuples(), want);
    EXPECT_LT(want, 400 * gc.sources.size());  // something was rejected
    EXPECT_GT(want, 0u);
  }
}

}  // namespace
}  // namespace tcq
