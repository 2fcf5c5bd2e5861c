// Tests for the remaining query modules: grouped filters (shared predicate
// indexes), windowed aggregation, duplicate elimination, and juggle.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "operators/aggregate.h"
#include "operators/dup_elim.h"
#include "operators/grouped_filter.h"
#include "operators/juggle.h"

namespace tcq {
namespace {

SchemaRef Sch() {
  return Schema::Make({
      {"k", ValueType::kInt64, 0},
      {"v", ValueType::kInt64, 0},
  });
}

Tuple Row(int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make(Sch(), {Value::Int64(k), Value::Int64(v)}, ts);
}

// --- GroupedFilter ----------------------------------------------------------

std::vector<QueryId> Matches(const GroupedFilter& gf, int64_t v) {
  QuerySet out;
  gf.Match(Value::Int64(v), &out);
  return out.ToVector();
}

TEST(GroupedFilterTest, EqualityFactors) {
  GroupedFilter gf({0, "k"});
  gf.AddFactor(1, CmpOp::kEq, Value::Int64(10));
  gf.AddFactor(2, CmpOp::kEq, Value::Int64(10));
  gf.AddFactor(3, CmpOp::kEq, Value::Int64(20));
  EXPECT_EQ(Matches(gf, 10), (std::vector<QueryId>{1, 2}));
  EXPECT_EQ(Matches(gf, 20), (std::vector<QueryId>{3}));
  EXPECT_TRUE(Matches(gf, 30).empty());
}

TEST(GroupedFilterTest, InequalityFactors) {
  GroupedFilter gf({0, "k"});
  gf.AddFactor(1, CmpOp::kNe, Value::Int64(5));
  EXPECT_EQ(Matches(gf, 4), (std::vector<QueryId>{1}));
  EXPECT_TRUE(Matches(gf, 5).empty());
}

TEST(GroupedFilterTest, LowerBounds) {
  GroupedFilter gf({0, "k"});
  gf.AddFactor(1, CmpOp::kGt, Value::Int64(10));
  gf.AddFactor(2, CmpOp::kGe, Value::Int64(10));
  gf.AddFactor(3, CmpOp::kGt, Value::Int64(50));
  EXPECT_TRUE(Matches(gf, 9).empty());
  EXPECT_EQ(Matches(gf, 10), (std::vector<QueryId>{2}));  // only >= matches
  EXPECT_EQ(Matches(gf, 11), (std::vector<QueryId>{1, 2}));
  EXPECT_EQ(Matches(gf, 51), (std::vector<QueryId>{1, 2, 3}));
}

TEST(GroupedFilterTest, UpperBounds) {
  GroupedFilter gf({0, "k"});
  gf.AddFactor(1, CmpOp::kLt, Value::Int64(10));
  gf.AddFactor(2, CmpOp::kLe, Value::Int64(10));
  EXPECT_EQ(Matches(gf, 9), (std::vector<QueryId>{1, 2}));
  EXPECT_EQ(Matches(gf, 10), (std::vector<QueryId>{2}));
  EXPECT_TRUE(Matches(gf, 11).empty());
}

TEST(GroupedFilterTest, RangeNeedsBothFactors) {
  // Query 1 wants k in [10, 20]: two factors, both must match.
  GroupedFilter gf({0, "k"});
  gf.AddFactor(1, CmpOp::kGe, Value::Int64(10));
  gf.AddFactor(1, CmpOp::kLe, Value::Int64(20));
  EXPECT_TRUE(Matches(gf, 9).empty());
  EXPECT_EQ(Matches(gf, 10), (std::vector<QueryId>{1}));
  EXPECT_EQ(Matches(gf, 20), (std::vector<QueryId>{1}));
  EXPECT_TRUE(Matches(gf, 21).empty());
}

TEST(GroupedFilterTest, RemoveQueryExcludesImmediately) {
  GroupedFilter gf({0, "k"});
  gf.AddFactor(1, CmpOp::kEq, Value::Int64(10));
  gf.AddFactor(2, CmpOp::kEq, Value::Int64(10));
  gf.RemoveQuery(1);
  EXPECT_EQ(Matches(gf, 10), (std::vector<QueryId>{2}));
  EXPECT_FALSE(gf.interested().Contains(1));
}

TEST(GroupedFilterTest, CompactReclaimsAndPreservesMatches) {
  GroupedFilter gf({0, "k"});
  for (QueryId q = 0; q < 10; ++q) {
    gf.AddFactor(q, CmpOp::kGt, Value::Int64(static_cast<int64_t>(q)));
  }
  for (QueryId q = 0; q < 10; q += 2) gf.RemoveQuery(q);
  gf.Compact();
  EXPECT_EQ(Matches(gf, 100), (std::vector<QueryId>{1, 3, 5, 7, 9}));
  EXPECT_EQ(gf.num_factors(), 5u);
}

TEST(GroupedFilterTest, ReAddAfterRemove) {
  GroupedFilter gf({0, "k"});
  gf.AddFactor(1, CmpOp::kEq, Value::Int64(10));
  gf.RemoveQuery(1);
  gf.AddFactor(1, CmpOp::kEq, Value::Int64(20));
  EXPECT_TRUE(Matches(gf, 10).empty());
  EXPECT_EQ(Matches(gf, 20), (std::vector<QueryId>{1}));
}

TEST(GroupedFilterTest, MatchesAgainstBruteForce) {
  // Property: grouped-filter answers equal per-query predicate evaluation.
  Rng rng(77);
  GroupedFilter gf({0, "k"});
  struct QueryPreds {
    std::vector<std::pair<CmpOp, int64_t>> factors;
  };
  std::vector<QueryPreds> queries(64);
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  for (QueryId q = 0; q < queries.size(); ++q) {
    size_t nf = static_cast<size_t>(rng.UniformInt(1, 3));
    for (size_t f = 0; f < nf; ++f) {
      CmpOp op = ops[rng.UniformInt(0, 5)];
      int64_t lit = rng.UniformInt(0, 50);
      queries[q].factors.emplace_back(op, lit);
      gf.AddFactor(q, op, Value::Int64(lit));
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    int64_t v = rng.UniformInt(0, 50);
    QuerySet got;
    gf.Match(Value::Int64(v), &got);
    for (QueryId q = 0; q < queries.size(); ++q) {
      bool expect = true;
      for (auto [op, lit] : queries[q].factors) {
        if (!EvalCmp(Value::Int64(v), op, Value::Int64(lit))) {
          expect = false;
          break;
        }
      }
      EXPECT_EQ(got.Contains(q), expect) << "v=" << v << " q=" << q;
    }
  }
}

// --- Aggregators ------------------------------------------------------------

TEST(AggregateTest, LandmarkAllFunctions) {
  auto feed = [](AggFn fn) {
    LandmarkAggregator agg(fn);
    for (int64_t v : {5, 1, 9, 3}) agg.Add(Value::Int64(v), v);
    return agg.Result();
  };
  EXPECT_EQ(feed(AggFn::kCount).AsInt64(), 4);
  EXPECT_DOUBLE_EQ(feed(AggFn::kSum).AsDouble(), 18.0);
  EXPECT_DOUBLE_EQ(feed(AggFn::kAvg).AsDouble(), 4.5);
  EXPECT_EQ(feed(AggFn::kMin).AsInt64(), 1);
  EXPECT_EQ(feed(AggFn::kMax).AsInt64(), 9);
}

TEST(AggregateTest, EmptyAggregates) {
  LandmarkAggregator count(AggFn::kCount);
  EXPECT_EQ(count.Result().AsInt64(), 0);
  LandmarkAggregator max(AggFn::kMax);
  EXPECT_TRUE(max.Result().is_null());
  SlidingAggregator ssum(AggFn::kSum, 10);
  EXPECT_TRUE(ssum.Result().is_null());
}

TEST(AggregateTest, LandmarkStateIsConstant) {
  LandmarkAggregator agg(AggFn::kMax);
  size_t before = agg.StateBytes();
  for (int i = 0; i < 10000; ++i) agg.Add(Value::Int64(i), i);
  EXPECT_EQ(agg.StateBytes(), before);  // the paper's O(1) landmark claim
}

TEST(AggregateTest, SlidingMaxTracksWindow) {
  SlidingAggregator agg(AggFn::kMax, 10);
  agg.Add(Value::Int64(100), 1);  // max now, expires at t=11
  agg.Add(Value::Int64(5), 8);
  EXPECT_DOUBLE_EQ(agg.Result().AsDouble(), 100.0);
  agg.AdvanceTime(12);  // 100 expired
  EXPECT_DOUBLE_EQ(agg.Result().AsDouble(), 5.0);
  agg.AdvanceTime(19);  // 5 expired too
  EXPECT_TRUE(agg.Result().is_null());
}

TEST(AggregateTest, SlidingSumAndCount) {
  SlidingAggregator sum(AggFn::kSum, 5);
  SlidingAggregator cnt(AggFn::kCount, 5);
  for (Timestamp t = 1; t <= 10; ++t) {
    sum.Add(Value::Int64(t), t);
    cnt.Add(Value::Int64(t), t);
    sum.AdvanceTime(t);
    cnt.AdvanceTime(t);
  }
  // Window (5, 10]: values 6..10.
  EXPECT_DOUBLE_EQ(sum.Result().AsDouble(), 40.0);
  EXPECT_EQ(cnt.Result().AsInt64(), 5);
}

TEST(AggregateTest, SlidingMatchesBruteForce) {
  Rng rng(3);
  SlidingAggregator agg(AggFn::kMax, 20);
  std::vector<std::pair<Timestamp, int64_t>> history;
  for (Timestamp t = 1; t <= 500; ++t) {
    int64_t v = rng.UniformInt(0, 1000);
    history.emplace_back(t, v);
    agg.Add(Value::Int64(v), t);
    agg.AdvanceTime(t);
    int64_t expect = -1;
    for (auto [ts, hv] : history) {
      if (ts > t - 20) expect = std::max(expect, hv);
    }
    EXPECT_DOUBLE_EQ(agg.Result().AsDouble(), static_cast<double>(expect));
  }
}

TEST(AggregateTest, SlidingStateGrowsWithWindow) {
  SlidingAggregator narrow(AggFn::kMax, 10);
  SlidingAggregator wide(AggFn::kMax, 1000);
  Rng rng(5);
  for (Timestamp t = 1; t <= 2000; ++t) {
    Value v = Value::Int64(rng.UniformInt(0, 1000000));
    narrow.Add(v, t);
    wide.Add(v, t);
    narrow.AdvanceTime(t);
    wide.AdvanceTime(t);
  }
  EXPECT_GT(wide.StateBytes(), narrow.StateBytes() * 10);
}

TEST(AggregateTest, GroupedAggregatePerGroup) {
  GroupedAggregate agg({AggFn::kSum, {0, "v"}, AttrRef{0, "k"}, 0});
  agg.Consume(Row(1, 10, 1));
  agg.Consume(Row(1, 20, 2));
  agg.Consume(Row(2, 5, 3));
  EXPECT_DOUBLE_EQ(agg.ResultFor(Value::Int64(1)).AsDouble(), 30.0);
  EXPECT_DOUBLE_EQ(agg.ResultFor(Value::Int64(2)).AsDouble(), 5.0);
  EXPECT_TRUE(agg.ResultFor(Value::Int64(3)).is_null());
  EXPECT_EQ(agg.num_groups(), 2u);

  auto snap = agg.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first.AsInt64(), 1);
  EXPECT_DOUBLE_EQ(snap[0].second.AsDouble(), 30.0);
}

TEST(AggregateTest, GroupedGlobalWindowed) {
  GroupedAggregate agg({AggFn::kCount, {0, "v"}, std::nullopt, 10});
  agg.Consume(Row(1, 1, 1));
  agg.Consume(Row(1, 1, 5));
  agg.Consume(Row(1, 1, 14));
  agg.AdvanceTime(14);  // t=1 and t=5 expire (cutoff 4 -> only t=1)
  EXPECT_EQ(agg.GlobalResult().AsInt64(), 2);  // t=5, t=14 in (4, 14]
}

// --- DupElim ----------------------------------------------------------------

TEST(DupElimTest, DropsExactDuplicates) {
  DupElim de({});
  Tuple a = Row(1, 2, 1);
  Tuple b = Row(1, 2, 2);  // same values, later timestamp
  EXPECT_TRUE(de.Admit(a));
  EXPECT_FALSE(de.Admit(a));
  EXPECT_TRUE(de.Admit(b));  // ts differs
}

TEST(DupElimTest, KeyAttrsRestrictIdentity) {
  DupElim de({.key_attrs = {{0, "k"}}});
  EXPECT_TRUE(de.Admit(Row(1, 2, 1)));
  EXPECT_FALSE(de.Admit(Row(1, 99, 2)));
  EXPECT_TRUE(de.Admit(Row(2, 2, 3)));
  EXPECT_EQ(de.distinct_seen(), 2u);
}

TEST(DupElimTest, WindowForgetsOldKeys) {
  DupElim de({.key_attrs = {{0, "k"}}, .window = 10});
  EXPECT_TRUE(de.Admit(Row(1, 0, 1)));
  de.AdvanceTime(20);
  EXPECT_TRUE(de.Admit(Row(1, 0, 21)));
}

// --- Juggle -----------------------------------------------------------------

TEST(JuggleTest, DeliversHighestPriorityFirst) {
  Juggle juggle([](const Tuple& t) { return t.Get("v").ToDouble(); },
                {.capacity = 16});
  juggle.Push(Row(1, 5, 1));
  juggle.Push(Row(2, 50, 2));
  juggle.Push(Row(3, 20, 3));
  EXPECT_EQ(juggle.Pop().Get("v").AsInt64(), 50);
  EXPECT_EQ(juggle.Pop().Get("v").AsInt64(), 20);
  EXPECT_EQ(juggle.Pop().Get("v").AsInt64(), 5);
  EXPECT_FALSE(juggle.HasNext());
}

TEST(JuggleTest, FifoAmongEqualPriorities) {
  Juggle juggle([](const Tuple&) { return 1.0; }, {.capacity = 16});
  juggle.Push(Row(1, 0, 1));
  juggle.Push(Row(2, 0, 2));
  EXPECT_EQ(juggle.Pop().Get("k").AsInt64(), 1);
  EXPECT_EQ(juggle.Pop().Get("k").AsInt64(), 2);
}

TEST(JuggleTest, OverflowSpillsLowPriorityAndNothingIsLost) {
  Juggle juggle([](const Tuple& t) { return t.Get("v").ToDouble(); },
                {.capacity = 8});
  for (int64_t i = 0; i < 40; ++i) juggle.Push(Row(i, i, i));
  EXPECT_GT(juggle.spooled(), 0u);
  std::vector<int64_t> seen;
  while (juggle.HasNext()) seen.push_back(juggle.Pop().Get("v").AsInt64());
  EXPECT_EQ(seen.size(), 40u);
  std::sort(seen.begin(), seen.end());
  for (int64_t i = 0; i < 40; ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace tcq
