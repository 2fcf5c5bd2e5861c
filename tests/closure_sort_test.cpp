// Tests for the remaining Fig.-1 query modules: Sort (windowed sort +
// streaming top-K) and TransitiveClosure (incremental reachability),
// including closure-vs-brute-force property checks.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "operators/sort.h"
#include "operators/transitive_closure.h"

namespace tcq {
namespace {

SchemaRef Sch(SourceId source = 0) {
  return Schema::Make({
      {"k", ValueType::kInt64, source},
      {"v", ValueType::kInt64, source},
  });
}

Tuple Row(int64_t k, int64_t v, Timestamp ts = 0) {
  return Tuple::Make(Sch(), {Value::Int64(k), Value::Int64(v)}, ts);
}

// --- Sort -----------------------------------------------------------------

TEST(SortTest, SortsAscendingAndDescending) {
  std::vector<Tuple> tuples = {Row(3, 0), Row(1, 1), Row(2, 2)};
  SortTuplesBy(&tuples, {0, "k"});
  EXPECT_EQ(tuples[0].Get("k").AsInt64(), 1);
  EXPECT_EQ(tuples[2].Get("k").AsInt64(), 3);
  SortTuplesBy(&tuples, {0, "k"}, /*ascending=*/false);
  EXPECT_EQ(tuples[0].Get("k").AsInt64(), 3);
}

TEST(SortTest, StableOnTies) {
  std::vector<Tuple> tuples = {Row(1, 10), Row(1, 20), Row(0, 30)};
  SortTuplesBy(&tuples, {0, "k"});
  EXPECT_EQ(tuples[0].Get("v").AsInt64(), 30);
  EXPECT_EQ(tuples[1].Get("v").AsInt64(), 10);  // original order kept
  EXPECT_EQ(tuples[2].Get("v").AsInt64(), 20);
}

TEST(TopKTest, KeepsKLargest) {
  TopK topk(3, {0, "k"});
  for (int64_t k : {5, 1, 9, 7, 3, 8}) topk.Add(Row(k, 0));
  auto snap = topk.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].Get("k").AsInt64(), 9);
  EXPECT_EQ(snap[1].Get("k").AsInt64(), 8);
  EXPECT_EQ(snap[2].Get("k").AsInt64(), 7);
}

TEST(TopKTest, KeepsKSmallest) {
  TopK topk(2, {0, "k"}, /*largest=*/false);
  for (int64_t k : {5, 1, 9, 7, 3}) topk.Add(Row(k, 0));
  auto snap = topk.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].Get("k").AsInt64(), 1);
  EXPECT_EQ(snap[1].Get("k").AsInt64(), 3);
}

TEST(TopKTest, FewerThanKElements) {
  TopK topk(10, {0, "k"});
  topk.Add(Row(2, 0));
  topk.Add(Row(1, 0));
  auto snap = topk.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].Get("k").AsInt64(), 2);
}

TEST(TopKTest, MatchesFullSortProperty) {
  Rng rng(3);
  TopK topk(16, {0, "k"});
  std::vector<Tuple> all;
  for (int i = 0; i < 2000; ++i) {
    Tuple t = Row(rng.UniformInt(0, 1000000), i);
    topk.Add(t);
    all.push_back(t);
  }
  SortTuplesBy(&all, {0, "k"}, /*ascending=*/false);
  auto snap = topk.Snapshot();
  ASSERT_EQ(snap.size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(snap[i].Get("k").AsInt64(), all[i].Get("k").AsInt64())
        << "rank " << i;
  }
}

// --- TransitiveClosure -------------------------------------------------------

TEST(TransitiveClosureTest, ChainDerivesAllPairs) {
  TransitiveClosure tc;
  auto d1 = tc.AddEdge(1, 2);
  EXPECT_EQ(d1.size(), 1u);  // (1,2)
  auto d2 = tc.AddEdge(2, 3);
  // New: (2,3) and (1,3).
  EXPECT_EQ(d2.size(), 2u);
  EXPECT_TRUE(tc.Reaches(1, 3));
  auto d3 = tc.AddEdge(3, 4);
  // New: (3,4), (2,4), (1,4).
  EXPECT_EQ(d3.size(), 3u);
  EXPECT_EQ(tc.closure_size(), 6u);  // all pairs of the 4-chain
}

TEST(TransitiveClosureTest, DuplicateAndRedundantEdges) {
  TransitiveClosure tc;
  tc.AddEdge(1, 2);
  tc.AddEdge(2, 3);
  EXPECT_TRUE(tc.AddEdge(1, 2).empty());  // duplicate
  EXPECT_TRUE(tc.AddEdge(1, 3).empty());  // already derived
}

TEST(TransitiveClosureTest, JoiningTwoComponents) {
  TransitiveClosure tc;
  tc.AddEdge(1, 2);   // component A
  tc.AddEdge(10, 11); // component B
  auto fresh = tc.AddEdge(2, 10);  // bridge
  // New: (2,10),(2,11),(1,10),(1,11).
  EXPECT_EQ(fresh.size(), 4u);
  EXPECT_TRUE(tc.Reaches(1, 11));
  EXPECT_FALSE(tc.Reaches(11, 1));
}

TEST(TransitiveClosureTest, CyclesAreHandled) {
  TransitiveClosure tc;
  tc.AddEdge(1, 2);
  tc.AddEdge(2, 3);
  auto fresh = tc.AddEdge(3, 1);  // closes a cycle
  // Everyone reaches everyone else (irreflexive): new pairs are
  // (3,1),(3,2),(2,1) — (x,x) pairs are excluded.
  EXPECT_EQ(fresh.size(), 3u);
  EXPECT_TRUE(tc.Reaches(3, 2));
  EXPECT_FALSE(tc.Reaches(1, 1));
  EXPECT_EQ(tc.closure_size(), 6u);
}

// Brute-force reachability via Floyd-Warshall for the property check.
std::set<std::pair<int64_t, int64_t>> BruteClosure(
    const std::vector<std::pair<int64_t, int64_t>>& edges) {
  std::set<int64_t> nodes;
  std::set<std::pair<int64_t, int64_t>> reach(edges.begin(), edges.end());
  for (auto [a, b] : edges) {
    nodes.insert(a);
    nodes.insert(b);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int64_t k : nodes) {
      for (int64_t i : nodes) {
        if (!reach.contains({i, k})) continue;
        for (int64_t j : nodes) {
          if (reach.contains({k, j}) && i != j &&
              reach.insert({i, j}).second) {
            changed = true;
          }
        }
      }
    }
  }
  std::erase_if(reach, [](const auto& p) { return p.first == p.second; });
  return reach;
}

TEST(TransitiveClosureTest, MatchesBruteForceProperty) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    TransitiveClosure tc;
    std::vector<std::pair<int64_t, int64_t>> edges;
    std::set<std::pair<int64_t, int64_t>> incremental;
    for (int e = 0; e < 25; ++e) {
      int64_t a = rng.UniformInt(0, 9), b = rng.UniformInt(0, 9);
      if (a == b) continue;
      edges.emplace_back(a, b);
      for (auto p : tc.AddEdge(a, b)) incremental.insert(p);
    }
    EXPECT_EQ(incremental, BruteClosure(edges)) << "trial " << trial;
    EXPECT_EQ(tc.closure_size(), incremental.size());
  }
}

}  // namespace
}  // namespace tcq
