// Flux-sharded query-class tests: a class partitioned across N shard
// replicas must produce the same result multiset as the single-shard class
// (pinned against the naive reference evaluator), including across an
// online skew re-partition; keyless classes round-robin across shards;
// conflicting partition-key requirements collapse the class to one shard;
// and a bridging merge is one re-partition of every class it touches (SteMs
// move by reference where the bucket owners allow, else replay). Result runs
// keep the eddy's per-tuple order at one shard, never trail a punctuation
// covering their rows at four, and are complete at every Drain(). The Flux
// suite pins the bucket map, exact per-key counts (also across mid-stream
// skew re-partitions), skew rebalancing, the replication knob's shadow
// copies, and failover: exact with shard replication (also after a skew
// re-partition, after a restore, and under concurrent ingest), lossy and
// counted without it, and replaying only the failed shard's rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cacq/shared_eddy.h"
#include "common/rng.h"
#include "eddy/routing_policy.h"
#include "exec/executor.h"
#include "exec/partitioner.h"
#include "operators/predicate.h"
#include "reference/drain.h"
#include "reference/reference.h"
#include "tuple/column_store.h"

namespace tcq {
namespace {

using testref::CanonicalMultiset;
using testref::Drain;
using testref::NaiveFilter;
using testref::NaiveJoin;

SchemaRef Sch(SourceId source) {
  return Schema::Make({
      {"k", ValueType::kInt64, source},
      {"v", ValueType::kInt64, source},
  });
}

Tuple Row(SourceId source, int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make(Sch(source), {Value::Int64(k), Value::Int64(v)}, ts);
}

CQSpec JoinSpec(SourceId l, const char* lf, SourceId r, const char* rf) {
  CQSpec spec;
  spec.joins.push_back({{l, lf}, {r, rf}});
  return spec;
}

CQSpec FilterSpec(SourceId s, int64_t lt_bound) {
  CQSpec spec;
  spec.filters.push_back({{s, "v"}, CmpOp::kLt, Value::Int64(lt_bound)});
  return spec;
}

/// Thread-safe per-query result collector.
class Collector {
 public:
  Executor::Sink SinkFor(const std::string& key) {
    return [this, key](GlobalQueryId, const std::vector<Tuple>& run) {
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<Tuple>& got = results_[key];
      got.insert(got.end(), run.begin(), run.end());
    };
  }
  size_t Count(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = results_.find(key);
    return it == results_.end() ? 0 : it->second.size();
  }
  std::vector<Tuple> Take(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = results_.find(key);
    return it == results_.end() ? std::vector<Tuple>{} : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<Tuple>> results_;
};

/// Runs a join (0.k = 1.k) plus a filter query over the same two streams on
/// an executor with `shards` replicas per class; returns per-query results.
struct ShardRun {
  Collector got;
  std::vector<Tuple> s0, s1;
  size_t shards_reported = 0;
};

void RunJoinWorkload(size_t shards, int rows, int64_t key_range,
                     ShardRun* run) {
  Executor exec({.num_eos = 2, .quantum = 16, .shards = shards});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), run->got.SinkFor("join"))
          .ok());
  ASSERT_TRUE(
      exec.SubmitQuery(FilterSpec(0, 50), run->got.SinkFor("filter")).ok());
  auto topo = exec.Topology();
  ASSERT_EQ(topo.size(), 1u);
  run->shards_reported = topo[0].shards;
  exec.Start();

  Rng rng(17);
  Timestamp ts = 1;
  for (int i = 0; i < rows; ++i) {
    Tuple a = Row(0, rng.UniformInt(0, key_range - 1),
                  rng.UniformInt(0, 99), ts++);
    Tuple b = Row(1, rng.UniformInt(0, key_range - 1),
                  rng.UniformInt(0, 99), ts++);
    run->s0.push_back(a);
    run->s1.push_back(b);
    ASSERT_TRUE(exec.IngestTuple(0, a).ok());
    ASSERT_TRUE(exec.IngestTuple(1, b).ok());
  }
  ASSERT_TRUE(exec.CloseStream(0).ok());
  ASSERT_TRUE(exec.CloseStream(1).ok());

  auto join_pred = MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"});
  size_t expect_join = NaiveJoin({run->s0, run->s1}, {join_pred}).size();
  size_t expect_filter =
      NaiveFilter(run->s0,
                  {MakeCompareConst({0, "v"}, CmpOp::kLt, Value::Int64(50))})
          .size();
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(run->got.Count("join"), expect_join);
  ASSERT_EQ(run->got.Count("filter"), expect_filter);
  exec.Stop();
}

TEST(ExecShardingTest, ShardedJoinMatchesSingleShardAndReference) {
  constexpr int kRows = 400;
  constexpr int64_t kKeys = 37;
  ShardRun sharded, single;
  RunJoinWorkload(4, kRows, kKeys, &sharded);
  if (HasFatalFailure()) return;
  RunJoinWorkload(1, kRows, kKeys, &single);
  if (HasFatalFailure()) return;

  EXPECT_EQ(sharded.shards_reported, 4u);
  EXPECT_EQ(single.shards_reported, 1u);

  // Same seeded workload on both runs.
  ASSERT_EQ(CanonicalMultiset(sharded.s0), CanonicalMultiset(single.s0));

  // Sharded == single-shard == naive reference, as multisets.
  auto join_pred = MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"});
  auto expected =
      CanonicalMultiset(NaiveJoin({sharded.s0, sharded.s1}, {join_pred}));
  EXPECT_EQ(CanonicalMultiset(sharded.got.Take("join")), expected);
  EXPECT_EQ(CanonicalMultiset(single.got.Take("join")), expected);
  EXPECT_EQ(CanonicalMultiset(sharded.got.Take("filter")),
            CanonicalMultiset(single.got.Take("filter")));
}

TEST(ExecShardingTest, EquivalenceHoldsAcrossOnlineRepartition) {
  // A hot key skews every tuple into one shard; after the skew check
  // triggers an online re-partition (moving buckets AND stored SteM state),
  // the remaining uniform suffix must still join exactly per the reference
  // — across the repartition boundary too (prefix x suffix pairs).
  constexpr int kHot = 300, kRest = 300;
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = 4,
                 .shard_min_skew_volume = 64});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  Collector got;
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
  exec.Start();

  std::vector<Tuple> s0, s1;
  Timestamp ts = 1;
  auto ingest = [&](SourceId s, int64_t k, std::vector<Tuple>* log) {
    Tuple t = Row(s, k, static_cast<int64_t>(ts), ts);
    ++ts;
    log->push_back(t);
    ASSERT_TRUE(exec.IngestTuple(s, t).ok());
  };
  for (int i = 0; i < kHot; ++i) {
    ingest(0, 7, &s0);
    ingest(1, 7, &s1);
  }
  // The hot prefix has all landed in one shard; force the skew pass.
  auto join_pred = MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"});
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("join"), NaiveJoin({s0, s1}, {join_pred}).size());
  EXPECT_TRUE(exec.RepartitionSkewedOnce());
  EXPECT_GE(exec.class_repartitions(), 1u);

  Rng rng(29);
  for (int i = 0; i < kRest; ++i) {
    ingest(0, rng.UniformInt(0, 30), &s0);
    ingest(1, rng.UniformInt(0, 30), &s1);
  }
  ASSERT_TRUE(exec.CloseStream(0).ok());
  ASSERT_TRUE(exec.CloseStream(1).ok());

  auto expected = CanonicalMultiset(NaiveJoin({s0, s1}, {join_pred}));
  size_t total = 0;
  for (const auto& [key, count] : expected) total += count;
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("join"), total);
  exec.Stop();
  EXPECT_EQ(CanonicalMultiset(got.Take("join")), expected);
}

TEST(ExecShardingTest, KeylessClassRoundRobinsAcrossShards) {
  // Filter-only queries have no join edge: the class still fans out, with
  // per-tuple round-robin routing (trivially multiset-correct).
  constexpr int kRows = 512;
  Executor exec({.num_eos = 2, .quantum = 16, .shards = 4});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  Collector got;
  ASSERT_TRUE(exec.SubmitQuery(FilterSpec(0, 50), got.SinkFor("f")).ok());
  auto topo = exec.Topology();
  ASSERT_EQ(topo.size(), 1u);
  EXPECT_EQ(topo[0].shards, 4u);
  exec.Start();

  std::vector<Tuple> s0;
  Rng rng(31);
  for (int i = 0; i < kRows; ++i) {
    Tuple t = Row(0, rng.UniformInt(0, 9), rng.UniformInt(0, 99),
                  static_cast<Timestamp>(i + 1));
    s0.push_back(t);
    ASSERT_TRUE(exec.IngestTuple(0, t).ok());
  }
  ASSERT_TRUE(exec.CloseStream(0).ok());

  auto expected = CanonicalMultiset(NaiveFilter(
      s0, {MakeCompareConst({0, "v"}, CmpOp::kLt, Value::Int64(50))}));
  size_t total = 0;
  for (const auto& [key, count] : expected) total += count;
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("f"), total);
  exec.Stop();
  EXPECT_EQ(CanonicalMultiset(got.Take("f")), expected);

  // Round-robin spread: every shard ingested a fair share.
  auto snap = exec.metrics()->Snapshot();
  uint64_t shard0 =
      snap.CounterValue("tcq_shard_ingest_total{shard=\"class0\"}");
  EXPECT_GT(shard0, 0u);
  for (int k = 1; k < 4; ++k) {
    uint64_t n = snap.CounterValue("tcq_shard_ingest_total{shard=\"class0/s" +
                                   std::to_string(k) + "\"}");
    EXPECT_EQ(n, kRows / 4u) << "shard " << k;
  }
}

TEST(ExecShardingTest, ConflictingJoinKeysCollapseToOneShard) {
  // s1 is joined on "k" by one edge and on "v" by another: no single
  // partition key co-partitions both, so the class must run one shard
  // (parallelism is given up, correctness is kept).
  Executor exec({.num_eos = 2, .quantum = 16, .shards = 4});
  for (SourceId s = 0; s < 3; ++s) {
    ASSERT_TRUE(exec.RegisterStream(s, Sch(s)).ok());
  }
  Collector got;
  CQSpec chain;
  chain.joins.push_back({{0, "k"}, {1, "k"}});
  chain.joins.push_back({{1, "v"}, {2, "k"}});
  ASSERT_TRUE(exec.SubmitQuery(chain, got.SinkFor("chain")).ok());
  auto topo = exec.Topology();
  ASSERT_EQ(topo.size(), 1u);
  EXPECT_EQ(topo[0].shards, 1u);
  exec.Start();

  std::vector<Tuple> s0, s1, s2;
  Timestamp ts = 1;
  Rng rng(41);
  for (int i = 0; i < 60; ++i) {
    Tuple a = Row(0, rng.UniformInt(0, 5), 0, ts++);
    Tuple b = Row(1, rng.UniformInt(0, 5), rng.UniformInt(0, 5), ts++);
    Tuple c = Row(2, rng.UniformInt(0, 5), 0, ts++);
    s0.push_back(a);
    s1.push_back(b);
    s2.push_back(c);
    ASSERT_TRUE(exec.IngestTuple(0, a).ok());
    ASSERT_TRUE(exec.IngestTuple(1, b).ok());
    ASSERT_TRUE(exec.IngestTuple(2, c).ok());
  }
  for (SourceId s = 0; s < 3; ++s) ASSERT_TRUE(exec.CloseStream(s).ok());

  auto expected = CanonicalMultiset(NaiveJoin(
      {s0, s1, s2}, {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"}),
                     MakeCompareAttrs({1, "v"}, CmpOp::kEq, {2, "k"})}));
  size_t total = 0;
  for (const auto& [key, count] : expected) total += count;
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("chain"), total);
  exec.Stop();
  EXPECT_EQ(CanonicalMultiset(got.Take("chain")), expected);
}

/// Sum over every class of a counter family (merged-away classes included).
uint64_t FamilySum(Executor* exec, const std::string& family) {
  return exec->metrics()->Snapshot().CounterFamilySum(family);
}

TEST(ExecShardingTest, BridgingMergeWorksAcrossShardedClasses) {
  // Two sharded classes (join 0-1 and join 2-3) merged by a bridging query
  // (1.k = 2.k): one re-partition of their union at the survivor's bucket
  // owners, which both classes share, so every SteM moves by reference. No
  // deliveries lost.
  constexpr int P = 6, S = 6;
  Executor exec({.num_eos = 2, .quantum = 16, .shards = 2});
  for (SourceId s = 0; s < 4; ++s) {
    ASSERT_TRUE(exec.RegisterStream(s, Sch(s)).ok());
  }
  Collector got;
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("q01")).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(2, "k", 3, "k"), got.SinkFor("q23")).ok());
  ASSERT_EQ(exec.num_classes(), 2u);
  exec.Start();

  std::vector<Tuple> s1_all, s2_all, s1_prefix, s2_prefix;
  Timestamp ts = 1;
  auto ingest = [&](int rows) {
    for (int i = 0; i < rows; ++i) {
      for (SourceId s = 0; s < 4; ++s) {
        Tuple t = Row(s, 1, static_cast<int64_t>(s) * 100000 + ts, ts);
        ASSERT_TRUE(exec.IngestTuple(s, t).ok());
        if (s == 1) s1_all.push_back(t);
        if (s == 2) s2_all.push_back(t);
        ++ts;
      }
    }
  };
  ingest(P);
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("q01"), static_cast<size_t>(P) * P);
  ASSERT_EQ(got.Count("q23"), static_cast<size_t>(P) * P);
  s1_prefix = s1_all;
  s2_prefix = s2_all;

  uint64_t repartitions = FamilySum(&exec, "tcq_shard_repartitions_total");
  uint64_t replayed =
      FamilySum(&exec, "tcq_shard_stem_entries_replayed_total");
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(1, "k", 2, "k"), got.SinkFor("bridge")).ok());
  EXPECT_EQ(exec.class_merges(), 1u);
  EXPECT_EQ(FamilySum(&exec, "tcq_shard_repartitions_total"),
            repartitions + 1);
  EXPECT_EQ(FamilySum(&exec, "tcq_shard_stem_entries_replayed_total"),
            replayed);
  ASSERT_EQ(exec.num_classes(), 1u);
  auto topo = exec.Topology();
  ASSERT_EQ(topo.size(), 1u);
  EXPECT_EQ(topo[0].shards, 2u);  // the merged class keeps its shards

  ingest(S);
  for (SourceId s = 0; s < 4; ++s) ASSERT_TRUE(exec.CloseStream(s).ok());
  size_t total = static_cast<size_t>(P + S) * (P + S);
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("q01"), total);
  ASSERT_EQ(got.Count("q23"), total);
  ASSERT_EQ(got.Count("bridge"), total - static_cast<size_t>(P) * P);
  exec.Stop();

  // The bridge sees every 1x2 pair except prefix x prefix (both sides
  // ingested before its admission).
  auto pred = MakeCompareAttrs({1, "k"}, CmpOp::kEq, {2, "k"});
  auto all_pairs = CanonicalMultiset(NaiveJoin({s1_all, s2_all}, {pred}));
  auto prefix_pairs =
      CanonicalMultiset(NaiveJoin({s1_prefix, s2_prefix}, {pred}));
  for (const auto& [key, count] : prefix_pairs) {
    all_pairs[key] -= count;
    if (all_pairs[key] == 0) all_pairs.erase(key);
  }
  EXPECT_EQ(CanonicalMultiset(got.Take("bridge")), all_pairs);
}

/// Three 2-stream join classes (q01, q23, q45) at `shards`, a prefix of
/// every stream, then one bridging query joining 1.k = 2.k = 4.k, then a
/// suffix. With `preplant`, a never-matching join (on the unique v values)
/// puts streams 1, 2 and 4 in one class up front, so nothing merges.
struct ThreeClassRun {
  Collector got;
  std::vector<Tuple> s1_prefix, s2_prefix, s4_prefix, s1_all, s2_all, s4_all;
  uint64_t merges = 0;
  uint64_t repartitions = 0;  ///< across the bridging SubmitQuery
  size_t classes_after_bridge = 0;
  size_t shards_after_bridge = 0;
};

void RunThreeClassBridge(size_t shards, bool preplant, int P, int S,
                         ThreeClassRun* run) {
  Executor exec({.num_eos = 2, .quantum = 16, .shards = shards});
  for (SourceId s = 0; s < 6; ++s) {
    ASSERT_TRUE(exec.RegisterStream(s, Sch(s)).ok());
  }
  if (preplant) {
    CQSpec none;
    none.joins.push_back({{1, "v"}, {2, "v"}});
    none.joins.push_back({{2, "v"}, {4, "v"}});
    ASSERT_TRUE(exec.SubmitQuery(none, run->got.SinkFor("none")).ok());
  }
  for (SourceId s : {0u, 2u, 4u}) {
    ASSERT_TRUE(exec.SubmitQuery(JoinSpec(s, "k", s + 1, "k"),
                                 run->got.SinkFor("q" + std::to_string(s)))
                    .ok());
  }
  ASSERT_EQ(exec.num_classes(), preplant ? 1u : 3u);
  exec.Start();

  Timestamp ts = 1;
  auto ingest = [&](int rows) {
    for (int i = 0; i < rows; ++i) {
      for (SourceId s = 0; s < 6; ++s) {
        Tuple t = Row(s, 1, static_cast<int64_t>(s) * 100000 + ts, ts);
        ASSERT_TRUE(exec.IngestTuple(s, t).ok());
        if (s == 1) run->s1_all.push_back(t);
        if (s == 2) run->s2_all.push_back(t);
        if (s == 4) run->s4_all.push_back(t);
        ++ts;
      }
    }
  };
  ingest(P);
  ASSERT_TRUE(Drain(&exec).ok());
  run->s1_prefix = run->s1_all;
  run->s2_prefix = run->s2_all;
  run->s4_prefix = run->s4_all;

  CQSpec bridge;
  bridge.joins.push_back({{1, "k"}, {2, "k"}});
  bridge.joins.push_back({{2, "k"}, {4, "k"}});
  uint64_t before = FamilySum(&exec, "tcq_shard_repartitions_total");
  ASSERT_TRUE(exec.SubmitQuery(bridge, run->got.SinkFor("bridge")).ok());
  run->repartitions =
      FamilySum(&exec, "tcq_shard_repartitions_total") - before;
  run->merges = exec.class_merges();
  run->classes_after_bridge = exec.num_classes();
  run->shards_after_bridge = exec.Topology()[0].shards;

  ingest(S);
  for (SourceId s = 0; s < 6; ++s) ASSERT_TRUE(exec.CloseStream(s).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
}

TEST(ExecShardingTest, BridgingThreeClassesIsOneRepartition) {
  constexpr int P = 4, S = 4;
  ThreeClassRun merged, control;
  RunThreeClassBridge(4, /*preplant=*/false, P, S, &merged);
  if (HasFatalFailure()) return;
  RunThreeClassBridge(4, /*preplant=*/true, P, S, &control);
  if (HasFatalFailure()) return;

  EXPECT_EQ(merged.merges, 2u);
  EXPECT_EQ(merged.repartitions, 1u);
  EXPECT_EQ(merged.classes_after_bridge, 1u);
  EXPECT_EQ(merged.shards_after_bridge, 4u);
  EXPECT_EQ(control.merges, 0u);

  // Result multisets equal the up-front single class's...
  for (const char* q : {"q0", "q2", "q4", "bridge"}) {
    EXPECT_EQ(CanonicalMultiset(merged.got.Take(q)),
              CanonicalMultiset(control.got.Take(q)))
        << "query " << q;
  }
  EXPECT_EQ(merged.got.Count("q0"), static_cast<size_t>((P + S) * (P + S)));
  // ...and the naive reference: every 1x2x4 triple except those whose
  // latest row predates the bridge's admission (prefix x prefix x prefix).
  std::vector<PredicateRef> preds = {
      MakeCompareAttrs({1, "k"}, CmpOp::kEq, {2, "k"}),
      MakeCompareAttrs({2, "k"}, CmpOp::kEq, {4, "k"})};
  auto expected = CanonicalMultiset(
      NaiveJoin({merged.s1_all, merged.s2_all, merged.s4_all}, preds));
  for (const auto& [key, count] : CanonicalMultiset(NaiveJoin(
           {merged.s1_prefix, merged.s2_prefix, merged.s4_prefix}, preds))) {
    expected[key] -= count;
    if (expected[key] == 0) expected.erase(key);
  }
  EXPECT_EQ(CanonicalMultiset(merged.got.Take("bridge")), expected);
}

TEST(ExecShardingTest, MergeAfterSkewRepartitionReplaysAndStaysExact) {
  // Class q01 went through a skew re-partition, so its bucket owners (which
  // the merge keeps) differ from class q23's round-robin ones: q01's SteMs
  // still move by reference, q23's split and replay with their seqs.
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = 4,
                 .shard_min_skew_volume = 64});
  for (SourceId s = 0; s < 4; ++s) {
    ASSERT_TRUE(exec.RegisterStream(s, Sch(s)).ok());
  }
  Collector got;
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("q01")).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(2, "k", 3, "k"), got.SinkFor("q23")).ok());
  exec.Start();

  std::vector<Tuple> rows[4];
  Timestamp ts = 1;
  auto ingest = [&](SourceId s, int64_t k) {
    Tuple t = Row(s, k, ts, ts);
    ++ts;
    rows[s].push_back(t);
    ASSERT_TRUE(exec.IngestTuple(s, t).ok());
  };
  for (int i = 0; i < 200; ++i) {  // one hot key on q01's streams only
    ingest(0, 7);
    ingest(1, 7);
  }
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_TRUE(exec.RepartitionSkewedOnce());
  Rng rng(37);
  for (int i = 0; i < 150; ++i) {
    for (SourceId s = 0; s < 4; ++s) ingest(s, rng.UniformInt(0, 30));
  }
  ASSERT_TRUE(Drain(&exec).ok());
  std::vector<Tuple> s1_prefix = rows[1], s2_prefix = rows[2];

  uint64_t repartitions = FamilySum(&exec, "tcq_shard_repartitions_total");
  uint64_t replayed =
      FamilySum(&exec, "tcq_shard_stem_entries_replayed_total");
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(1, "k", 2, "k"), got.SinkFor("bridge")).ok());
  EXPECT_EQ(FamilySum(&exec, "tcq_shard_repartitions_total"),
            repartitions + 1);
  uint64_t moved =
      FamilySum(&exec, "tcq_shard_stem_entries_replayed_total") - replayed;
  EXPECT_GT(moved, 0u) << "q23's SteMs must split across the new owners";
  EXPECT_LE(moved, rows[2].size() + rows[3].size())
      << "q01's SteMs keep their owners and must not replay";
  EXPECT_EQ(exec.Topology()[0].shards, 4u);

  for (int i = 0; i < 150; ++i) {
    for (SourceId s = 0; s < 4; ++s) ingest(s, rng.UniformInt(0, 30));
  }
  for (SourceId s = 0; s < 4; ++s) ASSERT_TRUE(exec.CloseStream(s).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();

  auto join = [](SourceId l, SourceId r) {
    return MakeCompareAttrs({l, "k"}, CmpOp::kEq, {r, "k"});
  };
  EXPECT_EQ(CanonicalMultiset(got.Take("q01")),
            CanonicalMultiset(NaiveJoin({rows[0], rows[1]}, {join(0, 1)})));
  EXPECT_EQ(CanonicalMultiset(got.Take("q23")),
            CanonicalMultiset(NaiveJoin({rows[2], rows[3]}, {join(2, 3)})));
  auto bridge = CanonicalMultiset(NaiveJoin({rows[1], rows[2]}, {join(1, 2)}));
  for (const auto& [key, count] :
       CanonicalMultiset(NaiveJoin({s1_prefix, s2_prefix}, {join(1, 2)}))) {
    bridge[key] -= count;
    if (bridge[key] == 0) bridge.erase(key);
  }
  EXPECT_EQ(CanonicalMultiset(got.Take("bridge")), bridge);
}

TEST(ExecShardingTest, ShardMetricsAndGcLifecycle) {
  // The tcq_shard_* family reports shard count and per-shard ingest; GC of
  // a sharded class releases its streams for re-ownership.
  Executor exec({.num_eos = 2, .quantum = 16, .shards = 2});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  Collector got;
  auto q = exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("j"));
  ASSERT_TRUE(q.ok());
  exec.Start();

  ASSERT_TRUE(exec.IngestTuple(0, Row(0, 1, 1, 1)).ok());
  ASSERT_TRUE(exec.IngestTuple(1, Row(1, 1, 2, 2)).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("j"), 1u);

  auto snap = exec.metrics()->Snapshot();
  EXPECT_EQ(snap.GaugeValue("tcq_shard_count{class=\"class0\"}"), 2);
  EXPECT_EQ(snap.CounterFamilySum("tcq_shard_ingest_total"), 2u);

  ASSERT_TRUE(exec.RemoveQuery(*q).ok());
  EXPECT_EQ(exec.class_gcs(), 1u);
  EXPECT_EQ(exec.num_classes(), 0u);

  // Streams are re-claimable after GC.
  ASSERT_TRUE(exec.SubmitQuery(FilterSpec(0, 100), got.SinkFor("f")).ok());
  ASSERT_TRUE(exec.IngestTuple(0, Row(0, 2, 3, 3)).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("f"), 1u);
  exec.Stop();
}

// A punctuation ingested on a sharded class's stream is broadcast to every
// shard replica; the class-level watermark only advances once ALL shards
// have applied it (min-combine), and exactly one merged punctuation tuple
// reaches each member query's sink.
TEST(ShardingTest, PunctuationBroadcastMinCombinesAcrossShards) {
  Executor exec({.num_eos = 2, .quantum = 16, .shards = 4});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  Collector got;
  ASSERT_TRUE(exec.SubmitQuery(FilterSpec(0, 1000), got.SinkFor("f")).ok());
  auto topo = exec.Topology();
  ASSERT_EQ(topo.size(), 1u);
  ASSERT_EQ(topo[0].shards, 4u);
  exec.Start();

  EXPECT_EQ(exec.stream_watermark(0), kMinTimestamp);
  EXPECT_EQ(exec.stream_watermark(7), kMinTimestamp);  // unknown stream

  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(exec.IngestTuple(0, Row(0, i, i, i + 1)).ok());
  }
  ASSERT_TRUE(exec.IngestTuple(0, Tuple::MakePunctuation(0, 30)).ok());

  // All 32 rows pass the filter, plus the merged punctuation = 33.
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("f"), 33u);
  EXPECT_EQ(exec.stream_watermark(0), 30);

  size_t puncts = 0;
  for (const Tuple& t : got.Take("f")) {
    if (!t.IsPunctuation()) continue;
    ++puncts;
    Punctuation p = t.AsPunctuation();
    EXPECT_EQ(p.source, 0u);
    EXPECT_EQ(p.low_watermark, 30);
  }
  // Broadcast to 4 shards, min-combined back to exactly ONE delivery.
  EXPECT_EQ(puncts, 1u);
  exec.Stop();
}

// Duplicate and regressed punctuations neither move the merged watermark
// nor produce extra control deliveries; a genuine advance does both.
TEST(ShardingTest, DuplicateAndRegressedPunctuationsAreIdempotent) {
  Executor exec({.num_eos = 2, .quantum = 16, .shards = 4});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  Collector got;
  ASSERT_TRUE(exec.SubmitQuery(FilterSpec(0, 1000), got.SinkFor("f")).ok());
  exec.Start();

  ASSERT_TRUE(exec.IngestTuple(0, Tuple::MakePunctuation(0, 10)).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("f"), 1u);
  EXPECT_EQ(exec.stream_watermark(0), 10);

  // Duplicate (wm=10) and regression (wm=5): both rejected at every shard.
  ASSERT_TRUE(exec.IngestTuple(0, Tuple::MakePunctuation(0, 10)).ok());
  ASSERT_TRUE(exec.IngestTuple(0, Tuple::MakePunctuation(0, 5)).ok());
  // A later genuine advance flushes past the rejected ones; its arrival at
  // the sink proves the rejects were fully processed (same ordered path).
  ASSERT_TRUE(exec.IngestTuple(0, Tuple::MakePunctuation(0, 20)).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("f"), 2u);
  EXPECT_EQ(exec.stream_watermark(0), 20);

  std::vector<Timestamp> wms;
  for (const Tuple& t : got.Take("f")) {
    ASSERT_TRUE(t.IsPunctuation());
    wms.push_back(t.AsPunctuation().low_watermark);
  }
  EXPECT_EQ(wms, (std::vector<Timestamp>{10, 20}));
  exec.Stop();
}

// --- Result runs: ordering and completeness ---------------------------------
// Shards hand each query its results as one run per ingested batch. A run
// keeps the eddy's emission order, a shard flushes its runs before it
// forwards a punctuation, and nothing stays buffered once a Step ends.

/// A batch of `rows` rows of stream `s` at timestamps *ts, *ts + 1, ...,
/// with v = the row's timestamp and keys drawn from [0, key_range), closed
/// by a punctuation at its last timestamp. Appends the rows to `log`.
TupleBatch PunctuatedBatch(SourceId s, int rows, int64_t key_range, Rng* rng,
                           Timestamp* ts, std::vector<Tuple>* log) {
  TupleBatch batch(s);
  for (int i = 0; i < rows; ++i) {
    Timestamp t = (*ts)++;
    Tuple row = Row(s, rng->UniformInt(0, key_range - 1), t, t);
    batch.push_back(row);
    log->push_back(row);
  }
  batch.AddPunctuation(Punctuation{s, *ts - 1});
  return batch;
}

// At one shard, every query receives exactly the sequence the eddy emitted
// tuple by tuple — results and merged punctuations interleaved as the
// per-tuple sink path delivered them. The reference is the class's eddy run
// bare, fed the same batches with the same routing seed.
TEST(ResultRunTest, OneShardRunsKeepTheEddysPerTupleOrder) {
  const char* names[] = {"join", "filter"};
  SharedEddy ref(MakeLotteryPolicy(Executor::Options{}.seed));
  ref.RegisterStream(0, Sch(0));
  ref.RegisterStream(1, Sch(1));
  std::map<std::string, std::vector<Tuple>> want;
  ref.SetOutput(
      [&](QueryId q, const Tuple& t) { want[names[q]].push_back(t); });
  ref.SetControlOutput([&](const Punctuation& p) {
    for (const char* n : names) {
      want[n].push_back(Tuple::MakePunctuation(p.source, p.low_watermark));
    }
  });
  ASSERT_EQ(*ref.AddQuery(JoinSpec(0, "k", 1, "k")), 0u);
  ASSERT_EQ(*ref.AddQuery(FilterSpec(0, 200)), 1u);

  Collector got;
  Executor exec({.num_eos = 1, .shards = 1});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(FilterSpec(0, 200), got.SinkFor("filter")).ok());
  exec.Start();

  Rng rng(5);
  Timestamp ts = 1;
  std::vector<Tuple> log;
  for (int b = 0; b < 40; ++b) {
    TupleBatch batch = PunctuatedBatch(static_cast<SourceId>(b % 2), 12, 6,
                                       &rng, &ts, &log);
    ref.IngestBatch(batch);
    ASSERT_TRUE(exec.IngestBatch(std::move(batch)).ok());
    // One batch per quantum, so the class eddy sees the same batches.
    ASSERT_TRUE(Drain(&exec).ok());
  }
  exec.Stop();
  auto text = [](const std::vector<Tuple>& seq) {
    std::vector<std::string> out;
    for (const Tuple& t : seq) out.push_back(t.ToString());
    return out;
  };
  for (const char* n : names) {
    ASSERT_FALSE(want[n].empty());
    EXPECT_EQ(text(got.Take(n)), text(want[n])) << n;
  }
}

// At four shards, a client never receives a result after a punctuation
// that covers every row the result came from: the shard that produced it
// flushed it before reporting that punctuation, and the merged watermark
// advances only once every shard has reported. Completeness holds too.
TEST(ResultRunTest, NoResultFollowsAPunctuationCoveringItsRows) {
  Collector got;
  Executor exec({.num_eos = 4, .shards = 4});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
  ASSERT_TRUE(exec.SubmitQuery(FilterSpec(0, 1 << 30), got.SinkFor("filter"))
                  .ok());
  auto topo = exec.Topology();
  ASSERT_EQ(topo.size(), 1u);
  ASSERT_EQ(topo[0].shards, 4u);
  exec.Start();

  Rng rng(9);
  Timestamp ts = 1;
  std::vector<Tuple> s0, s1;
  for (int b = 0; b < 200; ++b) {
    SourceId s = static_cast<SourceId>(b % 2);
    ASSERT_TRUE(exec.IngestBatch(PunctuatedBatch(s, 16, 64, &rng, &ts,
                                                 s == 0 ? &s0 : &s1))
                    .ok());
  }
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();

  auto join_pred = MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"});
  std::map<std::string, size_t> expect = {
      {"join", NaiveJoin({s0, s1}, {join_pred}).size()},
      {"filter", s0.size()}};
  for (const auto& [name, want] : expect) {
    std::map<SourceId, Timestamp> wm;  // merged watermarks delivered so far
    size_t data = 0;
    size_t late = 0;
    for (const Tuple& t : got.Take(name)) {
      if (t.IsPunctuation()) {
        Punctuation p = t.AsPunctuation();
        wm[p.source] = std::max(wm[p.source], p.low_watermark);
        continue;
      }
      ++data;
      // Each row's v field is its timestamp; the result is late only if a
      // delivered watermark covers all of its rows.
      bool covered = true;
      for (size_t i = 0; i < t.num_fields(); ++i) {
        const Field& f = t.schema()->field(i);
        if (f.name != "v") continue;
        auto it = wm.find(f.source);
        if (it == wm.end() || t.at(i).AsInt64() > it->second) covered = false;
      }
      if (covered) ++late;
    }
    EXPECT_EQ(data, want) << name;
    EXPECT_EQ(late, 0u) << name;
  }
}

// Drain() is a complete barrier with runs: after it returns, every result of
// every row ingested so far has reached its sink, with the streams still
// open (so no end-of-stream path flushes for it), at one shard and at four.
TEST(ResultRunTest, DrainDeliversEveryRun) {
  for (size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    Collector got;
    Executor exec({.num_eos = 2, .quantum = 16, .shards = shards});
    ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
    ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
    ASSERT_TRUE(
        exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
    ASSERT_TRUE(
        exec.SubmitQuery(FilterSpec(0, 50), got.SinkFor("filter")).ok());
    exec.Start();
    Rng rng(23);
    Timestamp ts = 1;
    std::map<int64_t, size_t> keys[2];
    size_t expect_join = 0;
    size_t expect_filter = 0;
    for (int round = 0; round < 20; ++round) {
      for (SourceId s : {0u, 1u}) {
        TupleBatch batch(s);
        for (int i = 0; i < 1 + round % 7; ++i) {
          int64_t k = rng.UniformInt(0, 15);
          int64_t v = rng.UniformInt(0, 99);
          batch.push_back(Row(s, k, v, ts++));
          expect_join += keys[1 - s][k];
          ++keys[s][k];
          if (s == 0 && v < 50) ++expect_filter;
        }
        ASSERT_TRUE(exec.IngestBatch(std::move(batch)).ok());
      }
      ASSERT_TRUE(Drain(&exec).ok());
      ASSERT_EQ(got.Count("join"), expect_join) << "round " << round;
      ASSERT_EQ(got.Count("filter"), expect_filter) << "round " << round;
    }
    exec.Stop();
  }
}

// --- Flux: the bucket map, skew rebalancing, failover ----------------------

TEST(PartitionerTest, StableAndComplete) {
  Partitioner p(64, 4);
  for (int64_t k = 0; k < 1000; ++k) {
    size_t b = p.BucketOf(k);
    EXPECT_LT(b, 64u);
    EXPECT_EQ(b, p.BucketOf(k));  // stable
    EXPECT_LT(p.OwnerOf(b), 4u);
  }
  std::vector<size_t> owned(4, 0);
  for (size_t b = 0; b < p.num_buckets(); ++b) ++owned[p.OwnerOf(b)];
  EXPECT_EQ(owned, (std::vector<size_t>{16, 16, 16, 16}));
}

// The bucket hash must spread realistic key populations — not just random
// ones — evenly across buckets. Sequential ids, strided ids (pointers,
// aligned offsets), and keys that vary only in their high bits are exactly
// the populations a truncated mixer fails on. Chi-square against the
// uniform expectation with 63 degrees of freedom: the p=0.001 critical
// value is ~103.4, so 100 gives a deterministic-but-meaningful bound.
TEST(PartitionerTest, BucketOfIsUniformOnStructuredKeys) {
  constexpr size_t kBuckets = 64;
  constexpr size_t kKeys = 16384;
  struct KeySet {
    const char* name;
    int64_t (*key)(size_t);
  };
  const KeySet kSets[] = {
      {"sequential", [](size_t i) { return static_cast<int64_t>(i); }},
      {"strided", [](size_t i) { return static_cast<int64_t>(i) * 8; }},
      {"high-bits-only",
       [](size_t i) { return static_cast<int64_t>(i) << 40; }},
      {"bit-sparse",
       [](size_t i) {
         // 7 bits near the bottom, 7 bits near the top, nothing between.
         return static_cast<int64_t>((i & 0x7F) | ((i >> 7) << 48));
       }},
  };
  for (const KeySet& set : kSets) {
    Partitioner p(kBuckets, 4);
    size_t counts[kBuckets] = {};
    for (size_t i = 0; i < kKeys; ++i) ++counts[p.BucketOf(set.key(i))];
    const double expected = static_cast<double>(kKeys) / kBuckets;
    double chi2 = 0.0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const double d = static_cast<double>(counts[b]) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 100.0) << set.name << " keys skew the bucket hash";
  }
}

TEST(PartitionerTest, ReassignMovesOwnership) {
  Partitioner p(8, 2);
  p.Reassign(3, 1);
  EXPECT_EQ(p.OwnerOf(3), 1u);
}

uint64_t ShardIngest(Executor* exec, size_t shard) {
  std::string name = shard == 0 ? "class0" : "class0/s" + std::to_string(shard);
  return exec->metrics()->Snapshot().CounterValue(
      "tcq_shard_ingest_total{shard=\"" + name + "\"}");
}

// Max/min ratio of per-shard ingest over one window of zipf-keyed rows on
// the join's left stream (the right one stays empty: no results to wait on).
double IngestSkew(Executor* exec, Rng* rng, int batches) {
  std::vector<uint64_t> before(4);
  for (size_t k = 0; k < 4; ++k) before[k] = ShardIngest(exec, k);
  for (int b = 0; b < batches; ++b) {
    TupleBatch batch(0);
    for (int i = 0; i < 64; ++i) {
      int64_t key = static_cast<int64_t>(rng->Zipf(2000, 1.1));
      batch.push_back(Row(0, key, i, b * 64 + i + 1));
    }
    EXPECT_TRUE(exec->IngestBatch(std::move(batch)).ok());
  }
  uint64_t mx = 0;
  uint64_t mn = UINT64_MAX;
  for (size_t k = 0; k < 4; ++k) {
    uint64_t d = ShardIngest(exec, k) - before[k];
    mx = std::max(mx, d);
    mn = std::min(mn, d);
  }
  return static_cast<double>(mx) / static_cast<double>(std::max<uint64_t>(mn, 1));
}

/// Per-key counting on the executor: stream 1 holds one row per key in
/// [0, keys], so every stream-0 row yields exactly one join result, and the
/// results per key count the stream-0 rows of that key.
constexpr int64_t kCountKeys = 500;

void SubmitKeyCounter(Executor* exec, Collector* got) {
  ASSERT_TRUE(exec->RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec->RegisterStream(1, Sch(1)).ok());
  ASSERT_TRUE(
      exec->SubmitQuery(JoinSpec(0, "k", 1, "k"), got->SinkFor("join")).ok());
  TupleBatch dim(1);
  for (int64_t k = 0; k <= kCountKeys; ++k) dim.push_back(Row(1, k, 0, k + 1));
  ASSERT_TRUE(exec->IngestBatch(std::move(dim)).ok());
}

/// Ingests `rows` zipf-keyed rows on stream 0 in batches of 100, adding
/// each row's key to `truth`.
void IngestCounted(Executor* exec, Rng* rng, int rows, double skew,
                   Timestamp* ts, std::map<int64_t, uint64_t>* truth) {
  for (int i = 0; i < rows; i += 100) {
    TupleBatch batch(0);
    for (int j = i; j < std::min(rows, i + 100); ++j) {
      int64_t key = static_cast<int64_t>(rng->Zipf(kCountKeys, skew));
      batch.push_back(Row(0, key, j, (*ts)++));
      ++(*truth)[key];
    }
    ASSERT_TRUE(exec->IngestBatch(std::move(batch)).ok());
  }
}

std::map<int64_t, uint64_t> CountsByKey(const std::vector<Tuple>& results) {
  std::map<int64_t, uint64_t> counts;
  // Both sides carry the same k, so either side's k field is the key.
  for (const Tuple& t : results) ++counts[t.at(0).AsInt64()];
  return counts;
}

TEST(FluxTest, CountsAreExactWithoutFailures) {
  constexpr int kRows = 20000;
  Collector got;
  Executor exec({.num_eos = 2, .quantum = 16, .shards = 4});
  SubmitKeyCounter(&exec, &got);
  exec.Start();
  Rng rng(1);
  Timestamp ts = kCountKeys + 2;
  std::map<int64_t, uint64_t> truth;
  IngestCounted(&exec, &rng, kRows, 0.0, &ts, &truth);
  ASSERT_TRUE(exec.CloseStream(0).ok());
  ASSERT_TRUE(exec.CloseStream(1).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
  EXPECT_EQ(CountsByKey(got.Take("join")), truth);
  // Every ingested row was processed by exactly one shard.
  uint64_t processed = 0;
  for (size_t k = 0; k < 4; ++k) processed += ShardIngest(&exec, k);
  EXPECT_EQ(processed, static_cast<uint64_t>(kRows + kCountKeys + 1));
}

TEST(FluxTest, RebalancePreservesExactCounts) {
  Collector got;
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = 4,
                 .shard_skew_threshold = 1.2,
                 .shard_min_skew_volume = 64});
  SubmitKeyCounter(&exec, &got);
  exec.Start();
  Rng rng(2);
  Timestamp ts = kCountKeys + 2;
  std::map<int64_t, uint64_t> truth;
  // Interleave ingestion and skew passes so re-partitions happen mid-stream,
  // with rows still queued on the EOs.
  for (int round = 0; round < 40; ++round) {
    IngestCounted(&exec, &rng, 100, 0.9, &ts, &truth);
    if (round % 5 == 4) exec.RepartitionSkewedOnce();
  }
  ASSERT_TRUE(exec.CloseStream(0).ok());
  ASSERT_TRUE(exec.CloseStream(1).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
  EXPECT_GT(exec.class_repartitions(), 0u) << "skew should trigger movement";
  EXPECT_EQ(CountsByKey(got.Take("join")), truth);
}

TEST(FluxTest, RebalanceReducesImbalanceUnderSkew) {
  // Zipf keys pile onto whichever shards own the hot buckets; one skew pass
  // re-maps buckets by observed load (LPT), and the next window of the same
  // distribution spreads more evenly.
  Collector got;
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = 4,
                 .shard_skew_threshold = 1.2,
                 .shard_min_skew_volume = 64});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
  exec.Start();
  Rng rng(3);
  double skew_before = IngestSkew(&exec, &rng, 64);
  ASSERT_TRUE(exec.RepartitionSkewedOnce());
  double skew_after = IngestSkew(&exec, &rng, 64);
  EXPECT_LT(skew_after, skew_before)
      << "rebalancing should spread the hot buckets";
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
}

/// L join R on k plus a filter on each side, in one class. Rows arrive in
/// three phases: consumed before the crash (drained inline, pre-start),
/// still queued when FailShard runs, and pushed after it on running EOs.
struct FailoverRun {
  Collector got;
  std::vector<Tuple> s0, s1;
  int64_t occupancy_at_crash = 0;
  uint64_t lost = 0;
  size_t shards_after = 0;
};

constexpr size_t kFailed = 1;

void SubmitFailoverQueries(Executor* exec, Collector* got) {
  ASSERT_TRUE(exec->RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec->RegisterStream(1, Sch(1)).ok());
  ASSERT_TRUE(
      exec->SubmitQuery(JoinSpec(0, "k", 1, "k"), got->SinkFor("join")).ok());
  ASSERT_TRUE(exec->SubmitQuery(FilterSpec(0, 50), got->SinkFor("f0")).ok());
  ASSERT_TRUE(exec->SubmitQuery(FilterSpec(1, 50), got->SinkFor("f1")).ok());
}

void IngestPhase(Executor* exec, Rng* rng, int rows, Timestamp* ts,
                 FailoverRun* run) {
  for (int i = 0; i < rows; ++i) {
    Tuple a = Row(0, rng->UniformInt(0, 22), rng->UniformInt(0, 99), (*ts)++);
    Tuple b = Row(1, rng->UniformInt(0, 22), rng->UniformInt(0, 99), (*ts)++);
    run->s0.push_back(a);
    run->s1.push_back(b);
    ASSERT_TRUE(exec->IngestTuple(0, a).ok());
    ASSERT_TRUE(exec->IngestTuple(1, b).ok());
  }
}

void RunFailover(size_t shards, bool replication, bool fail,
                 FailoverRun* run) {
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = shards,
                 .shard_replication = replication});
  SubmitFailoverQueries(&exec, &run->got);
  Rng rng(23);
  Timestamp ts = 1;
  IngestPhase(&exec, &rng, 150, &ts, run);
  ASSERT_TRUE(Drain(&exec).ok());  // no EO runs: drains inline
  IngestPhase(&exec, &rng, 150, &ts, run);
  if (fail) {
    run->occupancy_at_crash = exec.metrics()->Snapshot().GaugeValue(
        "tcq_shard_occupancy{shard=\"class0/s" + std::to_string(kFailed) +
        "\"}");
    ASSERT_TRUE(exec.FailShard(0, kFailed).ok());
  }
  run->shards_after = exec.Topology()[0].shards;
  exec.Start();
  IngestPhase(&exec, &rng, 150, &ts, run);
  ASSERT_TRUE(exec.CloseStream(0).ok());
  ASSERT_TRUE(exec.CloseStream(1).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
  run->lost = exec.metrics()->Snapshot().CounterValue(
      "tcq_shard_failover_lost_total{class=\"class0\"}");
}

std::map<std::string, int> ExpectedFailoverResults(const FailoverRun& run,
                                                   const std::string& key) {
  if (key == "join") {
    return CanonicalMultiset(NaiveJoin(
        {run.s0, run.s1}, {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"})}));
  }
  SourceId s = key == "f0" ? 0 : 1;
  return CanonicalMultiset(
      NaiveFilter(s == 0 ? run.s0 : run.s1,
                  {MakeCompareConst({s, "v"}, CmpOp::kLt, Value::Int64(50))}));
}

TEST(FluxTest, ReplicatedFailoverLosesNothing) {
  FailoverRun failed, single;
  RunFailover(4, /*replication=*/true, /*fail=*/true, &failed);
  if (HasFatalFailure()) return;
  RunFailover(1, /*replication=*/false, /*fail=*/false, &single);
  if (HasFatalFailure()) return;
  ASSERT_GT(failed.occupancy_at_crash, 0) << "the crash must catch rows queued";
  EXPECT_EQ(failed.shards_after, 3u);
  EXPECT_EQ(failed.lost, 0u);
  for (const char* key : {"join", "f0", "f1"}) {
    auto expected = ExpectedFailoverResults(failed, key);
    EXPECT_EQ(CanonicalMultiset(failed.got.Take(key)), expected) << key;
    EXPECT_EQ(CanonicalMultiset(single.got.Take(key)), expected) << key;
  }
}

TEST(FluxTest, UnreplicatedFailureLosesState) {
  FailoverRun run;
  RunFailover(4, /*replication=*/false, /*fail=*/true, &run);
  if (HasFatalFailure()) return;
  ASSERT_GT(run.occupancy_at_crash, 0);
  EXPECT_GT(run.lost, 0u) << "the crash's losses must be counted";
  size_t missing = 0;
  for (const char* key : {"join", "f0", "f1"}) {
    auto expected = ExpectedFailoverResults(run, key);
    // Lossy, never wrong: every delivered result is a real one.
    for (const auto& [tuple, count] : CanonicalMultiset(run.got.Take(key))) {
      ASSERT_LE(count, expected[tuple]) << key << " " << tuple;
      expected[tuple] -= count;
    }
    for (const auto& [tuple, count] : expected) missing += count;
  }
  EXPECT_GT(missing, 0u) << "without replication a crash must lose results";
}

TEST(FluxTest, ReplicationCostsThroughput) {
  // The QoS knob: replication copies every consumed row a SteM keeps into a
  // shadow, work a fault-free run pays for and gets no extra results from.
  // (E8 in bench_flux measures what the copies cost in rows per second.)
  auto run = [](bool replication, FailoverRun* out, int64_t* shadow_rows) {
    Executor exec({.num_eos = 2,
                   .quantum = 16,
                   .shards = 4,
                   .shard_replication = replication});
    SubmitFailoverQueries(&exec, &out->got);
    exec.Start();
    Rng rng(6);
    Timestamp ts = 1;
    IngestPhase(&exec, &rng, 300, &ts, out);
    ASSERT_TRUE(Drain(&exec).ok());
    exec.Stop();
    *shadow_rows = exec.metrics()->Snapshot().GaugeValue(
        "tcq_shard_shadow_rows{class=\"class0\"}");
  };
  FailoverRun plain, replicated;
  int64_t plain_shadow = 0, replicated_shadow = 0;
  run(false, &plain, &plain_shadow);
  if (HasFatalFailure()) return;
  run(true, &replicated, &replicated_shadow);
  if (HasFatalFailure()) return;
  EXPECT_EQ(plain_shadow, 0);
  EXPECT_GT(replicated_shadow, 0)
      << "replication must copy the rows the SteMs keep";
  for (const char* key : {"join", "f0", "f1"}) {
    EXPECT_EQ(CanonicalMultiset(replicated.got.Take(key)),
              CanonicalMultiset(plain.got.Take(key)))
        << key;
  }
}

/// Ingests `rows` rows per stream, in batches of 10, with keys drawn from
/// `rng`, logging them.
void IngestLogged(Executor* exec, Rng* rng, int rows, int64_t keys,
                  Timestamp* ts, std::vector<Tuple>* s0,
                  std::vector<Tuple>* s1) {
  for (int i = 0; i < rows; i += 10) {
    for (SourceId s : {SourceId{0}, SourceId{1}}) {
      TupleBatch batch(s);
      for (int j = i; j < std::min(rows, i + 10); ++j) {
        Tuple t = Row(s, rng->UniformInt(0, keys - 1), *ts, *ts);
        ++*ts;
        (s == 0 ? s0 : s1)->push_back(t);
        batch.push_back(t);
      }
      ASSERT_TRUE(exec->IngestBatch(std::move(batch)).ok());
    }
  }
}

TEST(FluxTest, FailoverIsExactAfterSkewRepartitionAndRestore) {
  auto join_pred = MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"});
  const Executor::Options opts{.num_eos = 2,
                               .quantum = 16,
                               .shards = 4,
                               .shard_min_skew_volume = 64,
                               .shard_replication = true};
  const std::string path = testing::TempDir() + "/flux_failover_ckpt";
  std::vector<Tuple> s0, s1;
  Timestamp ts = 1;
  {
    // Skew re-partition, then a crash: the shadows were re-seeded by the
    // re-partition, so the failover is still exact.
    Collector got;
    Executor exec(opts);
    ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
    ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
    ASSERT_TRUE(
        exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
    exec.Start();
    Rng hot(7);
    IngestLogged(&exec, &hot, 100, 1, &ts, &s0, &s1);  // one hot key
    ASSERT_TRUE(Drain(&exec).ok());
    ASSERT_TRUE(exec.RepartitionSkewedOnce());
    Rng rng(29);
    IngestLogged(&exec, &rng, 150, 31, &ts, &s0, &s1);
    // LPT placed the heaviest bucket, the hot key's, on shard 0: crash the
    // shard whose state the re-partition moved.
    ASSERT_TRUE(exec.FailShard(0, 0).ok());
    IngestLogged(&exec, &rng, 150, 31, &ts, &s0, &s1);
    ASSERT_TRUE(Drain(&exec).ok());
    EXPECT_EQ(CanonicalMultiset(got.Take("join")),
              CanonicalMultiset(NaiveJoin({s0, s1}, {join_pred})));

    CheckpointWriter w(1);
    ASSERT_TRUE(exec.CheckpointTo(&w).ok());
    ASSERT_TRUE(w.WriteTo(path).ok());
    exec.Stop();
  }
  // Restore, then a crash: the restore seeded the shadows, so the
  // restored entries survive the failover. The restored class delivers
  // every pair whose later row arrives after the restore.
  Collector got;
  Executor exec(opts);
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  // Restore is re-submission: the join comes back under its recorded id,
  // then the checkpoint loads its state.
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join"), 1).ok());
  auto reader = CheckpointReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto replayed = exec.RestoreFrom(reader->get());
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(*replayed, s0.size() + s1.size());
  ASSERT_EQ(exec.Topology()[0].shards, 4u);
  auto before = CanonicalMultiset(NaiveJoin({s0, s1}, {join_pred}));
  exec.Start();
  Rng rng(31);
  IngestLogged(&exec, &rng, 100, 31, &ts, &s0, &s1);
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_TRUE(exec.FailShard(0, 0).ok());
  IngestLogged(&exec, &rng, 100, 31, &ts, &s0, &s1);
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
  auto expected = CanonicalMultiset(NaiveJoin({s0, s1}, {join_pred}));
  for (const auto& [tuple, count] : before) {
    expected[tuple] -= count;
    if (expected[tuple] == 0) expected.erase(tuple);
  }
  EXPECT_EQ(CanonicalMultiset(got.Take("join")), expected);
}

TEST(FluxTest, ReplicatedFailoverReplaysOnlyTheFailedShard) {
  // The surviving shards' SteMs move by reference; only the failed shard's
  // rows, rebuilt from its shadows, replay into its standby.
  Collector got;
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = 4,
                 .shard_replication = true});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
  Rng rng(19);
  Timestamp ts = 1;
  std::vector<Tuple> s0, s1;
  IngestLogged(&exec, &rng, 200, 31, &ts, &s0, &s1);
  ASSERT_TRUE(Drain(&exec).ok());  // no EO runs: every row is consumed
  // No eviction: the failed shard's SteMs hold every row routed to it.
  uint64_t held = ShardIngest(&exec, kFailed);
  ASSERT_GT(held, 0u);
  ASSERT_LT(held, s0.size() + s1.size());
  uint64_t before = FamilySum(&exec, "tcq_shard_stem_entries_replayed_total");
  ASSERT_TRUE(exec.FailShard(0, kFailed).ok());
  EXPECT_EQ(FamilySum(&exec, "tcq_shard_stem_entries_replayed_total"),
            before + held);

  exec.Start();
  IngestLogged(&exec, &rng, 100, 31, &ts, &s0, &s1);
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
  EXPECT_EQ(CanonicalMultiset(got.Take("join")),
            CanonicalMultiset(NaiveJoin(
                {s0, s1}, {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"})})));
}

TEST(FluxTest, FailureGuards) {
  Collector got;
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = 2,
                 .shard_replication = true});
  SubmitFailoverQueries(&exec, &got);
  EXPECT_EQ(exec.FailShard(7, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(exec.FailShard(0, 2).code(), StatusCode::kInvalidArgument);
  Rng rng(5);
  Timestamp ts = 1;
  FailoverRun run;
  IngestPhase(&exec, &rng, 50, &ts, &run);
  ASSERT_TRUE(Drain(&exec).ok());
  // The capacity the knob costs: every SteM-held row has a shadow copy.
  EXPECT_GT(exec.metrics()->Snapshot().GaugeValue(
                "tcq_shard_shadow_rows{class=\"class0\"}"),
            0);
  ASSERT_TRUE(exec.FailShard(0, 0).ok());
  EXPECT_EQ(exec.Topology()[0].shards, 1u);
  EXPECT_EQ(exec.FailShard(0, 0).code(), StatusCode::kFailedPrecondition);
  // Failing shards never loses the replicated results (one shard left: no
  // shadow needed any more).
  EXPECT_EQ(exec.metrics()->Snapshot().GaugeValue(
                "tcq_shard_shadow_rows{class=\"class0\"}"),
            0);
  ASSERT_TRUE(Drain(&exec).ok());
  EXPECT_EQ(CanonicalMultiset(got.Take("join")),
            ExpectedFailoverResults(run, "join"));
}

TEST(FluxTest, ShadowsFollowStemEviction) {
  // A shadow keeps only consumed rows its SteM still holds: the last
  // max_count per shard for a joined stream, none for a stream no join
  // keeps. Trims run every 1024 rows, so each (stream, shard) shadow stays
  // below max_count + 1024 rows however much is ingested.
  Collector got;
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = 2,
                 .shard_replication = true});
  StemOptions capped;
  capped.max_count = 16;
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0), capped).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1), capped).ok());
  ASSERT_TRUE(exec.RegisterStream(2, Sch(2)).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
  ASSERT_TRUE(exec.SubmitQuery(FilterSpec(2, 50), got.SinkFor("f")).ok());
  Rng rng(11);
  Timestamp ts = 1;
  for (int b = 0; b < 80; ++b) {
    for (SourceId s : {SourceId{0}, SourceId{1}, SourceId{2}}) {
      TupleBatch batch(s);
      for (int i = 0; i < 64; ++i) {
        batch.push_back(Row(s, rng.UniformInt(0, 999), 0, ts++));
      }
      ASSERT_TRUE(exec.IngestBatch(std::move(batch)).ok());
    }
    ASSERT_TRUE(Drain(&exec).ok());  // no EO runs: each batch is consumed
  }
  auto snap = exec.metrics()->Snapshot();
  int64_t joined = snap.GaugeValue("tcq_shard_shadow_rows{class=\"class0\"}");
  int64_t keyless = snap.GaugeValue("tcq_shard_shadow_rows{class=\"class1\"}");
  EXPECT_GT(joined, 0);
  EXPECT_LT(joined, 2 * 2 * (16 + 1024)) << "of " << 2 * 80 * 64 << " rows";
  EXPECT_GT(keyless, 0);
  EXPECT_LT(keyless, 2 * 1024) << "of " << 80 * 64 << " rows";
}

TEST(FluxTest, FailoverRacesConcurrentIngest) {
  // One thread ingests while another fails shards: every failover quiesces
  // the class under the route lock, and the result is still exact.
  Collector got;
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = 4,
                 .shard_replication = true});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
  exec.Start();
  std::vector<Tuple> s0, s1;
  std::atomic<int> batches{0};
  std::thread pusher([&] {
    Rng rng(41);
    Timestamp ts = 1;
    for (int b = 0; b < 40; ++b) {
      for (SourceId s : {SourceId{0}, SourceId{1}}) {
        TupleBatch batch(s);
        for (int i = 0; i < 16; ++i) {
          Tuple t = Row(s, rng.UniformInt(0, 40), ts, ts);
          ++ts;
          (s == 0 ? s0 : s1).push_back(t);
          batch.push_back(t);
        }
        EXPECT_TRUE(exec.IngestBatch(std::move(batch)).ok());
      }
      batches.store(b + 1);
    }
  });
  for (int target : {10, 20, 30}) {
    while (batches.load() < target) std::this_thread::yield();
    EXPECT_TRUE(exec.FailShard(0, 0).ok());
  }
  pusher.join();
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
  EXPECT_EQ(exec.Topology()[0].shards, 1u);
  EXPECT_EQ(CanonicalMultiset(got.Take("join")),
            CanonicalMultiset(NaiveJoin(
                {s0, s1}, {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"})})));
}

// --- Columnar partition: a columnar batch is split on its key lane ---------

/// The partition key's lane, as ColumnStore::FromRows lays it out.
enum class KeyLane { kInt64, kInt64Nulls, kTimestamp, kDouble, kString,
                     kGeneric };

const char* KeyLaneName(KeyLane lane) {
  switch (lane) {
    case KeyLane::kInt64: return "int64";
    case KeyLane::kInt64Nulls: return "int64_nulls";
    case KeyLane::kTimestamp: return "timestamp";
    case KeyLane::kDouble: return "double";
    case KeyLane::kString: return "string";
    case KeyLane::kGeneric: return "generic";
  }
  return "?";
}

SchemaRef KeyedSch(SourceId source, KeyLane lane) {
  ValueType key = lane == KeyLane::kTimestamp ? ValueType::kTimestamp
                  : lane == KeyLane::kDouble  ? ValueType::kDouble
                  : lane == KeyLane::kString  ? ValueType::kString
                                              : ValueType::kInt64;
  return Schema::Make({{"k", key, source}, {"v", ValueType::kInt64, source}});
}

/// Key `k` as the lane stores it. Generic mixes int64 and timestamp values
/// per key (equal keys keep one type, so they still co-partition).
Value KeyValue(KeyLane lane, int64_t k) {
  switch (lane) {
    case KeyLane::kInt64: return Value::Int64(k);
    case KeyLane::kInt64Nulls:
      return k % 5 == 0 ? Value::Null() : Value::Int64(k);
    case KeyLane::kTimestamp: return Value::TimestampVal(k);
    case KeyLane::kDouble: return Value::Double(static_cast<double>(k) + 0.5);
    case KeyLane::kString: return Value::String("key" + std::to_string(k));
    case KeyLane::kGeneric:
      return k % 2 == 0 ? Value::Int64(k) : Value::TimestampVal(k);
  }
  return Value::Null();
}

/// Rows [from, to) of one stream (sharing one schema object) as a
/// columnar-only batch, the shape PushBuilt ingests.
TupleBatch ColumnarBatch(SourceId source, const std::vector<Tuple>& rows,
                         size_t from, size_t to) {
  ColumnStore::Ref cols = ColumnStore::FromRows(&rows[from], to - from);
  EXPECT_NE(cols, nullptr);
  return TupleBatch(source, std::move(cols));
}

TupleBatch RowBatch(SourceId source, const std::vector<Tuple>& rows,
                    size_t from, size_t to) {
  TupleBatch batch(source);
  for (size_t i = from; i < to; ++i) batch.push_back(rows[i]);
  return batch;
}

/// Ingests both streams in interleaved batches of `per_batch` rows.
void IngestBoth(Executor* exec, const std::vector<Tuple> (&rows)[2],
                bool columnar, size_t per_batch) {
  size_t n = std::max(rows[0].size(), rows[1].size());
  for (size_t from = 0; from < n; from += per_batch) {
    for (SourceId s : {SourceId{0}, SourceId{1}}) {
      size_t to = std::min(rows[s].size(), from + per_batch);
      if (from >= to) continue;
      TupleBatch batch = columnar ? ColumnarBatch(s, rows[s], from, to)
                                  : RowBatch(s, rows[s], from, to);
      ASSERT_EQ(batch.columnar_only(), columnar);
      ASSERT_TRUE(exec->IngestBatch(std::move(batch)).ok());
    }
  }
}

std::vector<Tuple> RunKeyedJoin(const std::vector<Tuple> (&rows)[2],
                                size_t shards, bool columnar,
                                std::vector<uint64_t>* shard_ingest) {
  Collector got;
  Executor exec({.num_eos = 2, .quantum = 16, .shards = shards});
  EXPECT_TRUE(exec.RegisterStream(0, rows[0][0].schema()).ok());
  EXPECT_TRUE(exec.RegisterStream(1, rows[1][0].schema()).ok());
  EXPECT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
  EXPECT_EQ(exec.Topology()[0].shards, shards);
  exec.Start();
  IngestBoth(&exec, rows, columnar, 13);
  EXPECT_TRUE(exec.CloseStream(0).ok());
  EXPECT_TRUE(exec.CloseStream(1).ok());
  EXPECT_TRUE(Drain(&exec).ok());
  exec.Stop();
  for (size_t k = 0; k < shards; ++k) {
    shard_ingest->push_back(ShardIngest(&exec, k));
  }
  return got.Take("join");
}

TEST(ColumnarPartitionTest, EveryKeyLaneMatchesRowsOneShardAndReference) {
  for (KeyLane lane : {KeyLane::kInt64, KeyLane::kInt64Nulls,
                       KeyLane::kTimestamp, KeyLane::kDouble, KeyLane::kString,
                       KeyLane::kGeneric}) {
    SCOPED_TRACE(KeyLaneName(lane));
    std::vector<Tuple> rows[2];
    Rng rng(29);
    Timestamp ts = 1;
    for (SourceId s : {SourceId{0}, SourceId{1}}) {
      SchemaRef schema = KeyedSch(s, lane);
      for (int i = 0; i < 200; ++i) {
        rows[s].push_back(Tuple::Make(
            schema,
            {KeyValue(lane, rng.UniformInt(0, 39)),
             Value::Int64(rng.UniformInt(0, 99))},
            ts++));
      }
    }
    // The batches carry the lane under test.
    ColumnStore::Ref probe = ColumnStore::FromRows(rows[0].data(), 13);
    ASSERT_NE(probe, nullptr);
    const Column& key = probe->column(0);
    EXPECT_EQ(key.rep == ColumnRep::kGeneric, lane == KeyLane::kGeneric);
    EXPECT_EQ(key.is_timestamp, lane == KeyLane::kTimestamp);

    auto expected = CanonicalMultiset(NaiveJoin(
        {rows[0], rows[1]}, {MakeCompareAttrs({0, "k"}, CmpOp::kEq,
                                              {1, "k"})}));
    ASSERT_FALSE(expected.empty());
    std::vector<uint64_t> col_ingest, row_ingest, one_ingest;
    EXPECT_EQ(CanonicalMultiset(RunKeyedJoin(rows, 4, true, &col_ingest)),
              expected);
    EXPECT_EQ(CanonicalMultiset(RunKeyedJoin(rows, 4, false, &row_ingest)),
              expected);
    EXPECT_EQ(CanonicalMultiset(RunKeyedJoin(rows, 1, true, &one_ingest)),
              expected);
    // Both representations put every row on the same shard, and the
    // columnar split really spreads the rows.
    EXPECT_EQ(col_ingest, row_ingest);
    for (uint64_t n : col_ingest) EXPECT_GT(n, 0u);
  }
}

/// The bucket -> shard map, read back by pushing one stream-0 row per
/// bucket and watching which shard's ingest counter moves.
std::vector<size_t> ProbeOwners(Executor* exec, SchemaRef schema) {
  Partitioner buckets(64, 1);
  std::vector<size_t> owners(64, SIZE_MAX);
  int64_t key = 1'000'000;
  for (size_t found = 0; found < 64; ++key) {
    size_t b = buckets.BucketOf(key);
    if (owners[b] != SIZE_MAX) continue;
    std::vector<uint64_t> before(4);
    for (size_t k = 0; k < 4; ++k) before[k] = ShardIngest(exec, k);
    EXPECT_TRUE(exec->IngestTuple(0, Tuple::Make(schema, {Value::Int64(key),
                                                          Value::Int64(0)},
                                                 1))
                    .ok());
    for (size_t k = 0; k < 4; ++k) {
      if (ShardIngest(exec, k) != before[k]) owners[b] = k;
    }
    EXPECT_NE(owners[b], SIZE_MAX);
    ++found;
  }
  return owners;
}

TEST(ColumnarPartitionTest, SkewPassSeesTheSameBucketCounts) {
  // The LPT skew pass reads the per-bucket counts the partition kept; the
  // same rows ingested as columns or as rows must yield one owner map.
  SchemaRef schema = Sch(0);
  std::vector<Tuple> rows;
  Rng rng(31);
  for (int i = 0; i < 64 * 64; ++i) {
    rows.push_back(Tuple::Make(
        schema,
        {Value::Int64(static_cast<int64_t>(rng.Zipf(2000, 1.1))),
         Value::Int64(i)},
        i + 1));
  }
  std::vector<size_t> owners[2];
  for (bool columnar : {true, false}) {
    Collector got;
    Executor exec({.num_eos = 2,
                   .quantum = 16,
                   .shards = 4,
                   .shard_skew_threshold = 1.2,
                   .shard_min_skew_volume = 64});
    ASSERT_TRUE(exec.RegisterStream(0, schema).ok());
    ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
    ASSERT_TRUE(
        exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("join")).ok());
    exec.Start();
    for (size_t from = 0; from < rows.size(); from += 64) {
      ASSERT_TRUE(exec.IngestBatch(columnar
                                       ? ColumnarBatch(0, rows, from, from + 64)
                                       : RowBatch(0, rows, from, from + 64))
                      .ok());
    }
    ASSERT_TRUE(Drain(&exec).ok());
    ASSERT_TRUE(exec.RepartitionSkewedOnce());
    owners[columnar] = ProbeOwners(&exec, schema);
    ASSERT_TRUE(Drain(&exec).ok());
    exec.Stop();
  }
  EXPECT_EQ(owners[true], owners[false]);
  std::vector<size_t> round_robin(64);
  for (size_t b = 0; b < 64; ++b) round_robin[b] = b % 4;
  EXPECT_NE(owners[true], round_robin) << "the skew pass must move buckets";
}

TEST(ColumnarPartitionTest, ReplicatedFailoverIsExactUnderColumnarIngest) {
  // RunFailover's three phases (consumed before the crash, queued at it,
  // pushed after it), fed as columnar batches.
  FailoverRun run;
  Executor exec({.num_eos = 2,
                 .quantum = 16,
                 .shards = 4,
                 .shard_replication = true});
  SubmitFailoverQueries(&exec, &run.got);
  SchemaRef schemas[2] = {Sch(0), Sch(1)};
  Rng rng(37);
  Timestamp ts = 1;
  auto phase = [&] {
    std::vector<Tuple> rows[2];
    for (int i = 0; i < 150; ++i) {
      for (SourceId s : {SourceId{0}, SourceId{1}}) {
        rows[s].push_back(Tuple::Make(
            schemas[s],
            {Value::Int64(rng.UniformInt(0, 22)),
             Value::Int64(rng.UniformInt(0, 99))},
            ts++));
      }
    }
    IngestBoth(&exec, rows, /*columnar=*/true, 10);
    run.s0.insert(run.s0.end(), rows[0].begin(), rows[0].end());
    run.s1.insert(run.s1.end(), rows[1].begin(), rows[1].end());
  };
  phase();
  if (HasFatalFailure()) return;
  ASSERT_TRUE(Drain(&exec).ok());  // no EO runs: drains inline
  phase();
  if (HasFatalFailure()) return;
  ASSERT_GT(exec.metrics()->Snapshot().GaugeValue(
                "tcq_shard_occupancy{shard=\"class0/s" +
                std::to_string(kFailed) + "\"}"),
            0)
      << "the crash must catch rows queued";
  ASSERT_TRUE(exec.FailShard(0, kFailed).ok());
  exec.Start();
  phase();
  if (HasFatalFailure()) return;
  ASSERT_TRUE(exec.CloseStream(0).ok());
  ASSERT_TRUE(exec.CloseStream(1).ok());
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
  EXPECT_EQ(exec.metrics()->Snapshot().CounterValue(
                "tcq_shard_failover_lost_total{class=\"class0\"}"),
            0u);
  for (const char* key : {"join", "f0", "f1"}) {
    EXPECT_EQ(CanonicalMultiset(run.got.Take(key)),
              ExpectedFailoverResults(run, key))
        << key;
  }
}

}  // namespace
}  // namespace tcq
