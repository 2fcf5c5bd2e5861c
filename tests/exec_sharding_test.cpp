// Flux-sharded query-class tests: a class partitioned across N shard
// replicas must produce the same result multiset as the single-shard class
// (pinned against the naive reference evaluator), including across an
// online skew re-partition; keyless classes round-robin across shards;
// conflicting partition-key requirements collapse the class to one shard;
// and bridging merges still work when both classes are sharded.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"
#include "operators/predicate.h"
#include "reference/drain.h"
#include "reference/reference.h"

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
    return [this, key](GlobalQueryId, const Tuple& t) {
      std::lock_guard<std::mutex> lock(mu_);
      results_[key].push_back(t);
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

TEST(ExecShardingTest, BridgingMergeWorksAcrossShardedClasses) {
  // Two sharded classes (join 0-1 and join 2-3) merged by a bridging query
  // (1.k = 2.k): the merge collapses both to one shard, absorbs, and the
  // bridging admission re-expands the survivor. No deliveries lost.
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

  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(1, "k", 2, "k"), got.SinkFor("bridge")).ok());
  EXPECT_EQ(exec.class_merges(), 1u);
  ASSERT_EQ(exec.num_classes(), 1u);
  auto topo = exec.Topology();
  ASSERT_EQ(topo.size(), 1u);
  EXPECT_EQ(topo[0].shards, 2u);  // re-expanded after the merge

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

}  // namespace
}  // namespace tcq
