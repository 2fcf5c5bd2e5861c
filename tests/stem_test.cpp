// Tests for SteMs: build/probe/evict semantics, the exactly-once sequence
// rule, hash vs scan probes, and eviction policies (paper §2.2).

#include <gtest/gtest.h>

#include "cacq/shared_eddy.h"
#include "stem/stem.h"

namespace tcq {
namespace {

SchemaRef Sch(SourceId source) {
  return Schema::Make({
      {"k", ValueType::kInt64, source},
      {"payload", ValueType::kString, source},
  });
}

Tuple Row(SourceId source, int64_t k, const std::string& payload,
          Timestamp ts) {
  return Tuple::Make(Sch(source), {Value::Int64(k), Value::String(payload)},
                     ts);
}

TEST(SteMTest, BuildAndProbeEq) {
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k"});
  stem.Build(Row(1, 10, "a", 1), /*seq=*/1);
  stem.Build(Row(1, 10, "b", 2), /*seq=*/2);
  stem.Build(Row(1, 20, "c", 3), /*seq=*/3);

  std::vector<const StemEntry*> out;
  stem.ProbeEq(Value::Int64(10), /*seq_bound=*/100, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->tuple.Get("payload").AsString(), "a");
  EXPECT_EQ(out[1]->tuple.Get("payload").AsString(), "b");

  out.clear();
  stem.ProbeEq(Value::Int64(99), 100, &out);
  EXPECT_TRUE(out.empty());
}

TEST(SteMTest, SeqBoundExcludesLaterBuilds) {
  // The exactly-once rule: a probe only sees builds that arrived earlier.
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k"});
  stem.Build(Row(1, 10, "early", 1), 1);
  stem.Build(Row(1, 10, "late", 9), 9);

  std::vector<const StemEntry*> out;
  stem.ProbeEq(Value::Int64(10), /*seq_bound=*/5, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->tuple.Get("payload").AsString(), "early");
}

TEST(SteMTest, ScanProbeReturnsAllEarlier) {
  SteM stem("stemT", 1, Sch(1), {});  // scan-only, no key
  EXPECT_FALSE(stem.has_hash_index());
  stem.Build(Row(1, 1, "a", 1), 1);
  stem.Build(Row(1, 2, "b", 2), 2);
  stem.Build(Row(1, 3, "c", 3), 3);

  std::vector<const StemEntry*> out;
  stem.ProbeScan(/*seq_bound=*/3, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(SteMTest, MaxCountEvictsFifo) {
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k", .max_count = 2});
  stem.Build(Row(1, 10, "a", 1), 1);
  stem.Build(Row(1, 10, "b", 2), 2);
  stem.Build(Row(1, 10, "c", 3), 3);
  EXPECT_EQ(stem.size(), 2u);
  EXPECT_EQ(stem.evictions(), 1u);

  std::vector<const StemEntry*> out;
  stem.ProbeEq(Value::Int64(10), 100, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->tuple.Get("payload").AsString(), "b");
  EXPECT_EQ(out[1]->tuple.Get("payload").AsString(), "c");
}

TEST(SteMTest, WindowEvictionOnAdvanceTime) {
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k", .window = 10});
  stem.Build(Row(1, 10, "t1", 1), 1);
  stem.Build(Row(1, 10, "t5", 5), 2);
  stem.Build(Row(1, 10, "t12", 12), 3);

  stem.AdvanceTime(15);  // cutoff = 5: evicts t1 and t5
  EXPECT_EQ(stem.size(), 1u);
  std::vector<const StemEntry*> out;
  stem.ProbeEq(Value::Int64(10), 100, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->tuple.Get("payload").AsString(), "t12");
}

TEST(SteMTest, NoWindowMeansNoEviction) {
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k"});
  stem.Build(Row(1, 10, "a", 1), 1);
  stem.AdvanceTime(1000000);
  EXPECT_EQ(stem.size(), 1u);
}

TEST(SteMTest, StatsCount) {
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k"});
  stem.Build(Row(1, 10, "a", 1), 1);
  std::vector<const StemEntry*> out;
  stem.ProbeEq(Value::Int64(10), 100, &out);
  stem.ProbeEq(Value::Int64(11), 100, &out);
  EXPECT_EQ(stem.builds(), 1u);
  EXPECT_EQ(stem.probes(), 2u);
  EXPECT_EQ(stem.matches(), 1u);
}

TEST(EntryLogTest, AbsoluteIdsSurviveEviction) {
  EntryLog log;
  uint64_t id0 = log.Append({Row(0, 1, "a", 1), 1});
  uint64_t id1 = log.Append({Row(0, 2, "b", 2), 2});
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  log.PopFront();
  EXPECT_FALSE(log.IsLive(id0));
  EXPECT_TRUE(log.IsLive(id1));
  EXPECT_EQ(log.Get(id1).tuple.Get("payload").AsString(), "b");
}

TEST(HashIndexTest, LookupPrunesDeadPrefix) {
  EntryLog log;
  HashIndex index;
  for (int i = 0; i < 4; ++i) {
    uint64_t id = log.Append({Row(0, 7, "x" + std::to_string(i), i), i});
    index.Insert(Value::Int64(7), id);
  }
  log.PopFront();
  log.PopFront();
  std::vector<uint64_t> ids;
  index.Lookup(Value::Int64(7), log, &ids);
  EXPECT_EQ(ids, (std::vector<uint64_t>{2, 3}));
}

TEST(HashIndexTest, VacuumDropsDeadBuckets) {
  EntryLog log;
  HashIndex index;
  uint64_t id = log.Append({Row(0, 7, "x", 1), 1});
  index.Insert(Value::Int64(7), id);
  EXPECT_EQ(index.num_buckets(), 1u);
  log.PopFront();
  index.Vacuum(log);
  EXPECT_EQ(index.num_buckets(), 0u);
}

// --- SharedSteMProbe: the eddy's join module -------------------------------

SharedEnvelope Env(Tuple tuple, Timestamp seq, QueryId live) {
  SharedEnvelope env;
  env.tuple = std::move(tuple);
  env.seq_max = seq;
  env.live.Add(live);
  return env;
}

TEST(SteMProbeTest, AppliesOnlyToTuplesMissingTheSource) {
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k"});
  SharedSteMProbe probe("probeT", &stem, AttrRef{0, "k"}, AttrRef{1, "k"});
  probe.Subscribe(0);
  Tuple s = Row(0, 10, "s", 1);
  Tuple t = Row(1, 10, "t", 2);
  EXPECT_TRUE(probe.AppliesTo(Env(s, 1, 0)));
  EXPECT_FALSE(probe.AppliesTo(Env(t, 2, 0)));
  Tuple st = Tuple::Concat(s, t, Schema::Concat(Sch(0), Sch(1)));
  EXPECT_FALSE(probe.AppliesTo(Env(st, 2, 0)));
  // A tuple that doesn't span the probe-key source can't probe yet.
  EXPECT_FALSE(probe.AppliesTo(Env(Row(2, 10, "u", 3), 3, 0)));
  // Nor can one whose live queries do not subscribe to the edge.
  EXPECT_FALSE(probe.AppliesTo(Env(s, 1, 1)));
}

TEST(SteMProbeTest, ProbeEmitsConcatenations) {
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k"});
  stem.Build(Row(1, 10, "match1", 1), 1);
  stem.Build(Row(1, 11, "nomatch", 2), 2);
  stem.Build(Row(1, 10, "match2", 3), 3);

  SharedSteMProbe probe("probeT", &stem, AttrRef{0, "k"}, AttrRef{1, "k"});
  probe.Subscribe(0);
  SharedEnvelope env = Env(Row(0, 10, "probe", 4), 4, 0);
  std::vector<SharedEnvelope> out;
  // The parent keeps routing: it may still satisfy narrower queries.
  EXPECT_EQ(probe.Process(&env, &out), ModuleAction::kPass);
  ASSERT_EQ(out.size(), 2u);
  for (const SharedEnvelope& child : out) {
    EXPECT_EQ(child.tuple.sources(), SourceBit(0) | SourceBit(1));
    EXPECT_EQ(child.tuple.num_fields(), 4u);
    EXPECT_TRUE(child.live.Contains(0));
  }
  EXPECT_EQ(out[0].seq_max, 4);  // max(probe seq 4, build seq 1)
}

TEST(SteMProbeTest, ZeroMatchesEmitNoChildren) {
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k"});
  SharedSteMProbe probe("probeT", &stem, AttrRef{0, "k"}, AttrRef{1, "k"});
  probe.Subscribe(0);
  SharedEnvelope env = Env(Row(0, 10, "probe", 4), 4, 0);
  std::vector<SharedEnvelope> out;
  EXPECT_EQ(probe.Process(&env, &out), ModuleAction::kPass);
  EXPECT_TRUE(out.empty());
}

TEST(SteMProbeTest, ResidualPredicateFiltersMatches) {
  // The probe emits every key match; the query's residual (applied by the
  // eddy's ResidualFilterModule over the joined span) keeps only those the
  // predicate admits.
  SteM stem("stemT", 1, Sch(1), {.key_attr = "k"});
  stem.Build(Row(1, 10, "aaa", 1), 1);
  stem.Build(Row(1, 10, "zzz", 2), 2);
  SharedSteMProbe probe("probeT", &stem, AttrRef{0, "k"}, AttrRef{1, "k"});
  probe.Subscribe(0);

  // Residual: build payload must be lexicographically above probe payload.
  ResidualFilterModule residual("residual", SourceBit(0) | SourceBit(1));
  residual.AddResidual(
      0, MakeCompareAttrs({1, "payload"}, CmpOp::kGt, {0, "payload"}));

  SharedEnvelope env = Env(Row(0, 10, "mmm", 5), 5, 0);
  std::vector<SharedEnvelope> matches;
  EXPECT_EQ(probe.Process(&env, &matches), ModuleAction::kPass);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_FALSE(residual.AppliesTo(env));  // the probe tuple lacks source 1

  std::vector<SharedEnvelope> kept;
  for (SharedEnvelope& child : matches) {
    ASSERT_TRUE(residual.AppliesTo(child));
    std::vector<SharedEnvelope> none;
    if (residual.Process(&child, &none) == ModuleAction::kPass) {
      kept.push_back(child);
    }
    EXPECT_TRUE(none.empty());
  }
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].tuple.Get("payload").AsString(), "mmm");  // first occurrence
  EXPECT_EQ(kept[0].tuple.at(3).AsString(), "zzz");
}

}  // namespace
}  // namespace tcq
