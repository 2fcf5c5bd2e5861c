// Eddy tests: correctness of adaptive routing against the naive reference
// evaluator, for every routing policy. The eddy under test is the shared
// (CACQ) eddy the engine runs — a single query is just a CACQ query set of
// one. The central property: an eddy's output is plan-invariant — any
// routing order, and any ingest batching, yields the same result multiset.

#include <gtest/gtest.h>

#include <memory>

#include "cacq/shared_eddy.h"
#include "common/rng.h"
#include "eddy/routing_policy.h"
#include "reference/reference.h"

namespace tcq {
namespace {

using testref::CanonicalMultiset;
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

std::vector<Tuple> RandomStream(SourceId source, size_t n, int64_t key_range,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Row(source, rng.UniformInt(0, key_range - 1),
                      rng.UniformInt(0, 99), static_cast<Timestamp>(i)));
  }
  return out;
}

// Collects every delivery of the eddy (all queries) into one vector.
struct Collector {
  std::vector<Tuple> tuples;
  SharedEddy::Sink Sink() {
    return [this](QueryId, const Tuple& t) { tuples.push_back(t); };
  }
};

std::unique_ptr<RoutingPolicy> MakePolicy(const std::string& kind) {
  if (kind == "lottery") return MakeLotteryPolicy(7);
  if (kind == "round-robin") return MakeRoundRobinPolicy();
  if (kind == "greedy") return MakeGreedyPolicy(0.1, 7);
  if (kind == "fixed") return MakeFixedOrderPolicy({0, 1, 2, 3});
  if (kind == "fixed-reversed") return MakeFixedOrderPolicy({3, 2, 1, 0});
  ADD_FAILURE() << "unknown policy " << kind;
  return nullptr;
}

// A shared eddy over `num_streams` (k, v) streams with one query.
std::unique_ptr<SharedEddy> OneQueryEddy(std::unique_ptr<RoutingPolicy> policy,
                                         SourceId num_streams, CQSpec spec,
                                         Collector* got,
                                         StemOptions stem_opts = {}) {
  auto eddy = std::make_unique<SharedEddy>(std::move(policy));
  for (SourceId s = 0; s < num_streams; ++s) {
    eddy->RegisterStream(s, Sch(s), stem_opts);
  }
  if (got != nullptr) eddy->SetOutput(got->Sink());
  EXPECT_TRUE(eddy->AddQuery(std::move(spec)).ok());
  return eddy;
}

// Ingests `tuples` (all of one source) in consecutive batches of `batch`.
void IngestInBatches(SharedEddy* eddy, SourceId source,
                     const std::vector<Tuple>& tuples, size_t begin,
                     size_t end, size_t batch) {
  for (size_t i = begin; i < end; i += batch) {
    TupleBatch b(source);
    for (size_t j = i; j < std::min(end, i + batch); ++j) {
      b.push_back(tuples[j]);
    }
    eddy->IngestBatch(b);
  }
}

CQSpec JoinSk_Tk() {
  CQSpec spec;
  spec.joins.push_back({{0, "k"}, {1, "k"}});
  return spec;
}

// ---------------------------------------------------------------------------
// Plan invariance under every routing policy.
// ---------------------------------------------------------------------------

class EddyPolicyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EddyPolicyTest, TwoFiltersMatchReference) {
  auto p1 = MakeCompareConst({0, "k"}, CmpOp::kLt, Value::Int64(50));
  auto p2 = MakeCompareConst({0, "v"}, CmpOp::kGe, Value::Int64(20));
  CQSpec spec;
  spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(50)});
  spec.filters.push_back({{0, "v"}, CmpOp::kGe, Value::Int64(20)});

  Collector got;
  auto eddy = OneQueryEddy(MakePolicy(GetParam()), 1, spec, &got);
  ASSERT_EQ(eddy->num_modules(), 2u);

  auto stream = RandomStream(0, 500, 100, 1);
  for (const Tuple& t : stream) eddy->Ingest(0, t);

  auto expected = NaiveFilter(stream, {p1, p2});
  EXPECT_EQ(CanonicalMultiset(got.tuples), CanonicalMultiset(expected));
  EXPECT_EQ(eddy->deliveries(), expected.size());
}

TEST_P(EddyPolicyTest, SymmetricHashJoinMatchesReference) {
  // S(k,v) join T(k,v) on S.k = T.k, interleaved arrival.
  Collector got;
  auto eddy = OneQueryEddy(MakePolicy(GetParam()), 2, JoinSk_Tk(), &got);

  auto s = RandomStream(0, 120, 20, 2);
  auto t = RandomStream(1, 120, 20, 3);
  for (size_t i = 0; i < s.size(); ++i) {
    eddy->Ingest(0, s[i]);
    eddy->Ingest(1, t[i]);
  }

  auto expected = NaiveJoin(
      {s, t}, {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"})});
  EXPECT_EQ(CanonicalMultiset(got.tuples), CanonicalMultiset(expected));
}

TEST_P(EddyPolicyTest, JoinPlusFiltersMatchReference) {
  auto f_s = MakeCompareConst({0, "v"}, CmpOp::kLt, Value::Int64(70));
  auto f_t = MakeCompareConst({1, "v"}, CmpOp::kGe, Value::Int64(10));
  CQSpec spec = JoinSk_Tk();
  spec.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(70)});
  spec.filters.push_back({{1, "v"}, CmpOp::kGe, Value::Int64(10)});

  Collector got;
  auto eddy = OneQueryEddy(MakePolicy(GetParam()), 2, spec, &got);
  ASSERT_EQ(eddy->num_modules(), 4u);  // two grouped filters, two probes

  auto s = RandomStream(0, 100, 15, 4);
  auto t = RandomStream(1, 100, 15, 5);
  for (size_t i = 0; i < s.size(); ++i) {
    eddy->Ingest(0, s[i]);
    eddy->Ingest(1, t[i]);
  }

  auto expected = NaiveJoin(
      {s, t},
      {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"}), f_s, f_t});
  EXPECT_EQ(CanonicalMultiset(got.tuples), CanonicalMultiset(expected));
}

TEST_P(EddyPolicyTest, ThreeWayJoinMatchesReference) {
  // Chain join: S.k = T.k and T.v = U.k (predicates form a path S-T-U).
  CQSpec spec = JoinSk_Tk();
  spec.joins.push_back({{1, "v"}, {2, "k"}});
  Collector got;
  auto eddy = OneQueryEddy(MakePolicy(GetParam()), 3, spec, &got);
  ASSERT_EQ(eddy->num_modules(), 4u);  // one probe per edge direction

  auto s = RandomStream(0, 60, 8, 6);
  auto t = RandomStream(1, 60, 8, 7);
  auto u = RandomStream(2, 60, 8, 8);
  // Narrow T.v so the T-U join has hits: remap v into the key range.
  for (auto& tup : t) {
    tup = Row(1, tup.Get("k").AsInt64(), tup.Get("v").AsInt64() % 8,
              tup.timestamp());
  }
  for (size_t i = 0; i < s.size(); ++i) {
    eddy->Ingest(0, s[i]);
    eddy->Ingest(1, t[i]);
    eddy->Ingest(2, u[i]);
  }

  auto expected =
      NaiveJoin({s, t, u}, {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"}),
                            MakeCompareAttrs({1, "v"}, CmpOp::kEq, {2, "k"})});
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(CanonicalMultiset(got.tuples), CanonicalMultiset(expected));
}

TEST_P(EddyPolicyTest, BatchedIngestMatchesPerTuple) {
  // Ingest batching is the eddy's one "adapting adaptivity" lever (§4.3):
  // the drain-scoped decision cache reuses a ranked slot across a batch, and
  // batches of kPrefilterMinRows or more run the grouped filters column-wise.
  // Neither may change results: every batch size yields the per-tuple
  // multiset, for a join-plus-filters query and a filter-only query.
  CQSpec join = JoinSk_Tk();
  join.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(60)});
  join.filters.push_back({{1, "v"}, CmpOp::kGe, Value::Int64(30)});
  CQSpec filters;
  filters.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(60)});
  filters.filters.push_back({{0, "v"}, CmpOp::kGe, Value::Int64(30)});
  filters.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(90)});

  auto s = RandomStream(0, 400, 25, 14);
  auto t = RandomStream(1, 400, 25, 15);
  for (const CQSpec& spec : {join, filters}) {
    std::vector<std::string> runs;
    for (size_t batch : {1, 2, 3, 5, 8, 64}) {
      Collector got;
      auto eddy = OneQueryEddy(MakePolicy(GetParam()), 2, spec, &got);
      // Alternate the two streams in chunks of 40 rows, each chunk
      // ingested in batches of `batch`.
      for (size_t i = 0; i < s.size(); i += 40) {
        IngestInBatches(eddy.get(), 0, s, i, i + 40, batch);
        IngestInBatches(eddy.get(), 1, t, i, i + 40, batch);
      }
      ASSERT_FALSE(got.tuples.empty());
      auto ms = CanonicalMultiset(got.tuples);
      std::string flat;
      for (const auto& [key, n] : ms) flat += key + "#" + std::to_string(n);
      runs.push_back(flat);
    }
    for (size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i], runs[0]) << "batch variant " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EddyPolicyTest,
                         ::testing::Values("lottery", "round-robin", "greedy",
                                           "fixed", "fixed-reversed"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Adaptivity knobs: ingest batching must not change results.
// ---------------------------------------------------------------------------

// `fix_hops` is how many hops of a route one decision fixes. The shared
// eddy chooses the next module at every hop (its drain-scoped decision
// cache may reuse a ranked slot for that choice, but never commits to a
// multi-hop route), so the only value is 1; ingest batch size is the knob.
struct KnobParam {
  uint32_t batch_size;
  uint32_t fix_hops;
};

class EddyKnobTest : public ::testing::TestWithParam<KnobParam> {};

TEST_P(EddyKnobTest, KnobsPreserveResults) {
  const KnobParam knobs = GetParam();
  ASSERT_EQ(knobs.fix_hops, 1u);
  auto p1 = MakeCompareConst({0, "k"}, CmpOp::kLt, Value::Int64(60));
  auto p2 = MakeCompareConst({0, "v"}, CmpOp::kGe, Value::Int64(30));
  auto p3 = MakeCompareConst({0, "v"}, CmpOp::kLt, Value::Int64(90));
  CQSpec spec;
  spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(60)});
  spec.filters.push_back({{0, "v"}, CmpOp::kGe, Value::Int64(30)});
  spec.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(90)});

  Collector got;
  auto eddy = OneQueryEddy(MakeLotteryPolicy(11), 1, spec, &got);
  auto stream = RandomStream(0, 800, 100, 9);
  IngestInBatches(eddy.get(), 0, stream, 0, stream.size(), knobs.batch_size);

  auto expected = NaiveFilter(stream, {p1, p2, p3});
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(CanonicalMultiset(got.tuples), CanonicalMultiset(expected));
}

TEST_P(EddyKnobTest, KnobsPreserveJoinResults) {
  const KnobParam knobs = GetParam();
  ASSERT_EQ(knobs.fix_hops, 1u);
  Collector got;
  auto eddy = OneQueryEddy(MakeLotteryPolicy(13), 2, JoinSk_Tk(), &got);

  // Interleave the streams in chunks of 16 rows, each chunk ingested in
  // batches of `batch_size`.
  auto s = RandomStream(0, 80, 10, 14);
  auto t = RandomStream(1, 80, 10, 15);
  for (size_t i = 0; i < s.size(); i += 16) {
    IngestInBatches(eddy.get(), 0, s, i, i + 16, knobs.batch_size);
    IngestInBatches(eddy.get(), 1, t, i, i + 16, knobs.batch_size);
  }
  auto expected =
      NaiveJoin({s, t}, {MakeCompareAttrs({0, "k"}, CmpOp::kEq, {1, "k"})});
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(CanonicalMultiset(got.tuples), CanonicalMultiset(expected));
}

INSTANTIATE_TEST_SUITE_P(
    KnobSweep, EddyKnobTest,
    ::testing::Values(KnobParam{1, 1}, KnobParam{8, 1}, KnobParam{64, 1}),
    [](const auto& info) {
      return "batch" + std::to_string(info.param.batch_size) + "_fix" +
             std::to_string(info.param.fix_hops);
    });

// ---------------------------------------------------------------------------
// Behavioural details.
// ---------------------------------------------------------------------------

TEST(EddyTest, BatchingReducesRoutingDecisions) {
  // Probe modules are routed inside the drain (grouped filters may be
  // prefiltered column-wise), so a join shows the decision cache at work:
  // same-lineage envelopes of one batch reuse one ranked slot.
  auto s = RandomStream(0, 1024, 100000, 21);
  auto t = RandomStream(1, 1024, 100000, 22);
  auto run = [&](size_t batch) {
    Collector got;
    auto eddy = OneQueryEddy(MakeLotteryPolicy(3), 2, JoinSk_Tk(), &got);
    for (size_t i = 0; i < s.size(); i += 64) {
      IngestInBatches(eddy.get(), 0, s, i, i + 64, batch);
      IngestInBatches(eddy.get(), 1, t, i, i + 64, batch);
    }
    return std::make_pair(eddy->routing_decisions(), got.tuples.size());
  };
  auto [fine_decisions, fine_out] = run(1);
  auto [coarse_decisions, coarse_out] = run(64);
  EXPECT_LT(coarse_decisions, fine_decisions / 4);
  EXPECT_EQ(fine_out, coarse_out);
}

TEST(EddyTest, LotteryLearnsToRouteToSelectiveFilterFirst) {
  // k < 1 drops 99%, v < 99 drops 1%. Selective-first costs ~1.01 module
  // invocations per tuple, permissive-first ~1.99: after a warmup the
  // lottery must route most tuples to the selective filter first.
  CQSpec spec;
  spec.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(99)});
  spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(1)});
  auto stream = RandomStream(0, 5000, 100, 22);

  auto work = [&](std::unique_ptr<RoutingPolicy> policy) {
    auto eddy = OneQueryEddy(std::move(policy), 1, spec, nullptr);
    for (const Tuple& t : stream) eddy->Ingest(0, t);
    return static_cast<double>(eddy->module_invocations()) /
           static_cast<double>(stream.size());
  };
  double lottery = work(MakeLotteryPolicy(5));
  double permissive_first = work(MakeFixedOrderPolicy({1, 0}));  // v first
  EXPECT_GT(permissive_first, 1.9);
  EXPECT_LT(lottery, 1.3) << "lottery failed to favour the selective filter";
}

TEST(EddyTest, WindowedJoinEvictsOldState) {
  Collector got;
  auto eddy = OneQueryEddy(MakeLotteryPolicy(5), 2, JoinSk_Tk(), &got,
                           StemOptions{.key_attr = "k", .window = 5});

  // Matching keys 100 time units apart: outside any 5-unit window.
  eddy->Ingest(0, Row(0, 7, 1, 0));
  eddy->AdvanceTime(100);
  eddy->Ingest(1, Row(1, 7, 2, 100));
  EXPECT_TRUE(got.tuples.empty());

  // Matching keys close in time: joined.
  eddy->Ingest(0, Row(0, 9, 1, 101));
  eddy->Ingest(1, Row(1, 9, 2, 102));
  EXPECT_EQ(got.tuples.size(), 1u);
}

TEST(EddyTest, ContentDriftIsHandled) {
  // The data drifts mid-stream: k < 10 passes 10% of phase-1 rows and ~91%
  // of phase-2 rows, v < 10 the reverse. Results must match the reference
  // over the whole stream, and the lottery must re-learn the order: the
  // right order costs ~1.1 module invocations per tuple, the wrong one
  // ~1.9, so each phase's last third must come in well below 1.9.
  auto f_k = MakeCompareConst({0, "k"}, CmpOp::kLt, Value::Int64(10));
  auto f_v = MakeCompareConst({0, "v"}, CmpOp::kLt, Value::Int64(10));
  CQSpec spec;
  spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(10)});
  spec.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(10)});

  Rng rng(30);
  std::vector<Tuple> stream;
  const size_t kPhase = 3000;
  for (size_t i = 0; i < 2 * kPhase; ++i) {
    int64_t wide = rng.UniformInt(0, 99);
    int64_t narrow = rng.UniformInt(0, 10);
    bool phase1 = i < kPhase;
    stream.push_back(Row(0, phase1 ? wide : narrow, phase1 ? narrow : wide,
                         static_cast<Timestamp>(i)));
  }

  Collector got;
  auto eddy = OneQueryEddy(MakeLotteryPolicy(5), 1, spec, &got);
  std::vector<double> late_work;  // per phase, over its last third
  for (size_t phase = 0; phase < 2; ++phase) {
    const size_t begin = phase * kPhase;
    const size_t late = begin + 2 * kPhase / 3;
    uint64_t before = 0;
    for (size_t i = begin; i < begin + kPhase; ++i) {
      if (i == late) before = eddy->module_invocations();
      eddy->Ingest(0, stream[i]);
    }
    late_work.push_back(
        static_cast<double>(eddy->module_invocations() - before) /
        static_cast<double>(begin + kPhase - late));
  }

  EXPECT_EQ(CanonicalMultiset(got.tuples),
            CanonicalMultiset(NaiveFilter(stream, {f_k, f_v})));
  EXPECT_LT(late_work[0], 1.3);
  EXPECT_LT(late_work[1], 1.6) << "lottery did not re-learn after the drift";
}

TEST(EddyTest, StructuralChangesInvalidateDecisionCache) {
  // A query added between batches adds a module. Decisions cached for the
  // old module set must not be replayed: every envelope of the next batch
  // visits the new probe as well, and the new query sees its results.
  Collector got;
  auto eddy = OneQueryEddy(MakeRoundRobinPolicy(), 3, JoinSk_Tk(), &got);
  auto s = RandomStream(0, 128, 1000000, 40);

  IngestInBatches(eddy.get(), 0, s, 0, 64, 64);
  EXPECT_EQ(eddy->module_invocations(), 64u);  // one probe per row
  EXPECT_EQ(eddy->routing_decisions(), 1u);    // the rest reuse it
  EXPECT_EQ(eddy->routing_decisions_reused(), 63u);

  CQSpec su;  // S.k = U.k: a second probe module for S tuples
  su.joins.push_back({{0, "k"}, {2, "k"}});
  auto q2 = eddy->AddQuery(su);
  ASSERT_TRUE(q2.ok());
  IngestInBatches(eddy.get(), 0, s, 64, 128, 64);
  EXPECT_EQ(eddy->module_invocations(), 64u + 2 * 64u);
  EXPECT_GE(eddy->routing_decisions(), 3u);  // fresh ranking per hop

  // U rows matching batch-2 S rows reach the new query.
  eddy->Ingest(2, Row(2, s[100].Get("k").AsInt64(), 0, 200));
  EXPECT_EQ(eddy->registry().Get(*q2)->results_delivered, 1u);
}

TEST(EddyTest, StatsAreConsistent) {
  CQSpec spec;
  spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(50)});
  Collector got;
  auto eddy = OneQueryEddy(MakeRoundRobinPolicy(), 1, spec, &got);
  auto stream = RandomStream(0, 200, 100, 31);
  for (const Tuple& t : stream) eddy->Ingest(0, t);
  // Each tuple visits the one filter once; every invocation follows
  // exactly one fresh or reused routing decision.
  EXPECT_EQ(eddy->module_invocations(), 200u);
  EXPECT_EQ(eddy->routing_decisions() + eddy->routing_decisions_reused(),
            eddy->module_invocations());
  EXPECT_EQ(eddy->deliveries(), got.tuples.size());
  EXPECT_EQ(eddy->registry().Get(0)->results_delivered, got.tuples.size());
  EXPECT_GT(got.tuples.size(), 0u);
  EXPECT_LT(got.tuples.size(), 200u);
}

}  // namespace
}  // namespace tcq
