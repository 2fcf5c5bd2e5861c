// Query-class lifecycle tests: bridging-query merges (result-multiset
// equivalent to a single class built up front, pinned against the naive
// reference evaluator), garbage collection of empty classes (streams freed
// for re-ownership), DU migration across EOs (no lost or duplicated
// deliveries), and the unrouted-vs-backpressure drop accounting split.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "exec/executor.h"
#include "operators/predicate.h"
#include "reference/drain.h"
#include "reference/reference.h"

namespace tcq {
namespace {

using testref::CanonicalMultiset;
using testref::Drain;
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
  spec.filters.push_back({{s, "k"}, CmpOp::kLt, Value::Int64(lt_bound)});
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

// --- Merge: result-multiset equivalence ---------------------------------------

/// Drives one executor through the shared protocol: two join queries (q01
/// over streams 0-1, q23 over streams 2-3), a prefix of every stream, then
/// the bridging join (1.k = 2.k) mid-stream, then a suffix. The `preplant`
/// flag makes stream 1 and 2 share a class from the start (never-matching
/// join), so the bridge lands in an up-front single class instead of
/// triggering a merge.
struct MergeRun {
  Collector got;
  std::vector<Tuple> s1_prefix, s2_prefix, s1_all, s2_all;
  uint64_t merges = 0;
  size_t classes_after_bridge = 0;
};

void RunMergeProtocol(bool preplant, int P, int S, MergeRun* run) {
  Executor exec({.num_eos = 2, .quantum = 16});
  for (SourceId s = 0; s < 4; ++s) {
    ASSERT_TRUE(exec.RegisterStream(s, Sch(s)).ok());
  }
  if (preplant) {
    // v values are globally unique, so this join never emits; it only
    // forces streams 1 and 2 into one class up front.
    ASSERT_TRUE(
        exec.SubmitQuery(JoinSpec(1, "v", 2, "v"), run->got.SinkFor("none"))
            .ok());
  }
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), run->got.SinkFor("q01"))
          .ok());
  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(2, "k", 3, "k"), run->got.SinkFor("q23"))
          .ok());
  ASSERT_EQ(exec.num_classes(), preplant ? 1u : 2u);
  exec.Start();

  Timestamp ts = 1;
  auto ingest = [&](int rows) {
    for (int i = 0; i < rows; ++i) {
      for (SourceId s = 0; s < 4; ++s) {
        Tuple t = Row(s, 1, static_cast<int64_t>(s) * 100000 + ts, ts);
        ASSERT_TRUE(exec.IngestTuple(s, t).ok());
        if (s == 1) run->s1_all.push_back(t);
        if (s == 2) run->s2_all.push_back(t);
        ++ts;
      }
    }
  };
  ingest(P);
  // Barrier: every prefix tuple of all four streams has been absorbed into
  // its class's SteMs, so q01 and q23 saw every prefix pair.
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(run->got.Count("q01"), static_cast<size_t>(P) * P);
  ASSERT_EQ(run->got.Count("q23"), static_cast<size_t>(P) * P);
  run->s1_prefix = run->s1_all;
  run->s2_prefix = run->s2_all;

  ASSERT_TRUE(
      exec.SubmitQuery(JoinSpec(1, "k", 2, "k"), run->got.SinkFor("bridge"))
          .ok());
  run->merges = exec.class_merges();
  run->classes_after_bridge = exec.num_classes();

  ingest(S);
  for (SourceId s = 0; s < 4; ++s) {
    ASSERT_TRUE(exec.CloseStream(s).ok());
  }
  size_t total = static_cast<size_t>(P + S) * (P + S);
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(run->got.Count("q01"), total);
  ASSERT_EQ(run->got.Count("q23"), total);
  ASSERT_EQ(run->got.Count("bridge"), total - static_cast<size_t>(P) * P);
  exec.Stop();
}

TEST(ExecLifecycleTest, BridgingMergeMatchesSingleClassUpFront) {
  constexpr int P = 6, S = 6;
  MergeRun merged, control;
  RunMergeProtocol(/*preplant=*/false, P, S, &merged);
  if (HasFatalFailure()) return;
  RunMergeProtocol(/*preplant=*/true, P, S, &control);
  if (HasFatalFailure()) return;

  EXPECT_EQ(merged.merges, 1u);
  EXPECT_EQ(merged.classes_after_bridge, 1u);
  EXPECT_EQ(control.merges, 0u);
  EXPECT_EQ(control.classes_after_bridge, 1u);

  // The merged run's result multisets are identical to the up-front single
  // class, for the bridge and for the pre-existing queries.
  for (const char* q : {"q01", "q23", "bridge"}) {
    EXPECT_EQ(CanonicalMultiset(merged.got.Take(q)),
              CanonicalMultiset(control.got.Take(q)))
        << "query " << q;
  }
  EXPECT_EQ(merged.got.Count("none"), 0u);
  EXPECT_EQ(control.got.Count("none"), 0u);

  // Pin the bridge against the naive reference: every 1x2 pair except those
  // whose later tuple predates the bridge's admission (= prefix x prefix).
  auto pred = MakeCompareAttrs({1, "k"}, CmpOp::kEq, {2, "k"});
  auto all_pairs =
      CanonicalMultiset(NaiveJoin({merged.s1_all, merged.s2_all}, {pred}));
  auto prefix_pairs = CanonicalMultiset(
      NaiveJoin({merged.s1_prefix, merged.s2_prefix}, {pred}));
  for (const auto& [key, count] : prefix_pairs) {
    all_pairs[key] -= count;
    if (all_pairs[key] == 0) all_pairs.erase(key);
  }
  EXPECT_EQ(CanonicalMultiset(merged.got.Take("bridge")), all_pairs);
}

TEST(ExecLifecycleTest, QueuedTuplesSurviveMerge) {
  // Tuples queued in the class fjords when the merge happens must neither
  // be lost nor duplicated: the merge's re-partition carries them over
  // unprocessed into the survivor's fjords, at one shard and at four.
  constexpr int K = 20;
  for (size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    Executor exec({.num_eos = 2, .shards = shards});
    ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
    ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
    Collector got;
    ASSERT_TRUE(exec.SubmitQuery(FilterSpec(0, 100), got.SinkFor("f0")).ok());
    ASSERT_TRUE(exec.SubmitQuery(FilterSpec(1, 100), got.SinkFor("f1")).ok());
    ASSERT_EQ(exec.num_classes(), 2u);
    // Not started: these sit in the two classes' fjords.
    for (int i = 0; i < K; ++i) {
      ASSERT_TRUE(exec.IngestTuple(0, Row(0, 1, i, i + 1)).ok());
      ASSERT_TRUE(exec.IngestTuple(1, Row(1, 1, i, i + 1)).ok());
    }
    ASSERT_TRUE(
        exec.SubmitQuery(JoinSpec(0, "k", 1, "k"), got.SinkFor("bridge"))
            .ok());
    EXPECT_EQ(exec.class_merges(), 1u);
    EXPECT_EQ(exec.num_classes(), 1u);

    exec.Start();
    ASSERT_TRUE(exec.CloseStream(0).ok());
    ASSERT_TRUE(exec.CloseStream(1).ok());
    ASSERT_TRUE(Drain(&exec).ok());
    exec.Stop();
    // Exact counts: the bridge was admitted before any queued tuple was
    // processed, so every 0x1 pair joins exactly once; the filters see
    // every tuple exactly once.
    EXPECT_EQ(got.Count("f0"), static_cast<size_t>(K));
    EXPECT_EQ(got.Count("f1"), static_cast<size_t>(K));
    EXPECT_EQ(got.Count("bridge"), static_cast<size_t>(K) * K);
  }
}

// --- GC: stream re-ownership ---------------------------------------------------

TEST(ExecLifecycleTest, GcFreesStreamsForReownership) {
  Executor exec({.num_eos = 1});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  Collector got;
  exec.Start();

  auto id1 = exec.SubmitQuery(FilterSpec(0, 100), got.SinkFor("gen1"));
  ASSERT_TRUE(id1.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(exec.IngestTuple(0, Row(0, 1, i, i + 1)).ok());
  }
  ASSERT_TRUE(Drain(&exec).ok());
  EXPECT_EQ(got.Count("gen1"), 50u);

  // Removing the class's only query retires the whole class...
  ASSERT_TRUE(exec.RemoveQuery(*id1).ok());
  EXPECT_EQ(exec.num_classes(), 0u);
  EXPECT_EQ(exec.class_gcs(), 1u);
  EXPECT_TRUE(exec.IngestTuple(0, Row(0, 1, 0, 60)).IsFailedPrecondition());

  // ...and frees the stream: a later query re-claims it with fresh fjords
  // and receives exactly its own tuples.
  auto id2 = exec.SubmitQuery(FilterSpec(0, 100), got.SinkFor("gen2"));
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(exec.num_classes(), 1u);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(exec.IngestTuple(0, Row(0, 1, i, 100 + i)).ok());
  }
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
  EXPECT_EQ(got.Count("gen1"), 50u);
  EXPECT_EQ(got.Count("gen2"), 30u);
}

// --- Migration: no lost or duplicated deliveries -------------------------------

TEST(ExecLifecycleTest, MigrationLosesNoDeliveries) {
  // Three classes on two EOs: classes 0 and 2 land on eo0, class 1 on eo1.
  // Driving streams 0 and 2 only makes eo0 the hot EO, so a rebalance pass
  // must migrate its busiest DU to eo1 — while data is still flowing.
  constexpr int kPhase1 = 500, kPhase2 = 500;
  Executor exec({.num_eos = 2, .quantum = 16});
  Collector got;
  std::vector<GlobalQueryId> ids;
  for (SourceId s = 0; s < 3; ++s) {
    ASSERT_TRUE(exec.RegisterStream(s, Sch(s)).ok());
    auto id = exec.SubmitQuery(FilterSpec(s, 100),
                               got.SinkFor("q" + std::to_string(s)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_EQ(exec.num_classes(), 3u);
  exec.Start();

  Timestamp ts = 1;
  for (int i = 0; i < kPhase1; ++i) {
    ASSERT_TRUE(exec.IngestTuple(0, Row(0, 1, i, ts)).ok());
    ASSERT_TRUE(exec.IngestTuple(2, Row(2, 1, i, ts)).ok());
    ++ts;
  }
  ASSERT_TRUE(Drain(&exec).ok());
  ASSERT_EQ(got.Count("q0"), static_cast<size_t>(kPhase1));
  ASSERT_EQ(got.Count("q2"), static_cast<size_t>(kPhase1));
  // eo0's progress dwarfs eo1's; one pass must move a DU.
  EXPECT_TRUE(exec.RebalanceOnce());
  EXPECT_EQ(exec.class_migrations(), 1u);
  std::map<size_t, int> per_eo;
  for (const auto& info : exec.Topology()) ++per_eo[info.eo];
  EXPECT_EQ(per_eo[0], 1);
  EXPECT_EQ(per_eo[1], 2);

  // The migrated DU keeps consuming: stream data continues on all three
  // streams and every delivery arrives exactly once.
  for (int i = 0; i < kPhase2; ++i) {
    for (SourceId s = 0; s < 3; ++s) {
      ASSERT_TRUE(exec.IngestTuple(s, Row(s, 1, i, ts)).ok());
    }
    ++ts;
    if (i % 100 == 0) (void)exec.RebalanceOnce();  // passes stay safe mid-flow
  }
  for (SourceId s = 0; s < 3; ++s) {
    ASSERT_TRUE(exec.CloseStream(s).ok());
  }
  ASSERT_TRUE(Drain(&exec).ok());
  exec.Stop();
  EXPECT_EQ(got.Count("q0"), static_cast<size_t>(kPhase1 + kPhase2));
  EXPECT_EQ(got.Count("q1"), static_cast<size_t>(kPhase2));
  EXPECT_EQ(got.Count("q2"), static_cast<size_t>(kPhase1 + kPhase2));
}

// --- Drop accounting: unrouted vs back-pressure --------------------------------

TEST(ExecLifecycleTest, BackpressureDropsCountSeparately) {
  // Regression: back-pressure drops (a consumer exists but its fjord is
  // full past the admission wait) were counted as "unrouted" — masking
  // whether drops meant a missing query or an overloaded one.
  Executor exec({.num_eos = 1, .queue_capacity = 4});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  Collector got;
  ASSERT_TRUE(exec.SubmitQuery(FilterSpec(0, 100), got.SinkFor("q")).ok());
  // Not started: nothing drains stream 0's 4-slot fjord, and a 20-row
  // batch never fits it: refused whole, counted once.
  TupleBatch big(0);
  for (int i = 0; i < 20; ++i) big.push_back(Row(0, 1, i, i + 1));
  EXPECT_TRUE(exec.IngestBatch(std::move(big)).IsResourceExhausted());
  EXPECT_EQ(exec.tuples_dropped_backpressure(), 20u);
  EXPECT_EQ(exec.tuples_dropped_unrouted(), 0u);
  EXPECT_EQ(exec.stream_tuples_dropped(0), 20u);

  // Unrouted drops (no class consumes the stream) stay on their own counter.
  TupleBatch orphan(1);
  for (int i = 0; i < 10; ++i) orphan.push_back(Row(1, 1, i, i + 1));
  EXPECT_TRUE(exec.IngestBatch(std::move(orphan)).IsFailedPrecondition());
  EXPECT_EQ(exec.tuples_dropped_unrouted(), 10u);
  EXPECT_EQ(exec.tuples_dropped_backpressure(), 20u);
  EXPECT_EQ(exec.stream_tuples_dropped(1), 10u);
}

}  // namespace
}  // namespace tcq
