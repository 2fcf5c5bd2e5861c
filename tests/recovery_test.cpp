// Crash-recovery tests (DESIGN.md §13). The framing simulates a crash with
// exact accounting: run, consume some results, Checkpoint(), push more
// traffic, flush the spools, then destroy the server WITHOUT consuming what
// it delivered since the snapshot — those buffered results die with the
// process. A fresh server Restore()s from the snapshot plus the spool
// suffix, and the union of what was consumed before the crash and what the
// restored server delivers must equal, as a multiset, what an uninterrupted
// run produces. Covers a continuous join (SteM state), a sharded class
// (partition maps), a speculating windowed event-time query (runner +
// speculation state), PSoup, and history_reach admission.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "psoup/psoup.h"
#include "reference/push.h"
#include "reference/reference.h"
#include "server/telegraphcq.h"
#include "storage/checkpoint.h"

namespace tcq {
namespace {

std::vector<Field> KeyedFields() {
  return {{"ts", ValueType::kTimestamp, 0},
          {"k", ValueType::kInt64, 0},
          {"tag", ValueType::kString, 0}};
}

Status PushKeyed(TelegraphCQ* server, const std::string& stream, int64_t k,
                 const std::string& tag, Timestamp ts) {
  return testref::PushRows(
      server, stream,
      {{ts, {Value::TimestampVal(ts), Value::Int64(k), Value::String(tag)}}});
}

/// Fresh spool + checkpoint directories for one test.
struct DurableDirs {
  std::string spool, ckpt;
  explicit DurableDirs(const std::string& name) {
    spool = testing::TempDir() + "/" + name + "_spool";
    ckpt = testing::TempDir() + "/" + name + "_ckpt";
    std::filesystem::remove_all(spool);
    std::filesystem::remove_all(ckpt);
    std::filesystem::create_directories(spool);
    std::filesystem::create_directories(ckpt);
  }
  TelegraphCQ::Options Options() const {
    TelegraphCQ::Options o;
    o.spool_dir = spool;
    o.checkpoint_dir = ckpt;
    return o;
  }
};

/// "Ltag|Rtag" for a projected join result (SELECT l.tag, r.tag).
std::string PairKey(const Tuple& t) {
  return t.at(0).AsString() + "|" + t.at(1).AsString();
}

/// Drains the server, then moves every data delivery `egress` holds into
/// `got`. Returns the number collected so far.
size_t CollectPairs(TelegraphCQ* server, PushEgress* egress,
                    std::multiset<std::string>* got) {
  EXPECT_TRUE(server->Drain().ok());
  Delivery d;
  while (egress->Poll(&d)) {
    if (!d.tuple.IsPunctuation()) got->insert(PairKey(d.tuple));
  }
  return got->size();
}

void RunJoinCrashSim(TelegraphCQ::Options opts, const std::string& tag) {
  // Phase 1: prefix traffic, consume everything, snapshot, suffix traffic,
  // crash with the suffix's results still buffered at egress.
  std::multiset<std::string> got;
  {
    TelegraphCQ server(opts);
    ASSERT_TRUE(server.DefineStream("L", KeyedFields()).ok());
    ASSERT_TRUE(server.DefineStream("R", KeyedFields()).ok());
    auto h = server.Submit("SELECT l.tag, r.tag FROM L l, R r WHERE l.k = r.k");
    ASSERT_TRUE(h.ok()) << h.status();
    server.Start();
    for (int64_t k = 1; k <= 16; ++k) {
      ASSERT_TRUE(
          PushKeyed(&server, "L", k, "L" + std::to_string(k), k).ok());
    }
    for (int64_t k = 1; k <= 8; ++k) {
      ASSERT_TRUE(
          PushKeyed(&server, "R", k, "R" + std::to_string(k), k).ok());
    }
    // Drain the 8 matches so the egress buffer is empty at the snapshot
    // (delivered-but-unconsumed results are not part of a checkpoint).
    ASSERT_EQ(CollectPairs(&server, h->results.get(), &got), 8u);

    auto epoch = server.Checkpoint();
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    EXPECT_EQ(*epoch, 1u);
    auto view = server.Introspect();
    EXPECT_EQ(view.checkpoint_epochs, 1u);
    EXPECT_GT(view.checkpoint_bytes, 0u);
    EXPECT_NE(
        server.metrics()->FormatText().find("tcq_checkpoint_epochs_total"),
        std::string::npos);

    // Post-snapshot traffic: R9..R16 join L rows that exist ONLY in the
    // snapshot's SteM state, plus one fresh pair on both sides.
    for (int64_t k = 9; k <= 16; ++k) {
      ASSERT_TRUE(
          PushKeyed(&server, "R", k, "R" + std::to_string(k), k).ok());
    }
    ASSERT_TRUE(PushKeyed(&server, "L", 17, "L17", 17).ok());
    ASSERT_TRUE(PushKeyed(&server, "R", 17, "R17", 17).ok());
    ASSERT_TRUE(server.FlushSpools().ok());
    server.Stop();  // crash: the 9 suffix results were never consumed
  }

  // Phase 2: fresh server, same options. Restore = snapshot + spool replay.
  {
    TelegraphCQ server(opts);
    auto epoch = server.Restore();
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    EXPECT_EQ(*epoch, 1u);
    auto handles = server.Handles();
    ASSERT_EQ(handles.size(), 1u);
    ASSERT_NE(handles[0].results, nullptr);
    server.Start();
    CollectPairs(&server, handles[0].results.get(), &got);
    auto view = server.Introspect();
    server.Stop();

    // Consumed-before-crash plus delivered-after-restore must be EXACTLY
    // the uninterrupted run: every key pairs once, nothing lost or doubled.
    std::multiset<std::string> want;
    for (int64_t k = 1; k <= 17; ++k) {
      want.insert("L" + std::to_string(k) + "|R" + std::to_string(k));
    }
    EXPECT_EQ(got, want) << tag;
    // The spool suffix (R9..R17, L17) was re-routed, not re-archived.
    EXPECT_GE(view.restore_replay_tuples, 10u);
  }
}

TEST(RecoveryTest, ContinuousJoinExactMultisetAcrossCrash) {
  DurableDirs dirs("rec_cont");
  RunJoinCrashSim(dirs.Options(), "unsharded");
}

TEST(RecoveryTest, ShardedClassExactMultisetAcrossCrash) {
  DurableDirs dirs("rec_shard");
  TelegraphCQ::Options opts = dirs.Options();
  opts.executor.shards = 2;  // Flux-partitioned class: maps must survive too
  RunJoinCrashSim(opts, "sharded");
}

/// Drains the server, then appends every data delivery `egress` holds.
void CollectTuples(TelegraphCQ* server, PushEgress* egress,
                   std::vector<Tuple>* got) {
  ASSERT_TRUE(server->Drain().ok());
  Delivery d;
  while (egress->Poll(&d)) {
    if (!d.tuple.IsPunctuation()) got->push_back(d.tuple);
  }
}

/// Pushes rows `from`..`to` (ts = i, k = i % 5) into each named stream and
/// logs each under `schema_of(stream)` for the reference join.
void PushLogged(TelegraphCQ* server, const std::vector<std::string>& streams,
                int64_t from, int64_t to,
                std::map<std::string, std::vector<Tuple>>* log) {
  for (int64_t i = from; i <= to; ++i) {
    for (const std::string& name : streams) {
      const std::string tag = name + std::to_string(i);
      ASSERT_TRUE(PushKeyed(server, name, i % 5, tag, i).ok());
      (*log)[name].push_back(Tuple::Make(
          server->catalog().Lookup(name)->schema,
          {Value::TimestampVal(i), Value::Int64(i % 5), Value::String(tag)},
          i));
    }
  }
}

/// The reference join of `left` and `right` on k, with `right`'s rows
/// re-tagged under `right_schema` (a self-join's alias).
std::map<std::string, int> ReferenceJoin(const std::vector<Tuple>& left,
                                         const std::vector<Tuple>& right,
                                         const SchemaRef& right_schema) {
  std::vector<Tuple> retagged;
  for (const Tuple& t : right) {
    retagged.push_back(Tuple::Make(right_schema, t.values(), t.timestamp()));
  }
  const SourceId l = left.front().schema()->field(0).source;
  const SourceId r = right_schema->field(0).source;
  return testref::CanonicalMultiset(testref::NaiveJoin(
      {left, retagged}, {MakeCompareAttrs({l, "k"}, CmpOp::kEq, {r, "k"})}));
}

TEST(RecoveryTest, CancelledSelfJoinsReuseAliasIdsAcrossRestore) {
  // Each self-join plans a fresh alias id and the catalog holds 32: the
  // ids must come back on Cancel, and a live self-join's alias must survive
  // a checkpoint under its recorded id. The standing filter shares the
  // self-joins' class, so each cancel drops the alias route — and the rows
  // its SteM held — from a live class before the id is reused.
  for (size_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    DurableDirs dirs("rec_alias" + std::to_string(shards));
    TelegraphCQ::Options opts = dirs.Options();
    opts.executor.shards = shards;
    const std::string self_join = "SELECT * FROM S c1, S c2 WHERE c1.k = c2.k";
    std::map<std::string, std::vector<Tuple>> log, early;
    std::vector<Tuple> joined, filtered;
    SchemaRef alias_schema;
    {
      TelegraphCQ server(opts);
      ASSERT_TRUE(server.DefineStream("S", KeyedFields()).ok());
      auto filter = server.Submit("SELECT * FROM S WHERE k >= 0");
      ASSERT_TRUE(filter.ok()) << filter.status();
      server.Start();
      for (int i = 0; i < 40; ++i) {  // a failed plan hands its alias back
        ASSERT_FALSE(
            server.Submit("SELECT * FROM S c1, S c2 WHERE c1.k = c2.no").ok());
      }
      for (int cycle = 1; cycle <= 100; ++cycle) {
        auto h = server.Submit(self_join);
        ASSERT_TRUE(h.ok()) << "cycle " << cycle << ": " << h.status();
        PushLogged(&server, {"S"}, cycle, cycle, &early);
        ASSERT_TRUE(server.Drain().ok());
        ASSERT_TRUE(server.Cancel(h->id).ok());
      }
      auto h = server.Submit(self_join);
      ASSERT_TRUE(h.ok()) << h.status();
      ASSERT_EQ(server.catalog().entries().size(), 2u);
      alias_schema = server.catalog().entries().rbegin()->second.schema;
      PushLogged(&server, {"S"}, 101, 110, &log);
      CollectTuples(&server, h->results.get(), &joined);
      CollectTuples(&server, filter->results.get(), &filtered);
      ASSERT_TRUE(server.Checkpoint().ok());
      PushLogged(&server, {"S"}, 111, 120, &log);  // results die in the crash
      ASSERT_TRUE(server.FlushSpools().ok());
      server.Stop();
    }
    TelegraphCQ server(opts);
    auto epoch = server.Restore();
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    ASSERT_EQ(server.catalog().entries().size(), 2u);
    EXPECT_EQ(server.catalog().entries().rbegin()->second.source,
              alias_schema->field(0).source);
    auto handles = server.Handles();
    ASSERT_EQ(handles.size(), 2u);
    server.Start();
    PushLogged(&server, {"S"}, 121, 125, &log);
    CollectTuples(&server, handles[1].results.get(), &joined);
    CollectTuples(&server, handles[0].results.get(), &filtered);
    server.Stop();
    // The class's shared SteM on S holds every row since the first
    // self-join, so the live self-join also pairs earlier S rows with its
    // own alias rows; the alias SteM starts empty with each reuse.
    std::vector<Tuple> all = early["S"];
    all.insert(all.end(), log["S"].begin(), log["S"].end());
    EXPECT_EQ(testref::CanonicalMultiset(joined),
              ReferenceJoin(all, log["S"], alias_schema));
    EXPECT_EQ(testref::CanonicalMultiset(filtered),
              testref::CanonicalMultiset(all));
  }
}

TEST(RecoveryTest, CancelledBridgeRestoresAsSeparateClasses) {
  // A bridging join merges the classes of A join B and C join D into one;
  // cancelling the bridge leaves the merged class, and the checkpoint
  // records it as one class section. Re-submitting the two joins makes two
  // classes again, each taking its streams' state from that section.
  for (size_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    DurableDirs dirs("rec_bridge" + std::to_string(shards));
    TelegraphCQ::Options opts = dirs.Options();
    opts.executor.shards = shards;
    const std::vector<std::string> names = {"A", "B", "C", "D"};
    std::map<std::string, std::vector<Tuple>> log;
    std::vector<Tuple> ab, cd;
    {
      TelegraphCQ server(opts);
      for (const std::string& name : names) {
        ASSERT_TRUE(server.DefineStream(name, KeyedFields()).ok());
      }
      auto j1 = server.Submit("SELECT * FROM A a, B b WHERE a.k = b.k");
      auto j2 = server.Submit("SELECT * FROM C c, D d WHERE c.k = d.k");
      auto bridge = server.Submit("SELECT * FROM B b, C c WHERE b.k = c.k");
      ASSERT_TRUE(j1.ok() && j2.ok() && bridge.ok());
      ASSERT_EQ(server.Introspect().classes.size(), 1u);
      server.Start();
      PushLogged(&server, names, 1, 10, &log);
      ASSERT_TRUE(server.Cancel(bridge->id).ok());
      PushLogged(&server, names, 11, 15, &log);
      CollectTuples(&server, j1->results.get(), &ab);
      CollectTuples(&server, j2->results.get(), &cd);
      ASSERT_EQ(server.Introspect().classes.size(), 1u);
      ASSERT_TRUE(server.Checkpoint().ok());
      PushLogged(&server, names, 16, 25, &log);  // results die in the crash
      ASSERT_TRUE(server.FlushSpools().ok());
      server.Stop();
    }
    TelegraphCQ server(opts);
    auto epoch = server.Restore();
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    auto handles = server.Handles();
    ASSERT_EQ(handles.size(), 2u);
    EXPECT_EQ(server.Introspect().classes.size(), 2u);
    server.Start();
    PushLogged(&server, names, 26, 35, &log);
    CollectTuples(&server, handles[0].results.get(), &ab);
    CollectTuples(&server, handles[1].results.get(), &cd);
    server.Stop();
    EXPECT_EQ(testref::CanonicalMultiset(ab),
              ReferenceJoin(log["A"], log["B"], log["B"].front().schema()));
    EXPECT_EQ(testref::CanonicalMultiset(cd),
              ReferenceJoin(log["C"], log["D"], log["D"].front().schema()));
  }
}

TEST(RecoveryTest, SpeculatingWindowedQueryConvergesAcrossCrash) {
  DurableDirs dirs("rec_spec");
  // Sign-accumulated results: additions (speculative or final) +1,
  // retractions -1. Convergence to exactly-once per window tuple must hold
  // even though the crash destroys every result buffered since the snapshot.
  std::map<Timestamp, std::map<Timestamp, int64_t>> acc;
  size_t finals = 0;
  auto drain = [&](WindowResultBuffer* buf) {
    WindowResult wr;
    size_t polled = 0;
    while (buf->Poll(&wr)) {
      ++polled;
      if (wr.kind == WindowResultKind::kFinal) ++finals;
      int64_t sign = wr.kind == WindowResultKind::kRetraction ? -1 : 1;
      for (const Tuple& t : wr.tuples) {
        acc[wr.t][t.Get("ts").AsInt64()] += sign;
      }
    }
    return polled;
  };

  {
    TelegraphCQ server(dirs.Options());
    ASSERT_TRUE(server
                    .DefineStream("S", KeyedFields(),
                                  {.punctuate = true, .disorder_bound = 0})
                    .ok());
    auto h = server.Submit(
        "SELECT ts FROM S "
        "for (t = 5; t <= 12; t += 1) { WindowIs(S, t - 4, t); }",
        {.speculate = true});
    ASSERT_TRUE(h.ok()) << h.status();
    server.Start();
    for (Timestamp d = 1; d <= 9; ++d) {
      ASSERT_TRUE(PushKeyed(&server, "S", d, "d", d).ok());
    }
    // Windows t=5..8 seal once the watermark passes 8. Every emission the
    // snapshot will record as already-delivered must actually be consumed
    // before the snapshot, or the crash would lose it unrecoverably: the
    // barrier makes the buffer hold all of them.
    ASSERT_TRUE(server.Drain().ok());
    drain(h->windows.get());
    ASSERT_EQ(finals, 4u);

    auto epoch = server.Checkpoint();
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    // Suffix: seals t=9..12 — their results land in the buffer and die
    // with the process. Window t=9 already holds day 9 from before the
    // snapshot, so its final mixes snapshot state with replayed traffic.
    for (Timestamp d = 10; d <= 20; ++d) {
      ASSERT_TRUE(PushKeyed(&server, "S", d, "d", d).ok());
    }
    ASSERT_TRUE(server.FlushSpools().ok());
    server.Stop();
  }

  {
    TelegraphCQ server(dirs.Options());
    auto epoch = server.Restore();
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    auto handles = server.Handles();
    ASSERT_EQ(handles.size(), 1u);
    ASSERT_NE(handles[0].windows, nullptr);
    server.Start();
    ASSERT_TRUE(server.Drain().ok());
    server.Stop();
    drain(handles[0].windows.get());
  }

  // Exactly 8 finals across the crash: the restored runner re-fires the
  // lost windows from replayed traffic but never re-fires consumed ones.
  EXPECT_EQ(finals, 8u);
  for (Timestamp t = 5; t <= 12; ++t) {
    std::map<Timestamp, int64_t> want;
    for (Timestamp d = t - 4; d <= t; ++d) want[d] = 1;
    for (auto it = acc[t].begin(); it != acc[t].end();) {
      it = it->second == 0 ? acc[t].erase(it) : std::next(it);
    }
    EXPECT_EQ(acc[t], want) << "window ending " << t;
  }
}

TEST(RecoveryTest, HistoryReachBackfillsFromArchive) {
  DurableDirs dirs("rec_hist");
  TelegraphCQ server(dirs.Options());
  ASSERT_TRUE(server
                  .DefineStream("S", KeyedFields(),
                                {.punctuate = true, .disorder_bound = 0})
                  .ok());
  // A continuous reader keeps the pushes legal (and consumed) while the
  // archive builds up with no windowed query submitted yet.
  auto cq = server.Submit("SELECT * FROM S");
  ASSERT_TRUE(cq.ok()) << cq.status();
  server.Start();
  for (Timestamp d = 1; d <= 20; ++d) {
    ASSERT_TRUE(PushKeyed(&server, "S", d, "d", d).ok());
  }
  ASSERT_TRUE(server.FlushSpools().ok());

  // The whole archive: all 8 windows fire over history the query never saw
  // live (the stream's watermark promise travels behind the backfill).
  auto whole = server.Submit(
      "SELECT ts FROM S "
      "for (t = 5; t <= 12; t += 1) { WindowIs(S, t - 4, t); }",
      {.history_reach = kMaxTimestamp});
  ASSERT_TRUE(whole.ok()) << whole.status();
  ASSERT_TRUE(server.Drain().ok());
  std::map<Timestamp, std::multiset<Timestamp>> fired;
  for (const WindowResult& wr : testref::PollWindows(whole->windows.get())) {
    for (const Tuple& t : wr.tuples) fired[wr.t].insert(t.Get("ts").AsInt64());
  }
  ASSERT_EQ(fired.size(), 8u);
  for (Timestamp t = 5; t <= 12; ++t) {
    // The backfilled window must equal a direct scan of the archive.
    auto archived = server.ScanHistory("S", t - 4, t);
    ASSERT_TRUE(archived.ok()) << archived.status();
    std::multiset<Timestamp> want;
    for (const Tuple& a : *archived) want.insert(a.timestamp());
    EXPECT_EQ(fired[t], want) << "window ending " << t;
  }

  // Bounded reach: only the archive's last 5 timestamps (16..20) prime the
  // fjords, so windows reaching further back come up short. (The loop stops
  // at t=19: a window ending at the archive's max timestamp stays open —
  // the watermark promise is max_ts - disorder and seals only windows it
  // strictly passed.)
  auto bounded = server.Submit(
      "SELECT ts FROM S "
      "for (t = 16; t <= 19; t += 1) { WindowIs(S, t - 4, t); }",
      {.history_reach = 5});
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  ASSERT_TRUE(server.Drain().ok());
  std::map<Timestamp, size_t> sizes;
  for (const WindowResult& wr : testref::PollWindows(bounded->windows.get())) {
    sizes[wr.t] = wr.tuples.size();
  }
  server.Stop();
  ASSERT_EQ(sizes.size(), 4u);
  for (Timestamp t = 16; t <= 19; ++t) {
    // Window [t-4, t] clipped to the reach bound [16, 20].
    EXPECT_EQ(sizes[t], static_cast<size_t>(t - 16 + 1)) << "window " << t;
  }

  // history_reach is a windowed-only, spooled-only option.
  EXPECT_TRUE(server.Submit("SELECT * FROM S", {.history_reach = 5})
                  .status()
                  .IsInvalidArgument());
  TelegraphCQ unspooled;
  ASSERT_TRUE(unspooled.DefineStream("S", KeyedFields()).ok());
  EXPECT_TRUE(unspooled
                  .Submit(
                      "SELECT ts FROM S "
                      "for (t = 5; t <= 6; t += 1) { WindowIs(S, t - 4, t); }",
                      {.history_reach = 5})
                  .status()
                  .IsFailedPrecondition());
}

TEST(RecoveryTest, HistoryReachOverClosedStreamFiresAndFinishes) {
  // A windowed query submitted after its stream closed: end-of-stream was
  // delivered before the query existed, so admission must close its inputs
  // itself — after the backfill, so it fires over the archive and finishes.
  DurableDirs dirs("rec_closed_hist");
  TelegraphCQ server(dirs.Options());
  auto source = server.DefineStream("S", KeyedFields());
  ASSERT_TRUE(source.ok());
  server.Start();
  for (Timestamp d = 1; d <= 5; ++d) {
    ASSERT_TRUE(PushKeyed(&server, "S", d, "d", d).ok());
  }
  ASSERT_TRUE(server.CloseStream("S").ok());
  ASSERT_TRUE(server.FlushSpools().ok());

  auto h = server.Submit(
      "SELECT * FROM S for (t = 3; t <= 6; t += 1) { WindowIs(S, t - 2, t); }",
      {.history_reach = kMaxTimestamp});
  ASSERT_TRUE(h.ok()) << h.status();
  ASSERT_TRUE(server.Drain().ok());
  std::map<Timestamp, std::multiset<Timestamp>> fired;
  for (const WindowResult& wr : testref::PollWindows(h->windows.get())) {
    for (const Tuple& t : wr.tuples) fired[wr.t].insert(t.timestamp());
  }
  server.Stop();
  EXPECT_TRUE(h->windows->Finished());

  auto archived = server.ScanHistory("S", kMinTimestamp, kMaxTimestamp);
  ASSERT_TRUE(archived.ok()) << archived.status();
  StreamHistory history;
  for (const Tuple& t : *archived) history.Append(t);
  WindowedQuery ref;
  ref.loop = ForLoopSpec::Sliding({*source}, 3, 3, 6);
  std::map<Timestamp, std::multiset<Timestamp>> want;
  for (const WindowResult& r : RunOverHistory(ref, {{*source, history}})) {
    for (const Tuple& t : r.tuples) want[r.t].insert(t.timestamp());
  }
  ASSERT_EQ(want.size(), 4u);
  EXPECT_EQ(fired, want);
}

TEST(RecoveryTest, PSoupRoundTripsThroughCheckpoint) {
  SchemaRef sch = Schema::Make({
      {"k", ValueType::kInt64, 0},
      {"v", ValueType::kInt64, 0},
  });
  auto row = [&](int64_t k, Timestamp ts) {
    return Tuple::Make(sch, {Value::Int64(k), Value::Int64(0)}, ts);
  };
  PSoupQuery filter;
  filter.where.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(50)});

  PSoup original;
  original.RegisterStream(0, sch);
  auto q = original.Register(filter);
  ASSERT_TRUE(q.ok());
  for (Timestamp t = 1; t <= 10; ++t) original.Ingest(0, row(t * 10, t));
  auto before = original.Invoke(*q, 10);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 4u);  // k in {10,20,30,40}

  const std::string path = testing::TempDir() + "/rec_psoup_ckpt";
  {
    CheckpointWriter w(1);
    ASSERT_TRUE(original.CheckpointTo(&w).ok());
    ASSERT_TRUE(w.WriteTo(path).ok());
  }
  auto r = CheckpointReader::Open(path);
  ASSERT_TRUE(r.ok()) << r.status();
  PSoup restored;
  ASSERT_TRUE(restored.RestoreFrom(r->get()).ok());

  // Materialized results and query registrations survive verbatim...
  auto after = restored.Invoke(*q, 10);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size());
  // ...and the restored instance keeps running: new data still reaches the
  // old query, and a cross-boundary invocation sees both halves.
  restored.Ingest(0, row(20, 11));
  auto grown = restored.Invoke(*q, 11);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->size(), 5u);
}

TEST(RecoveryTest, BackgroundCheckpointerWritesEpochs) {
  DurableDirs dirs("rec_loop");
  TelegraphCQ::Options opts = dirs.Options();
  opts.checkpoint_interval_ms = 40;
  TelegraphCQ server(opts);
  ASSERT_TRUE(server.DefineStream("S", KeyedFields()).ok());
  auto h = server.Submit("SELECT * FROM S");
  ASSERT_TRUE(h.ok());
  server.Start();
  for (Timestamp d = 1; d <= 5; ++d) {
    ASSERT_TRUE(PushKeyed(&server, "S", d, "d", d).ok());
  }
  uint64_t epochs = 0;
  for (int i = 0; i < 5000 && epochs < 2; ++i) {
    epochs = server.Introspect().checkpoint_epochs;
    // Wall time: the checkpointer runs on its 40ms interval, not on work.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  EXPECT_GE(epochs, 2u);
  EXPECT_TRUE(std::filesystem::exists(dirs.ckpt + "/ckpt-1"));
  EXPECT_TRUE(std::filesystem::exists(dirs.ckpt + "/ckpt-2"));
}

TEST(RecoveryTest, CheckpointAfterWindowedLoopFinishes) {
  // A finished loop's DU is no longer stepped. Its input must neither stall
  // the checkpoint's windowed drain nor count as dropped.
  DurableDirs dirs("rec_finished_loop");
  TelegraphCQ server(dirs.Options());
  ASSERT_TRUE(server.DefineStream("S", KeyedFields()).ok());
  auto h = server.Submit(
      "SELECT k FROM S "
      "for (t = 3; t <= 5; t += 1) { WindowIs(S, t - 2, t); }");
  ASSERT_TRUE(h.ok()) << h.status();
  server.Start();
  for (int64_t ts = 1; ts <= 8; ++ts) {
    ASSERT_TRUE(PushKeyed(&server, "S", ts, "d", ts).ok());
  }
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_EQ(testref::PollWindows(h->windows.get()).size(), 3u);
  // Rows past the loop's end, pushed after it finished.
  for (int64_t ts = 9; ts <= 40; ++ts) {
    ASSERT_TRUE(PushKeyed(&server, "S", ts, "d", ts).ok());
  }

  const auto t0 = std::chrono::steady_clock::now();
  auto epoch = server.Checkpoint();
  const auto took = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_LT(took, std::chrono::seconds(2));
  server.Stop();
  TelegraphCQ::Introspection view = server.Introspect();
  EXPECT_EQ(view.metrics.CounterFamilySum("tcq_window_input_dropped_total"),
            0u);
  EXPECT_EQ(
      view.metrics.CounterValue("tcq_executor_tuples_dropped_unrouted_total"),
      0u);
  ASSERT_EQ(view.streams.size(), 1u);
  EXPECT_EQ(view.streams[0].dropped, 0u);
}

TEST(RecoveryTest, ErrorPaths) {
  // No checkpoint_dir: both halves are typed preconditions.
  TelegraphCQ bare;
  EXPECT_TRUE(bare.Checkpoint().status().IsFailedPrecondition());
  EXPECT_TRUE(bare.Restore().status().IsFailedPrecondition());
  EXPECT_TRUE(bare.FlushSpools().IsFailedPrecondition());

  // A configured but empty directory: nothing to restore from.
  DurableDirs dirs("rec_err");
  {
    TelegraphCQ server(dirs.Options());
    EXPECT_TRUE(server.Restore().status().IsNotFound());
    // Restore demands a FRESH server: any prior ingest poisons it.
    ASSERT_TRUE(server.DefineStream("S", KeyedFields()).ok());
    auto h = server.Submit("SELECT * FROM S");
    ASSERT_TRUE(h.ok());
    server.Start();
    ASSERT_TRUE(PushKeyed(&server, "S", 1, "d", 1).ok());
    ASSERT_TRUE(server.Checkpoint().ok());
    EXPECT_TRUE(server.Restore().status().IsFailedPrecondition());
    server.Stop();
  }
}

}  // namespace
}  // namespace tcq
