// The TelegraphCQ executor (paper §4.2.2): maps continuous queries onto
// pre-emptively scheduled Execution Objects hosting non-preemptive Dispatch
// Units. "The goal is to separate queries into classes that have
// significant potential for sharing work... based on the set of streams and
// tables over which the queries are defined, which we call the query
// footprint." Each class owns a CACQ shared eddy behind one DU.
//
// Unlike the paper's snapshot — which creates classes only for DISJOINT
// footprints and leaves "class re-adjustment" as §4.2.2's open issue — this
// executor gives classes a full dynamic lifecycle:
//   * MERGE: a query whose footprint bridges existing classes is admitted by
//     merging the touched classes into one: ONE online re-partition of their
//     union (Flux pause/drain/move/resume; see exec/sharded_class.h). A
//     push lands wholly before the merge (and is carried over) or after.
//   * GC: removing a class's last query retires the class — its DU detaches,
//     fjords close, and stream ownership is released for later queries.
//   * MIGRATE: a background rebalance pass watches per-DU progress counters
//     and moves the busiest shard DU off the most-loaded EO when the
//     imbalance exceeds a threshold (enable via Options::rebalance).
//   * SHARD: with Options::shards > 1 each class runs as a ShardedClass —
//     N shared-eddy replicas partitioned Flux-style on the class's derived
//     join keys, pumped in parallel by per-shard DUs, with online skew
//     re-partitioning and, with Options::shard_replication, failover that
//     loses nothing (FailShard; see exec/sharded_class.h).
// Windowed queries are not classes: each is one caller-built DU hosted on
// the same EOs under the same query ids (HostQuery).
//
// streams_ is the one table of who consumes logical source s: the class
// owning s and every hosted DU's input on s. A source with neither is
// unrouted.
//
// EOs park when their DUs idle and wake when a fjord they consume gains
// work, so "everything pushed so far has been processed" is observable:
// WaitQuiescent returns once every EO is parked with nothing signalled.

#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "exec/dispatch_unit.h"
#include "exec/execution_object.h"
#include "exec/sharded_class.h"
#include "stem/stem.h"

namespace tcq {

/// Executor-global query handle (distinct from per-eddy QueryIds).
using GlobalQueryId = uint64_t;

class Executor {
 public:
  struct Options {
    size_t num_eos = 2;
    size_t quantum = 64;
    size_t queue_capacity = 4096;
    bool ticket_scheduler = false;
    uint64_t seed = 42;
    /// Run the background rebalance pass (class migration across EOs).
    bool rebalance = false;
    uint64_t rebalance_interval_ms = 100;
    /// Shard replicas per query class (1 = classic single-eddy classes).
    /// A class only actually fans out when its queries' join edges can be
    /// consistently co-partitioned; see exec/sharded_class.h.
    size_t shards = 1;
    /// Skew re-partition trigger: busiest shard's recent ingest exceeds
    /// this multiple of the least-busy shard's (rebalance pass must run).
    double shard_skew_threshold = 4.0;
    /// Minimum tuples ingested class-wide between skew checks.
    uint64_t shard_min_skew_volume = 256;
    /// Flux's "reliability-based quality-of-service knob": shadow every
    /// shard of a sharded class so FailShard rebuilds it exactly, at the
    /// cost of a copy of each routed row and of every SteM-held row.
    bool shard_replication = false;
  };

  /// Receives a query's results as a run (global id, result tuples in
  /// emission order); called from EO threads. The contract:
  ///   - each call delivers one whole run: one shard's results for one
  ///     ingested batch, or a punctuation as a run of one;
  ///   - different shards of a class may call the sink concurrently, from
  ///     their own EO threads, so a sink must be thread-safe;
  ///   - one shard's calls are sequential and keep the order in which its
  ///     eddy emitted them;
  ///   - a punctuation reaches the sink only after every run whose rows it
  ///     covers (each shard flushes before reporting it).
  /// Each shard holds its own copy of the sink, so by-value state inside it
  /// is per shard.
  using Sink =
      std::function<void(GlobalQueryId, const std::vector<Tuple>&)>;

  /// One live query class, as reported by Topology().
  struct ClassInfo {
    size_t id = 0;          ///< stable class index (survives merges of others)
    std::string name;       ///< the class label (shard 0 DU's name)
    size_t eo = 0;          ///< EO hosting shard 0 (migrates)
    SourceSet streams = 0;  ///< streams the class owns
    size_t num_queries = 0; ///< live queries routed to the class
    size_t shards = 1;      ///< current shard replica count
  };

  /// When `metrics` is null the executor observes itself (and everything it
  /// creates: EOs, query classes' shared eddies and SteMs, stream fjords) in
  /// a private registry. A non-null `tracer` is handed to every class DU so
  /// ingest batches can be trace-sampled end to end.
  Executor() : Executor(Options()) {}
  explicit Executor(Options opts, MetricsRegistryRef metrics = nullptr,
                    obs::TracerRef tracer = nullptr);
  ~Executor();

  /// Declares a stream the executor may route. `stem_opts` configures the
  /// shared SteM a class creates for it (e.g. join window).
  Status RegisterStream(SourceId source, SchemaRef schema,
                        StemOptions stem_opts = StemOptions{});

  /// Forgets a stream no live query reads (a released self-join alias): its
  /// class drops the route in one re-partition and the id may be registered
  /// again. Returns the tuples dropped on it. kFailedPrecondition while a
  /// live query reads it.
  Result<uint64_t> UnregisterStream(SourceId source);

  /// Thread-safe ingestion of one tuple: a batch of one (see IngestBatch).
  Status IngestTuple(SourceId source, const Tuple& tuple);

  /// A push of one logical source: a push of one batch (see below).
  Status IngestBatch(TupleBatch batch);

  /// Thread-safe ingestion of ONE physical push: a batch per logical
  /// source it feeds (a stream and its self-join aliases, the same rows
  /// under each tag), admitted whole or not at all. Every target — each
  /// shard's part of a source's class, each hosted input on it but a
  /// finished DU's — must have room before any gets a row. While one has
  /// none the push waits on its not-full condition, holding no lock, up to
  /// 20ms after Start() (not before it, nor for a part heavier than its
  /// fjord). Returns:
  ///   * kNotFound            — a source was never registered;
  ///   * kFailedPrecondition  — a source is closed (refused, counted on its
  ///                            drop counter), or none has a consumer (a
  ///                            source without one has its batch dropped and
  ///                            counted, per-stream and globally);
  ///   * kResourceExhausted   — a target stayed full, named in the message.
  ///                            The rows count once on the first source's
  ///                            drop counter and once on the refuser's:
  ///                            ..._dropped_backpressure_total for a class
  ///                            shard, tcq_window_input_dropped_total{query}
  ///                            for a hosted input.
  Status IngestBatch(std::vector<TupleBatch> push);

  /// Closes a stream for its class and every hosted DU reading it.
  Status CloseStream(SourceId source);

  /// Submits a continuous query; blocks until the owning class's DUs admit
  /// it (milliseconds). A footprint bridging several classes first merges
  /// them (also blocking, at quantum boundaries). Deliveries go to `sink`;
  /// with shards > 1 they arrive concurrently from several EO threads
  /// (see Sink). `id` 0 takes the next free query id; a restore passes the
  /// recorded one (kAlreadyExists when live).
  Result<GlobalQueryId> SubmitQuery(const CQSpec& spec, Sink sink,
                                    GlobalQueryId id = 0);

  /// Hosts the DU `build(id)` returns (called once, under the executor lock)
  /// as one query outside the class system, on the least-loaded EO, fed by
  /// one push fjord (queue_capacity rows) per registered stream in `inputs`.
  /// `id` as for SubmitQuery, whose id space it shares. A DU that reports
  /// kDone retires from its EO but keeps its id until RemoveQuery.
  using DuFactory =
      std::function<std::shared_ptr<WindowedQueryDispatchUnit>(GlobalQueryId)>;
  Result<GlobalQueryId> HostQuery(const DuFactory& build,
                                  const std::vector<SourceId>& inputs,
                                  GlobalQueryId id = 0);

  /// IngestBatch into hosted query `id`'s input on `batch.source()` only,
  /// with a 10s deadline (history backfill; before Start() the DUs are
  /// stepped inline between attempts). OK when the DU finished first.
  Status BackfillQuery(GlobalQueryId id, TupleBatch batch);

  /// Removes a query at the next quantum boundary; a hosted DU detaches from
  /// its EO, blocking until its in-flight quantum ends, and its inputs are
  /// unhooked from their streams and closed. Removing a class's
  /// LAST query garbage-collects the class synchronously: the DUs detach
  /// from their EOs, the class fjords close, and stream ownership is
  /// released (a later query re-claims the streams with fresh fjords).
  Status RemoveQuery(GlobalQueryId id);

  /// Runs one rebalance pass immediately (also what the background thread
  /// does every rebalance_interval_ms). Returns true if a DU migrated.
  bool RebalanceOnce();

  /// Runs one skew check over every sharded class, re-partitioning online
  /// where per-shard ingest deltas exceed the threshold (also part of the
  /// background rebalance pass). Returns true if any class re-partitioned.
  bool RepartitionSkewedOnce();

  /// Fault injection: crashes shard `shard` of class `class_id` (a
  /// ClassInfo::id) and fails its buckets over to the surviving shards —
  /// exactly once with shard_replication, else losing the shard's SteM
  /// entries and queued rows (tcq_shard_failover_lost_total{class}).
  /// kInvalidArgument for an unknown class or shard; kFailedPrecondition
  /// when `shard` is the class's last live shard.
  Status FailShard(size_t class_id, size_t shard);

  // --- Durable state (DESIGN.md §13) -----------------------------------------

  /// The quiescence barrier: returns OK once every EO is parked with an
  /// unchanged wake sequence — every DU reported idle and no fjord, plan
  /// queue or DU move signalled since — so every batch ingested before the
  /// call has been processed and delivered to its sinks. An EO whose thread
  /// is not running has its DUs stepped on the calling thread instead.
  /// kTimedOut when `deadline` passes first (e.g. a DU blocked on a full
  /// kBlock egress never parks). Blocks without polling; thread-safe.
  Status WaitQuiescent(std::chrono::steady_clock::time_point deadline);

  /// Snapshots query state, not queries (the caller records and re-submits
  /// those): an "executor" section (class and hosted-DU counts), a "class"
  /// section per live class (ShardedClass::CheckpointTo), then each hosted
  /// DU's runner section in id order, the DU detached from its EO at a
  /// quantum boundary meanwhile. The caller blocks ingestion; the fjords
  /// drain first (WaitQuiescent, kTimedOut after 10s).
  Status CheckpointTo(CheckpointWriter* w);

  /// Loads CheckpointTo's state into the queries the caller re-submitted
  /// under their recorded ids, before any ingest: each class section goes
  /// to every class now owning one of its route sources (ShardedClass::
  /// Restore), each runner section to the hosted DU of its rank in id
  /// order. Returns the SteM entries replayed.
  Result<uint64_t> RestoreFrom(CheckpointReader* r);

  void Start();
  void Stop();
  /// True while any EO thread runs: DUs must not be stepped inline then.
  bool running() const;

  /// Live query classes only (merged-away and GC'd classes are excluded).
  size_t num_classes() const;
  size_t num_eos() const { return eos_.size(); }
  /// Snapshot of the live class -> EO topology.
  std::vector<ClassInfo> Topology() const;

  uint64_t tuples_dropped_unrouted() const {
    return dropped_unrouted_->Value();
  }
  uint64_t tuples_dropped_backpressure() const {
    return dropped_backpressure_->Value();
  }
  /// Tuples dropped on one stream since it was registered (unrouted, closed,
  /// back-pressured, or refused by a hosted input); 0 for unknown ones.
  uint64_t stream_tuples_dropped(SourceId source) const;
  /// The owning class's merged (min across shard replicas) event-time
  /// watermark of `source`; kMinTimestamp for unknown/unpunctuated streams.
  Timestamp stream_watermark(SourceId source) const;
  uint64_t class_merges() const { return merges_->Value(); }
  uint64_t class_migrations() const { return migrations_->Value(); }
  uint64_t class_gcs() const { return gcs_->Value(); }
  /// Online shard re-partitions across all live classes.
  uint64_t class_repartitions() const;
  const MetricsRegistryRef& metrics() const { return metrics_; }

 private:
  struct HostedInput {
    GlobalQueryId query = 0;
    std::shared_ptr<WindowedQueryDispatchUnit> du;
    FjordProducer producer;
    Counter* dropped = nullptr;  ///< tcq_window_input_dropped_total{query}
  };

  struct StreamInfo {
    SchemaRef schema;
    StemOptions stem_opts;
    /// Owning class (null until claimed). Shared so stream_watermark can
    /// read it outside mu_.
    std::shared_ptr<ShardedClass> owner;
    size_t owner_class = SIZE_MAX;
    std::vector<HostedInput> inputs;  ///< hosted DUs reading the stream
    /// Drops on this stream: tcq_executor_stream_dropped_total{stream=...}
    /// (shared by a re-registered id) minus its value at registration.
    Counter* dropped = nullptr;
    uint64_t dropped_base = 0;
  };

  struct QueryClass {
    std::shared_ptr<ShardedClass> sc;
    SourceSet streams = 0;
    bool live = false;  ///< false once merged away or GC'd
  };

  struct QueryInfo {
    size_t query_class = SIZE_MAX;  ///< SIZE_MAX for a hosted DU
    QueryId local_id = 0;
    std::shared_ptr<WindowedQueryDispatchUnit> du;  ///< HostQuery only
  };

  /// What refused a push: the fjord to wait on, the weight that must fit
  /// it, the counters the refusal lands on, and the refuser's name.
  struct Refusal {
    std::optional<FjordProducer> fjord;
    size_t weight = 0;
    Counter* counter = nullptr;
    Counter* stream_dropped = nullptr;
    std::string who;
  };

  /// IngestBatch's loop; `only` (0: every consumer) restricts the targets
  /// to one hosted query's input, as BackfillQuery does.
  Status Admit(std::vector<TupleBatch> push, GlobalQueryId only,
               std::chrono::steady_clock::time_point deadline);
  /// One attempt (mu_ held): produces into every target or, filling
  /// `*refusal` when one has no room, into none.
  Status AdmitLocked(std::vector<TupleBatch>* push, GlobalQueryId only,
                     Refusal* refusal);
  /// Takes query id `*id` (0: the next free one) for a query reading
  /// `sources`: kNotFound / kAlreadyExists as for SubmitQuery (mu_ held).
  Status Claim(SourceSet sources, GlobalQueryId* id);
  /// Finds or creates the class covering `spec`'s footprint, merging every
  /// touched class into one when the footprint bridges them (caller holds
  /// mu_; `spec` must be admitted to the returned class next).
  size_t ClassFor(const CQSpec& spec);
  /// Merges classes `srcs` into `dst` ahead of admitting `bridging` (one
  /// ShardedClass::Absorb; caller holds mu_; every class must be live).
  void MergeClassesInto(size_t dst, const std::vector<size_t>& srcs,
                        const CQSpec& bridging);
  /// Retires a live class with no queries left (caller holds mu_).
  void GcClass(size_t cls);
  /// Rewrites queries_ local ids after a shard re-partition re-admitted
  /// them, by global id (caller holds mu_).
  void ApplyRemap(const ShardedClass::RemapMap& remap);
  /// Loads one "class" section (see RestoreFrom); caller holds mu_.
  Status RestoreClass(CheckpointReader* r, uint64_t* replayed);
  /// Runs `fn` on every hosted DU in id order, each detached from its EO
  /// meanwhile (caller holds mu_).
  Status ForEachHostedDetached(
      const std::function<Status(WindowedQueryDispatchUnit*)>& fn);
  size_t CountLiveClasses() const;  // caller holds mu_
  size_t QueriesIn(size_t cls) const;  // caller holds mu_; SIZE_MAX: DUs
  size_t LeastLoadedEo() const;     // EO hosting the fewest DUs
  bool RebalanceLocked();           // caller holds mu_
  bool SkewLocked();                // caller holds mu_
  /// Every running EO parked, twice over with equal wake sequences;
  /// stopped EOs have their DUs stepped inline first.
  bool Quiescent();
  void RebalanceLoop(std::stop_token stop);

  Options opts_;
  mutable std::mutex mu_;
  std::map<SourceId, StreamInfo> streams_;
  std::vector<QueryClass> classes_;
  std::map<GlobalQueryId, QueryInfo> queries_;
  GlobalQueryId next_query_id_ = 1;
  size_t next_class_label_ = 0;  // DU/eddy labels stay unique across GC
  /// Signalled by every EO that parks or stops (WaitQuiescent waits on it).
  /// Declared before eos_, which point at it.
  WakeTarget parked_;
  std::vector<std::unique_ptr<ExecutionObject>> eos_;
  MetricsRegistryRef metrics_;
  obs::TracerRef tracer_;
  Counter* dropped_unrouted_;
  Counter* dropped_backpressure_;
  Counter* merges_;
  Counter* migrations_;
  Counter* gcs_;
  Gauge* classes_gauge_;
  bool started_ = false;
  std::jthread rebalance_thread_;
};

}  // namespace tcq
