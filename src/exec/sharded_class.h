// Flux-sharded query class: one CACQ query class partitioned across N shard
// replicas (paper §2.4 applied INTRA-process). Each shard is a full
// SharedEddy — own SteMs, routing state, decision cache — behind its own
// SharedCQDispatchUnit, so shards pump in parallel on separate Execution
// Objects with zero shared mutable dataflow state. Ingested batches are
// split per row by Partitioner::BucketOf over the class's derived join
// keys (round-robin for keyless streams) — a columnar batch on its key lane,
// gathered into one ColumnStore per shard; each shard hands its results to
// the query's sink from its own EO thread, one run per ingested batch, with
// no lock between the shards (the Executor::Sink contract).
//
// Correctness argument: partition keys are derived from the UNION of every
// member query's equality-join edges, with a conflict (one stream needing
// two different keys) collapsing the class to one shard. Hence whenever the
// class runs >1 shard, every join edge of every query is co-partitioned —
// matching tuples always meet in the same shard — and single-source queries
// are per-tuple, so the union of shard outputs equals the single-eddy
// output as a multiset.
//
// Online re-partition (Flux §4: pause/drain/move/resume) reuses the
// executor's quiesce machinery: quiesce every shard at a
// quantum boundary, drain queued-but-UNPROCESSED tuples into a carryover
// (they re-inject untouched, so a query admitted right after still sees
// them), rebuild fresh replicas, place the old SteMs, re-admit queries in
// export order (FIFO determinism keeps local ids identical across shards),
// and jump every replica's seq horizon past all exporters'. Placement moves
// a SteM BY REFERENCE when every bucket it holds lands on one new replica
// under the new key and owners (every 1-shard layout, a merged class whose
// owners match the survivor's, a failover's surviving shards); every other
// SteM replays through BuildHistorical into its buckets' new owners,
// PRESERVING original seqs (tcq_shard_stem_entries_replayed_total{class}).
// A class merge (Absorb) is one such re-partition over every class a
// bridging query touches.
//
// Replicated failover (Flux's fault tolerance, Options::replication) is the
// same protocol with one shard crashed: FailShard discards the shard's
// eddy, SteMs and queue, moves its buckets to their standby, and rebuilds
// its state from the shard's shadows (see Shadow). Its consumed rows come
// back as SteM entries below the new horizon, which probe nothing; its
// unconsumed rows re-inject with the carryover and probe once. A join
// result is emitted by the later of its two rows, so each result is emitted
// exactly once: before the crash, or by the re-injected row after it.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/dispatch_unit.h"
#include "exec/execution_object.h"
#include "exec/partitioner.h"
#include "fjords/fjord.h"
#include "stem/index.h"
#include "storage/checkpoint.h"

namespace tcq {

class ShardedClass {
 public:
  struct Options {
    /// Desired replica count; the EFFECTIVE count drops to 1 when the
    /// member queries' join edges cannot be consistently co-partitioned.
    size_t shards = 1;
    size_t quantum = 64;
    size_t queue_capacity = 4096;
    /// Re-partition when the busiest shard's recent ingest exceeds this
    /// multiple of the least-busy shard's.
    double skew_threshold = 4.0;
    /// Minimum tuples ingested (across shards) since the last check before
    /// a skew re-partition may trigger.
    uint64_t min_skew_volume = 256;
    /// Routing-policy seed (shard k uses seed + k).
    uint64_t seed = 42;
    /// Keep a shadow of every shard (at >= 2 shards) so FailShard loses
    /// nothing; costs a copy of each routed row and of SteM-held rows.
    bool replication = false;
  };

  /// Where Check found no room: the shard, its fjord and its part's weight.
  struct Full {
    size_t shard = 0;
    std::shared_ptr<FjordProducer> fjord;
    size_t weight = 0;
  };

  /// Receives one query's results as a run (see SharedCQDispatchUnit's
  /// GlobalSink); a punctuation is a run of one.
  using Sink = std::function<void(uint64_t, const std::vector<Tuple>&)>;
  /// Global query id -> new local id of every query a re-partition
  /// re-admitted, across all the classes it moved.
  using RemapMap = std::map<uint64_t, QueryId>;
  using RemapFn = std::function<void(const RemapMap&)>;

  /// `eos` are the executor's Execution Objects (stable for the executor's
  /// lifetime); shards attach to them by index.
  ShardedClass(std::string label, Options opts,
               std::vector<ExecutionObject*> eos, MetricsRegistryRef metrics,
               obs::TracerRef tracer);

  /// Flux bucket count: the unit of load balancing (keys hash to buckets,
  /// buckets map to shards, re-partition moves buckets).
  static constexpr size_t kBuckets = 64;

  const std::string& label() const { return label_; }
  size_t num_shards() const { return shards_.size(); }
  uint64_t repartitions() const { return repartitions_->Value(); }

  // Every method below runs under the executor's mutex, which serializes
  // the structural operations with the data path; only merged_watermark and
  // the shard EOs' punctuation reports run beside them (under punct_mu_).

  // --- Structural operations ---------------------------------------------------

  /// Adds a stream route: one fresh fjord per shard, stream registered on
  /// every replica. New claims start keyless (round-robin); the next
  /// AdmitQuery derives partition keys and re-partitions if needed.
  void ClaimStream(SourceId source, SchemaRef schema, StemOptions stem_opts);

  /// Closes every shard's producer for the stream. False if not routed here.
  bool CloseStream(SourceId source);

  /// Admits a query on EVERY shard replica (identical local ids, enforced).
  /// First re-derives partition keys including the new spec's join edges and
  /// re-partitions when the layout must change — with the admission tasks
  /// queued ahead of re-attachment, so the new query sees every carried-over
  /// tuple. Every shard gets its own copy of `sink` and calls it from its
  /// EO thread, concurrently with the other shards (Executor::Sink).
  Result<QueryId> AdmitQuery(const CQSpec& spec, uint64_t gid, Sink sink,
                             bool started, const RemapFn& remap);

  /// Broadcasts removal to every shard at its next quantum boundary.
  void RemoveQuery(QueryId local);

  /// Checks per-shard ingest deltas; on skew past the threshold, rebuilds
  /// the bucket->shard map by LPT over observed bucket counts and
  /// re-partitions online. Returns true if a re-partition ran.
  bool MaybeRepartitionForSkew(const RemapFn& remap);

  /// Merges `srcs` (live classes on other streams) into this one ahead of
  /// admitting `bridging`: ONE re-partition at the layout every member spec
  /// plus `bridging` derives, keeping this class's bucket owners. The
  /// sources hand over their routes and are dropped by the caller; the
  /// replicas stay detached until `bridging`'s AdmitQuery, next, has queued
  /// its admission.
  void Absorb(const std::vector<ShardedClass*>& srcs, const CQSpec& bridging,
              const RemapFn& remap);

  /// Drops the route of a stream no member query reads (a released
  /// self-join alias): one re-partition over the remaining routes, at the
  /// layout the member specs derive. kFailedPrecondition while a member
  /// query reads it.
  Status DropStream(SourceId source, const RemapFn& remap);

  /// Fault injection (Flux failover): crashes shard `shard` at a quantum
  /// boundary — its eddy, SteMs and queued input are discarded — and
  /// re-partitions to N-1 shards with its buckets on their standby
  /// (shard + 1 mod N). With replication its state is rebuilt from its
  /// shadows, exactly once; without, its buckets restart empty and the lost
  /// SteM entries and queued rows are counted in
  /// tcq_shard_failover_lost_total{class}. kInvalidArgument for an unknown
  /// shard, kFailedPrecondition for the last live one.
  Status FailShard(size_t shard, const RemapFn& remap);

  /// GC: detaches every shard from its EO, closes all stream producers, and
  /// drops the replicas.
  void Shutdown();

  // --- Durable state (DESIGN.md §13) ------------------------------------------

  /// Snapshots the class's state as one "class" checkpoint section: the
  /// Flux bucket->shard map, every route's source with every shard's SteM
  /// entries for it (original seqs), and the max seq horizon. The member
  /// queries are not recorded: a restore re-submits them first.
  /// Rides the quiesce protocol: the caller must have blocked ingest and
  /// drained the shard fjords (Executor::WaitQuiescent); this detaches and
  /// quiesces each shard DU, serializes, and re-attaches. Event-time merge
  /// state is NOT exported: like a re-partition, a restored class re-earns
  /// watermarks from the next punctuation broadcast (conservative, can only
  /// delay firing).
  Status CheckpointTo(CheckpointWriter* w);

  /// Checkpointed SteM entries (original seqs) per stream.
  using StemEntries = std::map<SourceId, std::vector<StemEntry>>;

  /// Restore path, on a FRESH class (queries re-submitted, no data ingested
  /// yet): adopts the recorded bucket->shard map (modulo the current shard
  /// count), replays the entries of the streams routed here as Repartition
  /// does, and jumps every replica's seq horizon. Returns entries placed.
  uint64_t Restore(const std::vector<uint32_t>& owner,
                   const StemEntries& entries, Timestamp horizon);

  // --- Data path: a batch is admitted whole or not at all, in two steps ----

  /// Step one: splits a routed stream's batch over the shards, keeping the
  /// split on the route, and checks each shard's fjord has room for its
  /// part (its rows plus the whole control lane). kOk, or kWouldBlock /
  /// kClosed with `*full` naming the first shard that refused.
  QueueOp Check(const TupleBatch& batch, Full* full);
  /// Step two, after a kOk Check of the same batch (the room only grew
  /// meanwhile: no other producer gets in): moves each part into its fjord
  /// whole — a columnar batch's parts stay columnar — emptying `*batch`.
  void Produce(TupleBatch* batch);

  // --- Per-shard scheduling surface (executor rebalance pass) ----------------

  std::shared_ptr<SharedCQDispatchUnit> shard_du(size_t shard) const {
    return shards_[shard].du;
  }
  size_t shard_eo(size_t shard) const { return shards_[shard].eo; }
  void set_shard_eo(size_t shard, size_t eo) { shards_[shard].eo = eo; }
  /// Progress (quanta that did work) since the last call, for EO load
  /// estimation; snapshot kept per shard.
  uint64_t TakeProgressDelta(size_t shard);

  /// Merged (min-combined across shard replicas) event-time watermark of a
  /// source, kMinTimestamp until every shard has applied a broadcast
  /// punctuation for it. Test/introspection surface.
  Timestamp merged_watermark(SourceId source);

 private:
  struct Shard {
    std::shared_ptr<SharedCQDispatchUnit> du;
    size_t eo = 0;
    uint64_t last_progress = 0;  ///< rebalance snapshot
    uint64_t last_ingest = 0;    ///< skew-detection snapshot
    Counter* ingest = nullptr;   ///< tcq_shard_ingest_total{shard=...}
    Gauge* occupancy = nullptr;  ///< tcq_shard_occupancy{shard=...}
  };

  /// Replication state for one (stream, shard): the rows routed to the
  /// shard, in routing order, minus consumed rows its SteM no longer holds
  /// (same StemOptions eviction). The last rows, as many as the shard's fjord
  /// still queues, are the unconsumed suffix; the rest mirrors the SteM.
  struct Shadow {
    std::deque<Tuple> rows;
    size_t since_trim = 0;  ///< rows appended since the last trim
  };

  struct Route {
    SchemaRef schema;
    StemOptions stem_opts;
    bool closed = false;
    /// Partition key attribute ("" = keyless, round-robin) and its field
    /// position in the schema.
    std::string key_attr;
    size_t key_field = 0;
    /// One producing endpoint + fjord per shard (index = shard).
    std::vector<std::shared_ptr<FjordProducer>> producers;
    std::vector<std::shared_ptr<Fjord>> fjords;
    /// One shadow per shard with replication at >= 2 shards, else empty.
    std::vector<std::unique_ptr<Shadow>> shadows;
    /// Check's split of the batch being admitted: row indices per shard
    /// (at >= 2 shards) and rows per Flux bucket (keyed routes).
    std::vector<std::vector<uint32_t>> picks;
    std::vector<uint64_t> bucket_rows;
  };

  Shard MakeShard(size_t k, size_t eo);
  std::string FjordName(SourceId source, size_t shard, size_t total) const;
  /// Partition keys implied by all member specs plus `extra`: source ->
  /// join attr. nullopt = conflicting requirements (unshardable).
  std::optional<std::map<SourceId, std::string>> DeriveKeys(
      const std::vector<const CQSpec*>& extra) const;
  /// The full pause/drain/move/resume protocol; see the header comment.
  /// `owner` is the bucket->shard map (empty = round-robin buckets). When
  /// `attach_after` is false the rebuilt shard DUs are left detached for the
  /// next AdmitQuery to queue its admission ahead of re-attachment. `failed`
  /// names a crashed shard (kNoShard: none) whose state is not exported but
  /// rebuilt from its shadows, or counted lost. `absorbed`: see Absorb.
  static constexpr size_t kNoShard = SIZE_MAX;
  void Repartition(size_t new_count, std::map<SourceId, std::string> new_keys,
                   std::vector<size_t> owner, const RemapFn& remap,
                   bool attach_after, size_t failed = kNoShard,
                   const std::vector<ShardedClass*>& absorbed = {});
  /// Re-partitions at the layout the member specs plus `extra` derive,
  /// keeping the bucket owners when the shard count stands; `absorbed`
  /// and `attach_after` as for Repartition.
  void Rederive(const std::vector<const CQSpec*>& extra, const RemapFn& remap,
                bool attach_after,
                const std::vector<ShardedClass*>& absorbed = {});
  /// The one new shard every entry of old shard `j` (of `old_count` shards,
  /// bucket map `old_parts`, route key `old_key`) lands on under route `r`'s
  /// new key and the current map; kNoShard when they spread.
  size_t AdoptTarget(const Partitioner& old_parts, size_t old_count, size_t j,
                     const std::string& old_key, const Route& r) const;
  /// Replay step: builds an entry into its owner shard's SteM and shadow.
  void ReplayEntry(const Route& r, SourceId source, const Tuple& t,
                   Timestamp seq);
  /// Detaches `shards` from their EOs at a quantum boundary and quiesces
  /// them; AttachShards undoes it for the current replicas.
  void PauseShards(std::vector<Shard>* shards);
  void AttachShards();
  /// Shard a row of route `r` belongs to under the current bucket map.
  size_t ShardOf(const Route& r, const Tuple& t) const;
  /// Produces a checked part into shard k's fjord (and its shadow).
  void ProduceTo(Route* r, size_t k, TupleBatch* part);
  /// How many of the first `consumed` shadow rows shard k's SteM has
  /// evicted (all of them for a stream no join keeps).
  size_t EvictedPrefix(const Route& r, size_t k, const std::deque<Tuple>& rows,
                       size_t consumed);
  /// Drops shadow rows the shard has consumed and its SteM evicted.
  void TrimShadow(const Route& r, size_t k, Shadow* s);
  /// Appends a row shard k holds in a SteM to its shadow (re-seeding).
  void SeedShadow(const Route& r, size_t k, const Tuple& t);
  void UpdateOccupancy();
  /// Shard `shard`'s eddy applied punctuation `p` (EO thread). Min-combines
  /// across replicas; when the MERGED watermark advances, a fresh
  /// punctuation tuple fans out to every member query's sink — the class's
  /// outward event-time promise.
  void OnShardPunctuation(size_t shard, const Punctuation& p);

  std::string label_;
  Options opts_;
  std::vector<ExecutionObject*> eos_;
  MetricsRegistryRef metrics_;
  obs::TracerRef tracer_;

  std::map<SourceId, Route> routes_;
  std::vector<Shard> shards_;
  bool detached_ = false;  ///< rebuilt replicas wait for AdmitQuery

  Partitioner parts_;
  std::array<std::atomic<uint64_t>, kBuckets> bucket_counts_{};
  std::atomic<uint64_t> rr_next_{0};

  /// Member specs under their CURRENT local ids (mirrors the replicas'
  /// registries) — the input to key derivation and re-admission.
  std::map<QueryId, CQSpec> specs_;

  /// Event-time merge state. Punctuations are broadcast to every shard
  /// (duplicates are idempotent: watermarks are monotone maxes), each
  /// shard's eddy reports what it applied through OnShardPunctuation, and
  /// the min across replicas is the class watermark. punct_mu_ also
  /// serializes the fan-out so sinks see monotone punctuation sequences.
  std::mutex punct_mu_;
  ShardMergedWatermark merged_wm_;
  /// Member queries' sinks under their local ids (copies of the sinks
  /// BindSink installs), for control fan-out.
  std::map<QueryId, std::pair<uint64_t, Sink>> punct_sinks_;

  Counter* repartitions_;
  Histogram* pause_us_;
  Gauge* shard_count_gauge_;
  Counter* failover_lost_;  ///< tcq_shard_failover_lost_total{class}
  Gauge* shadow_rows_;      ///< tcq_shard_shadow_rows{class}
  Counter* stem_replayed_;  ///< tcq_shard_stem_entries_replayed_total{class}
};

}  // namespace tcq
