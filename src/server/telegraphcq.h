// TelegraphCQ server facade: wires the Figure-5 architecture together —
// Wrapper (ingress) -> streamers -> Executor (EOs hosting shared-CQ and
// windowed DUs) -> Egress — behind the public API the examples use:
// define streams, attach sources, submit SQL, consume results.

#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>

#include "egress/egress.h"
#include "exec/executor.h"
#include "ingress/wrapper.h"
#include "obs/system_streams.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/checkpoint.h"
#include "storage/scanner.h"
#include "query/catalog.h"
#include "query/parser.h"
#include "query/planner.h"
#include "tuple/column_store.h"

namespace tcq {

/// Thread-safe buffer of fired windows for a windowed query's client.
class WindowResultBuffer {
 public:
  void Push(WindowResult result);
  /// Non-blocking: pops the oldest fired window.
  bool Poll(WindowResult* out);
  /// True once the buffer drained and the query is over: its loop finished
  /// (or every input stream closed), or it was cancelled.
  bool Finished() const;
  void MarkFinished();

  /// Optionally mirrors fired-window / result-tuple counts into registry
  /// instruments (call before the first Push). `retractions` (may be null)
  /// counts retraction tuples pushed by speculative queries.
  void AttachMetrics(Counter* windows_fired, Counter* tuples,
                     Counter* retractions = nullptr);
  /// kFinal results only — speculative emissions never inflate this.
  uint64_t windows_fired() const;
  /// Tuples across kFinal and kSpeculative results (the additions stream).
  uint64_t tuples_out() const;
  /// Tuples across kRetraction results (the removals stream).
  uint64_t retractions() const;

 private:
  mutable std::mutex mu_;
  std::deque<WindowResult> results_;
  bool finished_ = false;
  uint64_t fired_ = 0;
  uint64_t tuples_ = 0;
  uint64_t retractions_ = 0;
  Counter* fired_counter_ = nullptr;
  Counter* tuples_counter_ = nullptr;
  Counter* retractions_counter_ = nullptr;
};

// Error contract of the server facade — ONE table shared by every public
// entry point (DefineStream, AttachSource, NewBatch / BatchBuilder::Append /
// PushBuilt, CloseStream, Submit, ScanHistory, Cancel).
// Failures are always surfaced as a typed Status; nothing is silently
// dropped (engine-side sheds are counted and visible via Introspect()).
//   * kNotFound            — the named stream / query id does not exist;
//   * kInvalidArgument     — the request is malformed: schema mismatch
//                            (arity or field type, from
//                            BatchBuilder::Append), unparsable SQL, bad plan,
//                            reserved "tcq$" stream name;
//   * kFailedPrecondition  — the request is well-formed but the engine is in
//                            the wrong state for it (stream closed, sources
//                            attached after Start(), unspooled history
//                            scan). Tuples pushed to a stream no query
//                            consumes are not an error: they are counted as
//                            ingested (and spooled) and routed nowhere;
//   * kResourceExhausted   — back-pressure outlasted the retry budget;
//   * kIOError             — a checkpoint file is missing, torn, fails its
//                            checksum, or names state the current engine
//                            configuration cannot reproduce (Checkpoint /
//                            Restore only);
//   * kTimedOut            — the engine could not quiesce before the
//                            deadline (Drain, and Checkpoint's 10s drain
//                            budget).
// Methods state only the codes they add beyond this contract.
class TelegraphCQ {
 public:
  struct Options {
    Executor::Options executor;
    Wrapper::Options wrapper;
    size_t egress_capacity = 4096;
    ShedPolicy egress_shed = ShedPolicy::kBlock;
    /// When non-empty, every stream is also spooled to an append-only
    /// store under this directory in the background (paper §4.3: "data
    /// must be processed on-the-fly as it arrives and can be spooled to
    /// disk only in the background"), making history scannable.
    std::string spool_dir;
    /// Sampled dataflow tracing (DESIGN.md §9). Disabled by default;
    /// enabling it costs one relaxed atomic load per batch plus the sampled
    /// fraction's span recording.
    obs::TraceOptions trace;
    /// Reserved tcq$* introspection streams. When enabled, tcq$metrics /
    /// tcq$queues / tcq$latency are defined at construction and a publisher
    /// thread pushes engine snapshots into them while the server runs.
    obs::SystemStreamOptions system_streams;
    /// When non-empty, Checkpoint() / Restore() write and read epoch-stamped
    /// snapshot files "ckpt-<epoch>" under this directory (DESIGN.md §13).
    std::string checkpoint_dir;
    /// When > 0 (and checkpoint_dir is set), Start() launches a background
    /// checkpointer that calls Checkpoint() this often. Failures are counted
    /// in tcq_checkpoint_failures_total, never fatal.
    uint64_t checkpoint_interval_ms = 0;
  };

  /// Per-stream event-time policy (DESIGN.md §12). With `punctuate` set the
  /// server synthesizes punctuations at the fabric entrance: it scans every
  /// routed batch's timestamps and attaches the watermark promise
  /// `max_ts_seen - disorder_bound` to the batch's control lane. Synthesis
  /// happens AFTER the wrapper merge point, so it stays correct when several
  /// attached sources feed one stream (a single feed's heartbeat cannot
  /// speak for the merged stream; the entrance scan can — incoming per-feed
  /// heartbeats are therefore dropped and re-derived here).
  struct StreamOptions {
    bool punctuate = false;
    /// How far out of timestamp order tuples may arrive (same unit as
    /// tuple timestamps). Rows older than the promised watermark are late:
    /// counted in tcq_wrapper_late_tuples_total{stream=...} and dropped by
    /// event-time consumers.
    Timestamp disorder_bound = 0;
  };

  /// Per-query submission knobs.
  struct SubmitOptions {
    /// Windowed queries only: emit speculative early results for windows the
    /// watermark has not yet closed, revised via retraction tuples when late
    /// data changes them (DESIGN.md §12). Ignored for continuous queries.
    bool speculate = false;
    /// Windowed queries only: continuous-plus-historical admission
    /// (DESIGN.md §13). When > 0, the query's input fjords are primed with
    /// the spooled archive suffix reaching this far back (tuples with
    /// ts >= latest_archived - history_reach + 1; kMaxTimestamp = the whole
    /// archive) before live routing resumes, so the first windows fire over
    /// history the query never saw live. The splice is exact: backfill
    /// happens under the ingest lock, so no tuple is delivered twice.
    /// Requires Options::spool_dir; kFailedPrecondition when any bound
    /// stream is unspooled, kInvalidArgument on a continuous query.
    Timestamp history_reach = 0;
  };

  /// A submitted query's client handle. Exactly one of `results` (continuous
  /// queries) or `windows` (windowed queries) is non-null.
  struct ClientHandle {
    GlobalQueryId id = 0;
    std::shared_ptr<PushEgress> results;
    std::shared_ptr<WindowResultBuffer> windows;
  };

  /// Per-query view computed by Introspect().
  struct QueryStats {
    GlobalQueryId id = 0;
    bool windowed = false;
    /// Tuples ingested on the physical streams the query reads (an upper
    /// bound on what the query saw; shared streams count once per query).
    uint64_t tuples_in = 0;
    /// Results delivered to the client (continuous: egress deliveries;
    /// windowed: tuples across fired windows).
    uint64_t tuples_out = 0;
    uint64_t windows_fired = 0;  ///< windowed queries only
    uint64_t shed = 0;           ///< continuous queries only
    /// Retraction tuples delivered (speculative windowed queries only).
    uint64_t retractions = 0;
  };

  /// Per-physical-stream view computed by Introspect().
  struct StreamStats {
    std::string name;
    SourceId source = 0;
    /// Tuples routed into the fabric on this stream.
    uint64_t tuples_in = 0;
    /// Executor-side drops across the stream's logical sources (canonical
    /// and self-join aliases, released ones included): unrouted (a source
    /// whose class is gone), back-pressure, closed-stream, and
    /// windowed-input overload drops. A stream no live query binds is
    /// routed nowhere and counted nowhere.
    uint64_t dropped = 0;
    /// Tuples that arrived older than the stream's promised watermark
    /// (punctuating streams only; 0 otherwise).
    uint64_t late_tuples = 0;
  };

  /// One-stop introspection: the full metrics snapshot plus per-query and
  /// per-stream stats derived from it and from the client handles, plus the
  /// executor's live query-class topology (which class runs on which EO,
  /// over which streams) and its lifecycle counters.
  struct Introspection {
    MetricsSnapshot metrics;
    uint64_t tuples_ingested = 0;
    std::vector<QueryStats> queries;
    std::vector<StreamStats> streams;
    /// Live query classes (continuous queries only; each windowed query is
    /// one DU hosted on the same EOs outside the class system).
    std::vector<Executor::ClassInfo> classes;
    uint64_t class_merges = 0;      ///< bridging-query class merges so far
    uint64_t class_migrations = 0;  ///< rebalance DU migrations so far
    uint64_t class_gcs = 0;         ///< classes retired (last query removed)
    uint64_t checkpoint_epochs = 0;       ///< checkpoints completed so far
    uint64_t checkpoint_bytes = 0;        ///< bytes across all checkpoints
    uint64_t restore_replay_tuples = 0;   ///< spool tuples replayed on restore
  };

  /// Column-wise batch construction — the one push ingestion surface
  /// (DESIGN.md §11). Obtain one with NewBatch(), append rows, hand it back
  /// with PushBuilt(): values land directly in typed columnar lanes, so the
  /// batch enters the dataflow columnar-native and the vectorized filter
  /// paths never pay a row -> column conversion. Rows materialize only at
  /// row-shaped boundaries (SteM inserts, spooling, egress). Move-only;
  /// a builder is bound to the stream it was created for.
  class BatchBuilder {
   public:
    BatchBuilder(BatchBuilder&&) = default;
    BatchBuilder& operator=(BatchBuilder&&) = default;
    BatchBuilder(const BatchBuilder&) = delete;
    BatchBuilder& operator=(const BatchBuilder&) = delete;

    /// Appends one row. kInvalidArgument on schema mismatch (arity or field
    /// type); the row is validated before any value is admitted, so a
    /// failed Append leaves the builder exactly as it was and the caller
    /// may repair the row and retry.
    Status Append(Timestamp timestamp, std::vector<Value> values);

    const std::string& stream() const { return stream_; }
    const SchemaRef& schema() const { return cols_.schema(); }
    size_t num_rows() const { return cols_.num_rows(); }

   private:
    friend class TelegraphCQ;
    BatchBuilder(std::string stream, SchemaRef schema)
        : stream_(std::move(stream)), cols_(std::move(schema)) {}

    std::string stream_;
    ColumnStoreBuilder cols_;
  };

  /// When `metrics` is null the server creates a private registry; every
  /// component it wires (wrapper, executor, EOs, eddies, SteMs, fjord
  /// queues, egress) reports into it, so Introspect() sees the whole engine.
  TelegraphCQ() : TelegraphCQ(Options()) {}
  explicit TelegraphCQ(Options opts, MetricsRegistryRef metrics = nullptr);
  ~TelegraphCQ();

  /// Defines a stream in the catalog and the executor. Names starting with
  /// "tcq$" are reserved for the engine's introspection streams and are
  /// rejected with kInvalidArgument. The StreamOptions overload opts the
  /// stream into event time: batches get punctuations synthesized at the
  /// fabric entrance, and windowed queries over the stream run with
  /// event-time (bounded-disorder) semantics.
  Result<SourceId> DefineStream(const std::string& name,
                                const std::vector<Field>& fields);
  Result<SourceId> DefineStream(const std::string& name,
                                const std::vector<Field>& fields,
                                StreamOptions stream_opts);

  /// Attaches a wrapper-hosted pull source feeding the named stream
  /// (`arrivals` nullptr = as fast as possible).
  /// kNotFound for an unknown stream; kFailedPrecondition after Start().
  Status AttachSource(const std::string& stream,
                      std::unique_ptr<StreamSource> source,
                      std::unique_ptr<ArrivalProcess> arrivals = nullptr);

  /// Starts a column-wise batch bound to the named stream's schema.
  /// kNotFound for an unknown stream; kFailedPrecondition for a closed
  /// stream.
  Result<BatchBuilder> NewBatch(const std::string& stream);

  /// Push-server ingestion: ingests a built batch under one
  /// lock/lookup, routed batch-at-a-time through the dataflow in columnar
  /// form. Every row was validated by BatchBuilder::Append, so ingestion is
  /// all-or-nothing by construction. Timestamps must be non-decreasing
  /// across rows and calls. An empty builder is a no-op. kNotFound /
  /// kFailedPrecondition as for NewBatch (the stream may have closed in
  /// between).
  Status PushBuilt(BatchBuilder&& batch);

  /// Declares a pushed stream finished (windowed queries over it can fire
  /// their remaining windows). Idempotent: closing a closed stream is OK.
  /// kNotFound for an unknown stream.
  Status CloseStream(const std::string& stream);

  /// Parses, plans, and submits a query; returns the client handle.
  Result<ClientHandle> Submit(const std::string& sql) {
    return Submit(sql, SubmitOptions());
  }
  Result<ClientHandle> Submit(const std::string& sql, SubmitOptions sub_opts);

  /// Scans a spooled stream's history for tuples with l <= ts <= r
  /// (requires Options::spool_dir). Reads go through the buffer pool.
  Result<std::vector<Tuple>> ScanHistory(const std::string& stream,
                                         Timestamp l, Timestamp r);

  // --- Durable state (DESIGN.md §13) -----------------------------------------

  /// Seals every spool's partial tail page to disk, bounding the loss window
  /// to tuples routed after the call (the background spooler's fsync point,
  /// surfaced so tests and operators can force it). kFailedPrecondition
  /// without Options::spool_dir.
  Status FlushSpools();

  /// Takes an epoch-stamped snapshot of every state-holding layer — SteMs,
  /// PSoup-side structures, window runners, eddy routing/lineage, sharded
  /// partition maps, per-stream event-time marks and spool positions — into
  /// checkpoint_dir/ckpt-<epoch>, riding the quiesce protocol: ingest is
  /// blocked, fjords drain, spools flush, then state exports section by
  /// section. Returns the epoch. The fjords drain through the Drain()
  /// barrier (before Start() the DUs step on the calling thread). kTimedOut
  /// if the engine cannot quiesce within 10s; kFailedPrecondition without
  /// checkpoint_dir.
  Result<uint64_t> Checkpoint();

  /// Rebuilds the engine from the latest ckpt-<N> under checkpoint_dir plus
  /// a spool replay of everything archived past each stream's snapshot
  /// high-water mark. Must run on a freshly constructed server (same
  /// Options) before Start(), AttachSource, or any ingest: streams are
  /// re-defined under their recorded source ids, every recorded query is
  /// re-submitted in id order through Submit's admission under its
  /// recorded query id and alias ids, snapshot state is loaded into them,
  /// and the spool suffix re-routed (spool-bypassing, so the archive is not
  /// re-appended).
  /// Returns the restored epoch. kNotFound when no checkpoint exists;
  /// kFailedPrecondition on a non-fresh server or without checkpoint_dir.
  Result<uint64_t> Restore();

  /// Handles of every live query, restored ones included — the way a client
  /// reconnects to its egress / window buffer after Restore().
  std::vector<ClientHandle> Handles() const;

  /// The quiescence barrier (Executor::WaitQuiescent): returns OK once
  /// every batch pushed before the call has been processed and its results
  /// delivered to their egress or window buffer, so a Poll right after sees
  /// them all. After Start() it first waits for every attached source to
  /// end and for all it produced to be routed. Call it instead of sleeping
  /// whenever a test or client needs "everything so far is out" — before
  /// asserting counts, after Cancel. Before Start() the DUs are stepped on
  /// the calling thread. kTimedOut when `deadline` passes first — e.g.
  /// while a kBlock egress is full and unpolled, or an attached source
  /// never ends.
  Status Drain(std::chrono::steady_clock::time_point deadline =
                   std::chrono::steady_clock::now() + std::chrono::seconds(10));

  /// Cancels a query — continuous or windowed — on one path: its bindings
  /// are released (a source no live query binds is no longer routed), the
  /// executor removes it, a windowed client's buffer is marked finished,
  /// and its self-join alias ids return to the catalog for reuse.
  /// kNotFound for an id no live query owns.
  Status Cancel(GlobalQueryId id);

  void Start();
  void Stop();

  const Catalog& catalog() const { return catalog_; }
  Executor& executor() { return executor_; }
  uint64_t tuples_ingested() const { return ingested_->Value(); }
  const MetricsRegistryRef& metrics() const { return metrics_; }
  const obs::TracerRef& tracer() const { return tracer_; }

  /// Post-mortem dump of the trace flight recorder: the last N raw spans
  /// across all recording threads, ordered by start time.
  std::vector<obs::Span> DumpFlightRecorder() const {
    return tracer_->DumpFlightRecorder();
  }

  /// Snapshots every instrument in the registry and derives per-query
  /// stats. Cheap enough to poll (one pass over the instrument map).
  Introspection Introspect() const;

 private:
  struct PhysicalStream {
    std::string name;
    SourceId canonical = 0;
    SchemaRef schema;
    /// The logical sources (canonical and self-join aliases) some live
    /// query binds, with their live binding counts. RouteBatch hands each
    /// one copy of a batch, re-tagged under it.
    std::map<SourceId, size_t> logical;
    std::vector<FjordConsumer> wrapper_feeds;
    std::unique_ptr<StreamStore> spool;
    bool closed = false;
    Counter* ingested = nullptr;
    /// Background-spool append failures — counted, never silently dropped.
    Counter* spool_failed = nullptr;
    /// Event-time synthesis state (all guarded by mu_, like logical):
    /// max event timestamp routed so far, the last watermark promised, and
    /// the late-arrival counter shared with the wrapper's per-source one
    /// when the source is named after the stream.
    StreamOptions event_time;
    Timestamp max_ts = kMinTimestamp;
    Timestamp last_punct = kMinTimestamp;
    Counter* late = nullptr;
    /// Executor drops on this stream's self-join aliases released so far.
    uint64_t released_dropped = 0;
  };
  /// The one record of a live query, of either kind: what Introspect() and
  /// Cancel() need, and what Checkpoint() writes for a restore to
  /// re-submit.
  struct ClientInfo {
    bool windowed() const { return windows != nullptr; }
    std::vector<std::string> streams;  // physical stream names it reads
    std::shared_ptr<PushEgress> egress;
    std::shared_ptr<WindowResultBuffer> windows;
    /// The submitted SQL and SubmitOptions::speculate, plus the (alias ->
    /// source id) bindings its plan resolved, so a restore can re-plan
    /// with the ids pinned (self-join aliases are allocated at plan time
    /// and would otherwise come back different).
    std::string sql;
    bool speculate = false;
    std::vector<std::pair<std::string, SourceId>> bindings;
    /// The self-join alias ids among `bindings`, which the query owns.
    std::vector<SourceId> aliases;
    /// Records sql, speculate, bindings, streams and aliases.
    void Record(const std::string& query_sql, const PlannedQuery& plan,
                bool speculate_windows);
  };

  /// Routes a whole physical batch: one Executor::IngestBatch per bound
  /// logical source (re-tagged under self-join aliases). `spool` false
  /// bypasses the background spool append — the restore replay path, which
  /// re-routes tuples that are already archived.
  void RouteBatch(PhysicalStream* stream, const TupleBatch& batch,
                  bool spool = true);
  /// DefineStream minus the tcq$ reservation check — the path the engine
  /// itself uses to register the reserved introspection streams. A restore
  /// passes the recorded `restore_id`; the stream's existing spool file is
  /// then opened and appended to instead of truncated.
  Result<SourceId> DefineStreamInternal(
      const std::string& name, const std::vector<Field>& fields,
      std::optional<SourceId> restore_id = std::nullopt);
  /// A new continuous client's egress. Caller holds mu_.
  std::shared_ptr<PushEgress> NewEgressLocked();
  /// Counts `client`'s bindings into PhysicalStream::logical (registering
  /// aliases with the executor), or releases them. Caller holds mu_.
  void RetainLocked(const ClientInfo& client);
  void ReleaseLocked(const ClientInfo& client);
  /// Hands `client`'s alias ids back to the catalog once the executor has
  /// forgotten them (their drops stay counted on the stream). Call after
  /// ReleaseLocked and, for an admitted query, RemoveQuery; `*lock` (on
  /// mu_) may be held or not, and is held on return.
  void ReleaseAliases(const ClientInfo& client,
                      std::unique_lock<std::mutex>* lock);
  /// Executor::CloseStream for each bound logical source. Caller holds mu_.
  void CloseLogicalLocked(const PhysicalStream& stream);
  /// The one admission path, shared by Submit() and Restore(): admits
  /// planned query `sql` under `id` (0 = next free; a restore passes the
  /// recorded one) and records its client. A failed admission returns the
  /// plan's alias ids. Caller holds `*lock` on mu_; a continuous admission
  /// releases it while the executor admits.
  Result<ClientHandle> AdmitLocked(std::unique_lock<std::mutex>* lock,
                                   const std::string& sql,
                                   const PlannedQuery& plan,
                                   const SubmitOptions& sub_opts,
                                   GlobalQueryId id);
  /// AdmitLocked's windowed branch: hosts the query's DU on the executor,
  /// backfills it (SubmitOptions::history_reach) and closes its inputs on
  /// streams already closed. Caller holds mu_.
  Result<GlobalQueryId> AdmitWindowedLocked(const PlannedQuery& plan,
                                            ClientInfo* client,
                                            const SubmitOptions& sub_opts,
                                            GlobalQueryId id);
  /// Primes freshly admitted windowed query `id`'s inputs with the
  /// archived suffix reaching `reach` back (SubmitOptions::history_reach).
  /// Caller holds mu_, so live routing is blocked and the splice is exact.
  Status BackfillWindowedLocked(GlobalQueryId id, const ClientInfo& client,
                                Timestamp reach);
  void CheckpointLoop(std::stop_token stop);
  void PumpLoop();

  Options opts_;
  // Declared before executor_/wrapper_: they receive it at construction.
  MetricsRegistryRef metrics_;
  // Likewise before executor_/wrapper_ (both hold a reference).
  obs::TracerRef tracer_;
  // Before wrapper_, whose feed fjords signal it: PumpLoop parks on it.
  WakeTarget pump_wake_;
  /// Set by PumpLoop once every attached source ended and all it produced
  /// was routed; Drain() waits for it on sources_wake_.
  std::atomic<bool> sources_ended_{false};
  WakeTarget sources_wake_;
  Catalog catalog_;
  Executor executor_;
  Wrapper wrapper_;
  BufferPool spool_pool_;
  std::unique_ptr<obs::SystemStreamSource> system_streams_;
  mutable std::mutex mu_;
  std::map<std::string, PhysicalStream> streams_;
  std::map<GlobalQueryId, ClientInfo> clients_;
  std::thread pump_thread_;
  std::atomic<bool> stop_{false};
  Counter* ingested_;
  bool started_ = false;
  uint64_t next_client_label_ = 0;  // egress labels (gid unknown pre-admit)
  // Durable-state instruments and checkpointer state (DESIGN.md §13).
  Counter* ckpt_epochs_;
  Counter* ckpt_bytes_;
  Counter* ckpt_failures_;
  Gauge* ckpt_duration_us_;
  Counter* restore_replayed_;
  Gauge* restore_duration_us_;
  uint64_t last_epoch_ = 0;  // guarded by mu_
  std::jthread checkpoint_thread_;
};

}  // namespace tcq
