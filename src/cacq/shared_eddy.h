// CACQ: Continuously Adaptive Continuous Queries (paper §3.1). A single
// shared eddy executes the disjunction of all registered queries at once:
//   * grouped filters index the single-variable factors of all queries over
//     the same attribute, so one probe evaluates thousands of predicates;
//   * SteMs are shared across every query interested in a join edge;
//   * tuple lineage (a per-tuple live-query set) tracks which queries each
//     tuple still satisfies, and results are demultiplexed to clients.
// Queries can be added and removed while streams flow.

#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cacq/lineage.h"
#include "cacq/query_registry.h"
#include "common/metrics.h"
#include "eddy/routing_policy.h"
#include "operators/grouped_filter.h"
#include "stem/stem.h"
#include "tuple/tuple_batch.h"
#include "window/time.h"

namespace tcq {

/// A module routable by the shared eddy. Narrows the envelope's live-query
/// set and/or emits child envelopes.
class SharedModule : public RoutableStats {
 public:
  explicit SharedModule(std::string name) : name_(std::move(name)) {}
  virtual ~SharedModule() = default;

  const std::string& name() const { return name_; }

  /// Must this envelope visit the module? (Depends on the tuple's span AND
  /// its live set — a module no live query cares about is skipped, which is
  /// where shared processing wins.)
  virtual bool AppliesTo(const SharedEnvelope& env) const = 0;

  /// Processes the envelope. May narrow env->live, and may append children
  /// (the shared eddy patches their done bits). kDrop means the live set
  /// emptied; kPass keeps routing the (possibly narrowed) envelope.
  virtual ModuleAction Process(SharedEnvelope* env,
                               std::vector<SharedEnvelope>* out) = 0;

 private:
  std::string name_;
};

/// Shared selection: wraps a GroupedFilter over one attribute. Kills, from
/// the envelope's live set, every interested query whose factors the value
/// fails.
class GroupedFilterModule : public SharedModule {
 public:
  GroupedFilterModule(std::string name, AttrRef attr)
      : SharedModule(std::move(name)), filter_(std::move(attr)) {}

  GroupedFilter* filter() { return &filter_; }
  const AttrRef& attr() const { return filter_.attr(); }

  bool AppliesTo(const SharedEnvelope& env) const override {
    return (env.tuple.sources() & SourceBit(filter_.attr().source)) != 0 &&
           env.live.Intersects(filter_.interested());
  }

  ModuleAction Process(SharedEnvelope* env,
                       std::vector<SharedEnvelope>* out) override;

 private:
  GroupedFilter filter_;
  mutable QuerySet matched_scratch_;
};

/// Shared SteM probe for one equality join edge. All queries subscribed to
/// the edge share the stored state and the probe work; children's live sets
/// are the parent's intersected with the edge subscribers. The parent
/// continues routing (it may still satisfy narrower-footprint queries).
class SharedSteMProbe : public SharedModule {
 public:
  SharedSteMProbe(std::string name, SteM* stem, AttrRef probe_key,
                  AttrRef build_key);

  void Subscribe(QueryId q) { subscribers_.Add(q); }
  void Unsubscribe(QueryId q) { subscribers_.Remove(q); }
  const QuerySet& subscribers() const { return subscribers_; }

  SteM* stem() const { return stem_; }
  const AttrRef& probe_key() const { return probe_key_; }
  const AttrRef& build_key() const { return build_key_; }

  bool AppliesTo(const SharedEnvelope& env) const override {
    SourceSet span = env.tuple.sources();
    if (span & SourceBit(stem_->source())) return false;
    if (!(span & SourceBit(probe_key_.source))) return false;
    return env.live.Intersects(subscribers_);
  }

  ModuleAction Process(SharedEnvelope* env,
                       std::vector<SharedEnvelope>* out) override;

 private:
  SchemaRef ConcatSchemaFor(const SchemaRef& input);

  SteM* stem_;
  AttrRef probe_key_;
  AttrRef build_key_;
  QuerySet subscribers_;
  /// Input schema -> concat schema, newest last; bounded so per-tuple
  /// schemas cannot grow it (and its scan) without limit.
  static constexpr size_t kSchemaCacheSlots = 8;
  std::vector<std::pair<SchemaRef, SchemaRef>> schema_cache_;
  std::vector<const StemEntry*> scratch_;
};

/// Residual multi-variable factors: per-query predicates applied once their
/// sources are spanned (e.g. the non-equi half of a theta-join).
class ResidualFilterModule : public SharedModule {
 public:
  ResidualFilterModule(std::string name, SourceSet span)
      : SharedModule(std::move(name)), span_(span) {}

  void AddResidual(QueryId q, PredicateRef pred);
  void RemoveQuery(QueryId q);

  SourceSet span() const { return span_; }
  const QuerySet& interested() const { return interested_; }

  bool AppliesTo(const SharedEnvelope& env) const override {
    return (span_ & ~env.tuple.sources()) == 0 &&
           env.live.Intersects(interested_);
  }

  ModuleAction Process(SharedEnvelope* env,
                       std::vector<SharedEnvelope>* out) override;

 private:
  SourceSet span_;
  std::vector<std::pair<QueryId, PredicateRef>> residuals_;
  QuerySet interested_;
};

/// The shared eddy itself.
class SharedEddy {
 public:
  /// Receives one delivery per (query, result tuple).
  using Sink = std::function<void(QueryId, const Tuple&)>;

  /// When `metrics` is null the eddy observes itself in a private registry;
  /// `label` distinguishes instances (query classes) sharing one registry.
  explicit SharedEddy(std::unique_ptr<RoutingPolicy> policy,
                      MetricsRegistryRef metrics = nullptr,
                      std::string label = "");

  /// Declares a stream before queries reference it. `stem_opts` configures
  /// the shared SteM created if/when a join touches the stream.
  void RegisterStream(SourceId source, SchemaRef schema,
                      StemOptions stem_opts = StemOptions{});

  void SetOutput(Sink sink) { sink_ = std::move(sink); }

  /// Receives every punctuation that ADVANCED this eddy's watermark view
  /// (duplicates/regressions filtered here, so downstream min-combines see
  /// monotone per-source sequences).
  using ControlSink = std::function<void(const Punctuation&)>;
  void SetControlOutput(ControlSink sink) { control_sink_ = std::move(sink); }

  /// Adds a continuous query on the fly; returns its id.
  Result<QueryId> AddQuery(CQSpec spec);

  /// Removes a query on the fly. In-flight tuples stop being processed for
  /// it immediately (deliveries check liveness).
  Status RemoveQuery(QueryId id);

  /// Ingests one stream tuple and runs the shared dataflow to quiescence.
  /// Equivalent to a batch of one.
  void Ingest(SourceId source, const Tuple& tuple);

  /// Ingests a whole same-source batch under one stream lookup and one
  /// lineage computation, then drains to quiescence. SteM builds are hoisted
  /// ahead of any probing: safe because probes bound matches by sequence
  /// number, so a tuple never sees same-batch successors (identical results
  /// to per-tuple ingest). Within the drain, one routing decision is reused
  /// for every envelope with identical lineage (same done-set, live-set and
  /// span); the eddy falls back to fresh per-tuple ranking as soon as a
  /// module expands an envelope, i.e. when SteM feedback changes mid-batch.
  ///
  /// The batch's control lane applies AFTER the rows: each punctuation feeds
  /// the eddy's watermark tracker (regressions rejected + counted), advanced
  /// ones forward to the control sink, and SteM event-time eviction runs at
  /// the new global watermark.
  void IngestBatch(const TupleBatch& batch);

  /// Event-time watermark view of this eddy (punctuation-driven). NOT part
  /// of what a re-partition moves: a rebuilt replica conservatively
  /// restarts at kMinTimestamp and re-earns watermarks from the next
  /// punctuation broadcast — which can only delay downstream firing.
  const WatermarkTracker& watermarks() const { return watermarks_; }
  uint64_t punctuations_applied() const {
    return watermarks_.punctuations_applied();
  }
  uint64_t punctuations_regressed() const {
    return watermarks_.punctuations_regressed();
  }

  /// Advances stream time: evicts shared SteM state per its window options.
  void AdvanceTime(Timestamp now);

  // --- State movement (sharded class re-partition and merge) -----------------

  /// A stream's shared SteM by reference (null if none), for a quiescent
  /// eddy to hand to another through AdoptSteM; the giver is discarded
  /// afterwards (its modules keep raw SteM pointers).
  std::shared_ptr<SteM> ShareSteM(SourceId source) const;

  /// Installs a SteM from ShareSteM (entries and seqs moved by reference),
  /// or an empty one for null, as a registered stream's shared SteM —
  /// before any query joins the stream, so its probes bind to it.
  void AdoptSteM(SourceId source, std::shared_ptr<SteM> stem);

  /// The shared SteM of a stream, or nullptr if no join touches it yet.
  SteM* GetSteM(SourceId source) const;

  /// Builds historical tuples (timestamp-ascending) into a stream's SteM.
  /// PSoup uses this when a newly created SteM must also cover data that
  /// arrived before any join query existed (§3.2: new queries on old data
  /// joining with data yet to come).
  void BackfillSteM(SourceId source, const std::vector<Tuple>& history);

  /// Builds one historical tuple into a stream's SteM preserving its
  /// ORIGINAL sequence number (next_seq_ untouched). No-op when no join has
  /// created a SteM for the stream. The sharded executor replays old
  /// replicas' SteM entries through this when re-partitioning a class, then
  /// calls AdvanceSeqHorizon once with their max horizon — after which
  /// every future tuple probes the replayed entries exactly like locally
  /// built state (seq < seq_bound holds, the exactly-once rule).
  void BuildHistorical(SourceId source, const Tuple& tuple, Timestamp seq);

  /// Jumps the sequence horizon forward (monotone; regressions ignored) so
  /// entries imported with BuildHistorical stay strictly below every future
  /// tuple's seq.
  void AdvanceSeqHorizon(Timestamp t) { next_seq_ = std::max(next_seq_, t); }

  /// The next sequence number this eddy would assign.
  Timestamp seq_horizon() const { return next_seq_; }

  const QueryRegistry& registry() const { return registry_; }
  size_t num_modules() const { return modules_.size(); }
  // Thin reads over the metrics registry.
  uint64_t routing_decisions() const { return routing_decisions_->Value(); }
  uint64_t routing_decisions_reused() const {
    return routing_decisions_reused_->Value();
  }
  uint64_t module_invocations() const { return module_invocations_->Value(); }
  uint64_t deliveries() const { return deliveries_->Value(); }
  const MetricsRegistryRef& metrics() const { return metrics_; }

 private:
  struct StreamInfo {
    SchemaRef schema;
    StemOptions stem_opts;
    std::shared_ptr<SteM> stem;  // created lazily on first join edge
  };

  GroupedFilterModule* FilterModuleFor(const AttrRef& attr);
  SharedSteMProbe* ProbeModuleFor(const AttrRef& probe_key,
                                  const AttrRef& build_key);
  ResidualFilterModule* ResidualModuleFor(SourceSet span);
  SteM* StemFor(SourceId source);
  size_t AddModule(std::unique_ptr<SharedModule> module);
  void IngestBatchRows(const TupleBatch& batch);
  void ApplyPunctuations(const TupleBatch& batch);
  void Drain();
  bool ComputeReady(const SharedEnvelope& env,
                    std::vector<size_t>* ready) const;
  void DeliverIfComplete(SharedEnvelope&& env);

  std::unique_ptr<RoutingPolicy> policy_;
  QueryRegistry registry_;
  std::map<SourceId, StreamInfo> streams_;
  std::vector<std::unique_ptr<SharedModule>> modules_;
  std::vector<const RoutableStats*> module_stats_;
  Sink sink_;
  ControlSink control_sink_;
  WatermarkTracker watermarks_;
  Timestamp next_seq_ = 1;
  std::deque<SharedEnvelope> queue_;
  bool draining_ = false;

  std::vector<size_t> ready_scratch_;
  std::vector<size_t> order_scratch_;
  std::vector<SharedEnvelope> out_scratch_;

  /// Batches below this size skip the columnar prefilter (building the
  /// column view would cost more than it saves).
  static constexpr size_t kPrefilterMinRows = 4;
  // IngestBatch prefilter scratch (per-row live sets and per-column match
  // results), reused across batches.
  std::vector<QuerySet> prefilter_live_;
  std::vector<QuerySet> prefilter_matched_;
  std::vector<uint32_t> prefilter_hops_;
  // Rows materialized once for the SteM build and reused by the envelopes.
  std::vector<Tuple> built_rows_;

  /// Drain-scoped routing-decision cache (see Drain()): direct-mapped by
  /// lineage key, so identical-lineage envelopes in one drain reuse the
  /// ready computation and the ranked slot even across multi-hop routes.
  /// Entries are valid only for the current drain generation; expansion
  /// (SteM feedback) bumps the generation and empties the cache at once.
  struct CachedDecision {
    uint64_t generation = 0;
    uint64_t done = 0;
    SourceSet span = 0;
    QuerySet live;
    size_t slot = 0;
    bool has_ready = false;
  };
  static constexpr size_t kDecisionCacheSlots = 16;
  static size_t DecisionCacheIndex(uint64_t done, SourceSet span) {
    uint64_t h =
        (done ^ (static_cast<uint64_t>(span) << 32)) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h >> 60);
  }
  std::array<CachedDecision, kDecisionCacheSlots> decision_cache_;
  uint64_t drain_generation_ = 0;

  MetricsRegistryRef metrics_;
  std::string label_;
  Counter* routing_decisions_;
  Counter* routing_decisions_reused_;
  Counter* module_invocations_;
  Counter* deliveries_;
  std::vector<Gauge*> slot_selectivity_permille_;
};

}  // namespace tcq
