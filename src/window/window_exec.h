// Execution of windowed continuous queries (paper §4.1): "for every instant
// in time, a window on a stream defines a set of tuples over which the query
// is to be executed... the output of a query is presented to the end-user as
// a sequence of sets, each set being associated with an instant in time."
//
// Two modes are provided:
//  * offline: evaluate a for-loop query over fully arrived histories (how
//    PSoup applies new queries to old data);
//  * online: ingest tuples, advance per-stream watermarks, and fire each
//    window instance as soon as every involved stream has passed its right
//    end (partial-order time, §4.1.1).

#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "operators/aggregate.h"
#include "operators/grouped_filter.h"
#include "operators/predicate.h"
#include "storage/checkpoint.h"
#include "tuple/tuple_batch.h"
#include "window/time.h"
#include "window/window_spec.h"

namespace tcq {

/// Per-source history buffer ordered by timestamp (streams deliver in
/// timestamp order; slight disorder is tolerated by insertion position).
class StreamHistory {
 public:
  void Append(const Tuple& tuple);

  /// Appends to `out` all tuples with l <= ts <= r.
  void Range(Timestamp l, Timestamp r, std::vector<Tuple>* out) const;

  /// Drops tuples with ts < cutoff (reclaims memory once no remaining
  /// window can reach back before `cutoff`).
  void PruneBefore(Timestamp cutoff);

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

 private:
  std::deque<Tuple> tuples_;
};

/// What a WindowResult means to the consumer (CEDR-style delta contract,
/// DESIGN.md §12). In speculation mode a window's true content is the
/// accumulation `sum(additions) - sum(retractions)` over its results.
enum class WindowResultKind : uint8_t {
  kFinal,        ///< window sealed; tuples are the final additions
  kSpeculative,  ///< early additions; may later be retracted
  kRetraction,   ///< withdraws previously emitted tuples (kind-tagged)
};

/// One fired window: the loop instant and the query's result set over it.
struct WindowResult {
  Timestamp t = 0;
  std::vector<Tuple> tuples;
  WindowResultKind kind = WindowResultKind::kFinal;
  /// Monotone per-window revision (0 for a never-revised final result).
  uint64_t revision = 0;
};

/// A windowed query: the for-loop plus a conjunctive predicate set (filters
/// and join conditions). Self-joins are expressed by feeding one physical
/// stream to two SourceIds.
struct WindowedQuery {
  ForLoopSpec loop;
  std::vector<PredicateRef> predicates;

  /// Sources involved (from the loop's WindowIs statements).
  SourceSet Sources() const;
};

/// Offline evaluation: runs the entire (bounded) loop over given histories.
/// `max_windows` guards against unbounded loops.
std::vector<WindowResult> RunOverHistory(
    const WindowedQuery& query,
    const std::map<SourceId, StreamHistory>& history,
    uint64_t max_windows = 1u << 16);

/// Online evaluation: fires windows as watermarks pass their right ends.
///
/// Two time semantics (query.loop.semantics):
///  * kArrival (legacy): each data tuple advances its stream's watermark.
///    Correct only for in-order streams.
///  * kEvent: watermarks advance ONLY on punctuations; the per-source
///    history deque is the bounded-disorder reorder buffer. Tuples older
///    than their source's watermark are provably late — counted and dropped
///    with a typed reason, never silently wrong.
///
/// One completion rule serves both: a window [l, r] fires once every
/// involved watermark strictly passes r, or its stream has closed
/// (kMaxTimestamp). Right ends are inclusive, so rows with ts == r may still
/// arrive while a watermark equals r.
///
/// Admission (DESIGN.md §12): every row's timestamp is checked first (late
/// rows counted, watermarks advanced), then the history buffers only the
/// rows that pass the predicates a lone row of their source covers — the
/// rule InstanceJoin's prefilter applies at fire time, so no window reads a
/// row this step rejects.
///
/// Opt-in speculation (Options::speculate, kEvent only): Poll additionally
/// emits early results for the head window as data arrives — kSpeculative
/// additions and kRetraction withdrawals — and seals it with a kFinal delta
/// once complete. Accumulating additions minus retractions reproduces the
/// exact final window (CEDR's consistency spectrum in miniature).
class OnlineWindowRunner : public Checkpointable {
 public:
  using Callback = std::function<void(const WindowResult&)>;

  struct Options {
    /// Emit early (revisable) results for incomplete windows.
    bool speculate = false;
  };

  /// Typed reasons for dropping a late tuple (kEvent mode only).
  enum class LateDrop {
    kBeyondBound,  ///< ts < its source's watermark: punctuation promise broken
    kBehindLoop,   ///< ts below every remaining window's left end
  };

  explicit OnlineWindowRunner(WindowedQuery query)
      : OnlineWindowRunner(std::move(query), Options()) {}
  OnlineWindowRunner(WindowedQuery query, Options opts);

  /// Ingests one batch of `source`: checks every row's timestamp (kEvent:
  /// late rows are counted and dropped; kArrival: each row advances the
  /// watermark, admitted or not), buffers the admitted rows, then applies
  /// the batch's control lane. A columnar batch is filtered on its lanes and
  /// only its admitted rows are materialized; a row-form batch takes the
  /// one-row path per row.
  void IngestBatch(SourceId source, const TupleBatch& batch);

  /// The one-row case of IngestBatch. Control tuples are diverted to
  /// OnPunctuation.
  void Ingest(SourceId source, const Tuple& tuple);

  /// Applies a source punctuation to the watermark tracker (regressions are
  /// rejected and counted there).
  void OnPunctuation(const Punctuation& p);

  /// Declares that `source` has progressed to `ts` even without a tuple
  /// (stream close / loop exhaustion path).
  void AdvanceWatermark(SourceId source, Timestamp ts);

  /// Fires every complete, not-yet-fired window in loop order; with
  /// speculation on, also revises the (incomplete) head window.
  void Poll(const Callback& cb);

  /// True once the loop is exhausted AND every instance has fired.
  bool Done() const { return !pending_.has_value(); }

  /// Rows held in the history: admitted rows only.
  size_t buffered_tuples() const;
  uint64_t late_dropped(LateDrop reason) const {
    return reason == LateDrop::kBeyondBound ? late_beyond_bound_
                                            : late_behind_loop_;
  }
  uint64_t retractions_emitted() const { return retractions_; }
  uint64_t speculative_emitted() const { return speculative_; }
  const WatermarkTracker& watermarks() const { return watermarks_; }

  // --- Durable state (DESIGN.md §13) -----------------------------------------
  // Exports the loop position (the pending window's instant), per-source
  // watermarks, the reorder/history deques, prune floors, late/speculation
  // counters, and the speculation multiset. Restore requires a runner freshly
  // constructed over the SAME query: the loop iterator is re-driven until it
  // reaches the recorded pending instant, so already-fired windows never
  // re-fire. The watermark tracker's punctuation counters restart at zero.
  std::string CheckpointTag() const override { return "window_runner"; }
  uint32_t CheckpointVersion() const override { return 1; }
  void ExportTo(CheckpointWriter* w) const override;
  Status RestoreFrom(CheckpointReader* r) override;

 private:
  /// White-box access for delta-contract tests: SPJ window content is
  /// monotone in arrivals, so the retraction branch of EmitDelta is
  /// unreachable through Ingest alone — it exists for revising operators
  /// (aggregates, negation) and is pinned down via this peer.
  friend struct WindowRunnerTestPeer;

  /// The predicates a lone row spanning `span` covers (InstanceJoin's
  /// prefilter rule). CompareConst factors are grouped per attribute so a
  /// batch evaluates them on the lanes; every other shape runs per row.
  struct Admission {
    struct Lane {
      AttrRef attr;
      GroupedFilter filter;  ///< the attribute's factors, as query 0
      std::vector<const CompareConst*> factors;
    };
    std::vector<Lane> lanes;
    std::vector<const Predicate*> rows;

    /// Every covered predicate holds on `t` (Predicate::Eval throughout).
    bool Admits(const Tuple& t) const;
    /// The predicates outside `lanes` hold on `t`.
    bool RowsAdmit(const Tuple& t) const;
  };
  const Admission& AdmissionFor(SourceSet span);

  /// Step 1 of admission over a timestamp lane. kEvent: counts each late
  /// row and clears its `keep` byte; kArrival: advances the watermark.
  void CheckTimestamps(SourceId source, const Timestamp* ts, size_t n,
                       uint8_t* keep);
  /// Clears the `keep` byte of every row a lane factor rejects.
  void AdmitLanes(const Admission& adm, const ColumnStore& cols, size_t n,
                  uint8_t* keep);
  void Buffer(SourceId source, const Tuple& tuple);

  void MaybePrune();
  /// Diffs the head window's current content against what speculation
  /// already emitted; issues kRetraction / `kind` results for the delta.
  void EmitDelta(const Callback& cb, const std::vector<Tuple>& now,
                 WindowResultKind kind);

  WindowedQuery query_;
  Options opts_;
  WindowIterator iter_;
  std::optional<WindowInstance> pending_;  // next unfired window
  WatermarkTracker watermarks_;
  std::map<SourceId, StreamHistory> history_;
  std::map<SourceId, Timestamp> prune_floor_;
  std::map<SourceSet, Admission> admission_;  ///< built per span, once
  std::vector<uint8_t> keep_;                 ///< per-batch selection scratch
  std::vector<QuerySet> matched_;             ///< MatchBatch scratch
  uint64_t late_beyond_bound_ = 0;
  uint64_t late_behind_loop_ = 0;
  uint64_t retractions_ = 0;
  uint64_t speculative_ = 0;
  // Speculation state for the head window: what we have emitted so far,
  // as a counting multiset keyed by Tuple::ToString().
  std::map<std::string, std::pair<Tuple, size_t>> spec_emitted_;
  uint64_t spec_revision_ = 0;
  bool spec_dirty_ = false;  ///< new data since the last speculative pass
};

/// (value, t) pair per fired window.
struct WindowAggregateResult {
  Timestamp t = 0;
  Value value;
};

/// Runs an aggregate windowed query over a single stream history, returning
/// one value per window. Strategy is chosen from the loop's classification.
std::vector<WindowAggregateResult> RunAggregateOverHistory(
    const ForLoopSpec& loop, AggFn fn, const AttrRef& value_attr,
    const StreamHistory& history, uint64_t max_windows = 1u << 16,
    size_t* peak_state_bytes = nullptr);

}  // namespace tcq
