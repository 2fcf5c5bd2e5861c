// Time handling for loosely synchronized distributed sources (paper §4.1.1):
// "we treat time as a partial order, rather than as a complete order".
// Each stream advances its own watermark; an operation over several streams
// may only rely on the region of the timeline all of them have passed. The
// paper also allows "multiple simultaneous notions of time" — logical
// sequence numbers or physical timestamps — with transformations between
// them.

#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"

namespace tcq {

/// Which timeline drives window completion (DESIGN.md §12).
enum class TimeSemantics {
  /// Legacy: watermarks advance from observed DATA timestamps; correct only
  /// when each stream arrives in timestamp order.
  kArrival,
  /// Watermarks advance ONLY on punctuations; tuples may arrive out of
  /// order up to the source's disorder bound, and a window fires when the
  /// joint watermark strictly passes its right edge.
  kEvent,
};

/// Tracks per-source watermarks and exposes the joint (partial-order) lower
/// bound: the latest instant that EVERY involved stream has reached. A
/// window [l, r] over a set of streams is complete once MinWatermark >= r.
class WatermarkTracker {
 public:
  /// Outcome of applying a punctuation (see OnPunctuation).
  enum class PunctResult {
    kAdvanced,   ///< the source's watermark moved forward
    kDuplicate,  ///< equal to the current watermark: idempotent no-op
    kRegressed,  ///< below the current watermark: rejected (promise violated)
  };

  /// Advances `source`'s watermark to `ts` (monotone; regressions ignored).
  void Update(SourceId source, Timestamp ts);

  /// Applies a source-issued punctuation: the promise that no future tuple
  /// from `p.source` has timestamp < p.low_watermark. Watermarks are
  /// monotone, so duplicates (shard broadcast delivers each punctuation to
  /// every replica) are no-ops and regressions are rejected and counted.
  PunctResult OnPunctuation(const Punctuation& p);

  uint64_t punctuations_applied() const { return punct_applied_; }
  uint64_t punctuations_regressed() const { return punct_regressed_; }

  /// Every per-source mark (checkpoint export; restore re-drives Update,
  /// which leaves the punctuation counters at zero — counters restart).
  const std::map<SourceId, Timestamp>& marks() const { return marks_; }

  /// Watermark of one source (kMinTimestamp if never updated).
  Timestamp WatermarkOf(SourceId source) const;

  /// The joint watermark of the given sources: min over their watermarks.
  /// Sources never seen yield kMinTimestamp (nothing is complete yet); the
  /// EMPTY set yields kMaxTimestamp (vacuous min — a participant with no
  /// sources never holds a merged watermark back).
  Timestamp MinWatermark(SourceSet sources) const;

  /// Joint watermark over every known source.
  Timestamp GlobalWatermark() const;

  /// Two timestamps from different sources are only comparable up to the
  /// joint watermark; both-below means their order is decided.
  bool Ordered(SourceId a, Timestamp ta, SourceId b, Timestamp tb) const;

 private:
  std::map<SourceId, Timestamp> marks_;
  uint64_t punct_applied_ = 0;
  uint64_t punct_regressed_ = 0;
};

/// Min-combines watermarks across the replicas of a sharded query class.
/// Punctuations are BROADCAST to every shard (data rows partition, control
/// must not), so each shard independently reports what it has applied; the
/// merged watermark of a source is the min over all shards' reports, and it
/// only moves once every shard has seen the broadcast (an unseen shard
/// reports kMinTimestamp, holding the merge back — exactly the barrier the
/// broadcast provides).
class ShardMergedWatermark {
 public:
  /// (Re)sizes to `shards` replicas, discarding prior state. Called on
  /// construction and after a repartition: post-repartition sources re-earn
  /// their watermarks from the next punctuation onward, which can only
  /// DELAY window firing — never un-fire a window — so it is safe.
  void Reset(size_t shards);

  /// Applies shard `shard`'s copy of punctuation `p`. Returns the new merged
  /// watermark for p.source iff the merge advanced, nullopt otherwise
  /// (duplicate, regression, or still waiting on other shards).
  std::optional<Timestamp> Observe(size_t shard, const Punctuation& p);

  /// Current merged watermark of one source (kMinTimestamp until every
  /// shard has reported it).
  Timestamp MergedOf(SourceId source) const { return merged_.WatermarkOf(source); }

  /// Joint watermark one shard has applied: its eddy's GlobalWatermark,
  /// which drives its SteMs' window eviction.
  Timestamp ShardGlobalWatermark(size_t shard) const {
    return shard < per_shard_.size() ? per_shard_[shard].GlobalWatermark()
                                     : kMinTimestamp;
  }

  size_t shard_count() const { return per_shard_.size(); }

 private:
  std::vector<WatermarkTracker> per_shard_;
  WatermarkTracker merged_;
};

/// Transforms a stream's notion of time, e.g. logical sequence numbers into
/// the physical timestamps observed at arrival (the paper's algebra allows
/// "a stream defined using one notion of time to be transformed into a
/// stream using another"). Records (logical, physical) correspondence pairs
/// and interpolates.
class TimeTransform {
 public:
  /// Registers that logical instant `seq` occurred at physical time `ts`.
  void Observe(Timestamp seq, Timestamp ts);

  /// Physical time of a logical instant (nearest observation at or before;
  /// kMinTimestamp when nothing observed yet).
  Timestamp ToPhysical(Timestamp seq) const;

  /// Latest logical instant at or before a physical time (kMinTimestamp
  /// when nothing observed yet).
  Timestamp ToLogical(Timestamp ts) const;

  size_t observations() const { return by_seq_.size(); }

 private:
  // Monotone map seq -> ts (both ascending).
  std::vector<std::pair<Timestamp, Timestamp>> by_seq_;
};

}  // namespace tcq
