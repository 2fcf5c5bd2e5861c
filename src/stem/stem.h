// SteM (State Module): "a temporary repository of tuples, essentially
// corresponding to half of a traditional join operator" (paper §2.2).
// Supports insert (build), search (probe), and delete (eviction). A pair of
// hash-indexed SteMs probed through the shared eddy's SharedSteMProbe
// modules implements an adaptive symmetric hash join; a SteM can also act as
// a lookup cache for asynchronous index joins (ingress/remote_index.h).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "stem/index.h"
#include "storage/checkpoint.h"
#include "tuple/tuple.h"

namespace tcq {

/// Eviction configuration. Both knobs may be active at once.
struct StemOptions {
  /// Attribute (on this SteM's source) used as the equality-probe key.
  /// Empty string = scan-only SteM (no initial hash index). Additional
  /// indexes can be added later with EnsureIndex (one per join edge).
  std::string key_attr;
  /// Keep at most this many build tuples (FIFO eviction); 0 = unbounded.
  size_t max_count = 0;
  /// Evict build tuples with timestamp <= now - window when AdvanceTime is
  /// called; 0 = unbounded. Assumes per-stream monotone timestamps.
  Timestamp window = 0;
};

class SteM : public Checkpointable {
 public:
  /// When `metrics` is null the SteM observes itself in a private registry;
  /// instruments are labeled with the SteM's name.
  SteM(std::string name, SourceId source, SchemaRef schema, StemOptions opts,
       MetricsRegistryRef metrics = nullptr);

  const std::string& name() const { return name_; }
  SourceId source() const { return source_; }
  const SchemaRef& schema() const { return schema_; }
  bool has_hash_index() const { return !indexes_.empty(); }
  const StemOptions& options() const { return opts_; }

  /// Ensures a hash index exists on `attr` (one per join edge touching this
  /// SteM's source), backfilling it from the live entries.
  void EnsureIndex(const std::string& attr);

  /// Inserts a build tuple with its global arrival sequence number.
  void Build(const Tuple& tuple, Timestamp seq);

  /// Equality probe on the index over the SteM's default key attribute:
  /// appends entries whose key equals `key` and whose seq is strictly below
  /// `seq_bound` (the exactly-once match rule).
  void ProbeEq(const Value& key, Timestamp seq_bound,
               std::vector<const StemEntry*>* out);

  /// Equality probe on the index over `attr` (must exist via key_attr or
  /// EnsureIndex).
  void ProbeEq(const std::string& attr, const Value& key, Timestamp seq_bound,
               std::vector<const StemEntry*>* out);

  /// Scan probe: every live entry with seq < seq_bound.
  void ProbeScan(Timestamp seq_bound, std::vector<const StemEntry*>* out);

  /// Advances this SteM's notion of stream time, evicting expired entries
  /// under the window policy.
  void AdvanceTime(Timestamp now);

  /// Visits every live build entry in arrival order (oldest first) with its
  /// original sequence number. The sharded executor uses this to
  /// redistribute stored state across shard replicas on re-partition.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (uint64_t id = log_.base(); id < log_.end(); ++id) {
      const StemEntry& e = log_.Get(id);
      fn(e.tuple, e.seq);
    }
  }

  size_t size() const { return log_.size(); }

  // --- Durable state (DESIGN.md §13) -----------------------------------------
  // Exports the live entry log (tuples with ORIGINAL seqs, arrival order).
  // Restore requires an empty SteM built for the same source; entries go
  // back in through Build, which rebuilds every hash index as a side effect.
  std::string CheckpointTag() const override { return "stem"; }
  uint32_t CheckpointVersion() const override { return 1; }
  void ExportTo(CheckpointWriter* w) const override;
  Status RestoreFrom(CheckpointReader* r) override;

  // Thin reads over the metrics registry.
  uint64_t builds() const { return builds_->Value(); }
  uint64_t probes() const { return probes_->Value(); }
  uint64_t matches() const { return matches_->Value(); }
  uint64_t evictions() const { return evictions_->Value(); }

 private:
  struct AttrIndex {
    std::string attr;
    size_t field = 0;  // position of attr in the schema
    HashIndex index;
  };

  void EnforceCapacity();
  AttrIndex* FindIndex(const std::string& attr);
  size_t ResolveField(const std::string& attr) const;

  std::string name_;
  SourceId source_;
  SchemaRef schema_;
  StemOptions opts_;
  EntryLog log_;
  std::vector<AttrIndex> indexes_;
  std::vector<uint64_t> scratch_ids_;
  MetricsRegistryRef metrics_;
  Counter* builds_;
  Counter* probes_;
  Counter* matches_;
  Counter* evictions_;
  Gauge* live_entries_;
};

}  // namespace tcq
