// Simulated remote index: stands in for the paper's asynchronous web-lookup
// sources (a TeSS-wrapped web form, §2.2's "join in which table S is joined
// with a remote index on table T"). Each lookup has a simulated cost in
// virtual microseconds, so the E2 hybrid-join experiment can trade per-probe
// latency against symmetric-hash state without wall-clock sleeps.
//
// RemoteIndexProbe is the index-join operator of [GW00]: tuples probe the
// remote index, and a SteM on the indexed table acts as a cache of previous
// expensive lookups [HN96]. It is a plain operator, not an eddy module: a
// plan with one module leaves an eddy no routing choice to make.

#pragma once

#include <unordered_map>
#include <unordered_set>

#include "operators/predicate.h"
#include "stem/stem.h"
#include "tuple/value.h"

namespace tcq {

class SimulatedRemoteIndex {
 public:
  struct Options {
    /// Simulated microseconds charged per lookup (network RTT + server).
    Timestamp lookup_cost_us = 1000;
  };

  SimulatedRemoteIndex(SourceId source, SchemaRef schema,
                       const std::string& key_attr, Options opts);

  SourceId source() const { return source_; }
  const SchemaRef& schema() const { return schema_; }

  /// Loads the remote table.
  void Insert(const Tuple& tuple);

  /// Performs a lookup, charging the simulated cost.
  void Lookup(const Value& key, std::vector<Tuple>* out);

  uint64_t lookups() const { return lookups_; }
  /// Total simulated time spent in lookups.
  Timestamp simulated_cost_us() const { return cost_us_; }
  size_t size() const { return rows_; }

 private:
  SourceId source_;
  SchemaRef schema_;
  size_t key_field_;
  Options opts_;
  std::unordered_map<Value, std::vector<Tuple>, ValueHash> data_;
  size_t rows_ = 0;
  uint64_t lookups_ = 0;
  Timestamp cost_us_ = 0;
};

/// Probes the remote index with an optional SteM cache. When the cache SteM
/// is given, keys already fetched are answered locally (charging nothing),
/// and fetched tuples are built into the cache — this is the "SteM on T as a
/// cache of previous expensive T lookups" hybrid of §2.2.
class RemoteIndexProbe {
 public:
  RemoteIndexProbe(SimulatedRemoteIndex* index, AttrRef probe_key,
                   SteM* cache = nullptr);

  /// Appends the concatenation of `probe` with each matching index row to
  /// `out`; returns the number of matches (0 means the probe drops).
  size_t Probe(const Tuple& probe, std::vector<Tuple>* out);

  uint64_t cache_hits() const { return cache_hits_; }

 private:
  SchemaRef ConcatSchemaFor(const SchemaRef& input);

  SimulatedRemoteIndex* index_;
  AttrRef probe_key_;
  SteM* cache_;
  std::unordered_set<Value, ValueHash> fetched_keys_;
  std::vector<std::pair<const Schema*, SchemaRef>> schema_cache_;
  uint64_t cache_hits_ = 0;
};

}  // namespace tcq
