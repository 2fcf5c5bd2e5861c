// Shared workload builders for the benchmark suite (see DESIGN.md §3).

#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "tuple/tuple.h"

namespace tcq::bench {

inline SchemaRef KVSchema(SourceId source) {
  return Schema::Make({
      {"k", ValueType::kInt64, source},
      {"v", ValueType::kInt64, source},
  });
}

inline Tuple KVRow(SourceId source, int64_t k, int64_t v, Timestamp ts) {
  static thread_local std::vector<std::pair<SourceId, SchemaRef>> cache;
  for (auto& [s, schema] : cache) {
    if (s == source) {
      return Tuple::Make(schema, {Value::Int64(k), Value::Int64(v)}, ts);
    }
  }
  cache.emplace_back(source, KVSchema(source));
  return Tuple::Make(cache.back().second,
                     {Value::Int64(k), Value::Int64(v)}, ts);
}

/// Uniform random stream over keys [0, key_range) and values [0, 100).
inline std::vector<Tuple> UniformStream(SourceId source, size_t n,
                                        int64_t key_range, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(KVRow(source, rng.UniformInt(0, key_range - 1),
                        rng.UniformInt(0, 99), static_cast<Timestamp>(i)));
  }
  return out;
}

/// Content drift for the adaptivity benches (E1, E7): with filters
/// k < 10 and v < 10, phase A rows pass the k filter 10% of the time and
/// the v filter ~91% (k uniform over [0, 100), v over [0, 10]); phase B
/// swaps the two. Phases alternate every `period` rows; 0 = phase A only.
inline std::vector<Tuple> DriftStream(SourceId source, size_t n, size_t period,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t wide = rng.UniformInt(0, 99);
    int64_t narrow = rng.UniformInt(0, 10);
    bool phase_b = period != 0 && (i / period) % 2 == 1;
    out.push_back(KVRow(source, phase_b ? narrow : wide,
                        phase_b ? wide : narrow, static_cast<Timestamp>(i)));
  }
  return out;
}

}  // namespace tcq::bench
