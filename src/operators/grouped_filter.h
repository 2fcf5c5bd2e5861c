// GroupedFilter: "an index for single-variable boolean factors over the same
// attribute" (paper §3.1, from CACQ [MSHR02]). When a query enters the
// system it is decomposed into boolean factors; single-variable factors are
// inserted here, keyed by attribute. A probe with a tuple's value returns
// the set of queries whose factors on this attribute are ALL satisfied, in
// time proportional to the answer rather than to the number of queries.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/query_set.h"
#include "operators/filter_kernels.h"
#include "operators/interval_index.h"
#include "operators/predicate.h"
#include "tuple/column_store.h"
#include "tuple/value.h"

namespace tcq {

class GroupedFilter {
 public:
  explicit GroupedFilter(AttrRef attr) : attr_(std::move(attr)) {}

  const AttrRef& attr() const { return attr_; }

  /// Registers one boolean factor `attr op literal` for query `q`. A query
  /// may register several factors (e.g. a range is a kGe + kLe pair); it
  /// matches a value only when every registered factor holds.
  void AddFactor(QueryId q, CmpOp op, Value literal);

  /// Registers a two-sided range factor lo..hi as ONE factor, indexed in a
  /// centered interval tree so a probe costs O(log n + matches) instead of
  /// walking every satisfied bound. Prefer this over an AddFactor pair when
  /// both ends of a range are known together.
  void AddRange(QueryId q, Value lo, bool lo_incl, Value hi, bool hi_incl);

  /// Removes every factor of query `q` (lazy: excluded from matches
  /// immediately, storage reclaimed by Compact()).
  void RemoveQuery(QueryId q);

  /// Rebuilds internal structures, dropping factors of removed queries.
  void Compact();

  /// Adds to `out` every registered query all of whose factors are
  /// satisfied by `v`. As in EvalCmp, a null value or a null literal
  /// satisfies no factor.
  void Match(const Value& v, QuerySet* out) const;

  /// Batch probe: for every row r of the column, adds to out[r] exactly the
  /// queries Match(col.ValueAt(r)) would add. Null-free int64/double lanes
  /// with numeric literals sweep compiled factor kernels
  /// (operators/filter_kernels.h) over the contiguous lane — the DESIGN.md
  /// §11 vectorized path; anything else degrades to per-row Match. `out`
  /// must point at `n` QuerySets and n must equal the column's row count.
  void MatchBatch(const Column& col, size_t n, QuerySet* out) const;

  /// True when MatchBatch over this column sweeps the compiled kernels. Its
  /// answer then equals EvalCmp of every factor on every row; the scalar
  /// path it otherwise takes follows the index's own rules instead
  /// (equality goes through Value hashing, so NaN and int64/double keys
  /// beyond 2^53 can differ from EvalCmp).
  bool MatchBatchUsesKernels(const Column& col, size_t n) const;

  /// All queries with at least one factor here (live only).
  const QuerySet& interested() const { return interested_; }

  size_t num_factors() const { return num_factors_; }

 private:
  struct Bound {
    Value literal;
    QueryId query;
    bool strict;  // kGt/kLt vs kGe/kLe
  };

  /// Factors recompiled into kernel-ready SoA form (literals unboxed, one
  /// slot per live query). Rebuilt lazily whenever revision_ moves.
  /// `valid` is false when any literal falls outside the exactness contract
  /// (non-numeric, NaN, or magnitudes where the Value-keyed eq_ hash and
  /// double rounding diverge from exact integer comparison) — MatchBatch
  /// then takes the per-row scalar path.
  struct CompiledFactors {
    bool valid = false;
    uint32_t num_slots = 0;
    std::vector<QueryId> slot_query;
    std::vector<uint8_t> slot_needed;
    struct IBound {
      int64_t lit;
      uint32_t slot;
      kernels::Cmp op;
    };
    struct DBound {
      double lit;
      uint32_t slot;
      kernels::Cmp op;
    };
    std::vector<IBound> bounds_i;     ///< integral literals (int64 lanes)
    std::vector<DBound> bounds_d;     ///< double literals (int64 lanes)
    std::vector<DBound> bounds_all_d; ///< every literal as double (f64 lanes)
    struct IRange {
      int64_t lo, hi;
      bool lo_incl, hi_incl;
      uint32_t slot;
    };
    struct DRange {
      double lo, hi;
      bool lo_incl, hi_incl;
      uint32_t slot;
    };
    std::vector<IRange> ranges_i;
    std::vector<DRange> ranges_d;
    std::vector<DRange> ranges_all_d;
    std::unordered_map<int64_t, std::vector<uint32_t>> eq_i;
    std::unordered_map<double, std::vector<uint32_t>> eq_d;
    std::unordered_map<double, std::vector<uint32_t>> eq_all_d;
  };

  /// Registers a factor with a null literal, which no value satisfies.
  void AddUnsatisfiable(QueryId q);
  void BumpMatch(QueryId q, std::vector<QueryId>* touched) const;
  void Compile() const;
  void MatchBatchKernel(const Column& col, size_t n, QuerySet* out) const;

  AttrRef attr_;
  // Equality factors: literal -> queries.
  std::unordered_map<Value, std::vector<QueryId>, ValueHash> eq_;
  // Inequality (!=) factors, satisfied unless the value equals the literal.
  std::vector<std::pair<Value, QueryId>> ne_;
  // Lower bounds (v > / >= literal), sorted ascending by literal: a probe
  // value satisfies the prefix of bounds below it.
  std::vector<Bound> lower_;
  bool lower_sorted_ = true;
  // Upper bounds (v < / <= literal), sorted ascending: a probe value
  // satisfies the suffix of bounds above it.
  std::vector<Bound> upper_;
  bool upper_sorted_ = true;
  // Two-sided ranges, stabbed via a centered interval tree. range_list_
  // mirrors the registered intervals because the tree has no enumeration
  // API and the batch compiler needs one.
  IntervalIndex ranges_;
  std::vector<IntervalIndex::Interval> range_list_;
  // Queries with a null-literal factor (one entry per factor).
  std::vector<QueryId> unsatisfiable_;

  // Factors required per query; a probe matches a query when its per-probe
  // counter reaches this.
  std::unordered_map<QueryId, uint32_t> factor_count_;
  QuerySet interested_;
  QuerySet dead_;
  size_t num_factors_ = 0;

  // Bumped on any factor mutation; the compiled form notices and rebuilds.
  uint64_t revision_ = 1;

  // Per-probe scratch (epoch-tagged counters so Match is O(answer)).
  mutable std::vector<uint32_t> probe_epoch_;
  mutable std::vector<uint32_t> matched_;
  mutable uint32_t epoch_ = 0;
  mutable std::vector<QueryId> touched_;
  mutable QuerySet range_scratch_;

  // Batch-probe state: compiled factors plus the chunked count matrix
  // (slot-major, kChunk rows per sweep) with epoch-tagged lazy zeroing so
  // untouched slots cost nothing.
  mutable CompiledFactors compiled_;
  mutable uint64_t compiled_revision_ = 0;
  mutable std::vector<uint8_t> counts_;
  mutable std::vector<uint32_t> slot_epoch_;
  mutable uint32_t chunk_epoch_ = 0;
  mutable std::vector<uint32_t> dirty_slots_;
};

}  // namespace tcq
