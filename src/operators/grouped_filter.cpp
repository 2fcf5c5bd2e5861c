#include "operators/grouped_filter.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tcq {

namespace {

/// Chunk width of the batch count matrix: small enough that one slot row is
/// a few cache lines, large enough to amortize per-chunk dispatch.
constexpr size_t kChunk = 256;

/// Above this many live queries the dense count matrix stops paying for
/// itself against the answer-proportional scalar index.
constexpr uint32_t kMaxKernelSlots = 4096;

/// More factors on one attribute than any sane query has; guards the uint8
/// count cells.
constexpr uint32_t kMaxKernelFactors = 200;

/// 2^53: past this magnitude double rounding (and the Value-keyed eq_ map's
/// hash/equality split between integral and double keys) makes the kernel
/// arithmetic diverge from Value::Compare, so compilation refuses.
constexpr double kExactDoubleLimit = 9007199254740992.0;

/// -1: not kernelizable; 0: integral (int64/timestamp); 1: double.
int LiteralKind(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      return 0;
    case ValueType::kDouble:
      return std::isnan(v.AsDouble()) ? -1 : 1;
    default:
      return -1;
  }
}

int64_t IntegralOf(const Value& v) {
  return v.type() == ValueType::kTimestamp
             ? static_cast<int64_t>(v.AsTimestamp())
             : v.AsInt64();
}

}  // namespace

void GroupedFilter::AddFactor(QueryId q, CmpOp op, Value literal) {
  // Re-registering a removed query must not resurrect its old factors.
  if (dead_.Contains(q)) Compact();
  if (literal.is_null()) {
    AddUnsatisfiable(q);
    return;
  }
  switch (op) {
    case CmpOp::kEq:
      eq_[std::move(literal)].push_back(q);
      break;
    case CmpOp::kNe:
      ne_.emplace_back(std::move(literal), q);
      break;
    case CmpOp::kGt:
      lower_.push_back(Bound{std::move(literal), q, true});
      lower_sorted_ = false;
      break;
    case CmpOp::kGe:
      lower_.push_back(Bound{std::move(literal), q, false});
      lower_sorted_ = false;
      break;
    case CmpOp::kLt:
      upper_.push_back(Bound{std::move(literal), q, true});
      upper_sorted_ = false;
      break;
    case CmpOp::kLe:
      upper_.push_back(Bound{std::move(literal), q, false});
      upper_sorted_ = false;
      break;
  }
  ++factor_count_[q];
  ++num_factors_;
  interested_.Add(q);
  dead_.Remove(q);
  ++revision_;
}

void GroupedFilter::AddRange(QueryId q, Value lo, bool lo_incl, Value hi,
                             bool hi_incl) {
  if (dead_.Contains(q)) Compact();
  if (lo.is_null() || hi.is_null()) {
    AddUnsatisfiable(q);
    return;
  }
  IntervalIndex::Interval iv{std::move(lo), lo_incl, std::move(hi), hi_incl,
                             q};
  range_list_.push_back(iv);
  ranges_.Add(std::move(iv));
  ++factor_count_[q];
  ++num_factors_;
  interested_.Add(q);
  dead_.Remove(q);
  ++revision_;
}

void GroupedFilter::AddUnsatisfiable(QueryId q) {
  // Counted, never indexed: no probe bumps it, so q never reaches its
  // factor count, on the scalar path and in the compiled kernels alike.
  unsatisfiable_.push_back(q);
  ++factor_count_[q];
  ++num_factors_;
  interested_.Add(q);
  dead_.Remove(q);
  ++revision_;
}

void GroupedFilter::RemoveQuery(QueryId q) {
  if (!interested_.Contains(q)) return;
  dead_.Add(q);
  interested_.Remove(q);
  ranges_.Remove(q);
  ++revision_;
}

void GroupedFilter::Compact() {
  auto is_dead = [&](QueryId q) { return dead_.Contains(q); };
  for (auto it = eq_.begin(); it != eq_.end();) {
    auto& qs = it->second;
    qs.erase(std::remove_if(qs.begin(), qs.end(), is_dead), qs.end());
    it = qs.empty() ? eq_.erase(it) : std::next(it);
  }
  std::erase_if(ne_, [&](const auto& p) { return is_dead(p.second); });
  std::erase_if(lower_, [&](const Bound& b) { return is_dead(b.query); });
  std::erase_if(upper_, [&](const Bound& b) { return is_dead(b.query); });
  std::erase_if(range_list_,
                [&](const IntervalIndex::Interval& iv) {
                  return is_dead(iv.query);
                });
  std::erase_if(unsatisfiable_, is_dead);
  ranges_.Compact();
  num_factors_ = ne_.size() + lower_.size() + upper_.size() + ranges_.size() +
                 unsatisfiable_.size();
  for (const auto& [v, qs] : eq_) num_factors_ += qs.size();
  for (auto it = factor_count_.begin(); it != factor_count_.end();) {
    it = is_dead(it->first) ? factor_count_.erase(it) : std::next(it);
  }
  dead_ = QuerySet();
  ++revision_;
}

void GroupedFilter::BumpMatch(QueryId q, std::vector<QueryId>* touched) const {
  if (matched_.size() <= q) {
    matched_.resize(q + 1, 0);
    probe_epoch_.resize(q + 1, 0);
  }
  if (probe_epoch_[q] != epoch_) {
    probe_epoch_[q] = epoch_;
    matched_[q] = 0;
    touched->push_back(q);
  }
  ++matched_[q];
}

void GroupedFilter::Match(const Value& v, QuerySet* out) const {
  if (!lower_sorted_) {
    auto& lower = const_cast<std::vector<Bound>&>(lower_);
    std::sort(lower.begin(), lower.end(),
              [](const Bound& a, const Bound& b) {
                return a.literal.Compare(b.literal) < 0;
              });
    const_cast<bool&>(lower_sorted_) = true;
  }
  if (!upper_sorted_) {
    auto& upper = const_cast<std::vector<Bound>&>(upper_);
    std::sort(upper.begin(), upper.end(),
              [](const Bound& a, const Bound& b) {
                return a.literal.Compare(b.literal) < 0;
              });
    const_cast<bool&>(upper_sorted_) = true;
  }

  ++epoch_;
  touched_.clear();
  // SQL semantics, as EvalCmp: a null satisfies no factor (null literals
  // are never indexed, see AddUnsatisfiable).
  if (v.is_null()) return;

  // Equality: one hash lookup.
  if (auto it = eq_.find(v); it != eq_.end()) {
    for (QueryId q : it->second) BumpMatch(q, &touched_);
  }
  // Inequality: satisfied unless equal.
  for (const auto& [literal, q] : ne_) {
    if (v.Compare(literal) != 0) BumpMatch(q, &touched_);
  }
  // Lower bounds: the prefix with literal < v matches; literal == v matches
  // only non-strict bounds.
  for (const Bound& b : lower_) {
    int c = b.literal.Compare(v);
    if (c > 0) break;
    if (c < 0 || !b.strict) BumpMatch(b.query, &touched_);
  }
  // Upper bounds: the suffix with literal > v matches. Walk backwards.
  for (auto it = upper_.rbegin(); it != upper_.rend(); ++it) {
    int c = it->literal.Compare(v);
    if (c < 0) break;
    if (c > 0 || !it->strict) BumpMatch(it->query, &touched_);
  }
  // Two-sided ranges: interval-tree stab, O(log n + matches).
  if (ranges_.size() > 0) {
    range_scratch_ = QuerySet();
    ranges_.Stab(v, &range_scratch_);
    range_scratch_.ForEach([&](QueryId q) { BumpMatch(q, &touched_); });
  }

  for (QueryId q : touched_) {
    if (dead_.Contains(q)) continue;
    auto it = factor_count_.find(q);
    assert(it != factor_count_.end());
    if (matched_[q] == it->second) out->Add(q);
  }
}

void GroupedFilter::Compile() const {
  CompiledFactors& c = compiled_;
  c = CompiledFactors();
  compiled_revision_ = revision_;

  auto is_dead = [&](QueryId q) { return dead_.Contains(q); };
  bool ok = true;
  std::unordered_map<QueryId, uint32_t> slot_of;
  auto slot_for = [&](QueryId q) -> uint32_t {
    auto [it, fresh] = slot_of.try_emplace(q, c.num_slots);
    if (fresh) {
      auto fc = factor_count_.find(q);
      assert(fc != factor_count_.end());
      if (fc->second > kMaxKernelFactors) ok = false;
      ++c.num_slots;
      c.slot_query.push_back(q);
      c.slot_needed.push_back(static_cast<uint8_t>(fc->second));
    }
    return it->second;
  };

  for (const auto& [lit, qs] : eq_) {
    int kind = LiteralKind(lit);
    if (kind < 0) {
      ok = false;
      break;
    }
    // Past 2^53 the eq_ map's Value hashing goes bucket-dependent across
    // the int/double family split; only the scalar path reproduces it.
    double d = kind == 0 ? static_cast<double>(IntegralOf(lit))
                         : lit.AsDouble();
    if (std::fabs(d) >= kExactDoubleLimit) {
      ok = false;
      break;
    }
    for (QueryId q : qs) {
      if (is_dead(q)) continue;
      uint32_t slot = slot_for(q);
      if (kind == 0) {
        c.eq_i[IntegralOf(lit)].push_back(slot);
      } else {
        c.eq_d[d].push_back(slot);
      }
      c.eq_all_d[d].push_back(slot);
    }
  }

  auto add_bound = [&](const Value& lit, QueryId q, kernels::Cmp op) {
    int kind = LiteralKind(lit);
    if (kind < 0) {
      ok = false;
      return;
    }
    uint32_t slot = slot_for(q);
    if (kind == 0) {
      int64_t i = IntegralOf(lit);
      c.bounds_i.push_back({i, slot, op});
      c.bounds_all_d.push_back({static_cast<double>(i), slot, op});
    } else {
      double d = lit.AsDouble();
      c.bounds_d.push_back({d, slot, op});
      c.bounds_all_d.push_back({d, slot, op});
    }
  };
  for (const auto& [lit, q] : ne_) {
    if (!is_dead(q)) add_bound(lit, q, kernels::Cmp::kNe);
  }
  for (const Bound& b : lower_) {
    if (!is_dead(b.query)) {
      add_bound(b.literal, b.query,
                b.strict ? kernels::Cmp::kGt : kernels::Cmp::kGe);
    }
  }
  for (const Bound& b : upper_) {
    if (!is_dead(b.query)) {
      add_bound(b.literal, b.query,
                b.strict ? kernels::Cmp::kLt : kernels::Cmp::kLe);
    }
  }

  for (const IntervalIndex::Interval& iv : range_list_) {
    if (is_dead(iv.query)) continue;
    int lo_kind = LiteralKind(iv.lo), hi_kind = LiteralKind(iv.hi);
    if (lo_kind < 0 || hi_kind < 0) {
      ok = false;
      break;
    }
    uint32_t slot = slot_for(iv.query);
    if (lo_kind == 0 && hi_kind == 0) {
      int64_t lo = IntegralOf(iv.lo), hi = IntegralOf(iv.hi);
      c.ranges_i.push_back({lo, hi, iv.lo_incl, iv.hi_incl, slot});
      c.ranges_all_d.push_back({static_cast<double>(lo),
                                static_cast<double>(hi), iv.lo_incl,
                                iv.hi_incl, slot});
    } else {
      // A mixed-family range forces the int64-lane kernel through double on
      // BOTH sides, where Value::Compare would have compared the integral
      // side exactly; that only diverges once the integral literal rounds.
      if (lo_kind == 0 &&
          std::fabs(static_cast<double>(IntegralOf(iv.lo))) >=
              kExactDoubleLimit) {
        ok = false;
        break;
      }
      if (hi_kind == 0 &&
          std::fabs(static_cast<double>(IntegralOf(iv.hi))) >=
              kExactDoubleLimit) {
        ok = false;
        break;
      }
      double lo = lo_kind == 0 ? static_cast<double>(IntegralOf(iv.lo))
                               : iv.lo.AsDouble();
      double hi = hi_kind == 0 ? static_cast<double>(IntegralOf(iv.hi))
                               : iv.hi.AsDouble();
      c.ranges_d.push_back({lo, hi, iv.lo_incl, iv.hi_incl, slot});
      c.ranges_all_d.push_back({lo, hi, iv.lo_incl, iv.hi_incl, slot});
    }
  }

  if (c.num_slots > kMaxKernelSlots) ok = false;
  c.valid = ok;
  if (ok) {
    counts_.assign(static_cast<size_t>(c.num_slots) * kChunk, 0);
    slot_epoch_.assign(c.num_slots, 0);
    chunk_epoch_ = 0;
  }
}

void GroupedFilter::MatchBatchKernel(const Column& col, size_t n,
                                     QuerySet* out) const {
  const CompiledFactors& c = compiled_;
  const bool int_lane = col.rep == ColumnRep::kInt64;
  const int64_t* vi = col.i64;
  const double* vd = col.f64;

  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    ++chunk_epoch_;
    dirty_slots_.clear();
    auto touch = [&](uint32_t slot) -> uint8_t* {
      uint8_t* row = counts_.data() + static_cast<size_t>(slot) * kChunk;
      if (slot_epoch_[slot] != chunk_epoch_) {
        slot_epoch_[slot] = chunk_epoch_;
        std::fill(row, row + m, uint8_t{0});
        dirty_slots_.push_back(slot);
      }
      return row;
    };

    if (int_lane) {
      const int64_t* v = vi + base;
      for (size_t i = 0; i < m; ++i) {
        if (auto it = c.eq_i.find(v[i]); it != c.eq_i.end()) {
          for (uint32_t slot : it->second) ++touch(slot)[i];
        }
      }
      if (!c.eq_d.empty()) {
        for (size_t i = 0; i < m; ++i) {
          if (auto it = c.eq_d.find(static_cast<double>(v[i]));
              it != c.eq_d.end()) {
            for (uint32_t slot : it->second) ++touch(slot)[i];
          }
        }
      }
      for (const auto& b : c.bounds_i) {
        kernels::AccumBoundDyn<int64_t, int64_t>(touch(b.slot), v, m, b.lit,
                                                 b.op);
      }
      for (const auto& b : c.bounds_d) {
        kernels::AccumBoundDyn<int64_t, double>(touch(b.slot), v, m, b.lit,
                                                b.op);
      }
      for (const auto& r : c.ranges_i) {
        kernels::AccumRangeDyn<int64_t, int64_t>(touch(r.slot), v, m, r.lo,
                                                 r.hi, r.lo_incl, r.hi_incl);
      }
      for (const auto& r : c.ranges_d) {
        kernels::AccumRangeDyn<int64_t, double>(
            touch(r.slot), v, m, r.lo, r.hi, r.lo_incl, r.hi_incl);
      }
    } else {
      const double* v = vd + base;
      for (size_t i = 0; i < m; ++i) {
        if (auto it = c.eq_all_d.find(v[i]); it != c.eq_all_d.end()) {
          for (uint32_t slot : it->second) ++touch(slot)[i];
        }
      }
      for (const auto& b : c.bounds_all_d) {
        kernels::AccumBoundDyn<double, double>(touch(b.slot), v, m, b.lit,
                                               b.op);
      }
      for (const auto& r : c.ranges_all_d) {
        kernels::AccumRangeDyn<double, double>(
            touch(r.slot), v, m, r.lo, r.hi, r.lo_incl, r.hi_incl);
      }
    }

    for (uint32_t slot : dirty_slots_) {
      const uint8_t* row = counts_.data() + static_cast<size_t>(slot) * kChunk;
      const uint8_t needed = c.slot_needed[slot];
      const QueryId q = c.slot_query[slot];
      for (size_t i = 0; i < m; ++i) {
        if (row[i] == needed) out[base + i].Add(q);
      }
    }
  }
}

bool GroupedFilter::MatchBatchUsesKernels(const Column& col,
                                          size_t n) const {
  if (compiled_revision_ != revision_) Compile();
  return compiled_.valid && !col.has_nulls() &&
         (col.rep == ColumnRep::kInt64 ||
          (col.rep == ColumnRep::kDouble && !kernels::AnyNaN(col.f64, n)));
}

void GroupedFilter::MatchBatch(const Column& col, size_t n,
                               QuerySet* out) const {
  if (MatchBatchUsesKernels(col, n)) {
    MatchBatchKernel(col, n, out);
    return;
  }
  for (size_t r = 0; r < n; ++r) Match(col.ValueAt(r), &out[r]);
}

}  // namespace tcq
