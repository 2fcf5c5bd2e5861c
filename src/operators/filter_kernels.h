// Auto-vectorizable predicate kernels (DESIGN.md §11). Each kernel sweeps
// one contiguous typed lane for ONE compiled factor, accumulating per-row
// match counts for the grouped filters. The loops are written to the vectorizer's taste:
// no branches in the body, byte-sized accumulators, __restrict__ pointers,
// comparison results used as 0/1 integers. scripts/check.sh compiles
// scripts/vectorize_probe.cpp with -fopt-info-vec and fails the build if
// these loops stop vectorizing.
//
// Exactness contract: kernels are only dispatched on null-free int64/double
// lanes with numeric literals, and every comparison replicates
// Value::Compare bit-for-bit — both-integral comparisons stay in int64,
// mixed comparisons go through the same int64 -> double conversion
// Value::ToDouble performs. Anything else takes the scalar path.

#pragma once

#include <cstddef>
#include <cstdint>

namespace tcq {
namespace kernels {

enum class Cmp : uint8_t { kGe, kGt, kLe, kLt, kNe };

/// counts[i] += (C(v[i]) OP lit) for one bound factor. T is the lane type,
/// C the comparison type (int64_t for integral-vs-integral, double when
/// either side is a double — matching Value::Compare's promotion rule).
template <typename T, typename C, Cmp Op>
inline void AccumBound(uint8_t* __restrict__ counts, const T* __restrict__ v,
                       size_t n, C lit) {
  for (size_t i = 0; i < n; ++i) {
    C x = static_cast<C>(v[i]);
    if constexpr (Op == Cmp::kGe) counts[i] += static_cast<uint8_t>(x >= lit);
    if constexpr (Op == Cmp::kGt) counts[i] += static_cast<uint8_t>(x > lit);
    if constexpr (Op == Cmp::kLe) counts[i] += static_cast<uint8_t>(x <= lit);
    if constexpr (Op == Cmp::kLt) counts[i] += static_cast<uint8_t>(x < lit);
    if constexpr (Op == Cmp::kNe) counts[i] += static_cast<uint8_t>(x != lit);
  }
}

/// counts[i] += (lo-side AND hi-side) for one two-sided range factor.
template <typename T, typename C, bool LoIncl, bool HiIncl>
inline void AccumRange(uint8_t* __restrict__ counts, const T* __restrict__ v,
                       size_t n, C lo, C hi) {
  for (size_t i = 0; i < n; ++i) {
    C x = static_cast<C>(v[i]);
    uint8_t in_lo = LoIncl ? static_cast<uint8_t>(x >= lo)
                           : static_cast<uint8_t>(x > lo);
    uint8_t in_hi = HiIncl ? static_cast<uint8_t>(x <= hi)
                           : static_cast<uint8_t>(x < hi);
    counts[i] += static_cast<uint8_t>(in_lo & in_hi);
  }
}

/// True when any lane value is NaN. Value::Compare's `(a>b)-(a<b)` form
/// reports NaN as EQUAL to everything, which no IEEE comparison in the
/// kernels above reproduces — callers must fall back to the scalar path for
/// lanes containing NaN. Branch-free OR-reduction so this scan vectorizes.
inline bool AnyNaN(const double* __restrict__ v, size_t n) {
  uint8_t acc = 0;
  for (size_t i = 0; i < n; ++i) acc |= static_cast<uint8_t>(v[i] != v[i]);
  return acc != 0;
}

/// Dispatch helper: runs AccumBound with the right Op template instance.
template <typename T, typename C>
inline void AccumBoundDyn(uint8_t* counts, const T* v, size_t n, C lit,
                          Cmp op) {
  switch (op) {
    case Cmp::kGe:
      AccumBound<T, C, Cmp::kGe>(counts, v, n, lit);
      break;
    case Cmp::kGt:
      AccumBound<T, C, Cmp::kGt>(counts, v, n, lit);
      break;
    case Cmp::kLe:
      AccumBound<T, C, Cmp::kLe>(counts, v, n, lit);
      break;
    case Cmp::kLt:
      AccumBound<T, C, Cmp::kLt>(counts, v, n, lit);
      break;
    case Cmp::kNe:
      AccumBound<T, C, Cmp::kNe>(counts, v, n, lit);
      break;
  }
}

/// Dispatch helper: runs AccumRange with the right inclusivity instance.
template <typename T, typename C>
inline void AccumRangeDyn(uint8_t* counts, const T* v, size_t n, C lo, C hi,
                          bool lo_incl, bool hi_incl) {
  if (lo_incl && hi_incl) {
    AccumRange<T, C, true, true>(counts, v, n, lo, hi);
  } else if (lo_incl) {
    AccumRange<T, C, true, false>(counts, v, n, lo, hi);
  } else if (hi_incl) {
    AccumRange<T, C, false, true>(counts, v, n, lo, hi);
  } else {
    AccumRange<T, C, false, false>(counts, v, n, lo, hi);
  }
}

}  // namespace kernels
}  // namespace tcq
