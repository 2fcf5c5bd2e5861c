// Vectorization probe for the hot filter kernels (DESIGN.md §11).
//
// scripts/check.sh compiles this TU with
//     g++ -O3 -fopt-info-vec-optimized
// and counts the compiler's "loop vectorized" reports. Each probe below
// instantiates one (kernel family x lane/comparison type) combination
// exactly as the engine dispatches it — grouped-filter count sweeps
// (AccumBound/AccumRange) and the NaN-lane guard (AnyNaN). If the report count drops
// below the expected floor, a kernel stopped auto-vectorizing and the
// batch-probe speedups the benches gate on silently erode — the stage
// fails the build instead.
//
// extern "C" out-of-line wrappers keep every loop alive and separately
// reported; nothing here is linked into the engine.

#include "operators/filter_kernels.h"

using namespace tcq::kernels;

extern "C" {

// Grouped-filter bound sweeps: int64 lane vs integral / double literals,
// double lane vs double literals.
void probe_accum_bound_ii(uint8_t* c, const int64_t* v, size_t n,
                          int64_t lit) {
  AccumBound<int64_t, int64_t, Cmp::kGe>(c, v, n, lit);
}
void probe_accum_bound_id(uint8_t* c, const int64_t* v, size_t n,
                          double lit) {
  AccumBound<int64_t, double, Cmp::kLt>(c, v, n, lit);
}
void probe_accum_bound_dd(uint8_t* c, const double* v, size_t n, double lit) {
  AccumBound<double, double, Cmp::kGt>(c, v, n, lit);
}

// Grouped-filter two-sided range sweeps.
void probe_accum_range_ii(uint8_t* c, const int64_t* v, size_t n, int64_t lo,
                          int64_t hi) {
  AccumRange<int64_t, int64_t, true, true>(c, v, n, lo, hi);
}
void probe_accum_range_dd(uint8_t* c, const double* v, size_t n, double lo,
                          double hi) {
  AccumRange<double, double, false, true>(c, v, n, lo, hi);
}

// NaN-lane guard (kernel dispatch refuses lanes containing NaN because
// Value::Compare treats NaN as equal to everything).
bool probe_any_nan(const double* v, size_t n) { return AnyNaN(v, n); }

}  // extern "C"
