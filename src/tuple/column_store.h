// Columnar storage for TupleBatch (DESIGN.md §11). A ColumnStore holds one
// contiguous typed lane per schema attribute plus a timestamp lane, all
// carved out of a per-batch bump arena, so predicate evaluation can sweep a
// whole batch with tight auto-vectorizable loops instead of chasing one
// shared_ptr<TupleData> per row. Row-shaped Tuples are materialized lazily,
// only at boundaries that still need them (SteM insert, fjord queues, egress
// emit).
//
// The store is immutable once built and shared by reference, so re-tagging a
// batch under another logical source (self-join aliases) is a zero-copy
// schema swap over the same lanes — quickstream's pass-through buffer idiom.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tuple/tuple.h"

namespace tcq {

/// Bump allocator owning the fixed-width lanes of one ColumnStore. Chunks
/// are cache-line aligned so lane sweeps start aligned and never share a
/// line with unrelated data.
class Arena {
 public:
  static constexpr size_t kAlignment = 64;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Allocates `bytes` (kAlignment-aligned). Never returns nullptr.
  void* Allocate(size_t bytes);

  /// Rounds an allocation the way Allocate does, for Reserve.
  static size_t Footprint(size_t bytes) {
    if (bytes == 0) bytes = kAlignment;
    return (bytes + kAlignment - 1) & ~(kAlignment - 1);
  }

  /// Adds one chunk that holds exactly the allocations whose Footprints sum
  /// to `bytes`, instead of the 4 KiB minimum chunk Allocate would start.
  void Reserve(size_t bytes);

  /// Bytes of chunk storage held (allocated or not).
  size_t capacity() const;

  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    return static_cast<T*>(Allocate(n * sizeof(T)));
  }

  size_t bytes_allocated() const { return bytes_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };
  std::vector<Chunk> chunks_;
  size_t bytes_ = 0;
};

/// How a column's values are physically stored.
enum class ColumnRep : uint8_t {
  kInt64,    ///< contiguous int64_t lane (int64 OR timestamp values)
  kDouble,   ///< contiguous double lane
  kBool,     ///< contiguous uint8_t lane (0/1)
  kString,   ///< std::string vector (strings don't vectorize; kept simple)
  kGeneric,  ///< Value vector fallback (mixed/null-typed columns)
};

/// One attribute's lane: a read-only view into the owning ColumnStore.
/// Exactly one of the data pointers matching `rep` is non-null. `nulls` is a
/// byte-per-row validity mask (1 = null) or nullptr when no row is null —
/// kernels check `has_nulls()` once and take the branch-free path.
struct Column {
  ValueType declared = ValueType::kNull;  ///< schema field type
  ColumnRep rep = ColumnRep::kGeneric;
  bool is_timestamp = false;  ///< i64 lane materializes as TimestampVal
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint8_t* b8 = nullptr;
  const std::string* str = nullptr;
  const Value* generic = nullptr;
  const uint8_t* nulls = nullptr;

  bool has_nulls() const { return nulls != nullptr; }
  bool IsNull(size_t row) const { return nulls != nullptr && nulls[row]; }

  /// Materializes one cell (exact round-trip of the ingested Value).
  Value ValueAt(size_t row) const;
};

/// Byte-per-row selection mask over a batch: 1 = row selected. Byte masks
/// (not bit-packed) so filter kernels update them with vectorizable
/// load-compare-and-store loops.
class SelectionVector {
 public:
  SelectionVector() = default;
  explicit SelectionVector(size_t n, bool initially_selected = true)
      : mask_(n, initially_selected ? 1 : 0) {}

  size_t size() const { return mask_.size(); }
  bool Test(size_t i) const { return mask_[i] != 0; }
  void Set(size_t i) { mask_[i] = 1; }
  void Clear(size_t i) { mask_[i] = 0; }
  void Reset(size_t n, bool selected) { mask_.assign(n, selected ? 1 : 0); }

  size_t CountSelected() const {
    size_t c = 0;
    for (uint8_t m : mask_) c += (m != 0);
    return c;
  }
  bool AnySelected() const {
    for (uint8_t m : mask_) {
      if (m != 0) return true;
    }
    return false;
  }

  uint8_t* mask() { return mask_.data(); }
  const uint8_t* mask() const { return mask_.data(); }

 private:
  std::vector<uint8_t> mask_;
};

/// Immutable column-major payload of one TupleBatch.
class ColumnStore {
 public:
  using Ref = std::shared_ptr<const ColumnStore>;

  /// Builds a store from row-shaped tuples. Returns nullptr when the rows
  /// are not columnarizable as one batch: mixed schema identities (eddy
  /// intermediates travel per-tuple) or invalid tuples. Each column picks
  /// the widest exact representation: a typed lane when every non-null value
  /// has exactly the declared type, a generic Value lane otherwise, so
  /// row -> column -> row round-trips are value- and type-exact.
  static Ref FromRows(const Tuple* rows, size_t n);

  /// Zero-copy re-tag: a view over `base`'s lanes under another schema
  /// (same arity and field types — self-join aliases rename sources, not
  /// shapes). Returns nullptr when the schemas are not layout-compatible.
  static Ref Retagged(const Ref& base, SchemaRef schema);

  const SchemaRef& schema() const { return schema_; }
  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return cols_.size(); }
  const Column& column(size_t i) const {
    assert(i < cols_.size());
    return cols_[i];
  }
  const int64_t* timestamps() const { return stamps_; }

  Value ValueAt(size_t col, size_t row) const {
    return cols_[col].ValueAt(row);
  }

  /// Materializes one row as a Tuple under this store's schema.
  Tuple MaterializeRow(size_t row) const;

  /// The rows `rows[0..n)` (n > 0, each < num_rows()), in that order, as a
  /// new store under the same schema: every lane and the timestamps are
  /// gathered through the selection, keeping each column's representation;
  /// a null mask survives only where a gathered row is null. The arena is
  /// sized exactly for the gathered lanes.
  Ref Gather(const uint32_t* rows, size_t n) const;

  size_t arena_bytes() const { return arena_.bytes_allocated(); }
  size_t arena_capacity() const { return arena_.capacity(); }

 private:
  friend class ColumnStoreBuilder;
  ColumnStore() = default;

  SchemaRef schema_;
  size_t rows_ = 0;
  Arena arena_;
  std::vector<Column> cols_;
  // Variable-width / fallback lanes (indexed via Column pointers).
  std::vector<std::unique_ptr<std::vector<std::string>>> string_lanes_;
  std::vector<std::unique_ptr<std::vector<Value>>> generic_lanes_;
  const int64_t* stamps_ = nullptr;
  Ref parent_;  ///< keeps a re-tagged view's lane owner alive
};

/// Accumulates values column-wise against a declared schema and finishes
/// into an immutable ColumnStore. The server's BatchBuilder rides on this;
/// the engine's own ingest paths use it to build columnar-native batches.
class ColumnStoreBuilder {
 public:
  explicit ColumnStoreBuilder(SchemaRef schema);

  const SchemaRef& schema() const { return schema_; }
  /// Rows are delimited by the timestamp lane.
  size_t num_rows() const { return stamps_.size(); }
  size_t lane_size(size_t col) const { return lanes_[col].n; }

  void AppendTimestamp(Timestamp ts) { stamps_.push_back(ts); }

  /// Appends the next value of column `col`. Returns false when `col` is out
  /// of range or the value cannot inhabit the declared field type (same
  /// acceptance rule as Schema::Validate: null fits anywhere, int64 and
  /// timestamp are interchangeable). The value is stored exactly as given.
  bool Append(size_t col, Value v);

  /// Finishes the batch. Fails (nullptr) when column lanes are ragged:
  /// every column must have exactly one value per appended timestamp.
  ColumnStore::Ref Finish();

 private:
  struct Lane {
    ColumnRep rep = ColumnRep::kGeneric;
    bool is_timestamp = false;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint8_t> b8;
    std::vector<std::string> str;
    std::vector<Value> generic;
    std::vector<uint8_t> nulls;
    bool any_null = false;
    size_t n = 0;
  };
  void DemoteToGeneric(size_t col);

  SchemaRef schema_;
  std::vector<Timestamp> stamps_;
  std::vector<Lane> lanes_;
};

}  // namespace tcq
