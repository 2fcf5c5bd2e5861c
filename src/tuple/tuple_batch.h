// TupleBatch: a run of tuples from ONE base stream, the unit the batched
// dataflow pipeline moves end-to-end (wrapper -> fjords -> executor ->
// shared eddy). Propagating batches amortizes the per-tuple lock
// acquisition, catalog lookup, and routing decision that otherwise dominate
// the ingest hot path, while per-tuple semantics are preserved (every batch
// entry point degrades to a batch of one).
//
// Since DESIGN.md §11 a batch carries up to two representations of the same
// rows:
//   - row-shaped:   std::vector<Tuple>, the legacy layout every operator
//                   still understands;
//   - column-major: an immutable shared ColumnStore (one contiguous typed
//                   lane per attribute over a per-batch arena), the layout
//                   the vectorized filter kernels sweep.
// At least one representation is always present; the other is materialized
// lazily on first demand and cached. Mutating the rows (push_back, DropFront,
// non-const element access) invalidates the cached columns; the columns
// themselves are immutable and shared by reference, so copying a batch never
// duplicates lane storage.

#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "tuple/column_store.h"
#include "tuple/tuple.h"

namespace tcq {

class TupleBatch {
 public:
  TupleBatch() = default;
  explicit TupleBatch(SourceId source) : source_(source) {}

  /// Wraps an already-columnar payload (server BatchBuilder, zero-copy
  /// re-tag). Rows materialize lazily if some consumer still needs them.
  TupleBatch(SourceId source, ColumnStore::Ref columns)
      : source_(source), cols_(std::move(columns)) {
    rows_valid_ = (cols_ == nullptr);
  }

  TupleBatch(const TupleBatch& other) = default;
  TupleBatch& operator=(const TupleBatch& other) = default;

  TupleBatch(TupleBatch&& other) noexcept
      : source_(other.source_),
        rows_(std::move(other.rows_)),
        rows_valid_(other.rows_valid_),
        cols_(std::move(other.cols_)),
        cols_failed_(other.cols_failed_),
        puncts_(std::move(other.puncts_)) {
    other.ResetToEmpty();
  }
  TupleBatch& operator=(TupleBatch&& other) noexcept {
    if (this != &other) {
      source_ = other.source_;
      rows_ = std::move(other.rows_);
      rows_valid_ = other.rows_valid_;
      cols_ = std::move(other.cols_);
      cols_failed_ = other.cols_failed_;
      puncts_ = std::move(other.puncts_);
      other.ResetToEmpty();
    }
    return *this;
  }

  /// The base stream every tuple in the batch belongs to. Meaningful only
  /// for ingest batches (intermediates span several sources).
  SourceId source() const { return source_; }
  void set_source(SourceId source) { source_ = source; }

  /// Row count. Control-lane punctuations are NOT rows; a batch with only
  /// punctuations reports size() == 0 / empty() == true, so paths that must
  /// forward lane-only batches check `empty() && punctuations().empty()`.
  size_t size() const {
    if (rows_valid_) return rows_.size();
    return cols_ ? cols_->num_rows() : 0;
  }
  bool empty() const { return size() == 0; }

  void push_back(Tuple t) {
    // In-band control tuples divert onto the control lane, so any path that
    // collects tuples into a batch (e.g. FjordProducer::Produce) is
    // automatically lane-aware without knowing about punctuations.
    if (t.valid() && t.IsPunctuation()) {
      puncts_.push_back(t.AsPunctuation());
      return;
    }
    EnsureRows();
    InvalidateColumns();
    rows_.push_back(std::move(t));
  }

  /// Mutable element access invalidates the cached columnar view.
  Tuple& operator[](size_t i) {
    EnsureRows();
    InvalidateColumns();
    assert(i < rows_.size());
    return rows_[i];
  }
  const Tuple& operator[](size_t i) const {
    EnsureRows();
    assert(i < rows_.size());
    return rows_[i];
  }
  const Tuple& front() const { return (*this)[0]; }
  const Tuple& back() const { return (*this)[size() - 1]; }

  /// Contiguous row storage. The non-const overload hands out mutable rows,
  /// so it drops the cached columns; prefer RowAt()/columns() on read paths
  /// to keep columnar-native batches unmaterialized.
  Tuple* data() {
    EnsureRows();
    InvalidateColumns();
    return rows_.data();
  }
  const Tuple* data() const {
    EnsureRows();
    return rows_.data();
  }

  Tuple* begin() { return data(); }
  Tuple* end() {
    Tuple* d = data();
    return d + rows_.size();
  }
  const Tuple* begin() const { return data(); }
  const Tuple* end() const { return data() + size(); }

  /// One row, without forcing full row materialization of a columnar-native
  /// batch. Cheap (shared payload copy) when rows exist; builds one Tuple
  /// from the lanes otherwise.
  Tuple RowAt(size_t i) const {
    if (rows_valid_) {
      assert(i < rows_.size());
      return rows_[i];
    }
    assert(cols_ && i < cols_->num_rows());
    return cols_->MaterializeRow(i);
  }

  /// The column-major view of this batch, built on first demand. Returns
  /// nullptr when the rows are not columnarizable (mixed schema identities,
  /// invalid tuples, empty batch); the negative result is cached until the
  /// next mutation.
  const ColumnStore::Ref& columns() const;

  /// Rows selected by `sel` (byte mask, sel.size() == size()), preserving
  /// order and the source tag. Columnar-native batches materialize only the
  /// selected rows — dropped rows are never copied.
  TupleBatch Filter(const SelectionVector& sel) const;

  /// Control lane: punctuations that apply AFTER the rows of this batch.
  /// (Delaying a watermark's application is always safe — it only defers
  /// window firing — so collapsing intra-batch ordering to "rows first,
  /// then lane" preserves correctness.)
  const std::vector<Punctuation>& punctuations() const { return puncts_; }
  void AddPunctuation(const Punctuation& p) { puncts_.push_back(p); }
  void ClearPunctuations() { puncts_.clear(); }

  void clear() {
    rows_.clear();
    rows_valid_ = true;
    cols_ = nullptr;
    cols_failed_ = false;
    puncts_.clear();
  }

  void reserve(size_t n) {
    EnsureRows();
    rows_.reserve(n);
  }

  /// True when the batch holds only the column-major representation (rows
  /// would have to be materialized to append to or mutate it).
  bool columnar_only() const { return !rows_valid_; }

  /// Appends `other`'s rows, then its lane behind this batch's lane. Into
  /// an empty batch a batch with columns moves whole, columns intact (the
  /// source tag stays this batch's); row-only batches append their rows, so
  /// this batch's row storage is reused.
  void Append(TupleBatch&& other);

  /// Moves the leading `units` out into a new batch with the same source,
  /// counting rows first and then lane entries: the lane goes only once
  /// every row has gone (it applies after them). Taking every row moves
  /// the columns along; taking fewer materializes the rows.
  TupleBatch TakeFront(size_t units);

  /// Drops the first `n` tuples.
  void DropFront(size_t n) {
    assert(n <= size());
    if (n == 0) return;
    EnsureRows();
    InvalidateColumns();
    rows_.erase(rows_.begin(), rows_.begin() + static_cast<ptrdiff_t>(n));
  }

 private:
  /// Materializes the row representation from the columns (lazy; const
  /// because it only fills a cache).
  void EnsureRows() const;

  void InvalidateColumns() {
    cols_ = nullptr;
    cols_failed_ = false;
  }

  void ResetToEmpty() {
    rows_.clear();
    rows_valid_ = true;
    cols_ = nullptr;
    cols_failed_ = false;
    puncts_.clear();
  }

  SourceId source_ = 0;
  // Invariant: rows_valid_ || cols_ != nullptr (an empty batch is
  // rows_valid_ with no rows). Both may be set: they describe the same rows.
  mutable std::vector<Tuple> rows_;
  mutable bool rows_valid_ = true;
  mutable ColumnStore::Ref cols_;
  mutable bool cols_failed_ = false;  ///< FromRows declined; don't retry
  /// Control lane (see punctuations()). Orthogonal to the row/column
  /// representations; copies share nothing with the lanes.
  std::vector<Punctuation> puncts_;
};

}  // namespace tcq
