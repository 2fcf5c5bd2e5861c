#include "tuple/tuple_batch.h"

#include <iterator>

namespace tcq {

void TupleBatch::EnsureRows() const {
  if (rows_valid_) return;
  assert(cols_ != nullptr);
  rows_.clear();
  rows_.reserve(cols_->num_rows());
  for (size_t r = 0; r < cols_->num_rows(); ++r) {
    rows_.push_back(cols_->MaterializeRow(r));
  }
  rows_valid_ = true;
}

const ColumnStore::Ref& TupleBatch::columns() const {
  static const ColumnStore::Ref kNull;
  if (cols_ != nullptr) return cols_;
  if (cols_failed_) return kNull;
  if (!rows_valid_ || rows_.empty()) return kNull;
  cols_ = ColumnStore::FromRows(rows_.data(), rows_.size());
  if (cols_ == nullptr) {
    cols_failed_ = true;
    return kNull;
  }
  return cols_;
}

void TupleBatch::Append(TupleBatch&& other) {
  if (empty() && puncts_.empty() && other.cols_ != nullptr) {
    SourceId source = source_;
    *this = std::move(other);
    source_ = source;
    return;
  }
  if (!other.empty()) {
    other.EnsureRows();
    EnsureRows();
    InvalidateColumns();
    rows_.insert(rows_.end(), std::make_move_iterator(other.rows_.begin()),
                 std::make_move_iterator(other.rows_.end()));
  }
  puncts_.insert(puncts_.end(), other.puncts_.begin(), other.puncts_.end());
  other.ResetToEmpty();
}

TupleBatch TupleBatch::TakeFront(size_t units) {
  TupleBatch front(source_);
  if (units >= size()) {
    const size_t lane = units - size();
    assert(lane <= puncts_.size());
    front = std::move(*this);
    puncts_.assign(front.puncts_.begin() + static_cast<ptrdiff_t>(lane),
                   front.puncts_.end());
    front.puncts_.resize(lane);
    return front;
  }
  EnsureRows();
  front.rows_.assign(
      std::make_move_iterator(rows_.begin()),
      std::make_move_iterator(rows_.begin() + static_cast<ptrdiff_t>(units)));
  DropFront(units);
  return front;
}

TupleBatch TupleBatch::Filter(const SelectionVector& sel) const {
  assert(sel.size() == size());
  TupleBatch out(source_);
  out.puncts_ = puncts_;  // the control lane is never filtered away
  size_t keep = sel.CountSelected();
  if (keep == 0) return out;
  out.rows_.reserve(keep);
  if (rows_valid_) {
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (sel.Test(i)) out.rows_.push_back(rows_[i]);
    }
  } else {
    for (size_t i = 0; i < cols_->num_rows(); ++i) {
      if (sel.Test(i)) out.rows_.push_back(cols_->MaterializeRow(i));
    }
  }
  return out;
}

}  // namespace tcq
