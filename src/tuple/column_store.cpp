#include "tuple/column_store.h"

#include <algorithm>
#include <cstring>

namespace tcq {

// --- Arena -------------------------------------------------------------------

void* Arena::Allocate(size_t bytes) {
  if (bytes == 0) bytes = kAlignment;
  size_t need = Footprint(bytes);
  Chunk* chunk = chunks_.empty() ? nullptr : &chunks_.back();
  if (chunk == nullptr || chunk->capacity - chunk->used < need) {
    Chunk fresh;
    // Double-ish growth keeps the chunk count logarithmic; the common case
    // (one batch, lanes sized up-front) fits in a single chunk.
    size_t cap = std::max(need + kAlignment, size_t{4096});
    if (!chunks_.empty()) cap = std::max(cap, chunks_.back().capacity * 2);
    fresh.data = std::make_unique<std::byte[]>(cap);
    fresh.capacity = cap;
    chunks_.push_back(std::move(fresh));
    chunk = &chunks_.back();
  }
  // Align the returned pointer within the chunk.
  auto base = reinterpret_cast<uintptr_t>(chunk->data.get()) + chunk->used;
  uintptr_t aligned = (base + kAlignment - 1) & ~(uintptr_t{kAlignment} - 1);
  size_t pad = aligned - base;
  chunk->used += pad + bytes;
  bytes_ += pad + bytes;
  return reinterpret_cast<void*>(aligned);
}

void Arena::Reserve(size_t bytes) {
  Chunk fresh;
  // Slack to align the first allocation; later ones start aligned.
  fresh.capacity = bytes + kAlignment;
  fresh.data.reset(new std::byte[fresh.capacity]);
  chunks_.push_back(std::move(fresh));
}

size_t Arena::capacity() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.capacity;
  return total;
}

// --- Column ------------------------------------------------------------------

Value Column::ValueAt(size_t row) const {
  if (nulls != nullptr && nulls[row]) return Value::Null();
  switch (rep) {
    case ColumnRep::kInt64:
      return is_timestamp ? Value::TimestampVal(i64[row])
                          : Value::Int64(i64[row]);
    case ColumnRep::kDouble:
      return Value::Double(f64[row]);
    case ColumnRep::kBool:
      return Value::Bool(b8[row] != 0);
    case ColumnRep::kString:
      return Value::String(str[row]);
    case ColumnRep::kGeneric:
      return generic[row];
  }
  return Value::Null();
}

// --- ColumnStore -------------------------------------------------------------

namespace {

/// Picks the lane representation for a column by scanning the actual values:
/// a typed lane only when every non-null value has exactly the type the lane
/// materializes, so the columnar view reproduces rows bit-for-bit.
ColumnRep ClassifyColumn(const Tuple* rows, size_t n, size_t col,
                         bool* any_null, bool* is_timestamp) {
  *any_null = false;
  ValueType seen = ValueType::kNull;
  for (size_t r = 0; r < n; ++r) {
    const Value& v = rows[r].at(col);
    if (v.is_null()) {
      *any_null = true;
      continue;
    }
    ValueType t = v.type();
    if (seen == ValueType::kNull) {
      seen = t;
    } else if (seen != t) {
      return ColumnRep::kGeneric;
    }
  }
  switch (seen) {
    case ValueType::kInt64:
      return ColumnRep::kInt64;
    case ValueType::kTimestamp:
      *is_timestamp = true;
      return ColumnRep::kInt64;
    case ValueType::kDouble:
      return ColumnRep::kDouble;
    case ValueType::kBool:
      return ColumnRep::kBool;
    case ValueType::kString:
      return ColumnRep::kString;
    case ValueType::kNull:  // all-null column
    default:
      return ColumnRep::kGeneric;
  }
}

}  // namespace

ColumnStore::Ref ColumnStore::FromRows(const Tuple* rows, size_t n) {
  if (n == 0) return nullptr;
  if (!rows[0].valid()) return nullptr;
  const SchemaRef& schema = rows[0].schema();
  for (size_t r = 1; r < n; ++r) {
    // Pointer identity: one stream's tuples share the schema object. Equal
    // but distinct schemas would also columnarize, but never occur on the
    // batched ingest paths and aren't worth the deep compare.
    if (!rows[r].valid() || rows[r].schema().get() != schema.get()) {
      return nullptr;
    }
  }
  auto store = std::shared_ptr<ColumnStore>(new ColumnStore());
  store->schema_ = schema;
  store->rows_ = n;
  size_t num_cols = schema->num_fields();
  store->cols_.resize(num_cols);

  int64_t* stamps = store->arena_.AllocateArray<int64_t>(n);
  for (size_t r = 0; r < n; ++r) stamps[r] = rows[r].timestamp();
  store->stamps_ = stamps;

  for (size_t c = 0; c < num_cols; ++c) {
    Column& col = store->cols_[c];
    col.declared = schema->field(c).type;
    bool any_null = false;
    col.rep = ClassifyColumn(rows, n, c, &any_null, &col.is_timestamp);
    uint8_t* nulls = nullptr;
    if (any_null && col.rep != ColumnRep::kGeneric) {
      nulls = store->arena_.AllocateArray<uint8_t>(n);
      std::memset(nulls, 0, n);
      col.nulls = nulls;
    }
    switch (col.rep) {
      case ColumnRep::kInt64: {
        int64_t* lane = store->arena_.AllocateArray<int64_t>(n);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].at(c);
          if (v.is_null()) {
            nulls[r] = 1;
            lane[r] = 0;
          } else {
            lane[r] = col.is_timestamp ? v.AsTimestamp() : v.AsInt64();
          }
        }
        col.i64 = lane;
        break;
      }
      case ColumnRep::kDouble: {
        double* lane = store->arena_.AllocateArray<double>(n);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].at(c);
          if (v.is_null()) {
            nulls[r] = 1;
            lane[r] = 0;
          } else {
            lane[r] = v.AsDouble();
          }
        }
        col.f64 = lane;
        break;
      }
      case ColumnRep::kBool: {
        uint8_t* lane = store->arena_.AllocateArray<uint8_t>(n);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].at(c);
          if (v.is_null()) {
            nulls[r] = 1;
            lane[r] = 0;
          } else {
            lane[r] = v.AsBool() ? 1 : 0;
          }
        }
        col.b8 = lane;
        break;
      }
      case ColumnRep::kString: {
        auto lane = std::make_unique<std::vector<std::string>>(n);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].at(c);
          if (v.is_null()) {
            nulls[r] = 1;
          } else {
            (*lane)[r] = v.AsString();
          }
        }
        col.str = lane->data();
        store->string_lanes_.push_back(std::move(lane));
        break;
      }
      case ColumnRep::kGeneric: {
        auto lane = std::make_unique<std::vector<Value>>();
        lane->reserve(n);
        for (size_t r = 0; r < n; ++r) lane->push_back(rows[r].at(c));
        col.generic = lane->data();
        store->generic_lanes_.push_back(std::move(lane));
        break;
      }
    }
  }
  return store;
}

ColumnStore::Ref ColumnStore::Retagged(const Ref& base, SchemaRef schema) {
  if (base == nullptr || schema == nullptr) return nullptr;
  const SchemaRef& from = base->schema();
  if (from->num_fields() != schema->num_fields()) return nullptr;
  for (size_t i = 0; i < from->num_fields(); ++i) {
    if (from->field(i).type != schema->field(i).type) return nullptr;
  }
  auto store = std::shared_ptr<ColumnStore>(new ColumnStore());
  store->schema_ = std::move(schema);
  store->rows_ = base->rows_;
  store->cols_ = base->cols_;  // lane pointers; storage stays with `base`
  store->stamps_ = base->stamps_;
  store->parent_ = base;
  return store;
}

Tuple ColumnStore::MaterializeRow(size_t row) const {
  assert(row < rows_);
  std::vector<Value> values;
  values.reserve(cols_.size());
  for (const Column& col : cols_) values.push_back(col.ValueAt(row));
  return Tuple::Make(schema_, std::move(values),
                     static_cast<Timestamp>(stamps_[row]));
}

namespace {

template <typename T>
const T* GatherLane(Arena* arena, const T* src, const uint32_t* rows,
                    size_t n) {
  T* lane = arena->AllocateArray<T>(n);
  for (size_t i = 0; i < n; ++i) lane[i] = src[rows[i]];
  return lane;
}

size_t LaneWidth(ColumnRep rep) {
  switch (rep) {
    case ColumnRep::kInt64:
      return sizeof(int64_t);
    case ColumnRep::kDouble:
      return sizeof(double);
    case ColumnRep::kBool:
      return sizeof(uint8_t);
    default:
      return 0;  // not in the arena
  }
}

}  // namespace

ColumnStore::Ref ColumnStore::Gather(const uint32_t* rows, size_t n) const {
  assert(n > 0);
  auto store = std::shared_ptr<ColumnStore>(new ColumnStore());
  store->schema_ = schema_;
  store->rows_ = n;
  store->cols_.resize(cols_.size());

  std::vector<bool> keep_nulls(cols_.size(), false);
  size_t bytes = Arena::Footprint(n * sizeof(int64_t));
  for (size_t c = 0; c < cols_.size(); ++c) {
    const Column& col = cols_[c];
    if (size_t w = LaneWidth(col.rep); w > 0) bytes += Arena::Footprint(n * w);
    if (col.has_nulls()) {
      for (size_t i = 0; i < n && !keep_nulls[c]; ++i) {
        keep_nulls[c] = col.nulls[rows[i]] != 0;
      }
      if (keep_nulls[c]) bytes += Arena::Footprint(n);
    }
  }
  Arena& arena = store->arena_;
  arena.Reserve(bytes);

  store->stamps_ = GatherLane(&arena, stamps_, rows, n);
  for (size_t c = 0; c < cols_.size(); ++c) {
    const Column& from = cols_[c];
    Column& col = store->cols_[c];
    col.declared = from.declared;
    col.rep = from.rep;
    col.is_timestamp = from.is_timestamp;
    if (keep_nulls[c]) col.nulls = GatherLane(&arena, from.nulls, rows, n);
    switch (from.rep) {
      case ColumnRep::kInt64:
        col.i64 = GatherLane(&arena, from.i64, rows, n);
        break;
      case ColumnRep::kDouble:
        col.f64 = GatherLane(&arena, from.f64, rows, n);
        break;
      case ColumnRep::kBool:
        col.b8 = GatherLane(&arena, from.b8, rows, n);
        break;
      case ColumnRep::kString: {
        auto lane = std::make_unique<std::vector<std::string>>();
        lane->reserve(n);
        for (size_t i = 0; i < n; ++i) lane->push_back(from.str[rows[i]]);
        col.str = lane->data();
        store->string_lanes_.push_back(std::move(lane));
        break;
      }
      case ColumnRep::kGeneric: {
        auto lane = std::make_unique<std::vector<Value>>();
        lane->reserve(n);
        for (size_t i = 0; i < n; ++i) lane->push_back(from.generic[rows[i]]);
        col.generic = lane->data();
        store->generic_lanes_.push_back(std::move(lane));
        break;
      }
    }
  }
  return store;
}

// --- ColumnStoreBuilder ------------------------------------------------------

ColumnStoreBuilder::ColumnStoreBuilder(SchemaRef schema)
    : schema_(std::move(schema)) {
  lanes_.resize(schema_->num_fields());
  for (size_t c = 0; c < lanes_.size(); ++c) {
    switch (schema_->field(c).type) {
      case ValueType::kInt64:
        lanes_[c].rep = ColumnRep::kInt64;
        break;
      case ValueType::kTimestamp:
        lanes_[c].rep = ColumnRep::kInt64;
        lanes_[c].is_timestamp = true;
        break;
      case ValueType::kDouble:
        lanes_[c].rep = ColumnRep::kDouble;
        break;
      case ValueType::kBool:
        lanes_[c].rep = ColumnRep::kBool;
        break;
      case ValueType::kString:
        lanes_[c].rep = ColumnRep::kString;
        break;
      default:
        lanes_[c].rep = ColumnRep::kGeneric;
        break;
    }
  }
}

void ColumnStoreBuilder::DemoteToGeneric(size_t col) {
  Lane& lane = lanes_[col];
  std::vector<Value> generic;
  generic.reserve(lane.n);
  for (size_t r = 0; r < lane.n; ++r) {
    if (lane.any_null && r < lane.nulls.size() && lane.nulls[r]) {
      generic.push_back(Value::Null());
      continue;
    }
    switch (lane.rep) {
      case ColumnRep::kInt64:
        generic.push_back(lane.is_timestamp ? Value::TimestampVal(lane.i64[r])
                                            : Value::Int64(lane.i64[r]));
        break;
      case ColumnRep::kDouble:
        generic.push_back(Value::Double(lane.f64[r]));
        break;
      case ColumnRep::kBool:
        generic.push_back(Value::Bool(lane.b8[r] != 0));
        break;
      case ColumnRep::kString:
        generic.push_back(Value::String(lane.str[r]));
        break;
      case ColumnRep::kGeneric:
        generic.push_back(lane.generic[r]);
        break;
    }
  }
  lane.rep = ColumnRep::kGeneric;
  lane.generic = std::move(generic);
  lane.i64.clear();
  lane.f64.clear();
  lane.b8.clear();
  lane.str.clear();
  lane.nulls.clear();
  lane.any_null = false;
}

bool ColumnStoreBuilder::Append(size_t col, Value v) {
  if (col >= lanes_.size()) return false;
  const Field& field = schema_->field(col);
  if (!v.is_null()) {
    ValueType t = v.type();
    bool both_time_like =
        (t == ValueType::kInt64 && field.type == ValueType::kTimestamp) ||
        (t == ValueType::kTimestamp && field.type == ValueType::kInt64);
    if (t != field.type && !both_time_like) return false;
    // A time-like value of the "other" flavor is legal but cannot live in
    // the typed lane without changing its type on the way back out; the
    // whole column falls back to exact Value storage.
    if (both_time_like && lanes_[col].rep != ColumnRep::kGeneric) {
      DemoteToGeneric(col);
    }
  }
  Lane& lane = lanes_[col];
  if (v.is_null() && lane.rep != ColumnRep::kGeneric) {
    if (!lane.any_null) {
      lane.any_null = true;
      lane.nulls.assign(lane.n, 0);
    }
    lane.nulls.push_back(1);
    switch (lane.rep) {
      case ColumnRep::kInt64:
        lane.i64.push_back(0);
        break;
      case ColumnRep::kDouble:
        lane.f64.push_back(0);
        break;
      case ColumnRep::kBool:
        lane.b8.push_back(0);
        break;
      case ColumnRep::kString:
        lane.str.emplace_back();
        break;
      default:
        break;
    }
    ++lane.n;
    return true;
  }
  if (lane.any_null) lane.nulls.push_back(0);
  switch (lane.rep) {
    case ColumnRep::kInt64:
      lane.i64.push_back(lane.is_timestamp ? v.AsTimestamp() : v.AsInt64());
      break;
    case ColumnRep::kDouble:
      lane.f64.push_back(v.AsDouble());
      break;
    case ColumnRep::kBool:
      lane.b8.push_back(v.AsBool() ? 1 : 0);
      break;
    case ColumnRep::kString:
      lane.str.push_back(v.AsString());
      break;
    case ColumnRep::kGeneric:
      lane.generic.push_back(std::move(v));
      break;
  }
  ++lane.n;
  return true;
}

ColumnStore::Ref ColumnStoreBuilder::Finish() {
  size_t n = stamps_.size();
  for (const Lane& lane : lanes_) {
    if (lane.n != n) return nullptr;  // ragged: caller reports the column
  }
  auto store = std::shared_ptr<ColumnStore>(new ColumnStore());
  store->schema_ = schema_;
  store->rows_ = n;
  store->cols_.resize(lanes_.size());

  int64_t* stamps = store->arena_.AllocateArray<int64_t>(n);
  std::copy(stamps_.begin(), stamps_.end(), stamps);
  store->stamps_ = stamps;

  for (size_t c = 0; c < lanes_.size(); ++c) {
    Lane& lane = lanes_[c];
    Column& col = store->cols_[c];
    col.declared = schema_->field(c).type;
    col.rep = lane.rep;
    col.is_timestamp = lane.is_timestamp;
    if (lane.any_null) {
      uint8_t* nulls = store->arena_.AllocateArray<uint8_t>(n);
      std::copy(lane.nulls.begin(), lane.nulls.end(), nulls);
      col.nulls = nulls;
    }
    switch (lane.rep) {
      case ColumnRep::kInt64: {
        int64_t* p = store->arena_.AllocateArray<int64_t>(n);
        std::copy(lane.i64.begin(), lane.i64.end(), p);
        col.i64 = p;
        break;
      }
      case ColumnRep::kDouble: {
        double* p = store->arena_.AllocateArray<double>(n);
        std::copy(lane.f64.begin(), lane.f64.end(), p);
        col.f64 = p;
        break;
      }
      case ColumnRep::kBool: {
        uint8_t* p = store->arena_.AllocateArray<uint8_t>(n);
        std::copy(lane.b8.begin(), lane.b8.end(), p);
        col.b8 = p;
        break;
      }
      case ColumnRep::kString: {
        auto owned =
            std::make_unique<std::vector<std::string>>(std::move(lane.str));
        col.str = owned->data();
        store->string_lanes_.push_back(std::move(owned));
        break;
      }
      case ColumnRep::kGeneric: {
        auto owned =
            std::make_unique<std::vector<Value>>(std::move(lane.generic));
        col.generic = owned->data();
        store->generic_lanes_.push_back(std::move(owned));
        break;
      }
    }
  }
  return store;
}

}  // namespace tcq
