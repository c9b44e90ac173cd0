#include "storage/lanes.h"

#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"

namespace fabric::storage {

template <typename S>
uint64_t BasicTypedVec<S>::Hash(DataType type, size_t i) const {
  switch (type) {
    case DataType::kBool:
      return HashBool(bools[i] != 0);
    case DataType::kInt64:
      return HashInt64(ints[i]);
    case DataType::kFloat64:
      return HashDouble(doubles[i]);
    case DataType::kVarchar:
      return HashBytes(strings[i]);
  }
  return 0;
}

template struct BasicTypedVec<std::string>;
template struct BasicTypedVec<std::string_view>;

namespace {

template <typename T>
void TakeInto(const std::vector<T>& src, const std::vector<uint32_t>& idx,
              std::vector<T>* dst) {
  dst->reserve(dst->size() + idx.size());
  for (uint32_t i : idx) dst->push_back(src[i]);
}

}  // namespace

template <typename S>
void BasicLanes<S>::Reserve(size_t rows) {
  nulls.reserve(rows);
  values.Visit(type, [rows](auto& slots) { slots.reserve(rows); });
}

template <typename S>
void BasicLanes<S>::Resize(size_t n) {
  if (is_boxed()) {
    boxed.resize(n);
    return;
  }
  nulls.resize(n, 1);
  values.Visit(type, [n](auto& slots) { slots.resize(n); });
}

template <typename S>
void BasicLanes<S>::AppendTaken(const BasicLanes& src,
                                const std::vector<uint32_t>& idx) {
  if constexpr (kOwning) {
    if (is_boxed_ || src.is_boxed_ || src.type != type) {
      for (uint32_t i : idx) Push(src.Box(i));
      return;
    }
  }
  TakeInto(src.nulls, idx, &nulls);
  values.Visit(type, [&](auto& slots) {
    TakeInto(src.values.template lane<SlotType<decltype(slots)>>(), idx,
             &slots);
  });
}

template <typename S>
Status BasicLanes<S>::Append(const BasicLanes& src) {
  if (src.type != type) {
    return InvalidArgumentError(StrCat("appending ", DataTypeName(src.type),
                                       " lanes to ", DataTypeName(type)));
  }
  if (size() == 0) {
    *this = src;
    return Status::OK();
  }
  if constexpr (kOwning) {
    if (is_boxed_ || src.is_boxed_) {
      for (size_t i = 0; i < src.size(); ++i) Push(src.Box(i));
      return Status::OK();
    }
  }
  nulls.insert(nulls.end(), src.nulls.begin(), src.nulls.end());
  values.Visit(type, [&](auto& slots) {
    const auto& from = src.values.template lane<SlotType<decltype(slots)>>();
    slots.insert(slots.end(), from.begin(), from.end());
  });
  return Status::OK();
}

template <typename S>
void BasicLanes<S>::AppendDisplay(size_t i, std::string* out) const {
  if (is_boxed()) {
    boxed[i].AppendDisplayString(out);
    return;
  }
  if (nulls[i]) {
    out->append("NULL");
    return;
  }
  switch (type) {
    case DataType::kBool:
      out->append(values.bools[i] ? "true" : "false");
      break;
    case DataType::kInt64:
      AppendInt64Display(values.ints[i], out);
      break;
    case DataType::kFloat64:
      AppendFloat64Display(values.doubles[i], out);
      break;
    case DataType::kVarchar:
      out->append(values.strings[i]);
      break;
  }
}

template <typename S>
uint64_t BasicLanes<S>::Hash(size_t i) const {
  if (is_boxed()) return boxed[i].SegmentationHash();
  return nulls[i] ? Mix64(0xdeadULL)  // Value::SegmentationHash of NULL
                  : values.Hash(type, i);
}

template <typename S>
void BasicLanes<S>::Reset(size_t n, DataType t) requires kOwning {
  type = t;
  is_boxed_ = false;
  boxed.clear();
  nulls.assign(n, 0);
  // Varchar frames keep their strings' capacity from one use to the next.
  if (t == DataType::kVarchar) {
    values.strings.resize(n);
    return;
  }
  values.Visit(t, [n](auto& slots) { slots.assign(n, {}); });
}

template <typename S>
void BasicLanes<S>::Push(const Value& v) requires kOwning {
  if (!is_boxed_ && !v.is_null() && v.type() != type) ToBoxed();
  if (is_boxed_) {
    boxed.push_back(v);
    return;
  }
  const bool null = v.is_null();
  nulls.push_back(null ? 1 : 0);
  switch (type) {
    case DataType::kBool:
      values.bools.push_back(!null && v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      values.ints.push_back(null ? 0 : v.int64_value());
      break;
    case DataType::kFloat64:
      values.doubles.push_back(null ? 0.0 : v.float64_value());
      break;
    case DataType::kVarchar:
      if (null) {
        values.strings.emplace_back();
      } else {
        values.strings.push_back(v.varchar_value());
      }
      break;
  }
}

// Boxes every row so far. Sets the flag even for an empty lane, so a
// lane whose first value already drifts from `type` stays boxed.
template <typename S>
void BasicLanes<S>::ToBoxed() requires kOwning {
  boxed.reserve(nulls.size());
  for (size_t i = 0; i < nulls.size(); ++i) boxed.push_back(Box(i));
  nulls.clear();
  values.Visit(type, [](auto& slots) { slots.clear(); });
  is_boxed_ = true;
}

template struct BasicLanes<std::string>;
template struct BasicLanes<std::string_view>;

template <typename S>
BasicLaneRows<S>::BasicLaneRows(const Schema& schema) {
  columns.reserve(static_cast<size_t>(schema.num_columns()));
  for (const ColumnDef& column : schema.columns()) {
    columns.emplace_back(column.type);
  }
}

template <typename S>
BasicLaneRows<S> BasicLaneRows<S>::FromRows(
    const Schema& schema, const std::vector<Row>& rows,
    const std::vector<int>* columns) requires BasicLanes<S>::kOwning {
  BasicLaneRows out(schema);
  out.num_rows = rows.size();
  for (size_t c = 0; c < out.columns.size(); ++c) {
    if (columns != nullptr &&
        std::find(columns->begin(), columns->end(), static_cast<int>(c)) ==
            columns->end()) {
      continue;
    }
    auto& lane = out.columns[c];
    lane.nulls.reserve(rows.size());
    for (const Row& row : rows) {
      lane.Push(c < row.size() ? row[c] : Value::Null());
    }
  }
  return out;
}

template <typename S>
Row BasicLaneRows<S>::BoxRow(size_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const BasicLanes<S>& lane : columns) {
    row.push_back(lane.size() == 0 ? Value::Null() : lane.Box(i));
  }
  return row;
}

template <typename S>
std::vector<Row> BasicLaneRows<S>::BoxRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) rows.push_back(BoxRow(i));
  return rows;
}

template <typename S>
BasicLaneRows<S> BasicLaneRows<S>::Take(
    const std::vector<uint32_t>& idx) const {
  BasicLaneRows out;
  out.num_rows = idx.size();
  out.columns.reserve(columns.size());
  for (const BasicLanes<S>& lane : columns) {
    out.columns.emplace_back(lane.type).AppendTaken(lane, idx);
  }
  return out;
}

template <typename S>
Status BasicLaneRows<S>::Append(const BasicLaneRows& other) {
  if (columns.empty()) {
    *this = other;
    return Status::OK();
  }
  if (other.columns.size() != columns.size()) {
    return InvalidArgumentError(StrCat("appending ", other.columns.size(),
                                       " lanes to ", columns.size()));
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    FABRIC_RETURN_IF_ERROR(columns[c].Append(other.columns[c]));
  }
  num_rows += other.num_rows;
  return Status::OK();
}

template <typename S>
Status BasicLaneRows<S>::Append(BasicLaneRows&& other) {
  if (num_rows == 0) {
    *this = std::move(other);
    return Status::OK();
  }
  return Append(static_cast<const BasicLaneRows&>(other));
}

template <typename S>
void BasicLaneRows<S>::AppendKey(size_t row, const std::vector<int>& cols,
                                 std::string* key) const {
  for (int c : cols) {
    const BasicLanes<S>& lane = columns[c];
    if (lane.IsNull(row)) {
      key->push_back('\x01');
    } else {
      lane.AppendDisplay(row, key);
    }
    key->push_back('\x02');
  }
}

template <typename S>
Result<BasicLaneRows<std::string_view>> BasicLaneRows<S>::View(
    const std::vector<int>& cols) const requires BasicLanes<S>::kOwning {
  LaneViewRows view;
  view.num_rows = num_rows;
  view.columns.reserve(cols.size());
  for (int c : cols) {
    const Lanes& lane = columns[c];
    if (lane.is_boxed() || lane.size() != num_rows) {
      return InvalidArgumentError("only typed, materialized lanes view");
    }
    LaneViews& out = view.columns.emplace_back(lane.type);
    out.nulls = lane.nulls;
    out.values.ints = lane.values.ints;
    out.values.doubles = lane.values.doubles;
    out.values.bools = lane.values.bools;
    out.values.strings.assign(lane.values.strings.begin(),
                              lane.values.strings.end());
  }
  return view;
}

template struct BasicLaneRows<std::string>;
template struct BasicLaneRows<std::string_view>;

}  // namespace fabric::storage
