#include "storage/lanes.h"

#include <algorithm>

namespace fabric::storage {

namespace {

template <typename T>
void TakeInto(const std::vector<T>& src, const std::vector<uint32_t>& idx,
              std::vector<T>* dst) {
  size_t base = dst->size();
  dst->resize(base + idx.size());
  for (size_t k = 0; k < idx.size(); ++k) (*dst)[base + k] = src[idx[k]];
}

}  // namespace

void Lanes::Reset(size_t n, DataType t) {
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

void Lanes::Resize(size_t n) {
  if (is_boxed_) {
    boxed.resize(n);
    return;
  }
  nulls.resize(n, 1);
  values.Visit(type, [n](auto& slots) { slots.resize(n); });
}

void Lanes::Push(const Value& v) {
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

void Lanes::AppendTaken(const Lanes& src, const std::vector<uint32_t>& idx) {
  if (is_boxed_ || src.is_boxed_ || src.type != type) {
    for (uint32_t i : idx) Push(src.Box(i));
    return;
  }
  TakeInto(src.nulls, idx, &nulls);
  values.Visit(type, [&](auto& slots) {
    TakeInto(src.values.lane<SlotType<decltype(slots)>>(), idx, &slots);
  });
}

void Lanes::Append(const Lanes& src) {
  if (size() == 0) {
    *this = src;
    return;
  }
  if (is_boxed_ || src.is_boxed_ || src.type != type) {
    for (size_t i = 0; i < src.size(); ++i) Push(src.Box(i));
    return;
  }
  nulls.insert(nulls.end(), src.nulls.begin(), src.nulls.end());
  values.Visit(type, [&](auto& slots) {
    const auto& from = src.values.lane<SlotType<decltype(slots)>>();
    slots.insert(slots.end(), from.begin(), from.end());
  });
}

void Lanes::AppendDisplay(size_t i, std::string* out) const {
  if (is_boxed_) {
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

double Lanes::RawSize(size_t i) const {
  if (is_boxed_) return boxed[i].RawSize();
  return nulls[i] ? 0 : values.RawSize(type, i);
}

bool Lanes::IsStringAt(size_t i) const {
  if (is_boxed_) {
    return !boxed[i].is_null() && boxed[i].type() == DataType::kVarchar;
  }
  return !nulls[i] && type == DataType::kVarchar;
}

// Boxes every row so far. Sets the flag even for an empty lane, so a
// lane whose first value already drifts from `type` stays boxed.
void Lanes::ToBoxed() {
  boxed.reserve(nulls.size());
  for (size_t i = 0; i < nulls.size(); ++i) boxed.push_back(Box(i));
  nulls.clear();
  values.Visit(type, [](auto& slots) { slots.clear(); });
  is_boxed_ = true;
}

LaneRows::LaneRows(const Schema& schema) {
  columns.reserve(static_cast<size_t>(schema.num_columns()));
  for (const ColumnDef& column : schema.columns()) {
    columns.emplace_back(column.type);
  }
}

LaneRows LaneRows::FromRows(const Schema& schema,
                            const std::vector<Row>& rows,
                            const std::vector<int>* columns) {
  LaneRows out(schema);
  out.num_rows = rows.size();
  for (size_t c = 0; c < out.columns.size(); ++c) {
    if (columns != nullptr &&
        std::find(columns->begin(), columns->end(), static_cast<int>(c)) ==
            columns->end()) {
      continue;
    }
    Lanes& lane = out.columns[c];
    lane.nulls.reserve(rows.size());
    for (const Row& row : rows) {
      lane.Push(c < row.size() ? row[c] : Value::Null());
    }
  }
  return out;
}

Row LaneRows::BoxRow(size_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const Lanes& lane : columns) {
    row.push_back(lane.size() == 0 ? Value::Null() : lane.Box(i));
  }
  return row;
}

std::vector<Row> LaneRows::BoxRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) rows.push_back(BoxRow(i));
  return rows;
}

void LaneRows::Append(const LaneRows& other) {
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].Append(other.columns[c]);
  }
  num_rows += other.num_rows;
}

void LaneRows::Append(LaneRows&& other) {
  if (num_rows == 0) {
    *this = std::move(other);
    return;
  }
  Append(static_cast<const LaneRows&>(other));
}

}  // namespace fabric::storage
