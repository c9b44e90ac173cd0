#ifndef FABRIC_STORAGE_LANES_H_
#define FABRIC_STORAGE_LANES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fabric::storage {

// Unboxed values of one column type. Exactly one of the typed vectors is
// populated, per the column's DataType; Visit hands that one to a
// generic lambda. `S` is the varchar slot type. TypedVec's
// std::string_view slots are views into storage owned elsewhere (a
// chunk payload or the Values they were read from), which must outlive
// them; BasicTypedVec<std::string> slots own their bytes.
template <typename S>
struct BasicTypedVec {
 private:
  // Visit's body, for const and mutable vectors alike.
  template <typename Self, typename Fn>
  static decltype(auto) VisitLane(Self& self, DataType type, Fn& fn) {
    switch (type) {
      case DataType::kBool:
        return fn(self.bools);
      case DataType::kInt64:
        return fn(self.ints);
      case DataType::kFloat64:
        return fn(self.doubles);
      case DataType::kVarchar:
        break;
    }
    return fn(self.strings);
  }

  // lane<T>'s body, for const and mutable vectors alike.
  template <typename T, typename Self>
  static auto& LaneOf(Self& self) {
    if constexpr (std::is_same_v<T, int64_t>) {
      return self.ints;
    } else if constexpr (std::is_same_v<T, double>) {
      return self.doubles;
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      return self.bools;
    } else {
      return self.strings;
    }
  }

 public:
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;  // 0 or 1
  std::vector<S> strings;

  // fn(lane) on the vector that holds `type`'s slots.
  template <typename Fn>
  decltype(auto) Visit(DataType type, Fn&& fn) {
    return VisitLane(*this, type, fn);
  }
  template <typename Fn>
  decltype(auto) Visit(DataType type, Fn&& fn) const {
    return VisitLane(*this, type, fn);
  }

  size_t size(DataType type) const {
    return Visit(type, [](const auto& lane) { return lane.size(); });
  }

  // Numeric view of slot `i` (callers guarantee a numeric type).
  double NumberAt(DataType type, size_t i) const {
    switch (type) {
      case DataType::kBool:
        return bools[i] ? 1.0 : 0.0;
      case DataType::kInt64:
        return static_cast<double>(ints[i]);
      default:
        return doubles[i];
    }
  }

  // The vector holding slots of type T: uint8_t for bools, and any
  // string type for varchars (so a lane of one BasicTypedVec finds its
  // counterpart in another via SlotType).
  template <typename T>
  auto& lane() {
    return LaneOf<T>(*this);
  }
  template <typename T>
  const auto& lane() const {
    return LaneOf<T>(*this);
  }

  std::string_view StringAt(size_t i) const { return strings[i]; }

  // Boxes slot `i` back into a Value (late materialization endpoint).
  Value Box(DataType type, size_t i) const {
    switch (type) {
      case DataType::kBool:
        return Value::Bool(bools[i] != 0);
      case DataType::kInt64:
        return Value::Int64(ints[i]);
      case DataType::kFloat64:
        return Value::Float64(doubles[i]);
      case DataType::kVarchar:
        return Value::Varchar(std::string(strings[i]));
    }
    return Value::Null();
  }

  // Segmentation hash of slot `i` (matches Value::SegmentationHash).
  uint64_t Hash(DataType type, size_t i) const;

  // Cost-model raw size of slot `i` (matches Value::RawSize for non-null).
  double RawSize(DataType type, size_t i) const {
    switch (type) {
      case DataType::kBool:
        return 1;
      case DataType::kInt64:
      case DataType::kFloat64:
        return 8;
      case DataType::kVarchar:
        return static_cast<double>(strings[i].size());
    }
    return 0;
  }
};

using TypedVec = BasicTypedVec<std::string_view>;

// The slot type of a lane vector V, for BasicTypedVec::lane.
template <typename V>
using SlotType = typename std::decay_t<V>::value_type;

// One column of a row set as typed lanes: a null flag per row and one
// slot per row in the `values` vector for `type` (a null row's slot
// holds a zero value; the other vectors stay empty). `S` is the varchar
// slot type. Lanes (std::string) own their bytes: scans, joins and
// exec::Program frames carry them, and a scan's lane stays valid across
// sim yields while the Tuple Mover merges or drops its container.
// LaneViews (std::string_view) view bytes owned elsewhere (an Avro
// buffer, rows, a container's arena or chunks), which must outlive
// them: write batches and Tuple Mover gathers carry them.
//
// An owning column whose non-null values do not all have one type (rows
// from a view or a system table whose values drift from the declared
// schema) is held boxed instead: `boxed` holds every row and `nulls`
// and `values` stay empty. Typed readers (exec::Program) unbox such a
// lane with a per-row type check. A view lane is never boxed.
template <typename S>
struct BasicLanes {
  static constexpr bool kOwning = std::is_same_v<S, std::string>;

  DataType type = DataType::kBool;
  std::vector<uint8_t> nulls;  // 1 = SQL NULL
  BasicTypedVec<S> values;
  std::vector<Value> boxed;  // every row of a boxed lane

  BasicLanes() = default;
  explicit BasicLanes(DataType t) : type(t) {}

  bool is_boxed() const {
    if constexpr (kOwning) {
      return is_boxed_;
    } else {
      return false;
    }
  }
  size_t size() const { return is_boxed() ? boxed.size() : nulls.size(); }
  bool IsNull(size_t i) const {
    return is_boxed() ? boxed[i].is_null() : nulls[i] != 0;
  }

  // Room for `rows` rows without reallocating.
  void Reserve(size_t rows);
  // Grows or shrinks to `n` rows; added rows are NULL.
  void Resize(size_t n);
  // Appends rows idx[0], idx[1], ... of `src`, a lane of this type.
  void AppendTaken(const BasicLanes& src, const std::vector<uint32_t>& idx);
  // Appends every row of `src` (an empty lane becomes a copy of it).
  // Fails, as DecodeColumnInto does, when `src` holds another type.
  Status Append(const BasicLanes& src);

  // Row `i` as the Value it was read from (same type, same bits).
  Value Box(size_t i) const {
    if (is_boxed()) return boxed[i];
    return nulls[i] ? Value::Null() : values.Box(type, i);
  }
  // Value::AsDouble of a non-null numeric typed slot.
  double Number(size_t i) const { return values.NumberAt(type, i); }
  // Appends Value::AppendDisplayString of row `i` to `out`.
  void AppendDisplay(size_t i, std::string* out) const;
  // Value::RawSize and Value::SegmentationHash of row `i`, and whether
  // it counts as string bytes.
  double RawSize(size_t i) const {
    if (is_boxed()) return boxed[i].RawSize();
    return nulls[i] ? 0 : values.RawSize(type, i);
  }
  uint64_t Hash(size_t i) const;
  bool IsStringAt(size_t i) const {
    if (is_boxed()) {
      return !boxed[i].is_null() && boxed[i].type() == DataType::kVarchar;
    }
    return !nulls[i] && type == DataType::kVarchar;
  }

  // An evaluation frame: `n` typed rows of type `t`, every null flag
  // clear. Only positions an evaluation writes hold defined values.
  void Reset(size_t n, DataType t) requires kOwning;
  // Appends `v`. A non-null value whose type is not `type` turns the
  // lane boxed (exactly the values pushed are kept).
  void Push(const Value& v) requires kOwning;

 private:
  void ToBoxed() requires kOwning;

  bool is_boxed_ = false;
};

// A row set held column by column: one lane per column, each `num_rows`
// long. Scans, joins and the compiled SELECT pass owning LaneRows
// between layers; rows are boxed only where a Row is the interface (the
// QueryResult edge, the interpreter). Write batches, Tuple Mover gathers
// and never-read containers hold LaneViewRows. A column its producer
// did not materialize (a scan's column outside the projection) is an
// empty lane: it boxes as NULL, and a compiled read of it bails.
template <typename S>
struct BasicLaneRows {
  size_t num_rows = 0;
  std::vector<BasicLanes<S>> columns;

  BasicLaneRows() = default;
  // No rows; one typed lane per column of `schema`.
  explicit BasicLaneRows(const Schema& schema);
  // `rows` unboxed column by column; a column whose values drift from
  // its schema type stays boxed. Values past a short row read as NULL.
  // With `columns`, only those columns are unboxed and the others stay
  // empty (zero-row) lanes, for a reader that touches no other column.
  static BasicLaneRows FromRows(const Schema& schema,
                                const std::vector<Row>& rows,
                                const std::vector<int>* columns = nullptr)
    requires BasicLanes<S>::kOwning;

  Row BoxRow(size_t i) const;
  std::vector<Row> BoxRows() const;
  // Rows idx[0], idx[1], ... of every column, in that order.
  BasicLaneRows Take(const std::vector<uint32_t>& idx) const;
  // Appends every row of `other` (same width and column types). A set
  // without columns becomes a copy of `other`, and an empty one takes
  // `other`'s lanes over when it is moved in.
  Status Append(const BasicLaneRows& other);
  Status Append(BasicLaneRows&& other);

  // Appends the group-key encoding (exec::AppendGroupKey's) of row
  // `row`'s `cols` to `key`: the display string per column, \x01 for
  // NULL, \x02 after every column. Grouping, the by-content delete,
  // encoding choice and the content fingerprint key rows with it.
  void AppendKey(size_t row, const std::vector<int>& cols,
                 std::string* key) const;

  // Columns `cols` of these lanes, in that order, as views of their
  // strings (which must outlive the views). Fails on a boxed or
  // unmaterialized column.
  Result<BasicLaneRows<std::string_view>> View(
      const std::vector<int>& cols) const requires BasicLanes<S>::kOwning;
};

using Lanes = BasicLanes<std::string>;
using LaneRows = BasicLaneRows<std::string>;
using LaneViews = BasicLanes<std::string_view>;
using LaneViewRows = BasicLaneRows<std::string_view>;

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_LANES_H_
