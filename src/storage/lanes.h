#ifndef FABRIC_STORAGE_LANES_H_
#define FABRIC_STORAGE_LANES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/encoding.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fabric::storage {

// One column of a row set as typed lanes: a null flag per row and one
// slot per row in the `values` vector for `type` (a null row's slot
// holds a zero value; the other vectors stay empty). Varchar slots own
// their bytes, so a lane gathered by a scan never points into a ROS
// container or its decoded batches: it stays valid across sim yields
// while the Tuple Mover merges, purges or drops the container it was
// read from.
//
// A column whose non-null values do not all have one type (rows from a
// view or a system table whose values drift from the declared schema)
// is held boxed instead: `boxed` holds every row and `nulls` and
// `values` stay empty. Typed readers (exec::Program) unbox such a lane
// with a per-row type check.
struct Lanes {
  DataType type = DataType::kBool;
  std::vector<uint8_t> nulls;  // 1 = SQL NULL
  BasicTypedVec<std::string> values;
  std::vector<Value> boxed;  // every row of a boxed lane

  Lanes() = default;
  explicit Lanes(DataType t) : type(t) {}

  bool is_boxed() const { return is_boxed_; }
  size_t size() const { return is_boxed_ ? boxed.size() : nulls.size(); }
  bool IsNull(size_t i) const {
    return is_boxed_ ? boxed[i].is_null() : nulls[i] != 0;
  }

  // An evaluation frame: `n` typed rows of type `t`, every null flag
  // clear. Only positions an evaluation writes hold defined values.
  void Reset(size_t n, DataType t);
  // Grows or shrinks to `n` rows; added rows are NULL.
  void Resize(size_t n);
  // Appends `v`. A non-null value whose type is not `type` turns the
  // lane boxed (exactly the values pushed are kept).
  void Push(const Value& v);
  // Appends rows idx[0], idx[1], ... of `src`.
  void AppendTaken(const Lanes& src, const std::vector<uint32_t>& idx);
  // Appends every row of `src` (an empty lane becomes a copy of it).
  void Append(const Lanes& src);

  // Row `i` as the Value it was read from (same type, same bits).
  Value Box(size_t i) const {
    if (is_boxed_) return boxed[i];
    return nulls[i] ? Value::Null() : values.Box(type, i);
  }
  // Value::AsDouble of a non-null numeric typed slot.
  double Number(size_t i) const { return values.NumberAt(type, i); }
  // Appends Value::AppendDisplayString of row `i` to `out`.
  void AppendDisplay(size_t i, std::string* out) const;
  // Value::RawSize of row `i`, and whether it counts as string bytes.
  double RawSize(size_t i) const;
  bool IsStringAt(size_t i) const;

 private:
  void ToBoxed();

  bool is_boxed_ = false;
};

// A row set held column by column: one Lanes per column, each
// `num_rows` long. Scans, joins and the compiled SELECT pass these
// between layers; rows are boxed only where a Row is the interface (the
// QueryResult edge, the interpreter, UPDATE's full-row capture). A
// column its producer did not materialize (a scan's column outside the
// projection) is an empty lane: it boxes as NULL, and a compiled read of
// it bails.
struct LaneRows {
  size_t num_rows = 0;
  std::vector<Lanes> columns;

  LaneRows() = default;
  // No rows; one typed lane per column of `schema`.
  explicit LaneRows(const Schema& schema);
  // `rows` unboxed column by column; a column whose values drift from
  // its schema type stays boxed. Values past a short row read as NULL.
  // With `columns`, only those columns are unboxed and the others stay
  // empty (zero-row) lanes, for a reader that touches no other column.
  static LaneRows FromRows(const Schema& schema, const std::vector<Row>& rows,
                           const std::vector<int>* columns = nullptr);

  Row BoxRow(size_t i) const;
  std::vector<Row> BoxRows() const;
  // Appends every row of `other` (same width); an empty set takes
  // `other`'s lanes over when it is moved in.
  void Append(const LaneRows& other);
  void Append(LaneRows&& other);
};

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_LANES_H_
