#ifndef FABRIC_STORAGE_SCHEMA_H_
#define FABRIC_STORAGE_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace fabric::storage {

struct ColumnDef {
  std::string name;
  DataType type;

  friend bool operator==(const ColumnDef& a, const ColumnDef& b) {
    return a.name == b.name && a.type == b.type;
  }
};

// Ordered list of named, typed columns. Shared by Vertica tables, Spark
// DataFrames and everything that moves rows between them.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns)
      : columns_(std::move(columns)) {}

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const ColumnDef& column(int i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  // Index of `name` (case-insensitive, as SQL identifiers are), or
  // NOT_FOUND.
  Result<int> IndexOf(std::string_view name) const;
  bool Contains(std::string_view name) const;

  // Schema with only the given column indices, in that order.
  Schema Project(const std::vector<int>& indices) const;

  // "a INTEGER, b FLOAT, c VARCHAR" (DDL body rendering).
  std::string ToDdlBody() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.columns_ == b.columns_;
  }

 private:
  std::vector<ColumnDef> columns_;
};

// A row is simply a vector of values matching some Schema positionally.
using Row = std::vector<Value>;

// Combined segmentation hash over the given column indices of `row`
// (order-sensitive, per Vertica's HASH(a, b, ...)).
uint64_t RowSegmentationHash(const Row& row,
                             const std::vector<int>& column_indices);

// True when the rows are structurally equal (null == null).
bool RowsEqual(const Row& a, const Row& b);

// Checks every value against the schema's column types (nulls always
// pass); INVALID_ARGUMENT with the offending column on mismatch.
Status ValidateRow(const Schema& schema, const Row& row);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_SCHEMA_H_
