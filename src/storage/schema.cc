#include "storage/schema.h"

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace fabric::storage {

Result<int> Schema::IndexOf(std::string_view name) const {
  for (int i = 0; i < num_columns(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return NotFoundError(StrCat("no column '", name, "'"));
}

bool Schema::Contains(std::string_view name) const {
  return IndexOf(name).ok();
}

Schema Schema::Project(const std::vector<int>& indices) const {
  std::vector<ColumnDef> out;
  out.reserve(indices.size());
  for (int i : indices) {
    FABRIC_CHECK(i >= 0 && i < num_columns()) << "bad projection index";
    out.push_back(columns_[i]);
  }
  return Schema(std::move(out));
}

std::string Schema::ToDdlBody() const {
  std::string out;
  for (int i = 0; i < num_columns(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += DataTypeName(columns_[i].type);
  }
  return out;
}

uint64_t RowSegmentationHash(const Row& row,
                             const std::vector<int>& column_indices) {
  uint64_t h = kSegmentationHashSeed;
  for (int i : column_indices) {
    FABRIC_CHECK(i >= 0 && i < static_cast<int>(row.size()));
    h = HashCombine(h, row[i].SegmentationHash());
  }
  return h;
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].Equals(b[i])) return false;
  }
  return true;
}

Status ValidateRow(const Schema& schema, const Row& row) {
  if (static_cast<int>(row.size()) != schema.num_columns()) {
    return InvalidArgumentError(
        StrCat("row has ", row.size(), " values, schema has ",
               schema.num_columns(), " columns"));
  }
  for (int i = 0; i < schema.num_columns(); ++i) {
    if (row[i].is_null()) continue;
    DataType expected = schema.column(i).type;
    DataType actual = row[i].type();
    if (actual == expected) continue;
    // Allow int64 into float columns (numeric widening on load).
    if (expected == DataType::kFloat64 && actual == DataType::kInt64) {
      continue;
    }
    return InvalidArgumentError(
        StrCat("column '", schema.column(i).name, "' expects ",
               DataTypeName(expected), ", got ", DataTypeName(actual)));
  }
  return Status::OK();
}

}  // namespace fabric::storage
