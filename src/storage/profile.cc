#include "storage/profile.h"

namespace fabric::storage {

DataProfile& DataProfile::Add(const DataProfile& other) {
  rows += other.rows;
  fields += other.fields;
  raw_bytes += other.raw_bytes;
  numeric_bytes += other.numeric_bytes;
  string_bytes += other.string_bytes;
  return *this;
}

DataProfile& DataProfile::ScaleBy(double factor) {
  rows *= factor;
  fields *= factor;
  raw_bytes *= factor;
  numeric_bytes *= factor;
  string_bytes *= factor;
  return *this;
}

double DataProfile::JdbcWireBytes(const CostModel& cost) const {
  return numeric_bytes * cost.jdbc_numeric_inflation +
         string_bytes * cost.jdbc_string_inflation +
         rows * cost.jdbc_per_row_bytes;
}

double DataProfile::AvroWireBytes(const CostModel& cost) const {
  return numeric_bytes * cost.avro_numeric_inflation +
         string_bytes * cost.avro_string_inflation +
         rows * cost.avro_per_row_bytes;
}

double DataProfile::ScanCpu(const CostModel& cost) const {
  return raw_bytes * cost.scan_cpu_per_byte + rows * cost.scan_cpu_per_row;
}

double DataProfile::CopyParseCpu(const CostModel& cost) const {
  return raw_bytes * cost.copy_parse_cpu_per_byte +
         rows * cost.copy_parse_cpu_per_row +
         fields * cost.copy_parse_cpu_per_field;
}

double DataProfile::AvroEncodeCpu(const CostModel& cost) const {
  return raw_bytes * cost.avro_encode_cpu_per_byte +
         rows * cost.avro_encode_cpu_per_row +
         fields * cost.avro_encode_cpu_per_field;
}

double DataProfile::StreamRateCap(double byte_rate, double row_overhead,
                                  double wire_bytes) const {
  if (rows <= 0 || wire_bytes <= 0) return byte_rate;
  double wire_per_row = wire_bytes / rows;
  double seconds_per_row = wire_per_row / byte_rate + row_overhead;
  return wire_per_row / seconds_per_row;
}

DataProfile ProfileRow(const Row& row) {
  DataProfile p;
  p.rows = 1;
  p.fields = static_cast<double>(row.size());
  for (const Value& v : row) {
    double size = v.RawSize();
    p.raw_bytes += size;
    if (!v.is_null() && v.type() == DataType::kVarchar) {
      p.string_bytes += size;
    } else {
      p.numeric_bytes += size;
    }
  }
  return p;
}

DataProfile ProfileRows(std::span<const Row> rows) {
  DataProfile total;
  for (const Row& row : rows) total.Add(ProfileRow(row));
  return total;
}

namespace {

// The profile of `n` rows held as `columns` (Lanes or ColumnLanes); an
// empty lane is a column not materialized: NULL, 0 bytes.
template <typename L>
DataProfile ProfileColumns(size_t n, const std::vector<L>& columns) {
  DataProfile total;
  total.rows = static_cast<double>(n);
  total.fields = static_cast<double>(n * columns.size());
  for (const L& lane : columns) {
    if (lane.size() == 0) continue;
    for (size_t i = 0; i < n; ++i) {
      double size = lane.RawSize(i);
      total.raw_bytes += size;
      (lane.IsStringAt(i) ? total.string_bytes : total.numeric_bytes) += size;
    }
  }
  return total;
}

}  // namespace

DataProfile ProfileRows(const LaneRows& rows) {
  return ProfileColumns(rows.num_rows, rows.columns);
}

DataProfile ProfileRows(const std::vector<ColumnLanes>& columns) {
  return ProfileColumns(NumRows(columns), columns);
}

}  // namespace fabric::storage
