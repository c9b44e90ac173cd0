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

template <typename S>
DataProfile ProfileRows(const BasicLaneRows<S>& rows) {
  const size_t n = rows.num_rows;
  DataProfile total;
  total.rows = static_cast<double>(n);
  total.fields = static_cast<double>(n * rows.columns.size());
  for (const BasicLanes<S>& lane : rows.columns) {
    if (lane.size() == 0) continue;
    if (lane.is_boxed()) {
      for (size_t i = 0; i < n; ++i) {
        double size = lane.RawSize(i);
        total.raw_bytes += size;
        (lane.IsStringAt(i) ? total.string_bytes : total.numeric_bytes) +=
            size;
      }
      continue;
    }
    // A typed lane's sizes are integers, so one sum per lane is exact:
    // its width per non-null row, or its non-null rows' string bytes.
    const bool strings = lane.type == DataType::kVarchar;
    size_t bytes = 0;
    if (strings) {
      for (size_t i = 0; i < n; ++i) {
        if (!lane.nulls[i]) bytes += lane.values.strings[i].size();
      }
    } else {
      for (size_t i = 0; i < n; ++i) bytes += lane.nulls[i] == 0 ? 1 : 0;
      bytes *= lane.type == DataType::kBool ? 1 : 8;
    }
    total.raw_bytes += static_cast<double>(bytes);
    (strings ? total.string_bytes : total.numeric_bytes) +=
        static_cast<double>(bytes);
  }
  return total;
}

template DataProfile ProfileRows(const LaneRows& rows);
template DataProfile ProfileRows(const LaneViewRows& rows);

}  // namespace fabric::storage
