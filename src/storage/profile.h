#ifndef FABRIC_STORAGE_PROFILE_H_
#define FABRIC_STORAGE_PROFILE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cost_model.h"
#include "storage/lanes.h"
#include "storage/schema.h"

namespace fabric::storage {

// Byte/row/field composition of a batch of rows, used by the cost model
// to derive wire sizes and CPU costs. Additive.
struct DataProfile {
  double rows = 0;
  double fields = 0;
  double raw_bytes = 0;      // sum of Value::RawSize
  double numeric_bytes = 0;  // int64 + float64 + bool portions
  double string_bytes = 0;

  DataProfile& Add(const DataProfile& other);
  DataProfile& ScaleBy(double factor);

  // Wire sizes under the two encodings the fabric uses.
  double JdbcWireBytes(const CostModel& cost) const;
  double AvroWireBytes(const CostModel& cost) const;

  // CPU costs.
  double ScanCpu(const CostModel& cost) const;
  double CopyParseCpu(const CostModel& cost) const;
  double AvroEncodeCpu(const CostModel& cost) const;

  // Effective per-connection rate cap (wire bytes/second) for a stream
  // whose per-row cost is row_overhead and whose byte rate is byte_rate.
  double StreamRateCap(double byte_rate, double row_overhead,
                       double wire_bytes) const;
};

DataProfile ProfileRow(const Row& row);
DataProfile ProfileRows(std::span<const Row> rows);
// The same profile of rows held as lanes (the sizes are integer-valued,
// so the column-major sums equal the row-major ones exactly). An empty
// lane is a column not materialized: NULL, 0 bytes.
template <typename S>
DataProfile ProfileRows(const BasicLaneRows<S>& rows);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_PROFILE_H_
