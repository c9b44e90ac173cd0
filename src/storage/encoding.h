#ifndef FABRIC_STORAGE_ENCODING_H_
#define FABRIC_STORAGE_ENCODING_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fabric::storage {

// Column encodings used inside ROS containers (Vertica's Read Optimized
// Storage keeps columns compressed; we implement the three classic
// schemes and let the encoder pick the smallest).
enum class Encoding : uint8_t {
  kPlain = 0,       // values back to back
  kRle = 1,         // (run length, value) pairs
  kDictionary = 2,  // distinct values + per-row indices
};

const char* EncodingName(Encoding encoding);

// Bytes the null-bitmap prefix occupies ahead of the payload in every
// encoding (LSB-first, one bit per row).
inline constexpr size_t NullBitmapBytes(uint32_t num_rows) {
  return (num_rows + 7) / 8;
}

// An encoded column of `num_rows` values of `type` (with a null bitmap).
struct ColumnChunk {
  DataType type;
  Encoding encoding;
  uint32_t num_rows = 0;
  std::string data;

  double encoded_bytes() const { return static_cast<double>(data.size()); }
};

// Smallest and largest non-null value of a column in Value::Compare
// order (null Values when it has none): a ROS container's scan-pruning
// bounds.
struct ColumnBounds {
  Value min;
  Value max;
};

// Encodes `values` (all of `type` or null) with `*encoding`, or — when
// `encoding` is null — with the smallest of the three encodings (ties
// prefer PLAIN, then RLE). The choice is made analytically from run and
// distinct counts, and only the chosen encoding is written. When
// `bounds` is non-null it also receives the column's bounds, found in
// the same pass.
Result<ColumnChunk> EncodeColumn(DataType type,
                                 const std::vector<Value>& values,
                                 const Encoding* encoding = nullptr,
                                 ColumnBounds* bounds = nullptr);

// Encodes with a forced encoding (tests / benchmarks).
Result<ColumnChunk> EncodeColumnAs(DataType type, Encoding encoding,
                                   const std::vector<Value>& values);

// EncodeColumn over column `col` of `rows`, in place — byte-identical to
// encoding the extracted column, without copying its values out.
Result<ColumnChunk> EncodeRowColumn(DataType type,
                                    const std::vector<Row>& rows, int col,
                                    const Encoding* encoding = nullptr,
                                    ColumnBounds* bounds = nullptr);

// Decodes a chunk back to values, appending them to *out: the
// materialize-everything form that mergeout and purge use. Scans read
// a container's DecodedColumn (storage/column_cursor.h), decoded once
// into typed batches, instead.
Status DecodeColumnInto(const ColumnChunk& chunk, std::vector<Value>* out);

// DecodeColumnInto into a fresh vector.
Result<std::vector<Value>> DecodeColumn(const ColumnChunk& chunk);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_ENCODING_H_
