#ifndef FABRIC_STORAGE_ENCODING_H_
#define FABRIC_STORAGE_ENCODING_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "storage/lanes.h"
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

// `rows` as a batch of `schema`'s lanes, integers widened into FLOAT
// columns (SQL numeric coercion on load). A row ValidateRow refuses fails
// the conversion with its error or, when `rejects` is non-null, is copied
// there instead. Varchar slots alias the rows, which must outlive them.
Result<LaneViewRows> FromRows(const Schema& schema, std::span<const Row> rows,
                              std::vector<Row>* rejects = nullptr);

// A key whose equality is display-string equality for doubles: the bit
// pattern, except that every NaN of one sign prints alike ("nan" /
// "-nan") and so maps to one canonical NaN pattern, which no other
// value's key can equal. -0 and 0 keep distinct keys ("-0", "0").
uint64_t FloatDisplayKey(double d);

// An encoded column of `num_rows` values of `type` (with a null bitmap).
struct ColumnChunk {
  DataType type;
  Encoding encoding;
  uint32_t num_rows = 0;
  std::string data;

  double encoded_bytes() const { return static_cast<double>(data.size()); }
};

// Smallest and largest non-null value of a column in Value::Compare
// order (null Values when it has none; -inf and +inf when it holds a
// NaN, which compares equal to every number): a ROS container's scan-
// pruning bounds.
struct ColumnBounds {
  Value min;
  Value max;
};

// Encodes `column` with `*encoding`, or — when `encoding` is null — with
// the smallest of the three encodings (ties prefer PLAIN, then RLE). The
// choice is made analytically from run and distinct counts, and only the
// chosen encoding is written. When `bounds` is non-null it also receives
// the column's bounds, found in the same pass. The one ROS encoder:
// every entry point below unboxes into lanes and calls it.
Result<ColumnChunk> EncodeLanes(const LaneViews& column,
                                const Encoding* encoding = nullptr,
                                ColumnBounds* bounds = nullptr);

// The bounds EncodeLanes finds for `column`, without encoding it.
ColumnBounds LaneBounds(const LaneViews& column);

// EncodeLanes over `values` (all of `type`, INT64 into FLOAT, or null).
Result<ColumnChunk> EncodeColumn(DataType type,
                                 const std::vector<Value>& values,
                                 const Encoding* encoding = nullptr,
                                 ColumnBounds* bounds = nullptr);

// Encodes with a forced encoding (tests / benchmarks).
Result<ColumnChunk> EncodeColumnAs(DataType type, Encoding encoding,
                                   const std::vector<Value>& values);

// Reads one non-null slot of a chunk payload as the encoder wrote it
// (bools as 0 or 1; strings alias the payload): the scalar reader of the
// lane decoder and of the scan decoder (storage/column_cursor.h).
inline Status ReadSlot(ByteReader* reader, uint8_t* out) {
  FABRIC_ASSIGN_OR_RETURN(uint8_t b, reader->GetU8());
  *out = b != 0 ? 1 : 0;
  return Status::OK();
}
inline Status ReadSlot(ByteReader* reader, int64_t* out) {
  FABRIC_ASSIGN_OR_RETURN(*out, reader->GetI64());
  return Status::OK();
}
inline Status ReadSlot(ByteReader* reader, double* out) {
  FABRIC_ASSIGN_OR_RETURN(*out, reader->GetDouble());
  return Status::OK();
}
inline Status ReadSlot(ByteReader* reader, std::string_view* out) {
  FABRIC_ASSIGN_OR_RETURN(*out, reader->GetStringView());
  return Status::OK();
}

// The lane decoder: appends `chunk`'s rows to *out, whose type must be
// the chunk's. Varchar slots alias `chunk.data`, so the chunk must
// outlive them and stay in place. Mergeout and purge gather an encoded
// container's columns this way; scans read a container's DecodedColumn
// (storage/column_cursor.h), decoded once into batches, instead.
Status DecodeColumnInto(const ColumnChunk& chunk, LaneViews* out);

// The lane decoder, boxed into one Value per row.
Result<std::vector<Value>> DecodeColumn(const ColumnChunk& chunk);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_ENCODING_H_
