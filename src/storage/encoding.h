#ifndef FABRIC_STORAGE_ENCODING_H_
#define FABRIC_STORAGE_ENCODING_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
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

// Unboxed values of one column type. Exactly one of the typed vectors is
// populated, per the column's DataType; Visit hands that one to a
// generic lambda. `S` is the varchar slot type. TypedVec's
// std::string_view slots are views into storage owned elsewhere (a
// chunk payload or the Values they were read from), which must outlive
// them; storage::Lanes holds owning std::string slots.
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

// One column as typed lanes: per row, a null flag and one slot of
// `values` (a null row's slot holds a zero value). The form the encoder
// reads and the lane decoder writes, so the Tuple Mover sorts, permutes
// and re-encodes columns without boxing a Value.
struct ColumnLanes {
  DataType type;
  std::vector<uint8_t> nulls;
  TypedVec values;

  explicit ColumnLanes(DataType t) : type(t) {}

  size_t size() const { return nulls.size(); }

  // Room for `rows` rows without reallocating.
  void Reserve(size_t rows);

  // Row `i` as a Value (null for a null row).
  Value Box(size_t i) const {
    return nulls[i] ? Value::Null() : values.Box(type, i);
  }
  // Value::RawSize and Value::SegmentationHash of row `i`, and whether it
  // holds string bytes.
  double RawSize(size_t i) const {
    return nulls[i] ? 0 : values.RawSize(type, i);
  }
  uint64_t Hash(size_t i) const;
  bool IsStringAt(size_t i) const {
    return type == DataType::kVarchar && !nulls[i];
  }
  // Rows rows[0], rows[1], ... in that order (varchar slots alias this).
  ColumnLanes Take(const std::vector<uint32_t>& rows) const;
};

// Rows of a batch held as one ColumnLanes per schema column: the form
// the write path carries from the Avro decoder to the ROS container.
inline size_t NumRows(const std::vector<ColumnLanes>& columns) {
  return columns.empty() ? 0 : columns.front().size();
}

// `rows` as a batch of `schema`'s lanes, integers widened into FLOAT
// columns (SQL numeric coercion on load). A row ValidateRow refuses fails
// the conversion with its error or, when `rejects` is non-null, is copied
// there instead. Varchar slots alias the rows, which must outlive them.
Result<std::vector<ColumnLanes>> FromRows(const Schema& schema,
                                          std::span<const Row> rows,
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
Result<ColumnChunk> EncodeLanes(const ColumnLanes& column,
                                const Encoding* encoding = nullptr,
                                ColumnBounds* bounds = nullptr);

// The bounds EncodeLanes finds for `column`, without encoding it.
ColumnBounds LaneBounds(const ColumnLanes& column);

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
Status DecodeColumnInto(const ColumnChunk& chunk, ColumnLanes* out);

// The lane decoder, boxed into one Value per row.
Result<std::vector<Value>> DecodeColumn(const ColumnChunk& chunk);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_ENCODING_H_
