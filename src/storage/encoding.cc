#include "storage/encoding.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string_view>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace fabric::storage {
namespace {

// Read-only views of one column: a value vector, or one column of a row
// vector (so ROS containers encode straight from their rows).
struct ValueColumn {
  const std::vector<Value>& values;
  size_t size() const { return values.size(); }
  const Value& operator[](size_t i) const { return values[i]; }
};

struct RowColumn {
  const std::vector<Row>& rows;
  int col;
  size_t size() const { return rows.size(); }
  const Value& operator[](size_t i) const { return rows[i][col]; }
};

// Bytes WriteScalar emits for a non-null value of `type`.
size_t ScalarBytes(DataType type, const Value& value) {
  switch (type) {
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kFloat64:
      return 8;
    case DataType::kVarchar:
      return 4 + value.varchar_value().size();
  }
  return 0;
}

void WriteScalar(DataType type, const Value& value, ByteWriter* writer) {
  switch (type) {
    case DataType::kBool:
      writer->PutU8(value.bool_value() ? 1 : 0);
      return;
    case DataType::kInt64:
      writer->PutI64(value.int64_value());
      return;
    case DataType::kFloat64:
      writer->PutDouble(value.float64_value());
      return;
    case DataType::kVarchar:
      writer->PutString(value.varchar_value());
      return;
  }
  FABRIC_CHECK(false) << "corrupt type";
}

// Value::Equals for two values of one type-checked column: the RLE run
// test (so 0.0 and -0.0 share a run and NaN never continues one).
bool SameValue(DataType type, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  switch (type) {
    case DataType::kBool:
      return a.bool_value() == b.bool_value();
    case DataType::kInt64:
      return a.int64_value() == b.int64_value();
    case DataType::kFloat64:
      return a.float64_value() == b.float64_value();
    case DataType::kVarchar:
      return a.varchar_value() == b.varchar_value();
  }
  return false;
}

// Dictionary identity of a non-null fixed-width value. Dictionary
// entries are the distinct display strings of the column, which for
// fixed-width types is the bit pattern except that every NaN of one sign
// prints alike ("nan" / "-nan"); the two canonical NaN keys are NaN bit
// patterns themselves, so they cannot collide with another value's key.
uint64_t FixedKey(DataType type, const Value& value) {
  switch (type) {
    case DataType::kBool:
      return value.bool_value() ? 1 : 0;
    case DataType::kInt64:
      return static_cast<uint64_t>(value.int64_value());
    case DataType::kFloat64: {
      double d = value.float64_value();
      if (std::isnan(d)) {
        return std::signbit(d) ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL;
      }
      return std::bit_cast<uint64_t>(d);
    }
    case DataType::kVarchar:
      break;
  }
  FABRIC_CHECK(false) << "not a fixed-width type";
  return 0;
}

// Open-addressing map from dictionary keys (raw 64-bit keys or string
// views into the column) to dictionary codes.
template <typename Key>
class CodeTable {
 public:
  // Sizes the table for `entries` keys up front (no rehash until then).
  explicit CodeTable(size_t entries) {
    size_t slots = 16;
    while (slots < 2 * entries) slots *= 2;
    slots_.resize(slots);
  }

  // The code of `key`, or `next` — recorded as its code — when unseen.
  uint32_t FindOrInsert(const Key& key, uint64_t hash, uint32_t next) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.code == kEmpty) {
        slot = Slot{key, hash, next};
        ++size_;
        return next;
      }
      if (slot.hash == hash && slot.key == key) return slot.code;
    }
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  struct Slot {
    Key key{};
    uint64_t hash = 0;
    uint32_t code = kEmpty;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.code == kEmpty) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].code != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// Value::Compare(a, b) < 0 for two non-null values of one type-checked
// column (numeric types compare as doubles, as Compare does).
bool ValueLess(DataType type, const Value& a, const Value& b) {
  if (type == DataType::kVarchar) return a.varchar_value() < b.varchar_value();
  return a.NumericValue() < b.NumericValue();
}

// What PLAIN and RLE cost: payload bytes after the null bitmap.
struct Shape {
  uint32_t non_null = 0;
  size_t plain = 0;    // the non-null values back to back
  uint32_t runs = 0;
  size_t rle = 4;      // run count, then (length, value) per run
};

// The cheap pass over a column: checks every value's type, sizes PLAIN,
// sizes RLE when `count_runs` is set, and (when `bounds` != null) finds
// the column's bounds.
template <typename Column>
Result<Shape> MeasureShape(DataType type, const Column& column,
                           bool count_runs, ColumnBounds* bounds) {
  Shape shape;
  const Value* min = nullptr;
  const Value* max = nullptr;
  for (size_t i = 0; i < column.size(); ++i) {
    const Value& v = column[i];
    size_t bytes = 0;
    if (!v.is_null()) {
      if (v.type() != type) {
        return InvalidArgumentError(
            StrCat("value of type ", DataTypeName(v.type()),
                   " in column of type ", DataTypeName(type)));
      }
      bytes = ScalarBytes(type, v);
      ++shape.non_null;
      shape.plain += bytes;
      if (bounds != nullptr) {
        if (min == nullptr || ValueLess(type, v, *min)) min = &v;
        if (max == nullptr || ValueLess(type, *max, v)) max = &v;
      }
    }
    if (count_runs && (i == 0 || !SameValue(type, v, column[i - 1]))) {
      ++shape.runs;
      shape.rle += 4 + bytes;
    }
  }
  if (bounds != nullptr) {
    *bounds = min == nullptr ? ColumnBounds{} : ColumnBounds{*min, *max};
  }
  return shape;
}

// A first-occurrence dictionary: one code per non-null row and, per
// entry, the row holding its first occurrence.
struct Dictionary {
  std::vector<uint32_t> codes;
  std::vector<uint32_t> first_rows;
  size_t entry_bytes = 0;

  // Entry count, the entries, then one code per non-null row.
  size_t payload(uint32_t non_null) const {
    return 4 + entry_bytes + 4 * static_cast<size_t>(non_null);
  }
};

// Builds the dictionary of `column` (which has `non_null` non-null rows)
// and returns true when its payload is below `limit` bytes. Gives up —
// returning false — as soon as the entries seen so far push the payload
// to `limit`, since entries only add bytes.
template <typename Column>
bool BuildDictionary(DataType type, const Column& column, uint32_t non_null,
                     size_t limit, Dictionary* dict) {
  if (dict->payload(non_null) >= limit) return false;
  dict->codes.reserve(non_null);
  auto add = [&](auto& table, const auto& key, uint64_t hash, uint32_t row) {
    uint32_t next = static_cast<uint32_t>(dict->first_rows.size());
    uint32_t code = table.FindOrInsert(key, hash, next);
    dict->codes.push_back(code);
    if (code != next) return true;
    dict->first_rows.push_back(row);
    dict->entry_bytes += ScalarBytes(type, column[row]);
    return dict->payload(non_null) < limit;
  };
  if (type == DataType::kVarchar) {
    CodeTable<std::string_view> table(0);
    for (size_t i = 0; i < column.size(); ++i) {
      if (column[i].is_null()) continue;
      std::string_view key = column[i].varchar_value();
      if (!add(table, key, HashBytes(key), static_cast<uint32_t>(i))) {
        return false;
      }
    }
  } else {
    // Entries are fixed-width, so the limit bounds how many the table
    // can hold before the build gives up: size it for that once.
    size_t room = limit - dict->payload(non_null);
    size_t entry = type == DataType::kBool ? 1 : 8;
    CodeTable<uint64_t> table(std::min<size_t>(non_null, room / entry + 1));
    for (size_t i = 0; i < column.size(); ++i) {
      if (column[i].is_null()) continue;
      uint64_t key = FixedKey(type, column[i]);
      if (!add(table, key, Mix64(key), static_cast<uint32_t>(i))) {
        return false;
      }
    }
  }
  return true;
}

// Nulls are carried as a bitmap ahead of the payload in every encoding.
template <typename Column>
void WriteNullBitmap(const Column& column, ByteWriter* writer) {
  uint8_t current = 0;
  int bit = 0;
  for (size_t i = 0; i < column.size(); ++i) {
    if (column[i].is_null()) current |= static_cast<uint8_t>(1u << bit);
    if (++bit == 8) {
      writer->PutU8(current);
      current = 0;
      bit = 0;
    }
  }
  if (bit != 0) writer->PutU8(current);
}

template <typename Column>
void WritePayload(DataType type, Encoding encoding, const Column& column,
                  const Shape& shape, const Dictionary& dict,
                  ByteWriter* writer) {
  switch (encoding) {
    case Encoding::kPlain:
      for (size_t i = 0; i < column.size(); ++i) {
        if (!column[i].is_null()) WriteScalar(type, column[i], writer);
      }
      return;
    case Encoding::kRle: {
      writer->PutU32(shape.runs);
      size_t i = 0;
      while (i < column.size()) {
        size_t j = i + 1;
        while (j < column.size() && SameValue(type, column[j], column[i])) {
          ++j;
        }
        writer->PutU32(static_cast<uint32_t>(j - i));
        if (!column[i].is_null()) WriteScalar(type, column[i], writer);
        i = j;
      }
      return;
    }
    case Encoding::kDictionary:
      writer->PutU32(static_cast<uint32_t>(dict.first_rows.size()));
      for (uint32_t row : dict.first_rows) {
        WriteScalar(type, column[row], writer);
      }
      for (uint32_t code : dict.codes) writer->PutU32(code);
      return;
  }
}

size_t PayloadBytes(Encoding encoding, const Shape& shape,
                    const Dictionary& dict) {
  switch (encoding) {
    case Encoding::kPlain:
      return shape.plain;
    case Encoding::kRle:
      return shape.rle;
    case Encoding::kDictionary:
      return dict.payload(shape.non_null);
  }
  return 0;
}

// Encodes `column` with `*forced`, or — when null — with the smallest
// encoding: PLAIN unless RLE is strictly smaller, then DICTIONARY when
// strictly smaller than both. Sizes come from the shape pass and the
// dictionary build (skipped or cut short once it cannot win), so only
// the chosen encoding is ever written.
template <typename Column>
Result<ColumnChunk> Encode(DataType type, const Column& column,
                           const Encoding* forced, ColumnBounds* bounds) {
  bool count_runs = forced == nullptr || *forced == Encoding::kRle;
  FABRIC_ASSIGN_OR_RETURN(Shape shape,
                          MeasureShape(type, column, count_runs, bounds));
  Dictionary dict;
  Encoding encoding;
  if (forced != nullptr) {
    encoding = *forced;
    if (encoding == Encoding::kDictionary) {
      BuildDictionary(type, column, shape.non_null,
                      std::numeric_limits<size_t>::max(), &dict);
    }
  } else {
    encoding = shape.rle < shape.plain ? Encoding::kRle : Encoding::kPlain;
    size_t best = std::min(shape.plain, shape.rle);
    if (BuildDictionary(type, column, shape.non_null, best, &dict)) {
      encoding = Encoding::kDictionary;
    }
  }
  ColumnChunk chunk;
  chunk.type = type;
  chunk.encoding = encoding;
  chunk.num_rows = static_cast<uint32_t>(column.size());
  size_t size = NullBitmapBytes(chunk.num_rows) +
                PayloadBytes(encoding, shape, dict);
  ByteWriter writer;
  writer.Reserve(size);
  WriteNullBitmap(column, &writer);
  WritePayload(type, encoding, column, shape, dict, &writer);
  FABRIC_CHECK(writer.size() == size)
      << EncodingName(encoding) << " wrote " << writer.size()
      << " bytes, sized " << size;
  chunk.data = writer.Take();
  return chunk;
}

// Reads one non-null value of `type`, as WriteScalar wrote it.
Result<Value> ReadValue(DataType type, ByteReader* reader) {
  switch (type) {
    case DataType::kBool: {
      FABRIC_ASSIGN_OR_RETURN(uint8_t b, reader->GetU8());
      return Value::Bool(b != 0);
    }
    case DataType::kInt64: {
      FABRIC_ASSIGN_OR_RETURN(int64_t v, reader->GetI64());
      return Value::Int64(v);
    }
    case DataType::kFloat64: {
      FABRIC_ASSIGN_OR_RETURN(double v, reader->GetDouble());
      return Value::Float64(v);
    }
    case DataType::kVarchar: {
      FABRIC_ASSIGN_OR_RETURN(std::string_view v, reader->GetStringView());
      return Value::Varchar(std::string(v));
    }
  }
  return InvalidArgumentError("corrupt type");
}

}  // namespace

const char* EncodingName(Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlain:
      return "PLAIN";
    case Encoding::kRle:
      return "RLE";
    case Encoding::kDictionary:
      return "DICTIONARY";
  }
  return "?";
}

Result<ColumnChunk> EncodeColumnAs(DataType type, Encoding encoding,
                                   const std::vector<Value>& values) {
  return Encode(type, ValueColumn{values}, &encoding, nullptr);
}

Result<ColumnChunk> EncodeColumn(DataType type,
                                 const std::vector<Value>& values,
                                 const Encoding* encoding,
                                 ColumnBounds* bounds) {
  return Encode(type, ValueColumn{values}, encoding, bounds);
}

Result<ColumnChunk> EncodeRowColumn(DataType type,
                                    const std::vector<Row>& rows, int col,
                                    const Encoding* encoding,
                                    ColumnBounds* bounds) {
  return Encode(type, RowColumn{rows, col}, encoding, bounds);
}

Result<std::vector<Value>> DecodeColumn(const ColumnChunk& chunk) {
  std::vector<Value> values;
  FABRIC_RETURN_IF_ERROR(DecodeColumnInto(chunk, &values));
  return values;
}

Status DecodeColumnInto(const ColumnChunk& chunk, std::vector<Value>* out) {
  const uint32_t n = chunk.num_rows;
  const size_t bitmap = NullBitmapBytes(n);
  if (chunk.data.size() < bitmap) {
    return OutOfRangeError("null bitmap truncated");
  }
  auto is_null = [&chunk](uint32_t i) {
    return ((static_cast<uint8_t>(chunk.data[i / 8]) >> (i % 8)) & 1) != 0;
  };
  ByteReader reader(std::string_view(chunk.data).substr(bitmap));
  // Grow geometrically: mergeout appends many chunks to one vector.
  if (out->capacity() < out->size() + n) {
    out->reserve(std::max(out->size() + n, 2 * out->capacity()));
  }
  switch (chunk.encoding) {
    case Encoding::kPlain:
      for (uint32_t i = 0; i < n; ++i) {
        if (is_null(i)) {
          out->emplace_back();
          continue;
        }
        FABRIC_ASSIGN_OR_RETURN(Value v, ReadValue(chunk.type, &reader));
        out->push_back(std::move(v));
      }
      return Status::OK();
    case Encoding::kRle: {
      FABRIC_ASSIGN_OR_RETURN(uint32_t runs, reader.GetU32());
      for (uint32_t row = 0; row < n;) {
        if (runs-- == 0) return InvalidArgumentError("RLE runs exhausted early");
        FABRIC_ASSIGN_OR_RETURN(uint32_t length, reader.GetU32());
        if (length > n - row) {
          return InvalidArgumentError("RLE runs exceed row count");
        }
        Value v;
        if (!is_null(row)) {
          FABRIC_ASSIGN_OR_RETURN(v, ReadValue(chunk.type, &reader));
        }
        out->insert(out->end(), length, v);
        row += length;
      }
      return Status::OK();
    }
    case Encoding::kDictionary: {
      FABRIC_ASSIGN_OR_RETURN(uint32_t size, reader.GetU32());
      std::vector<Value> dictionary;
      for (uint32_t k = 0; k < size; ++k) {
        FABRIC_ASSIGN_OR_RETURN(Value v, ReadValue(chunk.type, &reader));
        dictionary.push_back(std::move(v));
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (is_null(i)) {
          out->emplace_back();
          continue;
        }
        FABRIC_ASSIGN_OR_RETURN(uint32_t code, reader.GetU32());
        if (code >= size) {
          return InvalidArgumentError("dictionary index out of range");
        }
        out->push_back(dictionary[code]);
      }
      return Status::OK();
    }
  }
  return InvalidArgumentError("corrupt encoding");
}

}  // namespace fabric::storage
