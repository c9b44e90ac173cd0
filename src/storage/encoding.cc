#include "storage/encoding.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace fabric::storage {

namespace {

// Per-slot operations of the four lane types (bool lanes are uint8_t).

template <typename T>
inline constexpr bool kIsString = std::is_same_v<T, std::string_view>;

// Bytes WriteScalar emits for one non-null slot.
size_t ScalarBytes(uint8_t) { return 1; }
size_t ScalarBytes(int64_t) { return 8; }
size_t ScalarBytes(double) { return 8; }
size_t ScalarBytes(std::string_view v) { return 4 + v.size(); }

void WriteScalar(uint8_t v, ByteWriter* writer) { writer->PutU8(v ? 1 : 0); }
void WriteScalar(int64_t v, ByteWriter* writer) { writer->PutI64(v); }
void WriteScalar(double v, ByteWriter* writer) { writer->PutDouble(v); }
void WriteScalar(std::string_view v, ByteWriter* writer) {
  writer->PutString(v);
}

// Value::Compare(a, b) < 0 for two non-null slots: numbers compare as
// doubles (so INT64s equal as doubles tie), strings bytewise.
bool Less(uint8_t a, uint8_t b) { return a < b; }
bool Less(int64_t a, int64_t b) {
  return static_cast<double>(a) < static_cast<double>(b);
}
bool Less(double a, double b) { return a < b; }
bool Less(std::string_view a, std::string_view b) { return a < b; }

// Dictionary identity of a non-null fixed-width slot. Dictionary entries
// are the distinct display strings of the column (FloatDisplayKey).
uint64_t FixedKey(uint8_t v) { return v ? 1 : 0; }
uint64_t FixedKey(int64_t v) { return static_cast<uint64_t>(v); }
uint64_t FixedKey(double d) { return FloatDisplayKey(d); }

void Unbox(const Value& v, uint8_t* out) { *out = v.bool_value() ? 1 : 0; }
void Unbox(const Value& v, int64_t* out) { *out = v.int64_value(); }
void Unbox(const Value& v, double* out) {
  *out = v.type() == DataType::kInt64 ? static_cast<double>(v.int64_value())
                                      : v.float64_value();
}
void Unbox(const Value& v, std::string_view* out) {
  *out = v.varchar_value();
}

// RLE run continuation: nulls match nulls, and values match by `==`
// (so NaN never continues a run) — for FLOAT64 also by sign bit, so a
// -0.0 never folds into a 0.0 run and reads back with its sign.
bool SameValue(double a, double b) {
  return a == b && std::signbit(a) == std::signbit(b);
}
template <typename T>
bool SameValue(const T& a, const T& b) {
  return a == b;
}
template <typename T>
bool SameSlot(const uint8_t* nulls, const T* lane, size_t a, size_t b) {
  if (nulls[a] || nulls[b]) return nulls[a] && nulls[b];
  return SameValue(lane[a], lane[b]);
}

// Appends at(i) for i < n to *out (of out->type), unboxed, integers
// widened into a FLOAT lane: the one type check every encoder entry
// point shares.
template <typename At>
Status AppendUnboxed(size_t n, At at, LaneViews* out) {
  const DataType type = out->type;
  const size_t base = out->size();
  out->nulls.resize(base + n);
  return out->values.Visit(type, [&](auto& lane) -> Status {
    lane.resize(base + n);
    for (size_t i = 0; i < n; ++i) {
      const Value& v = at(i);
      if (v.is_null()) {
        out->nulls[base + i] = 1;
        continue;
      }
      if (v.type() != type &&
          !(type == DataType::kFloat64 && v.type() == DataType::kInt64)) {
        return InvalidArgumentError(
            StrCat("value of type ", DataTypeName(v.type()),
                   " in column of type ", DataTypeName(type)));
      }
      Unbox(v, &lane[base + i]);
    }
    return Status::OK();
  });
}

constexpr size_t kNoRow = std::numeric_limits<size_t>::max();

// What PLAIN and RLE cost: payload bytes after the null bitmap.
struct Shape {
  uint32_t non_null = 0;
  size_t plain = 0;    // the non-null values back to back
  uint32_t runs = 0;
  size_t rle = 4;      // run count, then (length, value) per run
  size_t min_row = kNoRow;  // the bounds' rows (kNoRow: all null)
  size_t max_row = kNoRow;
  bool has_nan = false;
};

// The cheap pass over a column: sizes PLAIN, sizes RLE when
// `count_runs` is set, and (when `find_bounds` is set) finds the rows
// holding the column's bounds — the first smallest and first largest —
// and whether it holds a NaN.
template <typename T>
Shape MeasureShape(const uint8_t* nulls, const T* lane, size_t n,
                   bool count_runs, bool find_bounds) {
  Shape shape;
  for (size_t i = 0; i < n; ++i) {
    size_t bytes = 0;
    if (!nulls[i]) {
      bytes = ScalarBytes(lane[i]);
      ++shape.non_null;
      shape.plain += bytes;
      if (find_bounds) {
        if constexpr (std::is_same_v<T, double>) {
          shape.has_nan = shape.has_nan || std::isnan(lane[i]);
        }
        if (shape.min_row == kNoRow || Less(lane[i], lane[shape.min_row])) {
          shape.min_row = i;
        }
        if (shape.max_row == kNoRow || Less(lane[shape.max_row], lane[i])) {
          shape.max_row = i;
        }
      }
    }
    if (count_runs && (i == 0 || !SameSlot(nulls, lane, i, i - 1))) {
      ++shape.runs;
      shape.rle += 4 + bytes;
    }
  }
  return shape;
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

// Builds the dictionary of the column (which has `non_null` non-null
// rows) and returns true when its payload is below `limit` bytes. Gives
// up — returning false — as soon as the entries seen so far push the
// payload to `limit`, since entries only add bytes.
template <typename T>
bool BuildDictionary(const uint8_t* nulls, const T* lane, size_t n,
                     uint32_t non_null, size_t limit, Dictionary* dict) {
  if (dict->payload(non_null) >= limit) return false;
  dict->codes.reserve(non_null);
  // Fixed-width entries bound how many the table can hold before the
  // build gives up: size it for that once.
  size_t entries = 0;
  if constexpr (!kIsString<T>) {
    size_t room = limit - dict->payload(non_null);
    entries = std::min<size_t>(non_null, room / sizeof(T) + 1);
  }
  using Key = std::conditional_t<kIsString<T>, std::string_view, uint64_t>;
  CodeTable<Key> table(entries);
  for (size_t i = 0; i < n; ++i) {
    if (nulls[i]) continue;
    uint32_t next = static_cast<uint32_t>(dict->first_rows.size());
    uint32_t code;
    if constexpr (kIsString<T>) {
      code = table.FindOrInsert(lane[i], HashBytes(lane[i]), next);
    } else {
      uint64_t key = FixedKey(lane[i]);
      code = table.FindOrInsert(key, Mix64(key), next);
    }
    dict->codes.push_back(code);
    if (code != next) continue;
    dict->first_rows.push_back(static_cast<uint32_t>(i));
    dict->entry_bytes += ScalarBytes(lane[i]);
    if (dict->payload(non_null) >= limit) return false;
  }
  return true;
}

// Nulls are carried as a bitmap ahead of the payload in every encoding
// (LSB first). Flags are 0 or 1, so one multiply packs eight of them.
void WriteNullBitmap(const uint8_t* nulls, size_t n, ByteWriter* writer) {
  char block[256];
  size_t used = 0;
  for (size_t i = 0; i < n; i += 8) {
    uint8_t byte = 0;
    if (i + 8 <= n) {
      uint64_t flags;
      std::memcpy(&flags, nulls + i, sizeof(flags));
      byte = static_cast<uint8_t>((flags * 0x0102040810204080ULL) >> 56);
    } else {
      for (size_t j = i; j < n; ++j) {
        byte |= static_cast<uint8_t>(nulls[j] << (j - i));
      }
    }
    block[used++] = static_cast<char>(byte);
    if (used == sizeof(block)) {
      writer->PutRaw(block, used);
      used = 0;
    }
  }
  writer->PutRaw(block, used);
}

template <typename T>
void WritePayload(Encoding encoding, const uint8_t* nulls, const T* lane,
                  size_t n, const Shape& shape, const Dictionary& dict,
                  ByteWriter* writer) {
  switch (encoding) {
    case Encoding::kPlain:
      if constexpr (!kIsString<T>) {
        // Fixed-width slots are already in wire form (bools are 0/1).
        if (shape.non_null == n) {
          writer->PutRaw(lane, n * sizeof(T));
          return;
        }
      }
      for (size_t i = 0; i < n; ++i) {
        if (!nulls[i]) WriteScalar(lane[i], writer);
      }
      return;
    case Encoding::kRle: {
      writer->PutU32(shape.runs);
      size_t i = 0;
      while (i < n) {
        size_t j = i + 1;
        while (j < n && SameSlot(nulls, lane, j, i)) ++j;
        writer->PutU32(static_cast<uint32_t>(j - i));
        if (!nulls[i]) WriteScalar(lane[i], writer);
        i = j;
      }
      return;
    }
    case Encoding::kDictionary:
      writer->PutU32(static_cast<uint32_t>(dict.first_rows.size()));
      for (uint32_t row : dict.first_rows) WriteScalar(lane[row], writer);
      writer->PutRaw(dict.codes.data(), dict.codes.size() * sizeof(uint32_t));
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

// The bounds of `column` from a MeasureShape pass that found them. Only
// the two winning slots are boxed. A NaN compares equal to every number
// (the scan kernels' three-way), so it can pass any `=`, `<=` or `>=`
// term: a column holding one is bounded by the whole line.
ColumnBounds BoundsOf(const LaneViews& column, const Shape& shape) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return shape.has_nan ? ColumnBounds{Value::Float64(-kInf),
                                      Value::Float64(kInf)}
         : shape.min_row == kNoRow
             ? ColumnBounds{}
             : ColumnBounds{column.values.Box(column.type, shape.min_row),
                            column.values.Box(column.type, shape.max_row)};
}

// Encodes one lane with `*forced`, or — when null — with the smallest
// encoding: PLAIN unless RLE is strictly smaller, then DICTIONARY when
// strictly smaller than both. Sizes come from the shape pass and the
// dictionary build (skipped or cut short once it cannot win), so only
// the chosen encoding is ever written.
template <typename T>
ColumnChunk EncodeLane(const LaneViews& column, const std::vector<T>& lane,
                       const Encoding* forced, ColumnBounds* bounds) {
  const uint8_t* nulls = column.nulls.data();
  const size_t n = column.size();
  bool count_runs = forced == nullptr || *forced == Encoding::kRle;
  Shape shape =
      MeasureShape(nulls, lane.data(), n, count_runs, bounds != nullptr);
  if (bounds != nullptr) *bounds = BoundsOf(column, shape);
  Dictionary dict;
  Encoding encoding;
  if (forced != nullptr) {
    encoding = *forced;
    if (encoding == Encoding::kDictionary) {
      BuildDictionary(nulls, lane.data(), n, shape.non_null,
                      std::numeric_limits<size_t>::max(), &dict);
    }
  } else {
    encoding = shape.rle < shape.plain ? Encoding::kRle : Encoding::kPlain;
    size_t best = std::min(shape.plain, shape.rle);
    if (BuildDictionary(nulls, lane.data(), n, shape.non_null, best, &dict)) {
      encoding = Encoding::kDictionary;
    }
  }
  ColumnChunk chunk;
  chunk.type = column.type;
  chunk.encoding = encoding;
  chunk.num_rows = static_cast<uint32_t>(n);
  size_t size = NullBitmapBytes(chunk.num_rows) +
                PayloadBytes(encoding, shape, dict);
  ByteWriter writer;
  writer.Reserve(size);
  WriteNullBitmap(nulls, n, &writer);
  WritePayload(encoding, nulls, lane.data(), n, shape, dict, &writer);
  FABRIC_CHECK(writer.size() == size)
      << EncodingName(encoding) << " wrote " << writer.size()
      << " bytes, sized " << size;
  chunk.data = writer.Take();
  return chunk;
}

// Decodes `n` rows of `payload` into `lane` (n zeroed slots), given the
// rows' null flags.
template <typename T>
Status DecodeLane(Encoding encoding, std::string_view payload, uint32_t n,
                  const uint8_t* nulls, T* lane) {
  ByteReader reader(payload);
  switch (encoding) {
    case Encoding::kPlain:
      if constexpr (!kIsString<T>) {
        // Fixed-width slots sit back to back: copy them out in place,
        // in one block when no row is null.
        size_t non_null = static_cast<size_t>(
            std::count(nulls, nulls + n, uint8_t{0}));
        if (payload.size() < non_null * sizeof(T)) {
          return OutOfRangeError("byte buffer truncated");
        }
        const char* p = payload.data();
        if (non_null == n) {
          std::memcpy(lane, p, n * sizeof(T));
        } else {
          for (uint32_t i = 0; i < n; ++i) {
            if (nulls[i]) continue;
            std::memcpy(&lane[i], p, sizeof(T));
            p += sizeof(T);
          }
        }
        if constexpr (sizeof(T) == 1) {
          for (uint32_t i = 0; i < n; ++i) lane[i] = lane[i] != 0 ? 1 : 0;
        }
        return Status::OK();
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (!nulls[i]) FABRIC_RETURN_IF_ERROR(ReadSlot(&reader, &lane[i]));
      }
      return Status::OK();
    case Encoding::kRle: {
      FABRIC_ASSIGN_OR_RETURN(uint32_t runs, reader.GetU32());
      for (uint32_t row = 0; row < n;) {
        if (runs-- == 0) {
          return InvalidArgumentError("RLE runs exhausted early");
        }
        FABRIC_ASSIGN_OR_RETURN(uint32_t length, reader.GetU32());
        if (length > n - row) {
          return InvalidArgumentError("RLE runs exceed row count");
        }
        if (!nulls[row]) {
          T v{};
          FABRIC_RETURN_IF_ERROR(ReadSlot(&reader, &v));
          std::fill(lane + row, lane + row + length, v);
        }
        row += length;
      }
      return Status::OK();
    }
    case Encoding::kDictionary: {
      FABRIC_ASSIGN_OR_RETURN(uint32_t size, reader.GetU32());
      std::vector<T> dictionary;
      for (uint32_t k = 0; k < size; ++k) {
        T v{};
        FABRIC_RETURN_IF_ERROR(ReadSlot(&reader, &v));
        dictionary.push_back(v);
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (nulls[i]) continue;
        FABRIC_ASSIGN_OR_RETURN(uint32_t code, reader.GetU32());
        if (code >= size) {
          return InvalidArgumentError("dictionary index out of range");
        }
        lane[i] = dictionary[code];
      }
      return Status::OK();
    }
  }
  return InvalidArgumentError("corrupt encoding");
}

}  // namespace

uint64_t FloatDisplayKey(double d) {
  if (std::isnan(d)) {
    return std::signbit(d) ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL;
  }
  return std::bit_cast<uint64_t>(d);
}

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

Result<ColumnChunk> EncodeLanes(const LaneViews& column,
                                const Encoding* encoding,
                                ColumnBounds* bounds) {
  FABRIC_CHECK(column.values.size(column.type) == column.size())
      << "one slot per row";
  return column.values.Visit(column.type, [&](const auto& lane) {
    return EncodeLane(column, lane, encoding, bounds);
  });
}

ColumnBounds LaneBounds(const LaneViews& column) {
  return column.values.Visit(column.type, [&](const auto& lane) {
    return BoundsOf(column, MeasureShape(column.nulls.data(), lane.data(),
                                         column.size(), /*count_runs=*/false,
                                         /*find_bounds=*/true));
  });
}

Result<LaneViewRows> FromRows(const Schema& schema, std::span<const Row> rows,
                              std::vector<Row>* rejects) {
  std::vector<const Row*> good;
  good.reserve(rows.size());
  for (const Row& row : rows) {
    Status valid = ValidateRow(schema, row);
    if (valid.ok()) {
      good.push_back(&row);
    } else if (rejects != nullptr) {
      rejects->push_back(row);
    } else {
      return valid;
    }
  }
  LaneViewRows batch(schema);
  batch.num_rows = good.size();
  for (int c = 0; c < schema.num_columns(); ++c) {
    FABRIC_RETURN_IF_ERROR(AppendUnboxed(
        good.size(), [&](size_t i) -> const Value& { return (*good[i])[c]; },
        &batch.columns[c]));
  }
  return batch;
}

Result<ColumnChunk> EncodeColumn(DataType type,
                                 const std::vector<Value>& values,
                                 const Encoding* encoding,
                                 ColumnBounds* bounds) {
  LaneViews lanes(type);
  FABRIC_RETURN_IF_ERROR(AppendUnboxed(
      values.size(), [&](size_t i) -> const Value& { return values[i]; },
      &lanes));
  return EncodeLanes(lanes, encoding, bounds);
}

Result<ColumnChunk> EncodeColumnAs(DataType type, Encoding encoding,
                                   const std::vector<Value>& values) {
  return EncodeColumn(type, values, &encoding);
}

Status DecodeColumnInto(const ColumnChunk& chunk, LaneViews* out) {
  if (out->type != chunk.type) {
    return InvalidArgumentError(StrCat("decoding a ", DataTypeName(chunk.type),
                                       " chunk into ",
                                       DataTypeName(out->type), " lanes"));
  }
  const uint32_t n = chunk.num_rows;
  const size_t bitmap = NullBitmapBytes(n);
  if (chunk.data.size() < bitmap) {
    return OutOfRangeError("null bitmap truncated");
  }
  const size_t base = out->size();
  out->nulls.resize(base + n);  // zeroed: only set bits need a write
  uint8_t* nulls = out->nulls.data() + base;
  for (uint32_t b = 0; b < bitmap; ++b) {
    uint8_t bits = static_cast<uint8_t>(chunk.data[b]);
    for (uint32_t i = b * 8; bits != 0 && i < n; ++i, bits >>= 1) {
      nulls[i] = bits & 1;
    }
  }
  std::string_view payload = std::string_view(chunk.data).substr(bitmap);
  return out->values.Visit(out->type, [&](auto& lane) {
    lane.resize(base + n);
    return DecodeLane(chunk.encoding, payload, n, nulls, lane.data() + base);
  });
}

Result<std::vector<Value>> DecodeColumn(const ColumnChunk& chunk) {
  LaneViews lanes(chunk.type);
  FABRIC_RETURN_IF_ERROR(DecodeColumnInto(chunk, &lanes));
  std::vector<Value> values;
  values.reserve(lanes.size());
  for (size_t i = 0; i < lanes.size(); ++i) values.push_back(lanes.Box(i));
  return values;
}

}  // namespace fabric::storage
