#include "storage/column_cursor.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"

namespace fabric::storage {

uint64_t TypedVec::Hash(DataType type, size_t i) const {
  switch (type) {
    case DataType::kBool:
      return HashBool(bools[i] != 0);
    case DataType::kInt64:
      return HashInt64(ints[i]);
    case DataType::kFloat64:
      return HashDouble(doubles[i]);
    case DataType::kVarchar:
      return HashBytes(strings[i]);
  }
  return 0;
}

namespace {

// Reads one chunk's payload front to back, one scalar at a time; the
// reader behind DecodeColumnBatches. String scalars alias the chunk.
class ColumnCursor {
 public:
  // Unboxed scalar, so a run split across batches can re-emit its value
  // into each batch's TypedVec.
  struct Scalar {
    int64_t i = 0;
    double d = 0;
    uint8_t b = 0;
    std::string_view s;
  };

  ColumnCursor(const ColumnChunk& chunk, size_t payload_pos)
      : type_(chunk.type),
        reader_(std::string_view(chunk.data).substr(payload_pos)) {}

  Result<uint32_t> ReadU32() { return reader_.GetU32(); }

  Status ReadScalar(Scalar* out) {
    switch (type_) {
      case DataType::kBool: {
        FABRIC_ASSIGN_OR_RETURN(out->b, reader_.GetU8());
        break;
      }
      case DataType::kInt64: {
        FABRIC_ASSIGN_OR_RETURN(out->i, reader_.GetI64());
        break;
      }
      case DataType::kFloat64: {
        FABRIC_ASSIGN_OR_RETURN(out->d, reader_.GetDouble());
        break;
      }
      case DataType::kVarchar: {
        FABRIC_ASSIGN_OR_RETURN(out->s, reader_.GetStringView());
        break;
      }
    }
    return Status::OK();
  }

  void PushScalar(const Scalar& s, TypedVec* out) const {
    switch (type_) {
      case DataType::kBool:
        out->bools.push_back(s.b);
        return;
      case DataType::kInt64:
        out->ints.push_back(s.i);
        return;
      case DataType::kFloat64:
        out->doubles.push_back(s.d);
        return;
      case DataType::kVarchar:
        out->strings.push_back(s.s);
        return;
    }
  }

  void Reserve(size_t n, TypedVec* out) const {
    switch (type_) {
      case DataType::kBool:
        out->bools.reserve(n);
        return;
      case DataType::kInt64:
        out->ints.reserve(n);
        return;
      case DataType::kFloat64:
        out->doubles.reserve(n);
        return;
      case DataType::kVarchar:
        out->strings.reserve(n);
        return;
    }
  }

  // Reads one scalar and appends it to *out.
  Status ReadInto(TypedVec* out) {
    Scalar s;
    FABRIC_RETURN_IF_ERROR(ReadScalar(&s));
    PushScalar(s, out);
    return Status::OK();
  }

 private:
  DataType type_;
  ByteReader reader_;
};

}  // namespace

Result<std::unique_ptr<DecodedColumn>> DecodeColumnBatches(
    const ColumnChunk& chunk) {
  const uint32_t n = chunk.num_rows;
  const size_t bitmap = NullBitmapBytes(n);
  if (chunk.data.size() < bitmap) {
    return OutOfRangeError("null bitmap truncated");
  }
  auto column = std::make_unique<DecodedColumn>();
  column->type = chunk.type;
  column->nulls.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    column->nulls[i] =
        (static_cast<uint8_t>(chunk.data[i / 8]) >> (i % 8)) & 1;
  }
  const uint8_t* nulls = column->nulls.data();

  ColumnBatch::Layout layout = ColumnBatch::Layout::kPlainLayout;
  if (chunk.encoding == Encoding::kRle) {
    layout = ColumnBatch::Layout::kRunLayout;
  } else if (chunk.encoding == Encoding::kDictionary) {
    layout = ColumnBatch::Layout::kCodeLayout;
  }
  column->batches.resize((n + kScanBatchSize - 1) / kScanBatchSize);
  for (size_t b = 0; b < column->batches.size(); ++b) {
    ColumnBatch& batch = column->batches[b];
    batch.layout = layout;
    batch.base = static_cast<uint32_t>(b) * kScanBatchSize;
    batch.length = std::min(kScanBatchSize, n - batch.base);
    batch.nulls = nulls;
    if (layout == ColumnBatch::Layout::kRunLayout ||
        std::none_of(nulls + batch.base, nulls + batch.base + batch.length,
                     [](uint8_t null) { return null != 0; })) {
      continue;
    }
    batch.slot_of.assign(batch.length, UINT32_MAX);
    uint32_t slot = 0;
    for (uint32_t i = 0; i < batch.length; ++i) {
      if (!nulls[batch.base + i]) batch.slot_of[i] = slot++;
    }
  }

  ColumnCursor cursor(chunk, bitmap);
  switch (chunk.encoding) {
    case Encoding::kPlain: {
      for (ColumnBatch& batch : column->batches) {
        cursor.Reserve(batch.length, &batch.values);
        for (uint32_t i = batch.base; i < batch.base + batch.length; ++i) {
          if (nulls[i]) continue;
          FABRIC_RETURN_IF_ERROR(cursor.ReadInto(&batch.values));
        }
      }
      break;
    }
    case Encoding::kRle: {
      FABRIC_ASSIGN_OR_RETURN(uint32_t runs, cursor.ReadU32());
      ColumnCursor::Scalar value;
      for (uint32_t row = 0; row < n;) {
        if (runs-- == 0) {
          return InvalidArgumentError("RLE runs exhausted early");
        }
        FABRIC_ASSIGN_OR_RETURN(uint32_t length, cursor.ReadU32());
        if (length > n - row) {
          return InvalidArgumentError("RLE runs exceed row count");
        }
        const bool is_null = nulls[row] != 0;
        if (!is_null) {
          FABRIC_RETURN_IF_ERROR(cursor.ReadScalar(&value));
        }
        // One span per batch the run touches.
        for (const uint32_t end = row + length; row < end;) {
          ColumnBatch& batch = column->batches[row / kScanBatchSize];
          RunSpan span;
          span.start = row;
          span.length = std::min(end, batch.base + batch.length) - row;
          span.is_null = is_null;
          if (!is_null) {
            span.slot =
                static_cast<uint32_t>(batch.values.size(chunk.type));
            cursor.PushScalar(value, &batch.values);
          }
          batch.runs.push_back(span);
          row += span.length;
        }
      }
      break;
    }
    case Encoding::kDictionary: {
      FABRIC_ASSIGN_OR_RETURN(uint32_t dict_size, cursor.ReadU32());
      if (dict_size > n) {
        return InvalidArgumentError("dictionary larger than the column");
      }
      cursor.Reserve(dict_size, &column->dictionary);
      for (uint32_t k = 0; k < dict_size; ++k) {
        FABRIC_RETURN_IF_ERROR(cursor.ReadInto(&column->dictionary));
      }
      for (ColumnBatch& batch : column->batches) {
        batch.codes.reserve(batch.length);
        for (uint32_t i = batch.base; i < batch.base + batch.length; ++i) {
          if (nulls[i]) continue;
          FABRIC_ASSIGN_OR_RETURN(uint32_t code, cursor.ReadU32());
          if (code >= dict_size) {
            return InvalidArgumentError("dictionary index out of range");
          }
          batch.codes.push_back(code);
        }
      }
      break;
    }
  }
  return column;
}

}  // namespace fabric::storage
