#include "storage/column_cursor.h"

#include <algorithm>
#include <type_traits>

#include "common/bytes.h"

namespace fabric::storage {

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

  ByteReader reader(std::string_view(chunk.data).substr(bitmap));
  FABRIC_RETURN_IF_ERROR(column->dictionary.Visit(
      chunk.type, [&](auto& dictionary) -> Status {
        using T = typename std::decay_t<decltype(dictionary)>::value_type;
        switch (chunk.encoding) {
          case Encoding::kPlain:
            for (ColumnBatch& batch : column->batches) {
              std::vector<T>& values = batch.values.lane<T>();
              values.reserve(batch.length);
              for (uint32_t i = batch.base; i < batch.base + batch.length;
                   ++i) {
                if (nulls[i]) continue;
                T v{};
                FABRIC_RETURN_IF_ERROR(ReadSlot(&reader, &v));
                values.push_back(v);
              }
            }
            return Status::OK();
          case Encoding::kRle: {
            FABRIC_ASSIGN_OR_RETURN(uint32_t runs, reader.GetU32());
            T value{};
            for (uint32_t row = 0; row < n;) {
              if (runs-- == 0) {
                return InvalidArgumentError("RLE runs exhausted early");
              }
              FABRIC_ASSIGN_OR_RETURN(uint32_t length, reader.GetU32());
              if (length > n - row) {
                return InvalidArgumentError("RLE runs exceed row count");
              }
              const bool is_null = nulls[row] != 0;
              if (!is_null) FABRIC_RETURN_IF_ERROR(ReadSlot(&reader, &value));
              // One span per batch the run touches.
              for (const uint32_t end = row + length; row < end;) {
                ColumnBatch& batch = column->batches[row / kScanBatchSize];
                RunSpan span;
                span.start = row;
                span.length = std::min(end, batch.base + batch.length) - row;
                span.is_null = is_null;
                if (!is_null) {
                  std::vector<T>& values = batch.values.lane<T>();
                  span.slot = static_cast<uint32_t>(values.size());
                  values.push_back(value);
                }
                batch.runs.push_back(span);
                row += span.length;
              }
            }
            return Status::OK();
          }
          case Encoding::kDictionary: {
            FABRIC_ASSIGN_OR_RETURN(uint32_t dict_size, reader.GetU32());
            if (dict_size > n) {
              return InvalidArgumentError("dictionary larger than the column");
            }
            dictionary.reserve(dict_size);
            for (uint32_t k = 0; k < dict_size; ++k) {
              T v{};
              FABRIC_RETURN_IF_ERROR(ReadSlot(&reader, &v));
              dictionary.push_back(v);
            }
            for (ColumnBatch& batch : column->batches) {
              batch.codes.reserve(batch.length);
              for (uint32_t i = batch.base; i < batch.base + batch.length;
                   ++i) {
                if (nulls[i]) continue;
                FABRIC_ASSIGN_OR_RETURN(uint32_t code, reader.GetU32());
                if (code >= dict_size) {
                  return InvalidArgumentError(
                      "dictionary index out of range");
                }
                batch.codes.push_back(code);
              }
            }
            return Status::OK();
          }
        }
        return InvalidArgumentError("corrupt encoding");
      }));
  return column;
}

}  // namespace fabric::storage
