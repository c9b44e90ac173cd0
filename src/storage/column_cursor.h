#ifndef FABRIC_STORAGE_COLUMN_CURSOR_H_
#define FABRIC_STORAGE_COLUMN_CURSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/encoding.h"
#include "storage/value.h"

namespace fabric::storage {

// Rows per scan batch. 1024 keeps a batch of one column (8 KiB of
// doubles plus selection vector) comfortably inside L1/L2 while
// amortizing per-batch dispatch over enough rows that the tight loops
// dominate.
inline constexpr uint32_t kScanBatchSize = 1024;

// One decoded batch worth of typed column data. Exactly one of the typed
// vectors is populated, per the chunk's DataType; slots correspond to
// non-null rows in batch order for kPlainLayout, to runs for kRunLayout,
// and to dictionary codes for kCodeLayout.
struct TypedVec {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  std::vector<std::string_view> strings;  // alias chunk.data; zero-copy

  size_t size(DataType type) const {
    switch (type) {
      case DataType::kBool:
        return bools.size();
      case DataType::kInt64:
        return ints.size();
      case DataType::kFloat64:
        return doubles.size();
      case DataType::kVarchar:
        return strings.size();
    }
    return 0;
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

// An RLE run clipped to the current batch, in absolute row coordinates.
// `slot` indexes the batch's TypedVec for the run value; is_null runs
// carry no slot.
struct RunSpan {
  uint32_t start = 0;   // absolute row index of first row in span
  uint32_t length = 0;  // rows covered within this batch
  uint32_t slot = 0;    // TypedVec slot of the run value (if !is_null)
  bool is_null = false;
};

// One batch of a decoded column. Layout tells kernels which
// representation `values` uses; all row indices are absolute container
// coordinates [base, base + length).
struct ColumnBatch {
  enum class Layout : uint8_t {
    kPlainLayout,  // values slot k = k-th non-null row of the batch
    kRunLayout,    // runs[] spans; values slot per non-null run
    kCodeLayout,   // codes[k] = dictionary slot of k-th non-null row
  };

  Layout layout = Layout::kPlainLayout;
  uint32_t base = 0;    // absolute index of first row in batch
  uint32_t length = 0;  // rows in batch (<= kScanBatchSize)
  // Null flag per row of the whole column; index with absolute row ids.
  const uint8_t* nulls = nullptr;
  TypedVec values;             // kPlainLayout / kRunLayout payloads
  std::vector<RunSpan> runs;   // kRunLayout only
  std::vector<uint32_t> codes;  // kCodeLayout: slots into dictionary
  // kPlainLayout / kCodeLayout: slot_of[row - base] is the row's slot
  // in `values` / `codes`, or UINT32_MAX for a null row. Empty when the
  // batch has no null row, in which case the slot is row - base.
  std::vector<uint32_t> slot_of;

  uint32_t SlotOf(uint32_t row) const {
    return slot_of.empty() ? row - base : slot_of[row - base];
  }
};

// A whole ColumnChunk decoded once: its null flags, its dictionary and
// its kScanBatchSize-row batches (batch b starts at row
// b * kScanBatchSize). RLE runs crossing a batch boundary are split, one
// span per batch. Varchar slots alias the chunk's payload and every
// batch's `nulls` aliases this object's flags, so the chunk must outlive
// it and stay in place, and the object itself is never copied.
struct DecodedColumn {
  DataType type = DataType::kInt64;
  std::vector<uint8_t> nulls;  // one flag per row
  TypedVec dictionary;         // kDictionary chunks only
  std::vector<ColumnBatch> batches;

  DecodedColumn() = default;
  DecodedColumn(const DecodedColumn&) = delete;
  DecodedColumn& operator=(const DecodedColumn&) = delete;

  uint32_t dictionary_size() const {
    return static_cast<uint32_t>(dictionary.size(type));
  }
};

// The one-shot column decoder: reads `chunk`'s payload front to back
// into a DecodedColumn. Fails on a corrupt payload.
Result<std::unique_ptr<DecodedColumn>> DecodeColumnBatches(
    const ColumnChunk& chunk);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_COLUMN_CURSOR_H_
