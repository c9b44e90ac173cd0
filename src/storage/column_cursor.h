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
