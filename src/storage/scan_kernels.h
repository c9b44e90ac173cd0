#ifndef FABRIC_STORAGE_SCAN_KERNELS_H_
#define FABRIC_STORAGE_SCAN_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column_cursor.h"
#include "storage/lanes.h"
#include "storage/profile.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fabric::storage {

// Sorted (ascending) absolute row positions that survive the filters so
// far. Kernels refine a selection in place: every kernel reads the
// current selection and writes the surviving subset.
using SelectionVector = std::vector<uint32_t>;

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

// `column <op> literal` over one column. Numeric terms compare through
// double (matching Value::Compare's cross-type numeric semantics, bool
// included); string terms compare bytes. NULL rows never pass.
struct CompareTerm {
  int column = 0;
  CompareOp op = CompareOp::kEq;
  bool is_string = false;
  double number = 0;  // literal when !is_string
  std::string text;   // literal when is_string
};

// `column IS [NOT] NULL`.
struct NullTestTerm {
  int column = 0;
  bool negated = false;  // true => IS NOT NULL
};

// `HASH(columns...) BETWEEN lower AND upper` on the unsigned 2^64 ring
// (inclusive bounds). The shape V2S partition pushdown produces.
struct HashRangeTerm {
  std::vector<int> columns;
  uint64_t lower = 0;
  uint64_t upper = ~0ull;
};

// A conjunction of compiled filter terms. `always_false` short-circuits
// the whole scan (contradictory hash ranges).
struct ScanPredicate {
  std::vector<CompareTerm> compares;
  std::vector<NullTestTerm> null_tests;
  std::vector<HashRangeTerm> hash_ranges;
  bool always_false = false;

  bool empty() const {
    return compares.empty() && null_tests.empty() && hash_ranges.empty() &&
           !always_false;
  }

  // Row-at-a-time evaluation (the reference path in tests).
  bool Matches(const Row& row) const;
};

// True when `cmp(v, literal)` for scalar comparison semantics shared by
// every kernel: -1/0/1 three-way then op test.
bool ComparePasses(CompareOp op, int three_way);

// Container pruning: can any value in [min, max] satisfy the term?
// A null min means the column has no non-null rows => nothing passes.
bool CompareTermCanMatch(const CompareTerm& term, const Value& min,
                         const Value& max);

// --- Vectorized kernels -------------------------------------------------
// Each kernel refines `sel` (sorted absolute positions within the batch's
// rows) in place. Rows outside [batch.base, batch.base+length) must not
// appear in `sel`.

// Comparison filter evaluated on the encoded form: once per run for RLE,
// once per distinct dictionary value (pass-bitmap over the dictionary),
// tight loop for plain.
void FilterCompare(const CompareTerm& term, const DecodedColumn& column,
                   const ColumnBatch& batch, SelectionVector* sel);

// IS [NOT] NULL reads only the null flags.
void FilterNullTest(const NullTestTerm& term, const uint8_t* nulls,
                    SelectionVector* sel);

// Hash-range filter. `acc` holds the running per-row combined hash
// (seeded with kSegmentationHashSeed before the first column); call
// AccumulateHash once per term column in order, then FilterHashRange to
// apply the ring bounds. Hashes once per distinct dictionary value /
// once per run.
void AccumulateHash(const DecodedColumn& column, const ColumnBatch& batch,
                    const SelectionVector& sel, std::vector<uint64_t>* acc);
// Applies the ring bounds; `acc` is parallel to `sel` and both are
// compacted to the survivors.
void FilterHashRange(const HashRangeTerm& term, std::vector<uint64_t>* acc,
                     SelectionVector* sel);

// Late materialization: copies the column's values at the selected
// positions into rows out_offset + k of `out` for sel[k] (a lane of the
// column's type, already at least out_offset + sel.size() rows long).
// Varchar slots are copied out of the decoded payload, so `out` never
// aliases the container.
void GatherColumn(const DecodedColumn& column, const ColumnBatch& batch,
                  const SelectionVector& sel, Lanes* out,
                  size_t out_offset = 0);

// Cost accounting without boxing: adds the ProfileRows contribution of
// this column at the selected positions (fields/raw/numeric/string
// bytes; rows stays 0 — the caller sets it once per row set).
void MeasureColumn(const DecodedColumn& column, const ColumnBatch& batch,
                   const SelectionVector& sel, DataProfile* profile);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_SCAN_KERNELS_H_
