#include "storage/scan_kernels.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace fabric::storage {

namespace {

// Three-way compare of a scalar against the term literal. NaN compares
// "equal" (neither < nor >), matching Value::Compare.
inline int NumericThreeWay(double a, double b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

inline int StringThreeWay(std::string_view a, std::string_view b) {
  int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

// Three-way of values slot `i` vs term literal (slot must be non-null;
// the analyzer guarantees is_string matches the column type).
inline int SlotThreeWay(const CompareTerm& term, const TypedVec& values,
                        DataType type, size_t i) {
  if (term.is_string) return StringThreeWay(values.StringAt(i), term.text);
  return NumericThreeWay(values.NumberAt(type, i), term.number);
}

// Index of the RunSpan containing `pos`, advancing `*run` (positions are
// visited in ascending order).
inline const RunSpan& SpanAt(const std::vector<RunSpan>& runs, size_t* run,
                             uint32_t pos) {
  while (runs[*run].start + runs[*run].length <= pos) ++(*run);
  return runs[*run];
}

}  // namespace

bool ComparePasses(CompareOp op, int three_way) {
  switch (op) {
    case CompareOp::kEq:
      return three_way == 0;
    case CompareOp::kNe:
      return three_way != 0;
    case CompareOp::kLt:
      return three_way < 0;
    case CompareOp::kLe:
      return three_way <= 0;
    case CompareOp::kGt:
      return three_way > 0;
    case CompareOp::kGe:
      return three_way >= 0;
  }
  return false;
}

bool ScanPredicate::Matches(const Row& row) const {
  if (always_false) return false;
  for (const CompareTerm& t : compares) {
    const Value& v = row[t.column];
    if (v.is_null()) return false;
    int c = t.is_string ? StringThreeWay(v.varchar_value(), t.text)
                        : NumericThreeWay(v.NumericValue(), t.number);
    if (!ComparePasses(t.op, c)) return false;
  }
  for (const NullTestTerm& t : null_tests) {
    if (row[t.column].is_null() == t.negated) return false;
  }
  for (const HashRangeTerm& t : hash_ranges) {
    uint64_t h = RowSegmentationHash(row, t.columns);
    if (h < t.lower || h > t.upper) return false;
  }
  return true;
}

bool CompareTermCanMatch(const CompareTerm& term, const Value& min,
                         const Value& max) {
  // All-null column: comparisons never pass.
  if (min.is_null()) return false;
  int lo, hi;
  if (term.is_string) {
    if (min.type() != DataType::kVarchar) return true;  // mixed: no prune
    lo = StringThreeWay(min.varchar_value(), term.text);
    hi = StringThreeWay(max.varchar_value(), term.text);
  } else {
    if (min.type() == DataType::kVarchar) return true;  // mixed: no prune
    lo = NumericThreeWay(min.NumericValue(), term.number);
    hi = NumericThreeWay(max.NumericValue(), term.number);
  }
  switch (term.op) {
    case CompareOp::kEq:
      return lo <= 0 && hi >= 0;
    case CompareOp::kNe:
      return !(lo == 0 && hi == 0);
    case CompareOp::kLt:
      return lo < 0;
    case CompareOp::kLe:
      return lo <= 0;
    case CompareOp::kGt:
      return hi > 0;
    case CompareOp::kGe:
      return hi >= 0;
  }
  return true;
}

void FilterCompare(const CompareTerm& term, const DecodedColumn& column,
                   const ColumnBatch& batch, SelectionVector* sel) {
  const DataType type = column.type;
  SelectionVector out;
  out.reserve(sel->size());
  switch (batch.layout) {
    case ColumnBatch::Layout::kPlainLayout: {
      if (batch.values.size(type) == batch.length) {
        // No nulls in this batch: slot == row - base, tight loop.
        if (!term.is_string) {
          const double lit = term.number;
          for (uint32_t pos : *sel) {
            double a = batch.values.NumberAt(type, pos - batch.base);
            if (ComparePasses(term.op, NumericThreeWay(a, lit))) {
              out.push_back(pos);
            }
          }
        } else {
          for (uint32_t pos : *sel) {
            int c = StringThreeWay(batch.values.StringAt(pos - batch.base),
                                   term.text);
            if (ComparePasses(term.op, c)) out.push_back(pos);
          }
        }
      } else {
        for (uint32_t pos : *sel) {
          uint32_t slot = batch.SlotOf(pos);
          if (slot == UINT32_MAX) continue;  // NULL never passes
          if (ComparePasses(term.op,
                            SlotThreeWay(term, batch.values, type, slot))) {
            out.push_back(pos);
          }
        }
      }
      break;
    }
    case ColumnBatch::Layout::kRunLayout: {
      // Evaluate once per run, then sweep the selection.
      std::vector<uint8_t> run_pass(batch.runs.size());
      for (size_t r = 0; r < batch.runs.size(); ++r) {
        const RunSpan& span = batch.runs[r];
        run_pass[r] =
            !span.is_null &&
            ComparePasses(term.op,
                          SlotThreeWay(term, batch.values, type, span.slot));
      }
      size_t run = 0;
      for (uint32_t pos : *sel) {
        while (batch.runs[run].start + batch.runs[run].length <= pos) ++run;
        if (run_pass[run]) out.push_back(pos);
      }
      break;
    }
    case ColumnBatch::Layout::kCodeLayout: {
      // Evaluate once per distinct value: a pass-bitmap over the
      // dictionary, then a code lookup per selected row.
      const TypedVec& dict = column.dictionary;
      std::vector<uint8_t> dict_pass(column.dictionary_size());
      for (size_t d = 0; d < dict_pass.size(); ++d) {
        dict_pass[d] =
            ComparePasses(term.op, SlotThreeWay(term, dict, type, d));
      }
      for (uint32_t pos : *sel) {
        uint32_t slot = batch.SlotOf(pos);
        if (slot == UINT32_MAX) continue;
        if (dict_pass[batch.codes[slot]]) out.push_back(pos);
      }
      break;
    }
  }
  sel->swap(out);
}

void FilterNullTest(const NullTestTerm& term, const uint8_t* nulls,
                    SelectionVector* sel) {
  SelectionVector out;
  out.reserve(sel->size());
  for (uint32_t pos : *sel) {
    if ((nulls[pos] != 0) != term.negated) out.push_back(pos);
  }
  sel->swap(out);
}

void AccumulateHash(const DecodedColumn& column, const ColumnBatch& batch,
                    const SelectionVector& sel, std::vector<uint64_t>* acc) {
  const DataType type = column.type;
  const uint64_t null_hash = Mix64(0xdeadULL);  // Value::SegmentationHash
  switch (batch.layout) {
    case ColumnBatch::Layout::kPlainLayout: {
      for (size_t k = 0; k < sel.size(); ++k) {
        uint32_t slot = batch.SlotOf(sel[k]);
        uint64_t h = slot == UINT32_MAX ? null_hash
                                        : batch.values.Hash(type, slot);
        (*acc)[k] = HashCombine((*acc)[k], h);
      }
      break;
    }
    case ColumnBatch::Layout::kRunLayout: {
      // Hash once per run.
      std::vector<uint64_t> run_hash(batch.runs.size());
      for (size_t r = 0; r < batch.runs.size(); ++r) {
        const RunSpan& span = batch.runs[r];
        run_hash[r] = span.is_null
                          ? null_hash
                          : batch.values.Hash(type, span.slot);
      }
      size_t run = 0;
      for (size_t k = 0; k < sel.size(); ++k) {
        while (batch.runs[run].start + batch.runs[run].length <= sel[k]) {
          ++run;
        }
        (*acc)[k] = HashCombine((*acc)[k], run_hash[run]);
      }
      break;
    }
    case ColumnBatch::Layout::kCodeLayout: {
      // Hash once per distinct value.
      const TypedVec& dict = column.dictionary;
      std::vector<uint64_t> dict_hash(column.dictionary_size());
      for (size_t d = 0; d < dict_hash.size(); ++d) {
        dict_hash[d] = dict.Hash(type, d);
      }
      for (size_t k = 0; k < sel.size(); ++k) {
        uint32_t slot = batch.SlotOf(sel[k]);
        uint64_t h =
            slot == UINT32_MAX ? null_hash : dict_hash[batch.codes[slot]];
        (*acc)[k] = HashCombine((*acc)[k], h);
      }
      break;
    }
  }
}

void FilterHashRange(const HashRangeTerm& term, std::vector<uint64_t>* acc,
                     SelectionVector* sel) {
  size_t kept = 0;
  for (size_t k = 0; k < sel->size(); ++k) {
    uint64_t h = (*acc)[k];
    if (h < term.lower || h > term.upper) continue;
    (*sel)[kept] = (*sel)[k];
    (*acc)[kept] = h;
    ++kept;
  }
  sel->resize(kept);
  acc->resize(kept);
}

void GatherColumn(const DecodedColumn& column, const ColumnBatch& batch,
                  const SelectionVector& sel, Lanes* out, size_t out_offset) {
  uint8_t* nulls = out->nulls.data() + out_offset;
  switch (batch.layout) {
    case ColumnBatch::Layout::kPlainLayout:
      batch.values.Visit(column.type, [&](const auto& src) {
        auto& dst = out->values.lane<SlotType<decltype(src)>>();
        for (size_t k = 0; k < sel.size(); ++k) {
          uint32_t slot = batch.SlotOf(sel[k]);
          nulls[k] = slot == UINT32_MAX ? 1 : 0;
          if (slot != UINT32_MAX) dst[out_offset + k] = src[slot];
        }
      });
      break;
    case ColumnBatch::Layout::kRunLayout:
      batch.values.Visit(column.type, [&](const auto& src) {
        auto& dst = out->values.lane<SlotType<decltype(src)>>();
        size_t run = 0;
        for (size_t k = 0; k < sel.size(); ++k) {
          const RunSpan& span = SpanAt(batch.runs, &run, sel[k]);
          nulls[k] = span.is_null ? 1 : 0;
          if (!span.is_null) dst[out_offset + k] = src[span.slot];
        }
      });
      break;
    case ColumnBatch::Layout::kCodeLayout:
      column.dictionary.Visit(column.type, [&](const auto& dict) {
        auto& dst = out->values.lane<SlotType<decltype(dict)>>();
        for (size_t k = 0; k < sel.size(); ++k) {
          uint32_t slot = batch.SlotOf(sel[k]);
          nulls[k] = slot == UINT32_MAX ? 1 : 0;
          if (slot != UINT32_MAX) {
            dst[out_offset + k] = dict[batch.codes[slot]];
          }
        }
      });
      break;
  }
}

void MeasureColumn(const DecodedColumn& column, const ColumnBatch& batch,
                   const SelectionVector& sel, DataProfile* profile) {
  const DataType type = column.type;
  profile->fields += static_cast<double>(sel.size());
  // Fixed-width types need only the null flags: raw size is a constant
  // per non-null row.
  if (type != DataType::kVarchar) {
    double unit = type == DataType::kBool ? 1 : 8;
    size_t non_null = 0;
    for (uint32_t pos : sel) non_null += batch.nulls[pos] ? 0 : 1;
    double bytes = unit * static_cast<double>(non_null);
    profile->raw_bytes += bytes;
    profile->numeric_bytes += bytes;
    return;
  }
  // Varchar: byte counts come from the encoded payload.
  switch (batch.layout) {
    case ColumnBatch::Layout::kPlainLayout: {
      for (uint32_t pos : sel) {
        uint32_t slot = batch.SlotOf(pos);
        if (slot == UINT32_MAX) continue;
        double size = batch.values.RawSize(type, slot);
        profile->raw_bytes += size;
        profile->string_bytes += size;
      }
      break;
    }
    case ColumnBatch::Layout::kRunLayout: {
      size_t run = 0;
      for (uint32_t pos : sel) {
        const RunSpan& span = SpanAt(batch.runs, &run, pos);
        if (span.is_null) continue;
        double size = batch.values.RawSize(type, span.slot);
        profile->raw_bytes += size;
        profile->string_bytes += size;
      }
      break;
    }
    case ColumnBatch::Layout::kCodeLayout: {
      const TypedVec& dict = column.dictionary;
      for (uint32_t pos : sel) {
        uint32_t slot = batch.SlotOf(pos);
        if (slot == UINT32_MAX) continue;
        double size = dict.RawSize(type, batch.codes[slot]);
        profile->raw_bytes += size;
        profile->string_bytes += size;
      }
      break;
    }
  }
}

}  // namespace fabric::storage
