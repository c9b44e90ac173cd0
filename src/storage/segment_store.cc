#include "storage/segment_store.h"

#include <algorithm>
#include <map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "storage/column_cursor.h"

namespace fabric::storage {

namespace {

// Adds the fields/byte composition of `row`'s `columns` to `profile`
// without touching the rows field (same bucketing as ProfileRow).
void MeasureRowColumns(const Row& row, const std::vector<int>& columns,
                       DataProfile* profile) {
  for (int c : columns) {
    const Value& v = row[c];
    profile->fields += 1;
    double size = v.RawSize();
    profile->raw_bytes += size;
    if (!v.is_null() && v.type() == DataType::kVarchar) {
      profile->string_bytes += size;
    } else {
      profile->numeric_bytes += size;
    }
  }
}

// Walks the decoded batches of `container`'s column `col` covering
// positions of `sel`, invoking fn(column, batch, first, last) with the
// [first, last) index range of `sel` inside the batch. Batches holding
// no selected row are skipped.
template <typename Fn>
Status ForEachBatchSlice(const RosContainer& container, int col,
                         const SelectionVector& sel, Fn&& fn) {
  if (sel.empty()) return Status::OK();
  FABRIC_ASSIGN_OR_RETURN(const DecodedColumn* column,
                          container.decoded_column(col));
  for (size_t i = 0; i < sel.size();) {
    const ColumnBatch& batch = column->batches[sel[i] / kScanBatchSize];
    uint32_t end = batch.base + batch.length;
    size_t j = i + 1;
    while (j < sel.size() && sel[j] < end) ++j;
    FABRIC_RETURN_IF_ERROR(fn(*column, batch, i, j));
    i = j;
  }
  return Status::OK();
}

// All schema column indices (projection default).
std::vector<int> AllColumns(const Schema& schema) {
  std::vector<int> cols(schema.num_columns());
  for (int c = 0; c < schema.num_columns(); ++c) cols[c] = c;
  return cols;
}

// One sort column's keys: its null flags, and its slots as strings or
// as doubles (INT64 and BOOL lanes widened once).
struct SortKey {
  const uint8_t* nulls = nullptr;
  const std::string_view* strings = nullptr;  // VARCHAR columns
  const double* numbers = nullptr;            // numeric columns
  std::vector<double> widened;
};

// Stable permutation ordering the `n` rows of `columns` by `sort_columns`
// in Value::Compare order: nulls first, numbers as doubles (so INT64s
// equal as doubles tie, and NaN ties with everything), strings bytewise.
// Equal keys keep arrival order.
std::vector<uint32_t> SortOrder(size_t n,
                                const std::vector<ColumnLanes>& columns,
                                const std::vector<int>& sort_columns) {
  std::vector<SortKey> keys(sort_columns.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    const ColumnLanes& column = columns[sort_columns[k]];
    SortKey& key = keys[k];
    key.nulls = column.nulls.data();
    if (column.type == DataType::kVarchar) {
      key.strings = column.values.strings.data();
    } else if (column.type == DataType::kFloat64) {
      key.numbers = column.values.doubles.data();
    } else {
      key.widened.resize(n);
      for (size_t i = 0; i < n; ++i) {
        key.widened[i] = column.values.NumberAt(column.type, i);
      }
      key.numbers = key.widened.data();
    }
  }
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (const SortKey& key : keys) {
      if (key.nulls[a] || key.nulls[b]) {
        if (key.nulls[a] && key.nulls[b]) continue;
        return key.nulls[a] != 0;
      }
      if (key.strings != nullptr) {
        int c = key.strings[a].compare(key.strings[b]);
        if (c != 0) return c < 0;
      } else {
        if (key.numbers[a] < key.numbers[b]) return true;
        if (key.numbers[b] < key.numbers[a]) return false;
      }
    }
    return false;
  });
  return order;
}

// Reorders `vec` by `order` (no-op when null or empty).
template <typename T>
void Permute(const std::vector<uint32_t>& order, std::vector<T>* vec) {
  if (vec == nullptr || vec->empty()) return;
  std::vector<T> out;
  out.reserve(vec->size());
  for (uint32_t i : order) out.push_back(std::move((*vec)[i]));
  *vec = std::move(out);
}

void Permute(const std::vector<uint32_t>& order, ColumnLanes* column) {
  Permute(order, &column->nulls);
  column->values.Visit(column->type,
                       [&order](auto& lane) { Permute(order, &lane); });
}

// Compacts the rows of `column` from `base` on to those whose keep flag
// (indexed from `base`) is set, adding the kept rows' raw sizes to
// *raw_bytes in row order.
void KeepRows(const std::vector<bool>& keep, size_t base, ColumnLanes* column,
              double* raw_bytes) {
  column->values.Visit(column->type, [&](auto& lane) {
    size_t out = base;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i]) continue;
      size_t row = base + i;
      if (!column->nulls[row]) {
        *raw_bytes += column->values.RawSize(column->type, row);
      }
      column->nulls[out] = column->nulls[row];
      lane[out] = lane[row];
      ++out;
    }
    lane.resize(out);
    column->nulls.resize(out);
  });
}

// Content key of one full row for multiset matching (same sentinel
// scheme as the SQL layer's group keys: \x01 null, \x02 separator).
// Types are fixed per column, so display strings are unambiguous.
std::string RowContentKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    if (v.is_null()) {
      key.push_back('\x01');
    } else {
      v.AppendDisplayString(&key);
    }
    key.push_back('\x02');
  }
  return key;
}

}  // namespace

Result<RosContainer> RosContainer::Create(
    const Schema& schema, const std::vector<Row>& rows, TxnId pending_txn,
    const std::vector<Encoding>* encodings) {
  double raw_bytes = 0;
  for (const Row& row : rows) {
    FABRIC_RETURN_IF_ERROR(ValidateRow(schema, row));
    raw_bytes += RowRawSize(row);
  }
  std::vector<ColumnLanes> columns;
  for (int c = 0; c < schema.num_columns(); ++c) {
    columns.emplace_back(schema.column(c).type);
    FABRIC_RETURN_IF_ERROR(AppendRowColumn(rows, c, &columns.back()));
  }
  return CreateFromColumns(schema, columns,
                           static_cast<uint32_t>(rows.size()), raw_bytes,
                           pending_txn, encodings);
}

Result<RosContainer> RosContainer::CreateFromColumns(
    const Schema& schema, const std::vector<ColumnLanes>& columns,
    uint32_t num_rows, double raw_bytes, TxnId pending_txn,
    const std::vector<Encoding>* encodings) {
  FABRIC_CHECK(static_cast<int>(columns.size()) == schema.num_columns());
  RosContainer container;
  container.num_rows_ = num_rows;
  container.pending_txn_ = pending_txn;
  container.raw_bytes_ = raw_bytes;
  container.delete_marks_.resize(num_rows);
  for (int c = 0; c < schema.num_columns(); ++c) {
    FABRIC_CHECK(columns[c].type == schema.column(c).type &&
                 columns[c].size() == num_rows);
    const Encoding* forced =
        encodings != nullptr && c < static_cast<int>(encodings->size())
            ? &(*encodings)[c]
            : nullptr;
    ColumnBounds bounds;
    FABRIC_ASSIGN_OR_RETURN(ColumnChunk chunk,
                            EncodeLanes(columns[c], forced, &bounds));
    container.columns_.push_back(std::move(chunk));
    container.min_values_.push_back(std::move(bounds.min));
    container.max_values_.push_back(std::move(bounds.max));
  }
  return container;
}

Result<const DecodedColumn*> RosContainer::decoded_column(int col) const {
  std::vector<std::unique_ptr<DecodedColumn>>& slots = decoded_.slots;
  if (slots.empty()) slots.resize(columns_.size());
  if (slots[col] == nullptr) {
    FABRIC_ASSIGN_OR_RETURN(slots[col], DecodeColumnBatches(columns_[col]));
  }
  return slots[col].get();
}

double RosContainer::encoded_bytes() const {
  double total = 0;
  for (const ColumnChunk& chunk : columns_) total += chunk.encoded_bytes();
  return total;
}

Result<std::vector<Row>> RosContainer::DecodeRows() const {
  std::vector<Row> rows(num_rows_);
  for (auto& row : rows) row.reserve(columns_.size());
  for (const ColumnChunk& chunk : columns_) {
    ColumnLanes column(chunk.type);
    FABRIC_RETURN_IF_ERROR(DecodeColumnInto(chunk, &column));
    FABRIC_CHECK(column.size() == num_rows_);
    for (uint32_t i = 0; i < num_rows_; ++i) {
      rows[i].push_back(column.Box(i));
    }
  }
  return rows;
}

void RosContainer::AdoptRowEpochs(std::vector<Epoch> epochs) {
  FABRIC_CHECK(epochs.size() == num_rows_)
      << "row epoch vector must cover every row";
  pending_txn_ = 0;
  if (epochs.empty()) {
    commit_epoch_ = 0;
    min_epoch_ = 0;
    row_epochs_.clear();
    return;
  }
  Epoch lo = epochs.front();
  Epoch hi = epochs.front();
  for (Epoch e : epochs) {
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  commit_epoch_ = hi;
  min_epoch_ = lo;
  if (lo == hi) {
    row_epochs_.clear();  // uniform: the scalar epoch suffices
  } else {
    row_epochs_ = std::move(epochs);
  }
}

bool VersionVisible(TxnId owner_txn, Epoch commit_epoch,
                    const DeleteMark& mark, Epoch as_of, TxnId txn) {
  // Insert visibility.
  if (owner_txn != 0) {
    if (owner_txn != txn) return false;  // someone else's pending insert
  } else if (commit_epoch > as_of) {
    return false;  // committed after the snapshot
  }
  // Delete visibility.
  switch (mark.state) {
    case DeleteMark::State::kNone:
      return true;
    case DeleteMark::State::kPending:
      return mark.txn != txn;  // own pending delete hides the row
    case DeleteMark::State::kCommitted:
      return mark.epoch > as_of;  // deleted after the snapshot => visible
  }
  return true;
}

Status SegmentStore::InsertPending(TxnId txn, std::vector<Row> rows) {
  FABRIC_CHECK(txn != 0) << "InsertPending requires a transaction";
  for (const Row& row : rows) {
    FABRIC_RETURN_IF_ERROR(ValidateRow(schema_, row));
  }
  for (Row& row : rows) CoerceRow(schema_, &row);
  WosBatch batch;
  batch.pending_txn = txn;
  batch.delete_marks.resize(rows.size());
  batch.rows = std::move(rows);
  wos_.push_back(std::move(batch));
  return Status::OK();
}

SegmentStore::ColumnRows::ColumnRows(const Schema& schema) {
  columns.reserve(static_cast<size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    columns.emplace_back(schema.column(c).type);
  }
}

Status SegmentStore::AppendRows(const std::vector<Row>& rows,
                                ColumnRows* out) const {
  for (int c = 0; c < schema_.num_columns(); ++c) {
    FABRIC_RETURN_IF_ERROR(AppendRowColumn(rows, c, &out->columns[c]));
  }
  for (const Row& row : rows) out->raw_bytes += RowRawSize(row);
  return Status::OK();
}

Status SegmentStore::GatherColumns(const RosContainer& container,
                                   const std::vector<bool>* keep,
                                   ColumnRows* out) const {
  for (int c = 0; c < schema_.num_columns(); ++c) {
    ColumnLanes& column = out->columns[c];
    size_t base = column.size();
    FABRIC_RETURN_IF_ERROR(DecodeColumnInto(container.column(c), &column));
    if (keep != nullptr) KeepRows(*keep, base, &column, &out->raw_bytes);
  }
  if (keep == nullptr) out->raw_bytes += container.raw_bytes();
  for (uint32_t i = 0; i < container.num_rows(); ++i) {
    if (keep != nullptr && !(*keep)[i]) continue;
    out->marks.push_back(container.delete_marks()[i]);
    out->epochs.push_back(container.row_epoch(i));
  }
  return Status::OK();
}

Result<RosContainer> SegmentStore::BuildFromColumns(ColumnRows rows,
                                                    bool sort,
                                                    TxnId pending_txn) const {
  uint32_t num_rows = static_cast<uint32_t>(rows.marks.size());
  if (sort && design_.sorted() && num_rows > 1) {
    std::vector<uint32_t> order =
        SortOrder(num_rows, rows.columns, design_.sort_columns);
    for (ColumnLanes& column : rows.columns) Permute(order, &column);
    Permute(order, &rows.marks);
    Permute(order, &rows.epochs);
  }
  // A committed rebuild is created under temporary txn id 1 (the pending
  // contract); AdoptRowEpochs commits it at the original per-row epochs.
  FABRIC_ASSIGN_OR_RETURN(
      RosContainer container,
      RosContainer::CreateFromColumns(
          schema_, rows.columns, num_rows, rows.raw_bytes,
          pending_txn != 0 ? pending_txn : 1,
          design_.encodings.empty() ? nullptr : &design_.encodings));
  if (pending_txn == 0) container.AdoptRowEpochs(std::move(rows.epochs));
  container.mutable_delete_marks() = std::move(rows.marks);
  return container;
}

Status SegmentStore::InsertPendingDirect(TxnId txn, std::vector<Row> rows) {
  FABRIC_CHECK(txn != 0) << "InsertPendingDirect requires a transaction";
  for (const Row& row : rows) {
    FABRIC_RETURN_IF_ERROR(ValidateRow(schema_, row));
  }
  for (Row& row : rows) CoerceRow(schema_, &row);
  ColumnRows columns(schema_);
  FABRIC_RETURN_IF_ERROR(AppendRows(rows, &columns));
  columns.marks.resize(rows.size());
  FABRIC_ASSIGN_OR_RETURN(
      RosContainer container,
      BuildFromColumns(std::move(columns), /*sort=*/true, txn));
  ros_.push_back(std::move(container));
  return Status::OK();
}

Result<int64_t> SegmentStore::DeletePending(
    TxnId txn, Epoch as_of, const std::function<bool(const Row&)>& pred) {
  FABRIC_CHECK(txn != 0) << "DeletePending requires a transaction";
  int64_t marked = 0;
  for (RosContainer& container : ros_) {
    if (!container.committed() && container.pending_txn() != txn) continue;
    FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows, container.DecodeRows());
    auto& marks = container.mutable_delete_marks();
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (!VersionVisible(container.committed() ? 0 : container.pending_txn(),
                          container.row_epoch(i), marks[i], as_of, txn)) {
        continue;
      }
      if (!pred(rows[i])) continue;
      marks[i] = DeleteMark{DeleteMark::State::kPending, 0, txn};
      ++marked;
    }
  }
  for (WosBatch& batch : wos_) {
    if (!batch.committed() && batch.pending_txn != txn) continue;
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      if (!VersionVisible(batch.committed() ? 0 : batch.pending_txn,
                          batch.commit_epoch, batch.delete_marks[i], as_of,
                          txn)) {
        continue;
      }
      if (!pred(batch.rows[i])) continue;
      batch.delete_marks[i] = DeleteMark{DeleteMark::State::kPending, 0, txn};
      ++marked;
    }
  }
  return marked;
}

void SegmentStore::CommitTxn(TxnId txn, Epoch epoch) {
  auto commit_marks = [&](std::vector<DeleteMark>& marks) {
    for (DeleteMark& mark : marks) {
      if (mark.state == DeleteMark::State::kPending && mark.txn == txn) {
        mark = DeleteMark{DeleteMark::State::kCommitted, epoch, 0};
        ++committed_deletes_;
      }
    }
  };
  for (RosContainer& container : ros_) {
    if (!container.committed() && container.pending_txn() == txn) {
      container.MarkCommitted(epoch);
    }
    commit_marks(container.mutable_delete_marks());
  }
  for (WosBatch& batch : wos_) {
    if (!batch.committed() && batch.pending_txn == txn) {
      batch.pending_txn = 0;
      batch.commit_epoch = epoch;
    }
    commit_marks(batch.delete_marks);
  }
}

void SegmentStore::AbortTxn(TxnId txn) {
  ros_.erase(std::remove_if(ros_.begin(), ros_.end(),
                            [txn](const RosContainer& c) {
                              return !c.committed() && c.pending_txn() == txn;
                            }),
             ros_.end());
  wos_.erase(std::remove_if(wos_.begin(), wos_.end(),
                            [txn](const WosBatch& b) {
                              return !b.committed() && b.pending_txn == txn;
                            }),
             wos_.end());
  auto clear_marks = [txn](std::vector<DeleteMark>& marks) {
    for (DeleteMark& mark : marks) {
      if (mark.state == DeleteMark::State::kPending && mark.txn == txn) {
        mark = DeleteMark{};
      }
    }
  };
  for (RosContainer& container : ros_) {
    clear_marks(container.mutable_delete_marks());
  }
  for (WosBatch& batch : wos_) clear_marks(batch.delete_marks);
}

Result<int64_t> SegmentStore::CountVisible(Epoch as_of, TxnId txn) const {
  // Visibility needs only delete marks and epochs — no column decode.
  int64_t count = 0;
  for (const RosContainer& container : ros_) {
    if (!container.committed() && container.pending_txn() != txn) continue;
    if (container.committed() && container.min_epoch() > as_of) continue;
    TxnId owner = container.committed() ? 0 : container.pending_txn();
    const auto& marks = container.delete_marks();
    for (uint32_t i = 0; i < marks.size(); ++i) {
      if (VersionVisible(owner, container.row_epoch(i), marks[i], as_of,
                         txn)) {
        ++count;
      }
    }
  }
  for (const WosBatch& batch : wos_) {
    if (!batch.committed() && batch.pending_txn != txn) continue;
    if (batch.committed() && batch.commit_epoch > as_of) continue;
    TxnId owner = batch.committed() ? 0 : batch.pending_txn;
    for (const DeleteMark& mark : batch.delete_marks) {
      if (VersionVisible(owner, batch.commit_epoch, mark, as_of, txn)) {
        ++count;
      }
    }
  }
  return count;
}

Result<std::vector<uint32_t>> SegmentStore::SelectRosRows(
    const RosContainer& container, const ScanSpec& spec, ScanStats* stats,
    LaneRows* emit) const {
  SelectionVector sel;
  if (!container.committed() && container.pending_txn() != spec.txn) {
    return sel;
  }
  if (container.committed() && container.min_epoch() > spec.as_of) {
    ++stats->containers_pruned_epoch;
    return sel;
  }

  // Row visibility from the delete marks alone.
  TxnId owner = container.committed() ? 0 : container.pending_txn();
  const auto& marks = container.delete_marks();
  sel.reserve(container.num_rows());
  for (uint32_t i = 0; i < container.num_rows(); ++i) {
    if (VersionVisible(owner, container.row_epoch(i), marks[i],
                       spec.as_of, spec.txn)) {
      sel.push_back(i);
    }
  }
  stats->rows_visible += static_cast<int64_t>(sel.size());

  // Cost accounting happens before any pruning: the virtual-time model
  // charges the predicate columns for every visible row whether or not
  // the container can produce matches (the row-at-a-time path evaluated
  // the predicate on each of them).
  if (spec.cost_columns != nullptr) {
    for (int c : *spec.cost_columns) {
      FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
          container, c, sel,
          [&](const DecodedColumn& column, const ColumnBatch& batch,
              size_t first, size_t last) {
            SelectionVector sub(sel.begin() + first, sel.begin() + last);
            MeasureColumn(column, batch, sub, &stats->visible_profile);
            return Status::OK();
          }));
    }
  }
  if (sel.empty()) return sel;

  if (spec.predicate != nullptr) {
    const ScanPredicate& pred = *spec.predicate;
    if (pred.always_false) {
      sel.clear();
      return sel;
    }
    // Min/max pruning: skip the whole container before touching any
    // column payload when no value in range can pass a compare term.
    for (const CompareTerm& term : pred.compares) {
      if (!CompareTermCanMatch(term, container.min_value(term.column),
                               container.max_value(term.column))) {
        ++stats->containers_pruned_minmax;
        sel.clear();
        return sel;
      }
    }
    ++stats->containers_scanned;
    // Comparison kernels on the encoded columns, most selective first
    // would be ideal; we run them in analyzer order.
    for (const CompareTerm& term : pred.compares) {
      if (sel.empty()) return sel;
      SelectionVector refined;
      refined.reserve(sel.size());
      FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
          container, term.column, sel,
          [&](const DecodedColumn& column, const ColumnBatch& batch,
              size_t first, size_t last) {
            SelectionVector sub(sel.begin() + first, sel.begin() + last);
            FilterCompare(term, column, batch, &sub);
            refined.insert(refined.end(), sub.begin(), sub.end());
            return Status::OK();
          }));
      sel.swap(refined);
    }
    // NULL tests need only the null flags.
    for (const NullTestTerm& term : pred.null_tests) {
      if (sel.empty()) return sel;
      FABRIC_ASSIGN_OR_RETURN(const DecodedColumn* column,
                              container.decoded_column(term.column));
      FilterNullTest(term, column->nulls.data(), &sel);
    }
    // Hash-range terms: combine per-column hashes for the surviving
    // rows, then apply the ring bounds.
    for (const HashRangeTerm& term : pred.hash_ranges) {
      if (sel.empty()) return sel;
      std::vector<uint64_t> acc(sel.size(), kSegmentationHashSeed);
      for (int c : term.columns) {
        FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
            container, c, sel,
            [&](const DecodedColumn& column, const ColumnBatch& batch,
                size_t first, size_t last) {
              SelectionVector sub(sel.begin() + first, sel.begin() + last);
              std::vector<uint64_t> sub_acc(acc.begin() + first,
                                            acc.begin() + last);
              AccumulateHash(column, batch, sub, &sub_acc);
              std::copy(sub_acc.begin(), sub_acc.end(),
                        acc.begin() + first);
              return Status::OK();
            }));
      }
      FilterHashRange(term, &acc, &sel);
    }
  } else {
    ++stats->containers_scanned;
  }
  if (sel.empty()) return sel;

  // Residual predicate: materialize only the columns it reads, at the
  // selected positions, as lanes for the compiled residual; box them into
  // rows only when the interpreter decides.
  if (spec.residual) {
    LaneRows scratch(schema_);
    scratch.num_rows = sel.size();
    std::vector<int> none;
    const std::vector<int>& residual_columns =
        spec.residual_columns != nullptr ? *spec.residual_columns : none;
    for (int c : residual_columns) {
      scratch.columns[c].Resize(sel.size());
      FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
          container, c, sel,
          [&](const DecodedColumn& column, const ColumnBatch& batch,
              size_t first, size_t last) {
            SelectionVector sub(sel.begin() + first, sel.begin() + last);
            GatherColumn(column, batch, sub, &scratch.columns[c], first);
            return Status::OK();
          }));
    }
    bool handled = false;
    if (spec.batch_residual) {
      std::vector<uint32_t> keep;
      if (spec.batch_residual(scratch, &keep)) {
        SelectionVector kept;
        kept.reserve(keep.size());
        for (uint32_t k : keep) kept.push_back(sel[k]);
        sel.swap(kept);
        handled = true;
      }
    }
    if (!handled) {
      SelectionVector kept;
      kept.reserve(sel.size());
      Row row(static_cast<size_t>(schema_.num_columns()));
      for (size_t k = 0; k < sel.size(); ++k) {
        for (int c : residual_columns) row[c] = scratch.columns[c].Box(k);
        FABRIC_ASSIGN_OR_RETURN(bool keep, spec.residual(row));
        if (keep) kept.push_back(sel[k]);
      }
      sel.swap(kept);
    }
  }
  if (sel.empty() || emit == nullptr) return sel;

  // Late materialization of the projection for the survivors.
  std::vector<int> all;
  const std::vector<int>* projection = spec.projection;
  if (projection == nullptr) {
    all = AllColumns(schema_);
    projection = &all;
  }
  size_t out_base = emit->num_rows;
  emit->num_rows += sel.size();
  for (int c : *projection) {
    emit->columns[c].Resize(emit->num_rows);
    FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
        container, c, sel,
        [&](const DecodedColumn& column, const ColumnBatch& batch,
            size_t first, size_t last) {
          SelectionVector sub(sel.begin() + first, sel.begin() + last);
          MeasureColumn(column, batch, sub, &stats->output_profile);
          GatherColumn(column, batch, sub, &emit->columns[c],
                       out_base + first);
          return Status::OK();
        }));
  }
  stats->rows_emitted += static_cast<int64_t>(sel.size());
  return sel;
}

Result<LaneRows> SegmentStore::Scan(const ScanSpec& spec,
                                    ScanStats* stats) const {
  LaneRows out(schema_);
  auto at_limit = [&] {
    return spec.limit >= 0 &&
           static_cast<int64_t>(out.num_rows) >= spec.limit;
  };
  for (const RosContainer& container : ros_) {
    if (at_limit()) break;
    FABRIC_RETURN_IF_ERROR(
        SelectRosRows(container, spec, stats, &out).status());
  }
  // WOS rows are uncompressed; filter them row-at-a-time.
  std::vector<int> all;
  const std::vector<int>* projection = spec.projection;
  if (projection == nullptr) {
    all = AllColumns(schema_);
    projection = &all;
  }
  for (const WosBatch& batch : wos_) {
    if (at_limit()) break;
    if (!batch.committed() && batch.pending_txn != spec.txn) continue;
    if (batch.committed() && batch.commit_epoch > spec.as_of) continue;
    TxnId owner = batch.committed() ? 0 : batch.pending_txn;
    for (size_t i = 0; i < batch.rows.size() && !at_limit(); ++i) {
      if (!VersionVisible(owner, batch.commit_epoch, batch.delete_marks[i],
                          spec.as_of, spec.txn)) {
        continue;
      }
      const Row& row = batch.rows[i];
      ++stats->rows_visible;
      if (spec.cost_columns != nullptr) {
        MeasureRowColumns(row, *spec.cost_columns, &stats->visible_profile);
      }
      if (spec.predicate != nullptr && !spec.predicate->Matches(row)) {
        continue;
      }
      if (spec.residual) {
        FABRIC_ASSIGN_OR_RETURN(bool keep, spec.residual(row));
        if (!keep) continue;
      }
      ++stats->rows_emitted;
      MeasureRowColumns(row, *projection, &stats->output_profile);
      for (int c : *projection) out.columns[c].Push(row[c]);
      ++out.num_rows;
    }
  }
  // A ROS container crossing the cap emits its full selection; trim the
  // overshoot so every caller sees exactly `limit` rows.
  if (spec.limit >= 0 && static_cast<int64_t>(out.num_rows) > spec.limit) {
    stats->rows_emitted -= static_cast<int64_t>(out.num_rows) - spec.limit;
    out.num_rows = static_cast<size_t>(spec.limit);
    for (int c : *projection) out.columns[c].Resize(out.num_rows);
  }
  stats->visible_profile.rows = static_cast<double>(stats->rows_visible);
  stats->output_profile.rows = static_cast<double>(stats->rows_emitted);
  return out;
}

Result<int64_t> SegmentStore::MarkDeletedPending(const ScanSpec& spec,
                                                 std::vector<Row>* victims) {
  FABRIC_CHECK(spec.txn != 0) << "MarkDeletedPending requires a transaction";
  int64_t marked = 0;
  ScanStats ignored;
  LaneRows captured;
  if (victims != nullptr) captured = LaneRows(schema_);
  for (RosContainer& container : ros_) {
    FABRIC_ASSIGN_OR_RETURN(
        std::vector<uint32_t> sel,
        SelectRosRows(container, spec, &ignored,
                      victims != nullptr ? &captured : nullptr));
    auto& marks = container.mutable_delete_marks();
    for (uint32_t pos : sel) {
      marks[pos] = DeleteMark{DeleteMark::State::kPending, 0, spec.txn};
      ++marked;
    }
  }
  if (victims != nullptr) {
    for (size_t i = 0; i < captured.num_rows; ++i) {
      victims->push_back(captured.BoxRow(i));
    }
  }
  for (WosBatch& batch : wos_) {
    if (!batch.committed() && batch.pending_txn != spec.txn) continue;
    if (batch.committed() && batch.commit_epoch > spec.as_of) continue;
    TxnId owner = batch.committed() ? 0 : batch.pending_txn;
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      if (!VersionVisible(owner, batch.commit_epoch, batch.delete_marks[i],
                          spec.as_of, spec.txn)) {
        continue;
      }
      const Row& row = batch.rows[i];
      if (spec.predicate != nullptr && !spec.predicate->Matches(row)) {
        continue;
      }
      if (spec.residual) {
        FABRIC_ASSIGN_OR_RETURN(bool keep, spec.residual(row));
        if (!keep) continue;
      }
      batch.delete_marks[i] = DeleteMark{DeleteMark::State::kPending, 0,
                                         spec.txn};
      if (victims != nullptr) victims->push_back(row);
      ++marked;
    }
  }
  return marked;
}

Result<int64_t> SegmentStore::MarkDeletedPendingByContent(
    TxnId txn, Epoch as_of, const std::vector<Row>& victims) {
  FABRIC_CHECK(txn != 0)
      << "MarkDeletedPendingByContent requires a transaction";
  if (victims.empty()) return 0;
  std::map<std::string, int64_t> remaining;
  for (const Row& row : victims) ++remaining[RowContentKey(row)];
  int64_t marked = 0;
  auto try_mark = [&](const Row& row) {
    auto it = remaining.find(RowContentKey(row));
    if (it == remaining.end() || it->second == 0) return false;
    --it->second;
    ++marked;
    return true;
  };
  for (RosContainer& container : ros_) {
    if (marked == static_cast<int64_t>(victims.size())) break;
    if (!container.committed() && container.pending_txn() != txn) continue;
    if (container.committed() && container.min_epoch() > as_of) continue;
    TxnId owner = container.committed() ? 0 : container.pending_txn();
    FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows, container.DecodeRows());
    auto& marks = container.mutable_delete_marks();
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (!VersionVisible(owner, container.row_epoch(i), marks[i], as_of,
                          txn)) {
        continue;
      }
      if (try_mark(rows[i])) {
        marks[i] = DeleteMark{DeleteMark::State::kPending, 0, txn};
      }
    }
  }
  for (WosBatch& batch : wos_) {
    if (marked == static_cast<int64_t>(victims.size())) break;
    if (!batch.committed() && batch.pending_txn != txn) continue;
    if (batch.committed() && batch.commit_epoch > as_of) continue;
    TxnId owner = batch.committed() ? 0 : batch.pending_txn;
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      if (!VersionVisible(owner, batch.commit_epoch, batch.delete_marks[i],
                          as_of, txn)) {
        continue;
      }
      if (try_mark(batch.rows[i])) {
        batch.delete_marks[i] =
            DeleteMark{DeleteMark::State::kPending, 0, txn};
      }
    }
  }
  return marked;
}

Status SegmentStore::Moveout() {
  // One ROS container absorbs every committed WOS batch; per-row commit
  // epochs keep AT EPOCH reads exact even though the batches committed at
  // different epochs. Delete marks move with their rows (including marks
  // still pending under an open transaction — CommitTxn/AbortTxn walk all
  // containers, so they resolve in their new home). The batches are
  // dropped only once the container is built: its lanes alias their rows.
  size_t total_rows = 0;
  bool any = false;
  for (const WosBatch& batch : wos_) {
    if (!batch.committed()) continue;
    any = true;
    total_rows += batch.rows.size();
  }
  if (!any) return Status::OK();
  auto drop_committed = [this] {
    wos_.erase(std::remove_if(wos_.begin(), wos_.end(),
                              [](const WosBatch& b) { return b.committed(); }),
               wos_.end());
  };
  if (total_rows == 0) {
    drop_committed();
    return Status::OK();
  }
  ColumnRows rows(schema_);
  for (ColumnLanes& column : rows.columns) column.Reserve(total_rows);
  for (const WosBatch& batch : wos_) {
    if (!batch.committed()) continue;
    FABRIC_RETURN_IF_ERROR(AppendRows(batch.rows, &rows));
    rows.marks.insert(rows.marks.end(), batch.delete_marks.begin(),
                      batch.delete_marks.end());
    rows.epochs.insert(rows.epochs.end(), batch.rows.size(),
                       batch.commit_epoch);
  }
  FABRIC_ASSIGN_OR_RETURN(RosContainer container,
                          BuildFromColumns(std::move(rows), /*sort=*/true));
  drop_committed();
  ros_.push_back(std::move(container));
  return Status::OK();
}

Result<double> SegmentStore::MergeRosContainers(
    const std::vector<int>& indices) {
  if (indices.size() < 2) return 0.0;  // nothing to merge
  std::vector<int> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  for (size_t k = 0; k < sorted.size(); ++k) {
    int idx = sorted[k];
    if (idx < 0 || idx >= static_cast<int>(ros_.size())) {
      return InvalidArgumentError(
          StrCat("mergeout index ", idx, " out of range"));
    }
    if (k > 0 && sorted[k - 1] == idx) {
      return InvalidArgumentError(StrCat("duplicate mergeout index ", idx));
    }
    if (!ros_[idx].committed()) {
      return FailedPreconditionError(
          StrCat("mergeout of uncommitted container ", idx));
    }
  }
  // Gathered as lanes and re-encoded column by column: the merged
  // container is the one RosContainer::Create would build from the
  // decoded rows. The sources stay in place until it is built, since the
  // lanes alias their chunks.
  ColumnRows rows(schema_);
  size_t total_rows = 0;
  for (int idx : sorted) total_rows += ros_[idx].num_rows();
  for (ColumnLanes& column : rows.columns) column.Reserve(total_rows);
  rows.marks.reserve(total_rows);
  rows.epochs.reserve(total_rows);
  for (int idx : sorted) {
    FABRIC_RETURN_IF_ERROR(GatherColumns(ros_[idx], nullptr, &rows));
  }
  double bytes = rows.raw_bytes;
  FABRIC_ASSIGN_OR_RETURN(RosContainer merged,
                          BuildFromColumns(std::move(rows), /*sort=*/true));
  int insert_at = sorted.front();
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    ros_.erase(ros_.begin() + *it);
  }
  ros_.insert(ros_.begin() + insert_at, std::move(merged));
  return bytes;
}

Result<int64_t> SegmentStore::PurgeDeletedRows(Epoch ahm) {
  int64_t purged = 0;
  auto purgeable = [ahm](const DeleteMark& mark) {
    return mark.state == DeleteMark::State::kCommitted && mark.epoch <= ahm;
  };
  // Every rewrite is built before the first is installed, so a failed
  // one leaves the store untouched.
  std::vector<bool> drop(ros_.size());
  std::vector<std::pair<size_t, RosContainer>> rebuilt;
  for (size_t k = 0; k < ros_.size(); ++k) {
    const RosContainer& c = ros_[k];
    if (!c.committed() ||
        std::none_of(c.delete_marks().begin(), c.delete_marks().end(),
                     purgeable)) {
      continue;
    }
    std::vector<bool> keep(c.num_rows());
    int64_t kept = 0;
    for (uint32_t i = 0; i < c.num_rows(); ++i) {
      keep[i] = !purgeable(c.delete_marks()[i]);
      kept += keep[i] ? 1 : 0;
    }
    purged += static_cast<int64_t>(c.num_rows()) - kept;
    if (kept == 0) {
      drop[k] = true;
      continue;
    }
    ColumnRows rows(schema_);
    FABRIC_RETURN_IF_ERROR(GatherColumns(c, &keep, &rows));
    // Dropping rows from a design-sorted container keeps it sorted, so no
    // re-sort is needed here.
    FABRIC_ASSIGN_OR_RETURN(RosContainer container,
                            BuildFromColumns(std::move(rows), /*sort=*/false));
    rebuilt.emplace_back(k, std::move(container));
  }
  for (auto& [k, container] : rebuilt) ros_[k] = std::move(container);
  size_t out = 0;
  for (size_t k = 0; k < ros_.size(); ++k) {
    if (drop[k]) continue;
    if (out != k) ros_[out] = std::move(ros_[k]);
    ++out;
  }
  ros_.erase(ros_.begin() + static_cast<long>(out), ros_.end());
  for (WosBatch& batch : wos_) {
    if (!batch.committed()) continue;
    size_t out = 0;
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      if (purgeable(batch.delete_marks[i])) {
        ++purged;
        continue;
      }
      if (out != i) {
        batch.rows[out] = std::move(batch.rows[i]);
        batch.delete_marks[out] = batch.delete_marks[i];
      }
      ++out;
    }
    batch.rows.resize(out);
    batch.delete_marks.resize(out);
  }
  wos_.erase(std::remove_if(wos_.begin(), wos_.end(),
                            [](const WosBatch& b) {
                              return b.committed() && b.rows.empty();
                            }),
             wos_.end());
  committed_deletes_ -= purged;
  return purged;
}

double SegmentStore::TotalRawBytes() const {
  double total = 0;
  for (const RosContainer& c : ros_) total += c.raw_bytes();
  for (const WosBatch& b : wos_) {
    for (const Row& row : b.rows) total += RowRawSize(row);
  }
  return total;
}

double SegmentStore::TotalEncodedBytes() const {
  double total = 0;
  for (const RosContainer& c : ros_) total += c.encoded_bytes();
  for (const WosBatch& b : wos_) {
    for (const Row& row : b.rows) total += RowRawSize(row);
  }
  return total;
}

int SegmentStore::num_committed_wos_batches() const {
  int count = 0;
  for (const WosBatch& b : wos_) {
    if (b.committed()) ++count;
  }
  return count;
}

double SegmentStore::CommittedWosRawBytes() const {
  double total = 0;
  for (const WosBatch& b : wos_) {
    if (!b.committed()) continue;
    for (const Row& row : b.rows) total += RowRawSize(row);
  }
  return total;
}

std::vector<ContainerStats> SegmentStore::RosStats() const {
  std::vector<ContainerStats> stats;
  stats.reserve(ros_.size());
  for (const RosContainer& c : ros_) {
    ContainerStats s;
    s.committed = c.committed();
    s.pending_txn = c.pending_txn();
    s.min_epoch = c.min_epoch();
    s.max_epoch = c.commit_epoch();
    s.rows = static_cast<int64_t>(c.num_rows());
    for (const DeleteMark& mark : c.delete_marks()) {
      if (mark.state == DeleteMark::State::kCommitted) ++s.deleted_rows;
    }
    s.raw_bytes = c.raw_bytes();
    s.encoded_bytes = c.encoded_bytes();
    stats.push_back(s);
  }
  return stats;
}

double SegmentStore::RawBytesSince(Epoch epoch) const {
  double total = 0;
  for (const RosContainer& c : ros_) {
    if (!c.committed() || c.min_epoch() > epoch) {
      total += c.raw_bytes();
    } else if (c.commit_epoch() > epoch && c.num_rows() > 0) {
      // Mixed-epoch container (moveout/mergeout output): charge the
      // recovering node's pull proportionally to the rows it is missing.
      // This is a cost-model approximation only — the atomic clone at the
      // end of recovery copies full contents regardless.
      uint32_t newer = 0;
      for (uint32_t i = 0; i < c.num_rows(); ++i) {
        if (c.row_epoch(i) > epoch) ++newer;
      }
      total += c.raw_bytes() * static_cast<double>(newer) /
               static_cast<double>(c.num_rows());
    }
  }
  for (const WosBatch& b : wos_) {
    if (b.committed() && b.commit_epoch <= epoch) continue;
    for (const Row& row : b.rows) total += RowRawSize(row);
  }
  return total;
}

namespace {

uint64_t FoldMark(uint64_t h, const DeleteMark& mark) {
  h = HashCombine(h, static_cast<uint64_t>(mark.state));
  h = HashCombine(h, mark.epoch);
  return HashCombine(h, mark.txn);
}

uint64_t FoldRow(uint64_t h, const Row& row) {
  for (const Value& v : row) {
    h = HashCombine(h, v.is_null() ? 0x9e3779b97f4a7c15ULL
                                   : HashBytes(v.ToDisplayString()));
  }
  return h;
}

}  // namespace

uint64_t SegmentStore::ContentFingerprint() const {
  // Buddy copies of one segment hold the same logical content in
  // legitimately different physical layouts: WOS batches land in
  // transfer-completion order and ROS container boundaries depend on
  // moveout timing. The checksum therefore folds per-row digests with a
  // commutative sum — it sees every row with its (commit epoch, owning
  // txn, deletion state) and nothing about layout.
  uint64_t total = 0;
  auto fold_one = [&](Epoch epoch, TxnId pending_txn, const Row& row,
                      const DeleteMark& mark) {
    uint64_t h = HashCombine(HashInt64(static_cast<int64_t>(epoch)),
                             pending_txn);
    total += FoldMark(FoldRow(h, row), mark);
  };
  for (const RosContainer& c : ros_) {
    Result<std::vector<Row>> rows = c.DecodeRows();
    FABRIC_CHECK(rows.ok()) << rows.status();
    for (size_t i = 0; i < rows->size(); ++i) {
      fold_one(c.row_epoch(static_cast<uint32_t>(i)), c.pending_txn(),
               (*rows)[i], c.delete_marks()[i]);
    }
  }
  for (const WosBatch& b : wos_) {
    for (size_t i = 0; i < b.rows.size(); ++i) {
      fold_one(b.commit_epoch, b.pending_txn, b.rows[i],
               b.delete_marks[i]);
    }
  }
  return total;
}

void SegmentStore::CopyContentsFrom(const SegmentStore& other) {
  ros_ = other.ros_;
  wos_ = other.wos_;
  committed_deletes_ = other.committed_deletes_;
}

}  // namespace fabric::storage
