#include "storage/segment_store.h"

#include <algorithm>
#include <optional>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "storage/column_cursor.h"

namespace fabric::storage {

namespace {

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

// The rows of `unit` as lanes of its own column types, without encoding
// it: its own lanes when it was never read, else its chunks decoded into
// `*decoded` (which must hold no columns).
Result<const LaneViewRows*> LanesOf(const RosContainer& unit,
                                    LaneViewRows* decoded) {
  if (unit.lanes() != nullptr) return unit.lanes();
  FABRIC_RETURN_IF_ERROR(unit.ReadInto(decoded));
  return decoded;
}

// One sort column's keys: its null flags, and its slots as strings or
// as doubles (INT64 and BOOL lanes widened once).
struct SortKey {
  const uint8_t* nulls = nullptr;
  const std::string_view* strings = nullptr;  // VARCHAR columns
  const double* numbers = nullptr;            // numeric columns
  std::vector<double> widened;
};

// Stable permutation ordering `rows` by `sort_columns` in Value::Compare
// order: nulls first, numbers as doubles (so INT64s equal as doubles tie,
// and NaN ties with everything), strings bytewise. Equal keys keep
// arrival order.
std::vector<uint32_t> SortOrder(const LaneViewRows& rows,
                                const std::vector<int>& sort_columns) {
  const size_t n = rows.num_rows;
  std::vector<SortKey> keys(sort_columns.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    const LaneViews& column = rows.columns[sort_columns[k]];
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

}  // namespace

Result<RosContainer> RosContainer::CreateFromColumns(
    const Schema& schema, LaneViewRows rows, double raw_bytes,
    TxnId pending_txn, const std::vector<Encoding>* encodings) {
  FABRIC_CHECK(static_cast<int>(rows.columns.size()) == schema.num_columns());
  const uint32_t num_rows = static_cast<uint32_t>(rows.num_rows);
  auto lanes = std::make_shared<Unencoded>();
  size_t bytes = 0;
  for (int c = 0; c < schema.num_columns(); ++c) {
    const LaneViews& column = rows.columns[c];
    FABRIC_CHECK(column.type == schema.column(c).type &&
                 column.size() == num_rows);
    for (std::string_view s : column.values.strings) bytes += s.size();
  }
  std::string& arena = lanes->arena;
  arena.reserve(bytes);  // never reallocated, so the views stay valid
  for (LaneViews& column : rows.columns) {
    for (std::string_view& s : column.values.strings) {
      arena.append(s);
      s = std::string_view(arena).substr(arena.size() - s.size());
    }
  }
  lanes->rows = std::move(rows);
  if (encodings != nullptr) lanes->encodings = *encodings;
  RosContainer container;
  container.num_rows_ = num_rows;
  container.pending_txn_ = pending_txn;
  container.raw_bytes_ = raw_bytes;
  container.delete_marks_.resize(num_rows);
  container.lanes_ = std::move(lanes);
  return container;
}

void RosContainer::Encode() const {
  if (lanes_ == nullptr) return;
  const std::vector<LaneViews>& columns = lanes_->rows.columns;
  const std::vector<Encoding>& encodings = lanes_->encodings;
  for (size_t c = 0; c < columns.size(); ++c) {
    const Encoding* forced = c < encodings.size() ? &encodings[c] : nullptr;
    ColumnBounds bounds;
    Result<ColumnChunk> chunk =
        EncodeLanes(columns[c], forced, has_bounds_ ? nullptr : &bounds);
    FABRIC_CHECK(chunk.ok()) << chunk.status();
    columns_.push_back(std::move(*chunk));
    if (!has_bounds_) {
      min_values_.push_back(std::move(bounds.min));
      max_values_.push_back(std::move(bounds.max));
    }
  }
  has_bounds_ = true;
  lanes_.reset();
}

void RosContainer::MeasureBounds() const {
  if (has_bounds_) return;  // else the lanes are still held
  for (const LaneViews& column : lanes_->rows.columns) {
    ColumnBounds bounds = LaneBounds(column);
    min_values_.push_back(std::move(bounds.min));
    max_values_.push_back(std::move(bounds.max));
  }
  has_bounds_ = true;
}

Result<const DecodedColumn*> RosContainer::decoded_column(int col) const {
  Encode();
  std::vector<std::unique_ptr<DecodedColumn>>& slots = decoded_.slots;
  if (slots.empty()) slots.resize(columns_.size());
  if (slots[col] == nullptr) {
    FABRIC_ASSIGN_OR_RETURN(slots[col], DecodeColumnBatches(columns_[col]));
  }
  return slots[col].get();
}

double RosContainer::encoded_bytes() const {
  Encode();
  double total = 0;
  for (const ColumnChunk& chunk : columns_) total += chunk.encoded_bytes();
  return total;
}

Status RosContainer::ReadInto(LaneViewRows* out) const {
  if (lanes_ != nullptr) return out->Append(lanes_->rows);
  if (out->columns.empty()) {
    for (const ColumnChunk& chunk : columns_) {
      out->columns.emplace_back(chunk.type);
    }
  }
  if (out->columns.size() != columns_.size()) {
    return InvalidArgumentError(StrCat("reading ", columns_.size(),
                                       " columns into ", out->columns.size()));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    FABRIC_RETURN_IF_ERROR(DecodeColumnInto(columns_[c], &out->columns[c]));
  }
  out->num_rows += num_rows_;
  return Status::OK();
}

void RosContainer::SetDeleteMarks(std::vector<DeleteMark> marks) {
  FABRIC_CHECK(marks.size() == num_rows_) << "one delete mark per row";
  delete_marks_ = std::move(marks);
  pending_deletes_ = 0;
  for (const DeleteMark& mark : delete_marks_) {
    pending_deletes_ += mark.state == DeleteMark::State::kPending ? 1 : 0;
  }
}

void RosContainer::MarkDeletePending(uint32_t i, TxnId txn) {
  DeleteMark& mark = delete_marks_[i];
  if (mark.state != DeleteMark::State::kPending) ++pending_deletes_;
  mark = DeleteMark{DeleteMark::State::kPending, 0, txn};
}

int64_t RosContainer::ResolveDeletes(TxnId txn, Epoch epoch, bool abort) {
  if (pending_deletes_ == 0) return 0;
  int64_t resolved = 0;
  for (DeleteMark& mark : delete_marks_) {
    if (mark.state != DeleteMark::State::kPending || mark.txn != txn) {
      continue;
    }
    mark = abort ? DeleteMark{}
                 : DeleteMark{DeleteMark::State::kCommitted, epoch, 0};
    ++resolved;
  }
  pending_deletes_ -= static_cast<uint32_t>(resolved);
  return resolved;
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

Status SegmentStore::GatherColumns(const RosContainer& container,
                                   ColumnRows* out) const {
  FABRIC_RETURN_IF_ERROR(container.ReadInto(&out->lanes));
  out->raw_bytes += container.raw_bytes();
  for (uint32_t i = 0; i < container.num_rows(); ++i) {
    out->marks.push_back(container.delete_marks()[i]);
    out->epochs.push_back(container.row_epoch(i));
  }
  return Status::OK();
}

Result<RosContainer> SegmentStore::BuildFromColumns(ColumnRows rows,
                                                    Layout layout,
                                                    TxnId pending_txn) const {
  if (layout == Layout::kRos && design_.sorted() && rows.lanes.num_rows > 1) {
    std::vector<uint32_t> order = SortOrder(rows.lanes, design_.sort_columns);
    rows.lanes = rows.lanes.Take(order);
    Permute(order, &rows.marks);
    Permute(order, &rows.epochs);
  }
  // A WOS unit is PLAIN: nothing reads its encoded size, and PLAIN is the
  // cheapest encoding to write and to decode.
  std::vector<Encoding> plain;
  const std::vector<Encoding>* encodings =
      design_.encodings.empty() ? nullptr : &design_.encodings;
  if (layout == Layout::kWos) {
    plain.assign(static_cast<size_t>(schema_.num_columns()), Encoding::kPlain);
    encodings = &plain;
  }
  // A committed rebuild is created under temporary txn id 1 (the pending
  // contract); AdoptRowEpochs commits it at the original per-row epochs.
  FABRIC_ASSIGN_OR_RETURN(
      RosContainer container,
      RosContainer::CreateFromColumns(schema_, std::move(rows.lanes),
                                      rows.raw_bytes,
                                      pending_txn != 0 ? pending_txn : 1,
                                      encodings));
  if (pending_txn == 0) container.AdoptRowEpochs(std::move(rows.epochs));
  container.SetDeleteMarks(std::move(rows.marks));
  return container;
}

Result<RosContainer> SegmentStore::MergeUnits(
    const std::vector<const RosContainer*>& units) const {
  // Gathered as lanes (a never-read unit's own, an encoded one's
  // decoded) into the one container RosContainer::Create would build
  // from the decoded rows. The lanes alias the sources' arenas or
  // chunks, which must stay as they are until it is built.
  ColumnRows rows;
  rows.lanes = LaneViewRows(schema_);
  size_t total_rows = 0;
  for (const RosContainer* unit : units) total_rows += unit->num_rows();
  for (LaneViews& column : rows.lanes.columns) column.Reserve(total_rows);
  rows.marks.reserve(total_rows);
  rows.epochs.reserve(total_rows);
  for (const RosContainer* unit : units) {
    FABRIC_RETURN_IF_ERROR(GatherColumns(*unit, &rows));
  }
  return BuildFromColumns(std::move(rows), Layout::kRos);
}

Result<RosContainer> SegmentStore::BuildPending(TxnId txn,
                                                LaneViewRows batch,
                                                double raw_bytes,
                                                bool direct) const {
  FABRIC_CHECK(txn != 0) << "an insert requires a transaction";
  ColumnRows rows;
  rows.raw_bytes = raw_bytes;
  rows.marks.resize(batch.num_rows);
  rows.lanes = std::move(batch);
  return BuildFromColumns(std::move(rows),
                          direct ? Layout::kRos : Layout::kWos, txn);
}

void SegmentStore::AddPending(RosContainer unit, bool direct) {
  (direct ? ros_ : wos_).push_back(std::move(unit));
  wos_tally_.Count(wos_.size());
}

Status SegmentStore::InsertPending(TxnId txn, LaneViewRows batch,
                                   bool direct) {
  const double raw_bytes = ProfileRows(batch).raw_bytes;
  FABRIC_ASSIGN_OR_RETURN(
      RosContainer unit, BuildPending(txn, std::move(batch), raw_bytes, direct));
  AddPending(std::move(unit), direct);
  return Status::OK();
}

void SegmentStore::CommitTxn(TxnId txn, Epoch epoch) {
  for (std::vector<RosContainer>* units : {&ros_, &wos_}) {
    for (RosContainer& unit : *units) {
      if (!unit.committed() && unit.pending_txn() == txn) {
        unit.MarkCommitted(epoch);
      }
      committed_deletes_ += unit.ResolveDeletes(txn, epoch, /*abort=*/false);
    }
  }
}

void SegmentStore::AbortTxn(TxnId txn) {
  for (std::vector<RosContainer>* units : {&ros_, &wos_}) {
    std::erase_if(*units, [txn](const RosContainer& unit) {
      return !unit.committed() && unit.pending_txn() == txn;
    });
    for (RosContainer& unit : *units) {
      unit.ResolveDeletes(txn, 0, /*abort=*/true);
    }
  }
  wos_tally_.Count(wos_.size());
}

Result<int64_t> SegmentStore::CountVisible(Epoch as_of, TxnId txn) const {
  // Visibility needs only delete marks and epochs — no column decode.
  int64_t count = 0;
  for (const std::vector<RosContainer>* units : {&ros_, &wos_}) {
    for (const RosContainer& unit : *units) {
      if (!unit.committed() && unit.pending_txn() != txn) continue;
      if (unit.committed() && unit.min_epoch() > as_of) continue;
      TxnId owner = unit.committed() ? 0 : unit.pending_txn();
      const auto& marks = unit.delete_marks();
      for (uint32_t i = 0; i < marks.size(); ++i) {
        if (VersionVisible(owner, unit.row_epoch(i), marks[i], as_of, txn)) {
          ++count;
        }
      }
    }
  }
  return count;
}

namespace {

// Narrows `sel` (visible positions of `container`) to the rows passing
// `pred`'s kernels. Returns false, with `sel` cleared, when the whole
// container is skipped unread: an always-false predicate, or min/max
// bounds no compare term can pass.
Result<bool> FilterPredicate(const RosContainer& container,
                             const ScanPredicate& pred, SelectionVector* sel) {
  if (pred.always_false) {
    sel->clear();
    return false;
  }
  // Min/max pruning: skip the whole container before touching any
  // column payload when no value in range can pass a compare term.
  for (const CompareTerm& term : pred.compares) {
    if (!CompareTermCanMatch(term, container.min_value(term.column),
                             container.max_value(term.column))) {
      sel->clear();
      return false;
    }
  }
  // Comparison kernels on the encoded columns, most selective first
  // would be ideal; we run them in analyzer order.
  for (const CompareTerm& term : pred.compares) {
    if (sel->empty()) return true;
    SelectionVector refined;
    refined.reserve(sel->size());
    FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
        container, term.column, *sel,
        [&](const DecodedColumn& column, const ColumnBatch& batch,
            size_t first, size_t last) {
          SelectionVector sub(sel->begin() + first, sel->begin() + last);
          FilterCompare(term, column, batch, &sub);
          refined.insert(refined.end(), sub.begin(), sub.end());
          return Status::OK();
        }));
    sel->swap(refined);
  }
  // NULL tests need only the null flags.
  for (const NullTestTerm& term : pred.null_tests) {
    if (sel->empty()) return true;
    FABRIC_ASSIGN_OR_RETURN(const DecodedColumn* column,
                            container.decoded_column(term.column));
    FilterNullTest(term, column->nulls.data(), sel);
  }
  // Hash-range terms: combine per-column hashes for the surviving rows,
  // then apply the ring bounds.
  for (const HashRangeTerm& term : pred.hash_ranges) {
    if (sel->empty()) return true;
    std::vector<uint64_t> acc(sel->size(), kSegmentationHashSeed);
    for (int c : term.columns) {
      FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
          container, c, *sel,
          [&](const DecodedColumn& column, const ColumnBatch& batch,
              size_t first, size_t last) {
            SelectionVector sub(sel->begin() + first, sel->begin() + last);
            std::vector<uint64_t> sub_acc(acc.begin() + first,
                                          acc.begin() + last);
            AccumulateHash(column, batch, sub, &sub_acc);
            std::copy(sub_acc.begin(), sub_acc.end(), acc.begin() + first);
            return Status::OK();
          }));
    }
    FilterHashRange(term, &acc, sel);
  }
  return true;
}

}  // namespace

Status SegmentStore::ApplyResidual(const RosContainer& container,
                                   const ScanSpec& spec, int64_t cap,
                                   SelectionVector* sel) const {
  // Materialize only the columns the residual reads, at the selected
  // positions, as lanes for the compiled residual; box them into rows
  // only when the interpreter decides.
  LaneRows scratch(schema_);
  scratch.num_rows = sel->size();
  std::vector<int> none;
  const std::vector<int>& residual_columns =
      spec.residual_columns != nullptr ? *spec.residual_columns : none;
  for (int c : residual_columns) {
    scratch.columns[c].Resize(sel->size());
    FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
        container, c, *sel,
        [&](const DecodedColumn& column, const ColumnBatch& batch,
            size_t first, size_t last) {
          SelectionVector sub(sel->begin() + first, sel->begin() + last);
          GatherColumn(column, batch, sub, &scratch.columns[c], first);
          return Status::OK();
        }));
  }
  SelectionVector kept;
  std::vector<uint32_t> keep;
  if (cap <= 0 && spec.batch_residual && spec.batch_residual(scratch, &keep)) {
    kept.reserve(keep.size());
    for (uint32_t k : keep) kept.push_back((*sel)[k]);
  } else {
    kept.reserve(sel->size());
    Row row(static_cast<size_t>(schema_.num_columns()));
    for (size_t k = 0; k < sel->size(); ++k) {
      if (cap > 0 && static_cast<int64_t>(kept.size()) == cap) break;
      for (int c : residual_columns) row[c] = scratch.columns[c].Box(k);
      FABRIC_ASSIGN_OR_RETURN(bool pass, spec.residual(row));
      if (pass) kept.push_back((*sel)[k]);
    }
  }
  sel->swap(kept);
  return Status::OK();
}

Result<std::vector<uint32_t>> SegmentStore::SelectRosRows(
    const RosContainer& container, const ScanSpec& spec, bool wos,
    int64_t cap, ScanStats* stats, LaneRows* emit) const {
  if ((!container.committed() && container.pending_txn() != spec.txn) ||
      (container.committed() && container.min_epoch() > spec.as_of)) {
    return SelectionVector{};
  }

  // Row visibility from the delete marks alone.
  TxnId owner = container.committed() ? 0 : container.pending_txn();
  const auto& marks = container.delete_marks();
  SelectionVector visible;
  visible.reserve(container.num_rows());
  for (uint32_t i = 0; i < container.num_rows(); ++i) {
    if (VersionVisible(owner, container.row_epoch(i), marks[i], spec.as_of,
                       spec.txn)) {
      visible.push_back(i);
    }
  }

  SelectionVector sel = visible;
  if (!sel.empty()) {
    bool scanned = true;
    if (spec.predicate != nullptr) {
      FABRIC_ASSIGN_OR_RETURN(
          scanned, FilterPredicate(container, *spec.predicate, &sel));
    }
    if (scanned && !wos) ++stats->containers_scanned;
  }
  if (!sel.empty() && spec.residual) {
    FABRIC_RETURN_IF_ERROR(ApplyResidual(container, spec, cap, &sel));
  }
  // A capped WOS unit is read up to the row that fills the cap.
  if (cap > 0 && static_cast<int64_t>(sel.size()) >= cap) {
    sel.resize(static_cast<size_t>(cap));
    visible.erase(std::upper_bound(visible.begin(), visible.end(), sel.back()),
                  visible.end());
  }

  // Cost accounting covers every visible row, pruned or not: the
  // virtual-time model charges the predicate columns for each of them
  // whether or not the container can produce matches (the only saving
  // of pruning is host time).
  stats->rows_visible += static_cast<int64_t>(visible.size());
  if (spec.cost_columns != nullptr) {
    for (int c : *spec.cost_columns) {
      FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
          container, c, visible,
          [&](const DecodedColumn& column, const ColumnBatch& batch,
              size_t first, size_t last) {
            SelectionVector sub(visible.begin() + first,
                                visible.begin() + last);
            MeasureColumn(column, batch, sub, &stats->visible_profile);
            return Status::OK();
          }));
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
  const bool limited = spec.limit >= 0;
  for (const std::vector<RosContainer>* units : {&ros_, &wos_}) {
    const bool wos = units == &wos_;
    for (const RosContainer& unit : *units) {
      int64_t room = spec.limit - static_cast<int64_t>(out.num_rows);
      if (limited && room <= 0) break;
      FABRIC_RETURN_IF_ERROR(
          SelectRosRows(unit, spec, wos, limited && wos ? room : 0, stats,
                        &out)
              .status());
    }
  }
  // A ROS container crossing the cap emits its full selection; trim the
  // overshoot so every caller sees exactly `limit` rows (columns outside
  // the projection hold no rows).
  if (limited && static_cast<int64_t>(out.num_rows) > spec.limit) {
    stats->rows_emitted -= static_cast<int64_t>(out.num_rows) - spec.limit;
    out.num_rows = static_cast<size_t>(spec.limit);
    for (Lanes& column : out.columns) {
      if (column.size() > out.num_rows) column.Resize(out.num_rows);
    }
  }
  stats->visible_profile.rows = static_cast<double>(stats->rows_visible);
  stats->output_profile.rows = static_cast<double>(stats->rows_emitted);
  return out;
}

Result<int64_t> SegmentStore::MarkDeletedPending(const ScanSpec& spec,
                                                 LaneRows* victims) {
  FABRIC_CHECK(spec.txn != 0) << "MarkDeletedPending requires a transaction";
  if (victims != nullptr &&
      victims->columns.size() != static_cast<size_t>(schema_.num_columns())) {
    return InvalidArgumentError("delete victims need one lane per column");
  }
  int64_t marked = 0;
  ScanStats ignored;
  for (std::vector<RosContainer>* units : {&ros_, &wos_}) {
    for (RosContainer& unit : *units) {
      FABRIC_ASSIGN_OR_RETURN(
          std::vector<uint32_t> sel,
          SelectRosRows(unit, spec, units == &wos_, /*cap=*/0, &ignored,
                        victims));
      for (uint32_t pos : sel) {
        unit.MarkDeletePending(pos, spec.txn);
        ++marked;
      }
    }
  }
  return marked;
}

VictimKeys::VictimKeys(const LaneViewRows& victims)
    : num_rows(static_cast<int64_t>(victims.num_rows)) {
  std::vector<int> all(victims.columns.size());
  for (size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  std::string key;
  for (size_t i = 0; i < victims.num_rows; ++i) {
    key.clear();
    victims.AppendKey(i, all, &key);
    auto [it, added] = slot.try_emplace(key, count.size());
    if (added) count.push_back(0);
    ++count[it->second];
  }
}

Result<int64_t> SegmentStore::MarkDeletedPendingByContent(
    TxnId txn, Epoch as_of, const VictimKeys& victims) {
  FABRIC_CHECK(txn != 0)
      << "MarkDeletedPendingByContent requires a transaction";
  const std::vector<int> all = AllColumns(schema_);
  std::vector<int64_t> remaining = victims.count;
  std::string key;
  int64_t marked = 0;
  for (std::vector<RosContainer>* units : {&ros_, &wos_}) {
    for (RosContainer& unit : *units) {
      if (marked == victims.num_rows) return marked;
      if (!unit.committed() && unit.pending_txn() != txn) continue;
      if (unit.committed() && unit.min_epoch() > as_of) continue;
      TxnId owner = unit.committed() ? 0 : unit.pending_txn();
      LaneViewRows decoded;
      FABRIC_ASSIGN_OR_RETURN(const LaneViewRows* rows,
                              LanesOf(unit, &decoded));
      const auto& marks = unit.delete_marks();
      for (uint32_t i = 0; i < rows->num_rows; ++i) {
        if (!VersionVisible(owner, unit.row_epoch(i), marks[i], as_of, txn)) {
          continue;
        }
        key.clear();
        rows->AppendKey(i, all, &key);
        auto it = victims.slot.find(key);
        if (it == victims.slot.end() || remaining[it->second] == 0) continue;
        --remaining[it->second];
        ++marked;
        unit.MarkDeletePending(i, txn);
      }
    }
  }
  return marked;
}

Status SegmentStore::Moveout() {
  // One ROS container absorbs every committed WOS unit; per-row commit
  // epochs keep AT EPOCH reads exact even though the units committed at
  // different epochs. Delete marks move with their rows (including marks
  // still pending under an open transaction — CommitTxn/AbortTxn walk all
  // containers, so they resolve in their new home). The units are
  // dropped only once the container is built: its lanes alias them.
  std::vector<const RosContainer*> committed;
  for (const RosContainer& unit : wos_) {
    if (unit.committed()) committed.push_back(&unit);
  }
  if (committed.empty()) return Status::OK();
  FABRIC_ASSIGN_OR_RETURN(RosContainer container, MergeUnits(committed));
  std::erase_if(wos_,
                [](const RosContainer& unit) { return unit.committed(); });
  wos_tally_.Count(wos_.size());
  if (container.num_rows() > 0) ros_.push_back(std::move(container));
  return Status::OK();
}

Result<double> SegmentStore::MergeRosContainers(
    const std::vector<int>& indices) {
  if (indices.size() < 2) return 0.0;  // nothing to merge
  std::vector<int> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  std::vector<const RosContainer*> units;
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
    units.push_back(&ros_[idx]);
  }
  FABRIC_ASSIGN_OR_RETURN(RosContainer merged, MergeUnits(units));
  double bytes = merged.raw_bytes();
  // The merged container takes the first input's slot and the others
  // close up in one pass (erasing them one at a time would shift every
  // later container once per input).
  ros_[sorted.front()] = std::move(merged);
  size_t out = static_cast<size_t>(sorted[1]);
  for (size_t i = out, k = 1; i < ros_.size(); ++i) {
    if (k < sorted.size() && static_cast<size_t>(sorted[k]) == i) {
      ++k;
    } else {
      ros_[out++] = std::move(ros_[i]);
    }
  }
  ros_.erase(ros_.begin() + static_cast<long>(out), ros_.end());
  return bytes;
}

Result<int64_t> SegmentStore::PurgeDeletedRows(Epoch ahm) {
  auto purgeable = [ahm](const DeleteMark& mark) {
    return mark.state == DeleteMark::State::kCommitted && mark.epoch <= ahm;
  };
  // Every rewrite is built before the first is installed, so a failed
  // one leaves the store untouched. A rewrite without a container drops
  // its unit.
  struct Rewrite {
    std::vector<RosContainer>* units;
    size_t index;
    std::optional<RosContainer> rebuilt;
  };
  std::vector<Rewrite> rewrites;
  int64_t purged = 0;
  for (std::vector<RosContainer>* units : {&ros_, &wos_}) {
    for (size_t k = 0; k < units->size(); ++k) {
      const RosContainer& c = (*units)[k];
      if (!c.committed() ||
          std::none_of(c.delete_marks().begin(), c.delete_marks().end(),
                       purgeable)) {
        continue;
      }
      std::vector<uint32_t> kept;
      for (uint32_t i = 0; i < c.num_rows(); ++i) {
        if (!purgeable(c.delete_marks()[i])) kept.push_back(i);
      }
      purged += static_cast<int64_t>(c.num_rows() - kept.size());
      if (kept.empty()) {
        rewrites.push_back({units, k, std::nullopt});
        continue;
      }
      ColumnRows all;
      all.lanes = LaneViewRows(schema_);
      FABRIC_RETURN_IF_ERROR(GatherColumns(c, &all));
      ColumnRows rows;
      rows.lanes = all.lanes.Take(kept);
      rows.raw_bytes = ProfileRows(rows.lanes).raw_bytes;
      for (uint32_t i : kept) {
        rows.marks.push_back(all.marks[i]);
        rows.epochs.push_back(all.epochs[i]);
      }
      // Dropping rows from a design-sorted container keeps it sorted, so
      // no re-sort is needed here.
      FABRIC_ASSIGN_OR_RETURN(
          RosContainer container,
          BuildFromColumns(std::move(rows),
                           units == &wos_ ? Layout::kWos : Layout::kRosAsIs));
      rewrites.push_back({units, k, std::move(container)});
    }
  }
  // Last first, so an erase never shifts a unit still to be rewritten.
  for (auto it = rewrites.rbegin(); it != rewrites.rend(); ++it) {
    if (it->rebuilt.has_value()) {
      (*it->units)[it->index] = std::move(*it->rebuilt);
    } else {
      it->units->erase(it->units->begin() + static_cast<long>(it->index));
    }
  }
  committed_deletes_ -= purged;
  wos_tally_.Count(wos_.size());
  return purged;
}

double SegmentStore::TotalRawBytes() const {
  double total = 0;
  for (const std::vector<RosContainer>* units : {&ros_, &wos_}) {
    for (const RosContainer& unit : *units) total += unit.raw_bytes();
  }
  return total;
}

double SegmentStore::TotalEncodedBytes() const {
  double total = 0;
  for (const RosContainer& c : ros_) total += c.encoded_bytes();
  for (const RosContainer& unit : wos_) total += unit.raw_bytes();
  return total;
}

int SegmentStore::num_committed_wos_batches() const {
  return static_cast<int>(
      std::count_if(wos_.begin(), wos_.end(),
                    [](const RosContainer& unit) { return unit.committed(); }));
}

double SegmentStore::CommittedWosRawBytes() const {
  double total = 0;
  for (const RosContainer& unit : wos_) {
    if (unit.committed()) total += unit.raw_bytes();
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
  for (const std::vector<RosContainer>* units : {&ros_, &wos_}) {
    for (const RosContainer& c : *units) {
      if (!c.committed() || c.min_epoch() > epoch) {
        total += c.raw_bytes();
      } else if (c.commit_epoch() > epoch && c.num_rows() > 0) {
        // Mixed-epoch container (moveout/mergeout output): charge the
        // recovering node's pull proportionally to the rows it is
        // missing. This is a cost-model approximation only — the atomic
        // clone at the end of recovery copies full contents regardless.
        uint32_t newer = 0;
        for (uint32_t i = 0; i < c.num_rows(); ++i) {
          if (c.row_epoch(i) > epoch) ++newer;
        }
        total += c.raw_bytes() * static_cast<double>(newer) /
                 static_cast<double>(c.num_rows());
      }
    }
  }
  return total;
}

namespace {

uint64_t FoldMark(uint64_t h, const DeleteMark& mark) {
  h = HashCombine(h, static_cast<uint64_t>(mark.state));
  h = HashCombine(h, mark.epoch);
  return HashCombine(h, mark.txn);
}

}  // namespace

uint64_t SegmentStore::ContentFingerprint() const {
  // Buddy copies of one segment hold the same logical content in
  // legitimately different physical layouts: WOS units land in
  // transfer-completion order and ROS container boundaries depend on
  // moveout timing. The checksum therefore folds per-row digests with a
  // commutative sum — it sees every row with its (commit epoch, owning
  // txn, deletion state) and nothing about layout. A row's content
  // digest is the hash of its AppendKey key.
  const std::vector<int> all = AllColumns(schema_);
  std::string key;
  uint64_t total = 0;
  for (const std::vector<RosContainer>* units : {&ros_, &wos_}) {
    for (const RosContainer& c : *units) {
      LaneViewRows decoded;
      Result<const LaneViewRows*> rows = LanesOf(c, &decoded);
      FABRIC_CHECK(rows.ok()) << rows.status();
      for (uint32_t i = 0; i < c.num_rows(); ++i) {
        key.clear();
        (*rows)->AppendKey(i, all, &key);
        uint64_t h = HashCombine(
            HashInt64(static_cast<int64_t>(c.row_epoch(i))), c.pending_txn());
        total += FoldMark(HashCombine(h, HashBytes(key)), c.delete_marks()[i]);
      }
    }
  }
  return total;
}

void SegmentStore::CopyContentsFrom(const SegmentStore& other) {
  ros_ = other.ros_;
  wos_ = other.wos_;
  committed_deletes_ = other.committed_deletes_;
  wos_tally_.Count(wos_.size());
}

}  // namespace fabric::storage
