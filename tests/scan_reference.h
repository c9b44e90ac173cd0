#ifndef FABRIC_TESTS_SCAN_REFERENCE_H_
#define FABRIC_TESTS_SCAN_REFERENCE_H_

// The row-at-a-time reads the vectorized SegmentStore::Scan and the
// lane-based by-content delete and fingerprint are checked against:
// whole containers and WOS units decoded into boxed rows, visibility
// applied row by row from the delete marks and epochs. Plus a
// predicate-lambda delete and boxed-row inserts for building test
// fixtures.

#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "storage/segment_store.h"

namespace fabric::storage {

// Every row of `unit` (of `num_columns` columns), boxed; visibility is
// the caller's. The lanes it holds when never read, else its chunks
// decoded into Values: it encodes nothing.
inline Result<std::vector<Row>> DecodeRows(const RosContainer& unit,
                                           int num_columns) {
  if (unit.lanes() != nullptr) return unit.lanes()->BoxRows();
  std::vector<Row> rows(unit.num_rows());
  for (int c = 0; c < num_columns; ++c) {
    FABRIC_ASSIGN_OR_RETURN(std::vector<Value> column,
                            DecodeColumn(unit.column(c)));
    for (uint32_t i = 0; i < unit.num_rows(); ++i) {
      rows[i].push_back(std::move(column[i]));
    }
  }
  return rows;
}

// The group-key encoding of a whole row (exec::AppendGroupKey's): the
// content key LaneRows::AppendKey builds from lanes.
inline std::string RowKey(const Row& row) {
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

// SegmentStore::ContentFingerprint folded over boxed rows.
inline uint64_t ReferenceFingerprint(const SegmentStore& store) {
  uint64_t total = 0;
  for (const auto* units : {&store.ros_containers(), &store.wos_batches()}) {
    for (const RosContainer& c : *units) {
      std::vector<Row> rows =
          DecodeRows(c, store.schema().num_columns()).value();
      for (uint32_t i = 0; i < rows.size(); ++i) {
        const DeleteMark& mark = c.delete_marks()[i];
        uint64_t h = HashCombine(
            HashInt64(static_cast<int64_t>(c.row_epoch(i))), c.pending_txn());
        h = HashCombine(h, HashBytes(RowKey(rows[i])));
        h = HashCombine(h, static_cast<uint64_t>(mark.state));
        h = HashCombine(h, mark.epoch);
        total += HashCombine(h, mark.txn);
      }
    }
  }
  return total;
}

// The rows SegmentStore::MarkDeletedPendingByContent(txn, as_of,
// victims) marks, matched on boxed rows: (WOS?, unit index, row) in
// storage order. Each victim takes the first unconsumed visible row
// whose RowKey equals its own.
using RowPosition = std::tuple<bool, size_t, uint32_t>;
inline Result<std::vector<RowPosition>> ReferenceDeleteByContent(
    const SegmentStore& store, TxnId txn, Epoch as_of,
    const std::vector<Row>& victims) {
  std::map<std::string, int64_t> remaining;
  for (const Row& row : victims) ++remaining[RowKey(row)];
  std::vector<RowPosition> marked;
  for (const auto* units : {&store.ros_containers(), &store.wos_batches()}) {
    const bool wos = units == &store.wos_batches();
    for (size_t k = 0; k < units->size(); ++k) {
      const RosContainer& unit = (*units)[k];
      if (!unit.committed() && unit.pending_txn() != txn) continue;
      if (unit.committed() && unit.min_epoch() > as_of) continue;
      FABRIC_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          DecodeRows(unit, store.schema().num_columns()));
      for (uint32_t i = 0; i < rows.size(); ++i) {
        if (!VersionVisible(unit.committed() ? 0 : unit.pending_txn(),
                            unit.row_epoch(i), unit.delete_marks()[i], as_of,
                            txn)) {
          continue;
        }
        auto it = remaining.find(RowKey(rows[i]));
        if (it == remaining.end() || it->second == 0) continue;
        --it->second;
        marked.emplace_back(wos, k, i);
      }
    }
  }
  return marked;
}

// Invokes `fn` for every row of `store` visible at `as_of` (plus `txn`'s
// own pending rows when txn != 0), in storage order: ROS containers,
// then WOS units.
inline Status ScanVisible(const SegmentStore& store, Epoch as_of, TxnId txn,
                          const std::function<Status(const Row&)>& fn) {
  for (const auto* units : {&store.ros_containers(), &store.wos_batches()}) {
    for (const RosContainer& unit : *units) {
      if (!unit.committed() && unit.pending_txn() != txn) continue;
      if (unit.committed() && unit.min_epoch() > as_of) continue;
      FABRIC_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          DecodeRows(unit, store.schema().num_columns()));
      const auto& marks = unit.delete_marks();
      for (uint32_t i = 0; i < rows.size(); ++i) {
        if (!VersionVisible(unit.committed() ? 0 : unit.pending_txn(),
                            unit.row_epoch(i), marks[i], as_of, txn)) {
          continue;
        }
        FABRIC_RETURN_IF_ERROR(fn(rows[i]));
      }
    }
  }
  return Status::OK();
}

// The visible rows, materialized.
inline Result<std::vector<Row>> SnapshotRows(const SegmentStore& store,
                                             Epoch as_of, TxnId txn = 0) {
  std::vector<Row> rows;
  FABRIC_RETURN_IF_ERROR(ScanVisible(store, as_of, txn, [&](const Row& row) {
    rows.push_back(row);
    return Status::OK();
  }));
  return rows;
}

// SegmentStore::InsertPending of boxed rows, converted through FromRows
// (so a row the schema refuses fails with ValidateRow's error).
inline Status InsertRows(SegmentStore& store, TxnId txn,
                         const std::vector<Row>& rows) {
  FABRIC_ASSIGN_OR_RETURN(LaneViewRows batch, FromRows(store.schema(), rows));
  return store.InsertPending(txn, std::move(batch));
}

// SegmentStore::InsertPending of boxed rows as a DIRECT container.
inline Status InsertRowsDirect(SegmentStore& store, TxnId txn,
                               const std::vector<Row>& rows) {
  FABRIC_ASSIGN_OR_RETURN(LaneViewRows batch, FromRows(store.schema(), rows));
  return store.InsertPending(txn, std::move(batch), /*direct=*/true);
}

// SegmentStore::MarkDeletedPendingByContent of boxed victims.
inline Result<int64_t> DeleteRowsByContent(SegmentStore& store, TxnId txn,
                                           Epoch as_of,
                                           const std::vector<Row>& victims) {
  FABRIC_ASSIGN_OR_RETURN(LaneViewRows lanes,
                          FromRows(store.schema(), victims));
  return store.MarkDeletedPendingByContent(txn, as_of, VictimKeys(lanes));
}

// The container of `rows` (in this order), pending under `pending_txn`:
// the reference a store's own writes are checked against.
inline Result<RosContainer> ContainerOf(
    const Schema& schema, const std::vector<Row>& rows, TxnId pending_txn,
    const std::vector<Encoding>* encodings = nullptr) {
  FABRIC_ASSIGN_OR_RETURN(LaneViewRows batch, FromRows(schema, rows));
  return RosContainer::CreateFromColumns(schema, std::move(batch),
                                         ProfileRows(rows).raw_bytes,
                                         pending_txn, encodings);
}

// Marks the rows visible to `txn` at `as_of` for which `pred` holds as
// deleted, pending under `txn`: MarkDeletedPending with `pred` as the
// residual over every column. Returns the number of rows marked.
inline Result<int64_t> DeleteWhere(SegmentStore& store, TxnId txn,
                                   Epoch as_of,
                                   std::function<bool(const Row&)> pred) {
  std::vector<int> all(static_cast<size_t>(store.schema().num_columns()));
  std::iota(all.begin(), all.end(), 0);
  ScanSpec spec;
  spec.as_of = as_of;
  spec.txn = txn;
  spec.residual = [&pred](const Row& row) -> Result<bool> {
    return pred(row);
  };
  spec.residual_columns = &all;
  return store.MarkDeletedPending(spec);
}

}  // namespace fabric::storage

#endif  // FABRIC_TESTS_SCAN_REFERENCE_H_
