#ifndef FABRIC_TESTS_SCAN_REFERENCE_H_
#define FABRIC_TESTS_SCAN_REFERENCE_H_

// The row-at-a-time reads the vectorized SegmentStore::Scan is checked
// against: whole containers and WOS units decoded into boxed rows,
// visibility applied row by row from the delete marks and epochs. Plus
// a predicate-lambda delete and boxed-row inserts for building test
// fixtures.

#include <functional>
#include <numeric>
#include <vector>

#include "common/result.h"
#include "storage/segment_store.h"

namespace fabric::storage {

// Invokes `fn` for every row of `store` visible at `as_of` (plus `txn`'s
// own pending rows when txn != 0), in storage order: ROS containers,
// then WOS units.
inline Status ScanVisible(const SegmentStore& store, Epoch as_of, TxnId txn,
                          const std::function<Status(const Row&)>& fn) {
  for (const auto* units : {&store.ros_containers(), &store.wos_batches()}) {
    for (const RosContainer& unit : *units) {
      if (!unit.committed() && unit.pending_txn() != txn) continue;
      if (unit.committed() && unit.min_epoch() > as_of) continue;
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows, unit.DecodeRows());
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
  FABRIC_ASSIGN_OR_RETURN(std::vector<ColumnLanes> columns,
                          FromRows(store.schema(), rows));
  return store.InsertPending(txn, std::move(columns));
}

// SegmentStore::InsertPendingDirect of boxed rows, as InsertRows.
inline Status InsertRowsDirect(SegmentStore& store, TxnId txn,
                               const std::vector<Row>& rows) {
  FABRIC_ASSIGN_OR_RETURN(std::vector<ColumnLanes> columns,
                          FromRows(store.schema(), rows));
  return store.InsertPendingDirect(txn, std::move(columns));
}

// The container of `rows` (in this order), pending under `pending_txn`:
// the reference a store's own writes are checked against.
inline Result<RosContainer> ContainerOf(
    const Schema& schema, const std::vector<Row>& rows, TxnId pending_txn,
    const std::vector<Encoding>* encodings = nullptr) {
  FABRIC_ASSIGN_OR_RETURN(std::vector<ColumnLanes> columns,
                          FromRows(schema, rows));
  return RosContainer::CreateFromColumns(
      schema, std::move(columns), static_cast<uint32_t>(rows.size()),
      ProfileRows(rows).raw_bytes, pending_txn, encodings);
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
