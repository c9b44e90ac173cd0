#ifndef FABRIC_TESTS_SCAN_REFERENCE_H_
#define FABRIC_TESTS_SCAN_REFERENCE_H_

// The row-at-a-time reads the vectorized SegmentStore::Scan is checked
// against: whole containers decoded into boxed rows, visibility applied
// row by row from the delete marks and epochs.

#include <functional>
#include <vector>

#include "common/result.h"
#include "storage/segment_store.h"

namespace fabric::storage {

// Invokes `fn` for every row of `store` visible at `as_of` (plus `txn`'s
// own pending rows when txn != 0), in storage order: ROS containers,
// then WOS batches.
inline Status ScanVisible(const SegmentStore& store, Epoch as_of, TxnId txn,
                          const std::function<Status(const Row&)>& fn) {
  for (const RosContainer& container : store.ros_containers()) {
    if (!container.committed() && container.pending_txn() != txn) continue;
    if (container.committed() && container.min_epoch() > as_of) continue;
    FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows, container.DecodeRows());
    const auto& marks = container.delete_marks();
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (!VersionVisible(container.committed() ? 0 : container.pending_txn(),
                          container.row_epoch(i), marks[i], as_of, txn)) {
        continue;
      }
      FABRIC_RETURN_IF_ERROR(fn(rows[i]));
    }
  }
  for (const WosBatch& batch : store.wos_batches()) {
    if (!batch.committed() && batch.pending_txn != txn) continue;
    if (batch.committed() && batch.commit_epoch > as_of) continue;
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      if (!VersionVisible(batch.committed() ? 0 : batch.pending_txn,
                          batch.commit_epoch, batch.delete_marks[i], as_of,
                          txn)) {
        continue;
      }
      FABRIC_RETURN_IF_ERROR(fn(batch.rows[i]));
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

}  // namespace fabric::storage

#endif  // FABRIC_TESTS_SCAN_REFERENCE_H_
