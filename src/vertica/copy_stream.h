#ifndef FABRIC_VERTICA_COPY_STREAM_H_
#define FABRIC_VERTICA_COPY_STREAM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "vertica/session.h"

namespace fabric::vertica {

// Programmatic access to Vertica's bulk-load COPY path (the
// VerticaCopyStream Java API the connector uses, Section 3.2.2). Data is
// written in batches under the session's transaction; rows that fail
// schema validation are rejected and counted rather than failing the load
// (the S2V rejected-rows tolerance builds on this).
//
// Wire accounting: by default each batch is charged as Avro-encoded bytes
// travelling client -> node plus parse CPU and intra-cluster routing to
// the owning segments. With `from_local_disk`, the batch is read from the
// node's data disk instead (the native parallel COPY baseline).
class CopyStream {
 public:
  struct Options {
    bool direct = true;           // bulk loads go straight to ROS
    bool from_local_disk = false; // file split already on the node
  };

  struct LoadResult {
    int64_t loaded = 0;
    int64_t rejected = 0;
    std::vector<storage::Row> rejected_sample;  // up to 10 rows
  };

  // Opens a COPY into `table` on the session's node. Requires an open
  // explicit transaction on the session OR autocommit (the stream then
  // commits on Finish). When the database runs named resource pools the
  // load is admitted against the session's pool here and holds its grant
  // until Finish (a bulk load is one long statement).
  static Result<std::unique_ptr<CopyStream>> Open(sim::Process& self,
                                                  Session* session,
                                                  const std::string& table,
                                                  Options options);

  // Abandoned streams (destroyed without Finish) release their admission
  // grant; the open transaction is left to the session's rollback.
  ~CopyStream();

  // Feeds one batch: `batch` (one lane per table column, as the Avro
  // decoder or storage::FromRows builds them, varchar bytes valid until
  // it returns) moves on into the store and `rejects` are counted. Returns
  // CANCELLED if the process is killed; the session's transaction is
  // then left to roll back.
  Status WriteBatch(sim::Process& self, storage::LaneViewRows batch,
                    std::vector<storage::Row> rejects = {});

  // The loaded table's columns, as snapped at Open.
  const storage::Schema& schema() const { return def_.schema; }

  // Ends the stream. Commits iff the session had no explicit transaction
  // open (autocommit). Returns the load counts.
  Result<LoadResult> Finish(sim::Process& self);

 private:
  CopyStream(Session* session, TableDef def, Options options,
             storage::TxnId txn, bool autocommit, wm::Grant grant);

  void ReleaseGrant();

  Session* session_;
  // Owned copy, snapped at Open before the first yield: the catalog
  // entry a pointer would reference can be erased while the stream
  // blocks (admission queue, lock wait) or between batches — S2V's
  // staging promote renames tables with no lock held by this txn.
  TableDef def_;
  Options options_;
  storage::TxnId txn_;
  bool autocommit_;
  bool finished_ = false;
  wm::Grant grant_;
  LoadResult totals_;
};

}  // namespace fabric::vertica

#endif  // FABRIC_VERTICA_COPY_STREAM_H_
