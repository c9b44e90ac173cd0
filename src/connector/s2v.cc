#include "connector/s2v.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "common/string_util.h"
#include "connector/avro.h"
#include "connector/failover.h"
#include "obs/trace.h"
#include "storage/profile.h"
#include "vertica/copy_stream.h"
#include "vertica/session.h"

namespace fabric::connector {

using spark::SaveMode;
using spark::SourceOptions;
using spark::TaskContext;
using storage::DataProfile;
using storage::Row;
using storage::Schema;
using vertica::QueryResult;
using vertica::Session;

Result<std::shared_ptr<S2VRelation>> S2VRelation::Create(
    sim::Process& driver, vertica::Database* db,
    spark::SparkCluster* cluster, const SourceOptions& options,
    SaveMode mode, const Schema& schema, std::string job_name) {
  auto relation = std::shared_ptr<S2VRelation>(new S2VRelation());
  relation->db_ = db;
  relation->cluster_ = cluster;
  FABRIC_ASSIGN_OR_RETURN(relation->target_, options.Get("table"));
  relation->mode_ = mode;
  relation->schema_ = schema;
  relation->job_name_ = std::move(job_name);
  relation->tolerance_ = options.GetDoubleOr("failedrowstolerance", 0.0);
  relation->prehash_ =
      EqualsIgnoreCase(options.GetOr("prehash", "false"), "true");
  relation->resource_pool_ = options.GetOr("resource_pool", "");
  relation->batch_rows_ = static_cast<int>(
      options.GetIntOr("batchrows", 5000));
  relation->staging_table_ =
      StrCat(relation->target_, "_stage_", relation->job_name_);
  relation->status_table_ =
      StrCat("s2v_task_status_", relation->job_name_);
  relation->committer_table_ =
      StrCat("s2v_last_committer_", relation->job_name_);
  if (options.Has("host")) {
    FABRIC_ASSIGN_OR_RETURN(std::string host, options.Get("host"));
    FABRIC_ASSIGN_OR_RETURN(relation->entry_node_, db->ResolveNode(host));
  }
  (void)driver;
  return relation;
}

std::function<int(const storage::Row&)> S2VRelation::Partitioner(
    int num_partitions) {
  if (!prehash_) return nullptr;
  // The staging table uses the default segmentation (the first one or
  // two columns); rows of node n go to tasks congruent to n modulo the
  // node count, cycling within each node's task group for balance.
  std::vector<int> seg_columns;
  for (int i = 0; i < std::min(2, schema_.num_columns()); ++i) {
    seg_columns.push_back(i);
  }
  int nodes = db_->num_nodes();
  auto cursors = std::make_shared<std::vector<int>>(nodes, 0);
  return [this, seg_columns, nodes, cursors,
          num_partitions](const storage::Row& row) -> int {
    uint64_t h = storage::RowSegmentationHash(row, seg_columns);
    int owner = vertica::RingSegmentOf(h, nodes);
    int group = std::max(1, num_partitions / nodes);
    int slot = (*cursors)[owner]++ % group;
    int task = owner + slot * nodes;
    return task < num_partitions ? task : owner;
  };
}

Status S2VRelation::Setup(sim::Process& driver, int num_partitions) {
  num_partitions_ = num_partitions;
  FABRIC_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      ConnectWithFailover(driver, db_, entry_node_,
                          &cluster_->driver_host()));
  session->set_resource_pool(resource_pool_);

  // Mode checks against the current target.
  bool target_exists = db_->catalog().HasTable(target_);
  if (mode_ == SaveMode::kErrorIfExists && target_exists) {
    return AlreadyExistsError(
        StrCat("table '", target_, "' exists (mode ErrorIfExists)"));
  }
  if (mode_ == SaveMode::kAppend && target_exists) {
    FABRIC_ASSIGN_OR_RETURN(const vertica::TableDef* def,
                            db_->catalog().GetTable(target_));
    if (!(def->schema == schema_)) {
      return InvalidArgumentError(
          StrCat("append schema mismatch on '", target_, "'"));
    }
  }
  if (mode_ == SaveMode::kAppend && !target_exists) {
    FABRIC_RETURN_IF_ERROR(
        session->Execute(driver, StrCat("CREATE TABLE ", target_, " (",
                                        schema_.ToDdlBody(), ")"))
            .status());
  }

  // The staging table plus the three bookkeeping tables (Section 3.2).
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver, StrCat("CREATE TABLE ", staging_table_,
                                      " (", schema_.ToDdlBody(), ")"))
          .status());
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver,
                       StrCat("CREATE TABLE ", status_table_,
                              " (task INTEGER, inserted INTEGER, failed "
                              "INTEGER, done BOOLEAN) UNSEGMENTED ALL "
                              "NODES"))
          .status());
  std::string status_rows;
  for (int p = 0; p < num_partitions_; ++p) {
    if (p > 0) status_rows += ", ";
    status_rows += StrCat("(", p, ", 0, 0, FALSE)");
  }
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver, StrCat("INSERT INTO ", status_table_,
                                      " VALUES ", status_rows))
          .status());
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver, StrCat("CREATE TABLE ", committer_table_,
                                      " (task INTEGER) UNSEGMENTED ALL "
                                      "NODES"))
          .status());
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver, StrCat("INSERT INTO ", committer_table_,
                                      " VALUES (-1)"))
          .status());
  // Permanent job record: survives total Spark failure (users consult it
  // to learn the job's fate).
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver,
                       StrCat("CREATE TABLE IF NOT EXISTS ",
                              kFinalStatusTable,
                              " (job VARCHAR, failed_pct FLOAT, finished "
                              "BOOLEAN) UNSEGMENTED ALL NODES"))
          .status());
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver, StrCat("INSERT INTO ", kFinalStatusTable,
                                      " VALUES ('", job_name_,
                                      "', 0.0, FALSE)"))
          .status());
  // Bookkeeping tables hold real (unscaled) row counts.
  db_->MarkScaleExempt(status_table_);
  db_->MarkScaleExempt(committer_table_);
  db_->MarkScaleExempt(kFinalStatusTable);
  obs::TraceEvent("s2v", "save.setup",
                  {{"job", job_name_},
                   {"partitions", num_partitions_},
                   {"append", mode_ == SaveMode::kAppend}});
  return session->Close(driver);
}

Status S2VRelation::StageData(TaskContext& task, int partition,
                              const std::vector<Row>& rows,
                              Session* session) {
  sim::Process& self = *task.process;
  const CostModel& cost = cluster_->cost();

  FABRIC_RETURN_IF_ERROR(session->Execute(self, "BEGIN").status());
  FABRIC_ASSIGN_OR_RETURN(
      std::unique_ptr<vertica::CopyStream> stream,
      vertica::CopyStream::Open(self, session, staging_table_,
                                vertica::CopyStream::Options{}));
  int64_t loaded = 0;
  int64_t rejected = 0;
  // Batch so each COPY buffer is ~32 MB at cost-model scale: the task
  // then alternates encode / transfer / parse at a granularity that
  // pipelines (Section 4.2.1), independent of data_scale.
  size_t batch = static_cast<size_t>(batch_rows_);
  if (!rows.empty()) {
    double scaled_row_bytes =
        storage::ProfileRow(rows.front()).raw_bytes * cost.data_scale;
    if (scaled_row_bytes > 0) {
      // Deterministic per-task jitter (+-25%) keeps the fleet of COPY
      // streams out of lockstep, so one task's network phase overlaps
      // another's parse phase — the desynchronization a real cluster
      // gets for free from TCP and OS scheduling noise.
      double jitter = 0.75 + 0.5 * ((partition % 7) / 6.0);
      batch = std::max<size_t>(
          1, static_cast<size_t>(32e6 * jitter / scaled_row_bytes));
      batch = std::min(batch, static_cast<size_t>(batch_rows_));
    }
  }
  for (size_t begin = 0; begin < rows.size() || begin == 0;
       begin += batch) {
    std::span<const Row> batch_rows =
        std::span(rows).subspan(begin, std::min(batch, rows.size() - begin));
    // Encode the batch into Avro on the Spark side (the task alternates
    // between encoding and transferring, Section 4.2.1). The encode is
    // real — the bytes travel through the codec — and the CPU is charged
    // to this worker. COPY reads the decoded lanes, whose strings view
    // `encoded`.
    std::string encoded = AvroEncodeBatch(schema_, batch_rows);
    DataProfile profile = storage::ProfileRows(batch_rows);
    profile.ScaleBy(cost.data_scale);
    FABRIC_RETURN_IF_ERROR(task.Compute(profile.AvroEncodeCpu(cost)));
    FABRIC_ASSIGN_OR_RETURN(AvroBatch decoded,
                            AvroDecodeBatch(schema_, encoded));
    FABRIC_RETURN_IF_ERROR(stream->WriteBatch(self, std::move(decoded.lanes),
                                              std::move(decoded.rejects)));
    if (rows.empty()) break;
  }
  FABRIC_ASSIGN_OR_RETURN(vertica::CopyStream::LoadResult load,
                          stream->Finish(self));
  loaded = load.loaded;
  rejected = load.rejected;

  // Conditional done-flag update under the same transaction as the COPY:
  // a duplicate attempt finds done already TRUE and aborts, discarding
  // its copy of the data (Phase 1).
  FABRIC_ASSIGN_OR_RETURN(
      QueryResult updated,
      session->Execute(self,
                       StrCat("UPDATE ", status_table_, " SET done = TRUE",
                              ", inserted = ", loaded,
                              ", failed = ", rejected, " WHERE task = ",
                              partition, " AND done = FALSE")));
  if (updated.affected == 1) {
    Status committed = session->Execute(self, "COMMIT").status();
    // Traced at the durability point, not the ack: a kill inside the
    // commit/ack window (the Section 2.2.2 hazard) still staged this
    // partition exactly once, and the trace must say so — while a kill
    // before durability must leave no commit event at all.
    if (session->last_commit_epoch() != 0) {
      obs::TraceEvent(
          "s2v", "phase1.commit",
          {{"job", job_name_},
           {"partition", partition},
           {"attempt", task.attempt},
           {"loaded", loaded},
           {"rejected", rejected},
           {"epoch", static_cast<int64_t>(session->last_commit_epoch())},
           {"acked", committed.ok()}});
      obs::IncrCounter("s2v.phase1_commits");
    }
    return committed;
  }
  obs::TraceEvent("s2v", "phase1.duplicate",
                  {{"job", job_name_},
                   {"partition", partition},
                   {"attempt", task.attempt}});
  obs::IncrCounter("s2v.phase1_duplicates");
  return session->Execute(self, "ROLLBACK").status();
}

Status S2VRelation::WriteTaskPartition(TaskContext& task, int partition,
                                       const std::vector<Row>& rows) {
  sim::Process& self = *task.process;
  // Tasks spread their connections across the Vertica nodes (the driver
  // looked all addresses up during setup, Section 3.2).
  int node = partition % db_->num_nodes();
  // Failover: a DOWN preferred node re-targets the ring successor, so a
  // save keeps going through a single Vertica node loss. A node killed
  // mid-phase surfaces as UNAVAILABLE from the statement instead; Spark
  // then retries the whole task, which reconnects here.
  FABRIC_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      ConnectWithFailover(self, db_, node, &task.worker_host()));
  session->set_resource_pool(resource_pool_);

  // ---- Phase 1: stage the data + mark done, transactionally.
  Status staged = StageData(task, partition, rows, session.get());
  if (staged.code() == StatusCode::kNotFound) {
    // Overwrite promotion renames the staging table away, so a retry of
    // a task killed inside the promote/ack window finds nothing to COPY
    // into. The permanent job record settles what that means: if the
    // finished flag is durably TRUE the save already published and this
    // retry has nothing left to do; otherwise surface the error.
    FABRIC_RETURN_IF_ERROR(session->Execute(self, "ROLLBACK").status());
    FABRIC_ASSIGN_OR_RETURN(
        QueryResult final_row,
        session->Execute(self, StrCat("SELECT finished FROM ",
                                      kFinalStatusTable, " WHERE job = '",
                                      job_name_, "'")));
    bool finished = !final_row.rows.empty() &&
                    !final_row.rows[0][0].is_null() &&
                    final_row.rows[0][0].bool_value();
    if (finished) {
      obs::TraceEvent("s2v", "phase1.already_promoted",
                      {{"job", job_name_},
                       {"partition", partition},
                       {"attempt", task.attempt}});
      return session->Close(self);
    }
    return staged;
  }
  FABRIC_RETURN_IF_ERROR(staged);

  // ---- Phase 2: are all tasks done?
  FABRIC_ASSIGN_OR_RETURN(
      QueryResult remaining,
      session->Execute(self, StrCat("SELECT COUNT(*) FROM ", status_table_,
                                    " WHERE done = FALSE")));
  if (remaining.rows[0][0].int64_value() > 0) {
    obs::TraceEvent("s2v", "phase2.incomplete",
                    {{"job", job_name_},
                     {"partition", partition},
                     {"attempt", task.attempt},
                     {"remaining", remaining.rows[0][0].int64_value()}});
    return session->Close(self);
  }

  // ---- Phase 3: race to become the last committer.
  Status raced =
      session
          ->Execute(self, StrCat("UPDATE ", committer_table_,
                                 " SET task = ", partition,
                                 " WHERE task = -1"))
          .status();
  // Election observed at the durability point (see phase 1): affected==1
  // on a durable autocommit means this task's id is now in the committer
  // table, even if the ack never arrived.
  if (session->last_commit_epoch() != 0 &&
      session->last_update_affected() == 1) {
    obs::TraceEvent("s2v", "phase3.elected",
                    {{"job", job_name_},
                     {"partition", partition},
                     {"attempt", task.attempt}});
    obs::IncrCounter("s2v.phase3_elections");
  }
  FABRIC_RETURN_IF_ERROR(raced);

  // ---- Phase 4: did this task win?
  FABRIC_ASSIGN_OR_RETURN(
      QueryResult winner,
      session->Execute(self,
                       StrCat("SELECT task FROM ", committer_table_)));
  if (winner.rows.size() != 1 ||
      winner.rows[0][0].int64_value() != partition) {
    obs::TraceEvent("s2v", "phase4.loser",
                    {{"job", job_name_},
                     {"partition", partition},
                     {"attempt", task.attempt}});
    return session->Close(self);
  }
  obs::TraceEvent("s2v", "phase4.winner",
                  {{"job", job_name_},
                   {"partition", partition},
                   {"attempt", task.attempt}});

  // ---- Phase 5: verify tolerance, then promote staging into the target.
  FABRIC_ASSIGN_OR_RETURN(
      QueryResult totals,
      session->Execute(self,
                       StrCat("SELECT SUM(inserted) AS ins, SUM(failed) "
                              "AS rej FROM ",
                              status_table_)));
  double inserted = totals.rows[0][0].is_null()
                        ? 0
                        : totals.rows[0][0].float64_value();
  double failed = totals.rows[0][1].is_null()
                      ? 0
                      : totals.rows[0][1].float64_value();
  double failed_pct =
      inserted + failed > 0 ? failed / (inserted + failed) : 0.0;
  if (failed_pct > tolerance_) {
    obs::TraceEvent("s2v", "phase5.reject",
                    {{"job", job_name_},
                     {"partition", partition},
                     {"failed_pct", failed_pct},
                     {"tolerance", tolerance_}});
    obs::IncrCounter("s2v.phase5_rejects");
    // Record the failure and fail the save; the target is untouched.
    FABRIC_RETURN_IF_ERROR(
        session->Execute(self, StrCat("UPDATE ", kFinalStatusTable,
                                      " SET failed_pct = ", failed_pct,
                                      " WHERE job = '", job_name_, "'"))
            .status());
    FABRIC_RETURN_IF_ERROR(session->Close(self));
    return FailedPreconditionError(
        StrCat("S2V: rejected-row fraction ", failed_pct,
               " exceeds tolerance ", tolerance_));
  }

  if (mode_ == SaveMode::kAppend) {
    // Atomic: copy + conditional finished-flag under one transaction. A
    // speculative duplicate of the winner sees finished=TRUE, matches 0
    // rows and rolls its copy back.
    FABRIC_RETURN_IF_ERROR(session->Execute(self, "BEGIN").status());
    FABRIC_RETURN_IF_ERROR(
        session->Execute(self, StrCat("INSERT INTO ", target_, " SELECT "
                                      "* FROM ",
                                      staging_table_))
            .status());
    FABRIC_ASSIGN_OR_RETURN(
        QueryResult flag,
        session->Execute(self, StrCat("UPDATE ", kFinalStatusTable,
                                      " SET finished = TRUE, failed_pct "
                                      "= ",
                                      failed_pct, " WHERE job = '",
                                      job_name_,
                                      "' AND finished = FALSE")));
    if (flag.affected == 1) {
      Status committed = session->Execute(self, "COMMIT").status();
      // Durable-point tracing, as in phase 1: the promotion happened iff
      // the INSERT+flag transaction reached durability.
      if (session->last_commit_epoch() != 0) {
        obs::TraceEvent("s2v", "phase5.promote",
                        {{"job", job_name_},
                         {"partition", partition},
                         {"attempt", task.attempt},
                         {"mode", "append"},
                         {"failed_pct", failed_pct},
                         {"acked", committed.ok()}});
        obs::IncrCounter("s2v.phase5_promotions");
      }
      FABRIC_RETURN_IF_ERROR(committed);
    } else {
      FABRIC_RETURN_IF_ERROR(session->Execute(self, "ROLLBACK").status());
    }
    return session->Close(self);
  }

  // Overwrite (or ErrorIfExists, whose target absence was verified at
  // setup): atomically swap staging in. A concurrent duplicate's rename
  // fails with NOT_FOUND once the staging table is gone — meaning the
  // promotion already happened — and falls through to the (conditional,
  // hence idempotent) status update.
  Status renamed =
      session
          ->Execute(self, StrCat("ALTER TABLE ", staging_table_,
                                 " RENAME TO ", target_, " REPLACE"))
          .status();
  if (!renamed.ok() && renamed.code() != StatusCode::kNotFound) {
    return renamed;
  }
  Status flagged =
      session
          ->Execute(self, StrCat("UPDATE ", kFinalStatusTable,
                                 " SET finished = TRUE, failed_pct = ",
                                 failed_pct, " WHERE job = '", job_name_,
                                 "' AND finished = FALSE"))
          .status();
  // The conditional flag flip is the exactly-once promotion marker for
  // overwrite mode too: only one attempt ever moves finished FALSE->TRUE.
  if (session->last_commit_epoch() != 0 &&
      session->last_update_affected() == 1) {
    obs::TraceEvent("s2v", "phase5.promote",
                    {{"job", job_name_},
                     {"partition", partition},
                     {"attempt", task.attempt},
                     {"mode", "overwrite"},
                     {"failed_pct", failed_pct}});
    obs::IncrCounter("s2v.phase5_promotions");
  }
  FABRIC_RETURN_IF_ERROR(flagged);
  return session->Close(self);
}

Status S2VRelation::Finalize(sim::Process& driver, Status job_status) {
  FABRIC_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      ConnectWithFailover(driver, db_, entry_node_,
                          &cluster_->driver_host()));
  session->set_resource_pool(resource_pool_);
  FABRIC_ASSIGN_OR_RETURN(
      QueryResult final_row,
      session->Execute(driver, StrCat("SELECT finished, failed_pct FROM ",
                                      kFinalStatusTable, " WHERE job = '",
                                      job_name_, "'")));
  bool finished = !final_row.rows.empty() &&
                  !final_row.rows[0][0].is_null() &&
                  final_row.rows[0][0].bool_value();

  // Tear down the temporary tables (the permanent job record stays).
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver, StrCat("DROP TABLE IF EXISTS ",
                                      status_table_))
          .status());
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver, StrCat("DROP TABLE IF EXISTS ",
                                      committer_table_))
          .status());
  FABRIC_RETURN_IF_ERROR(
      session->Execute(driver, StrCat("DROP TABLE IF EXISTS ",
                                      staging_table_))
          .status());
  FABRIC_RETURN_IF_ERROR(session->Close(driver));
  obs::TraceEvent("s2v", "save.finalize",
                  {{"job", job_name_},
                   {"finished", finished},
                   {"job_ok", job_status.ok()}});

  if (!job_status.ok()) return job_status;
  if (!finished) {
    return AbortedError(StrCat("S2V job '", job_name_,
                               "' did not reach finished state"));
  }
  return Status::OK();
}

}  // namespace fabric::connector
