#include "vertica/system_tables.h"

#include "common/string_util.h"
#include "vertica/sql_eval.h"

namespace fabric::vertica {
namespace {

using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

std::vector<Row> NodeRows(const Database& db) {
  std::vector<Row> rows;
  for (int i = 0; i < db.num_nodes(); ++i) {
    rows.push_back({Value::Int64(i), Value::Varchar(db.node_name(i)),
                    Value::Varchar(db.node_address(i)),
                    Value::Varchar(std::string(
                        NodeStateName(db.node_state(i))))});
  }
  return rows;
}

// Signed ring bounds; the wrap segment's upper bound is NULL (+inf).
std::vector<Row> SegmentRows(const Database& db) {
  std::vector<Row> rows;
  for (const std::string& table : db.catalog().TableNames()) {
    auto def = db.catalog().GetTable(table);
    if (!def.ok() || (*def)->segmentation.unsegmented()) continue;
    const auto& ranges = db.node_ranges();
    for (int n = 0; n < db.num_nodes(); ++n) {
      Value upper = ranges[n].upper == 0
                        ? Value::Null()
                        : Value::Int64(sql::RingHashToSigned(ranges[n].upper));
      // k=1 buddy placement: single-node clusters keep no buddy copy.
      Value buddy_id = db.num_nodes() > 1 ? Value::Int64(db.buddy_node(n))
                                          : Value::Null();
      Value buddy_name =
          db.num_nodes() > 1
              ? Value::Varchar(db.node_name(db.buddy_node(n)))
              : Value::Null();
      rows.push_back({Value::Varchar(table), Value::Int64(n),
                      Value::Varchar(db.node_name(n)),
                      Value::Int64(sql::RingHashToSigned(ranges[n].lower)),
                      upper, buddy_id, buddy_name});
    }
  }
  return rows;
}

std::vector<Row> EpochRows(const Database& db) {
  return {{Value::Int64(static_cast<int64_t>(db.current_epoch())),
           Value::Int64(static_cast<int64_t>(db.current_epoch())),
           Value::Int64(static_cast<int64_t>(db.ahm())),
           Value::Int64(static_cast<int64_t>(db.epoch_commits().size()))}};
}

std::vector<Row> TupleMoverRows(const Database& db) {
  const TupleMover* tm = db.tuple_mover();
  std::vector<Row> rows;
  for (int n = 0; n < db.num_nodes(); ++n) {
    const TupleMover::TaskStats& mo = tm->moveout_stats(n);
    const TupleMover::TaskStats& me = tm->mergeout_stats(n);
    rows.push_back({Value::Int64(n), Value::Varchar(db.node_name(n)),
                    Value::Varchar("moveout"), Value::Int64(mo.runs),
                    Value::Float64(mo.bytes), Value::Bool(mo.armed)});
    rows.push_back({Value::Int64(n), Value::Varchar(db.node_name(n)),
                    Value::Varchar("mergeout"), Value::Int64(me.runs),
                    Value::Float64(me.bytes), Value::Bool(me.armed)});
  }
  // Cluster-wide AHM/purge row: runs = AHM advances, bytes = purged rows.
  rows.push_back({Value::Int64(-1), Value::Varchar("cluster"),
                  Value::Varchar("ahm"), Value::Int64(tm->ahm_advances()),
                  Value::Float64(static_cast<double>(tm->purged_rows())),
                  Value::Bool(false)});
  return rows;
}

// One row per ROS container of a super projection's copy; projection
// containers are reported by v_monitor.projection_storage.
std::vector<Row> StorageContainerRows(const Database& db) {
  std::vector<Row> rows;
  for (int n = 0; n < db.num_nodes(); ++n) {
    db.ForEachHostedStore(n, [&](const Database::HostedStore& hs) {
      if (!hs.projection.empty()) return;
      std::vector<storage::ContainerStats> stats = hs.store->RosStats();
      for (size_t i = 0; i < stats.size(); ++i) {
        const storage::ContainerStats& s = stats[i];
        rows.push_back(
            {Value::Varchar(hs.table), Value::Int64(n),
             Value::Varchar(hs.is_buddy ? "buddy" : "primary"),
             Value::Int64(static_cast<int64_t>(i)), Value::Int64(s.rows),
             Value::Int64(s.deleted_rows), Value::Float64(s.raw_bytes),
             Value::Float64(s.encoded_bytes),
             Value::Int64(static_cast<int64_t>(s.min_epoch)),
             Value::Int64(static_cast<int64_t>(s.max_epoch)),
             Value::Bool(s.committed)});
      }
    });
  }
  return rows;
}

std::vector<Row> ResourcePoolRows(const Database& db) {
  std::vector<Row> rows;
  const wm::WorkloadManager* wm = db.workload_manager();
  if (wm == nullptr) return rows;
  for (const wm::WorkloadManager::PoolStatus& s : wm->PoolStatusRows()) {
    rows.push_back(
        {Value::Int64(s.node), Value::Varchar(db.node_name(s.node)),
         Value::Varchar(s.pool), Value::Int64(s.priority),
         Value::Int64(s.max_concurrency), Value::Float64(s.memory_budget),
         Value::Float64(s.memory_inuse), Value::Int64(s.running),
         Value::Int64(s.queued), Value::Int64(s.admitted),
         Value::Int64(s.borrowed), Value::Int64(s.timeouts),
         Value::Int64(s.rejected), Value::Int64(s.spills),
         Value::Float64(s.spill_bytes), Value::Float64(s.queue_wait_seconds)});
  }
  return rows;
}

std::vector<Row> ResourceQueueRows(const Database& db) {
  std::vector<Row> rows;
  const wm::WorkloadManager* wm = db.workload_manager();
  if (wm == nullptr) return rows;
  for (const wm::WorkloadManager::QueueEntry& q : wm->QueueRows()) {
    rows.push_back({Value::Int64(q.node), Value::Varchar(db.node_name(q.node)),
                    Value::Varchar(q.pool), Value::Int64(q.priority),
                    Value::Int64(q.position),
                    Value::Float64(q.memory_requested),
                    Value::Float64(q.queued_at)});
  }
  return rows;
}

std::vector<Row> ProjectionRows(const Database& db) {
  std::vector<Row> rows;
  for (const std::string& name : db.catalog().ProjectionNames()) {
    auto proj = db.catalog().GetProjection(name);
    if (!proj.ok()) continue;
    const ProjectionDef& p = **proj;
    auto column_names = [&p](const std::vector<int>& cols) {
      std::vector<std::string> names;
      for (int c : cols) names.push_back(p.schema.column(c).name);
      return Join(names, ",");
    };
    std::vector<std::string> all_columns;
    for (const storage::ColumnDef& column : p.schema.columns()) {
      all_columns.push_back(column.name);
    }
    std::vector<std::string> encodings;
    for (storage::Encoding e : p.encodings) {
      encodings.emplace_back(storage::EncodingName(e));
    }
    rows.push_back({Value::Varchar(p.name), Value::Varchar(p.anchor),
                    Value::Varchar(Join(all_columns, ",")),
                    Value::Varchar(column_names(p.sort_columns)),
                    Value::Varchar(Join(encodings, ",")),
                    Value::Bool(!p.segmentation.unsegmented()),
                    Value::Varchar(column_names(p.segmentation.columns)),
                    Value::Int64(static_cast<int64_t>(p.create_epoch))});
  }
  return rows;
}

// One row per projection copy, summed over its ROS containers.
std::vector<Row> ProjectionStorageRows(const Database& db) {
  std::vector<Row> rows;
  for (int n = 0; n < db.num_nodes(); ++n) {
    db.ForEachHostedStore(n, [&](const Database::HostedStore& hs) {
      if (hs.projection.empty()) return;
      auto proj = db.catalog().GetProjection(hs.projection);
      int64_t live = 0;
      int64_t deleted = 0;
      double raw = 0;
      double encoded = 0;
      std::vector<storage::ContainerStats> stats = hs.store->RosStats();
      for (const storage::ContainerStats& s : stats) {
        live += s.rows;
        deleted += s.deleted_rows;
        raw += s.raw_bytes;
        encoded += s.encoded_bytes;
      }
      rows.push_back({Value::Varchar(hs.projection),
                      Value::Varchar(proj.ok() ? (*proj)->anchor : hs.table),
                      Value::Int64(n),
                      Value::Varchar(hs.is_buddy ? "buddy" : "primary"),
                      Value::Int64(static_cast<int64_t>(stats.size())),
                      Value::Int64(live), Value::Int64(deleted),
                      Value::Float64(raw), Value::Float64(encoded),
                      Value::Int64(hs.store->num_wos_batches())});
    });
  }
  return rows;
}

std::vector<Row> TableRows(const Database& db) {
  std::vector<Row> rows;
  for (const std::string& table : db.catalog().TableNames()) {
    auto def = db.catalog().GetTable(table);
    rows.push_back(
        {Value::Varchar(table), Value::Bool(false),
         Value::Bool(def.ok() && !(*def)->segmentation.unsegmented())});
  }
  for (const std::string& view : db.catalog().ViewNames()) {
    rows.push_back(
        {Value::Varchar(view), Value::Bool(true), Value::Bool(false)});
  }
  return rows;
}

std::vector<Row> QueryRequestRows(const Database& db) {
  std::vector<Row> rows;
  for (const QueryRequest& request : db.query_requests()) {
    rows.push_back(
        {Value::Int64(request.request_id), Value::Varchar(request.table),
         Value::Varchar(request.join_table),
         Value::Varchar(Join(request.referenced, ",")),
         Value::Varchar(Join(request.group_by, ",")),
         Value::Varchar(Join(request.join_keys, ",")),
         Value::Bool(request.aggregate), Value::Varchar(request.pool),
         Value::Varchar(request.strategy), Value::Float64(request.started_at),
         Value::Float64(request.duration)});
  }
  return rows;
}

std::vector<Row> DesignProposalRows(const Database& db) {
  std::vector<Row> rows;
  for (const designer::Proposal& proposal : db.design_proposals()) {
    rows.push_back({Value::Varchar(proposal.name),
                    Value::Varchar(proposal.anchor),
                    Value::Varchar(Join(proposal.columns, ",")),
                    Value::Varchar(Join(proposal.sort_columns, ",")),
                    Value::Varchar(Join(proposal.segment_columns, ",")),
                    Value::Float64(proposal.benefit),
                    Value::Float64(proposal.storage_bytes),
                    Value::Varchar(proposal.ddl)});
  }
  return rows;
}

}  // namespace

const std::vector<SystemTableDef>& SystemTables() {
  static const std::vector<SystemTableDef> kTables = {
      {"v_catalog.nodes",
       Schema({{"node_id", DataType::kInt64},
               {"node_name", DataType::kVarchar},
               {"node_address", DataType::kVarchar},
               {"state", DataType::kVarchar}}),
       NodeRows},
      {"v_catalog.segments",
       Schema({{"table_name", DataType::kVarchar},
               {"node_id", DataType::kInt64},
               {"node_name", DataType::kVarchar},
               {"segment_lower", DataType::kInt64},
               {"segment_upper", DataType::kInt64},
               {"buddy_node_id", DataType::kInt64},
               {"buddy_node_name", DataType::kVarchar}}),
       SegmentRows},
      {"v_catalog.epochs",
       Schema({{"current_epoch", DataType::kInt64},
               {"last_good_epoch", DataType::kInt64},
               {"ahm_epoch", DataType::kInt64},
               {"retained_epochs", DataType::kInt64}}),
       EpochRows},
      {"v_monitor.tuple_mover",
       Schema({{"node_id", DataType::kInt64},
               {"node_name", DataType::kVarchar},
               {"operation", DataType::kVarchar},
               {"runs", DataType::kInt64},
               {"bytes", DataType::kFloat64},
               {"is_armed", DataType::kBool}}),
       TupleMoverRows},
      {"v_monitor.storage_containers",
       Schema({{"table_name", DataType::kVarchar},
               {"node_id", DataType::kInt64},
               {"copy", DataType::kVarchar},
               {"container_id", DataType::kInt64},
               {"rows", DataType::kInt64},
               {"deleted_rows", DataType::kInt64},
               {"raw_bytes", DataType::kFloat64},
               {"encoded_bytes", DataType::kFloat64},
               {"min_epoch", DataType::kInt64},
               {"max_epoch", DataType::kInt64},
               {"is_committed", DataType::kBool}}),
       StorageContainerRows},
      {"v_monitor.resource_pool_status",
       Schema({{"node_id", DataType::kInt64},
               {"node_name", DataType::kVarchar},
               {"pool_name", DataType::kVarchar},
               {"priority", DataType::kInt64},
               {"max_concurrency", DataType::kInt64},
               {"memory_budget_bytes", DataType::kFloat64},
               {"memory_inuse_bytes", DataType::kFloat64},
               {"running_query_count", DataType::kInt64},
               {"queue_depth", DataType::kInt64},
               {"admitted", DataType::kInt64},
               {"borrowed", DataType::kInt64},
               {"queue_timeouts", DataType::kInt64},
               {"rejected", DataType::kInt64},
               {"spills", DataType::kInt64},
               {"spill_bytes", DataType::kFloat64},
               {"queue_wait_seconds", DataType::kFloat64}}),
       ResourcePoolRows},
      {"v_monitor.resource_queues",
       Schema({{"node_id", DataType::kInt64},
               {"node_name", DataType::kVarchar},
               {"pool_name", DataType::kVarchar},
               {"priority", DataType::kInt64},
               {"position", DataType::kInt64},
               {"memory_requested_bytes", DataType::kFloat64},
               {"queued_at", DataType::kFloat64}}),
       ResourceQueueRows},
      {"v_catalog.projections",
       Schema({{"projection_name", DataType::kVarchar},
               {"anchor_table", DataType::kVarchar},
               {"columns", DataType::kVarchar},
               {"sort_columns", DataType::kVarchar},
               {"encodings", DataType::kVarchar},
               // "is_segmented" here and in v_catalog.tables: SEGMENTED
               // is a keyword, a bare `segmented` column would not
               // parse.
               {"is_segmented", DataType::kBool},
               {"segment_columns", DataType::kVarchar},
               {"create_epoch", DataType::kInt64}}),
       ProjectionRows},
      {"v_monitor.projection_storage",
       Schema({{"projection_name", DataType::kVarchar},
               {"anchor_table", DataType::kVarchar},
               {"node_id", DataType::kInt64},
               {"copy", DataType::kVarchar},
               {"containers", DataType::kInt64},
               {"rows", DataType::kInt64},
               {"deleted_rows", DataType::kInt64},
               {"raw_bytes", DataType::kFloat64},
               {"encoded_bytes", DataType::kFloat64},
               {"wos_batches", DataType::kInt64}}),
       ProjectionStorageRows},
      {"v_catalog.tables",
       Schema({{"table_name", DataType::kVarchar},
               {"is_view", DataType::kBool},
               {"is_segmented", DataType::kBool}}),
       TableRows},
      {"v_monitor.query_requests",
       Schema({{"request_id", DataType::kInt64},
               {"table_name", DataType::kVarchar},
               {"join_table", DataType::kVarchar},
               {"referenced_columns", DataType::kVarchar},
               {"group_by_columns", DataType::kVarchar},
               {"join_key_columns", DataType::kVarchar},
               {"aggregate", DataType::kBool},
               {"pool_name", DataType::kVarchar},
               {"strategy", DataType::kVarchar},
               {"started_at", DataType::kFloat64},
               {"duration_seconds", DataType::kFloat64}}),
       QueryRequestRows},
      {"v_monitor.design_proposals",
       Schema({{"proposal_name", DataType::kVarchar},
               {"anchor_table", DataType::kVarchar},
               {"columns", DataType::kVarchar},
               {"sort_columns", DataType::kVarchar},
               {"segment_columns", DataType::kVarchar},
               {"benefit", DataType::kFloat64},
               {"storage_bytes", DataType::kFloat64},
               {"ddl", DataType::kVarchar}}),
       DesignProposalRows},
  };
  return kTables;
}

bool IsSystemTableName(std::string_view name) {
  const std::string lower = ToLower(name);
  return StartsWith(lower, "v_catalog.") || StartsWith(lower, "v_monitor.");
}

Result<QueryResult> ReadSystemTable(const Database& db,
                                    std::string_view name) {
  const std::string lower = ToLower(name);
  for (const SystemTableDef& table : SystemTables()) {
    if (lower == table.name) {
      return QueryResult{table.schema, table.rows(db)};
    }
  }
  return NotFoundError(StrCat("unknown system table '", lower, "'"));
}

}  // namespace fabric::vertica
