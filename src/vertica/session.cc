#include "vertica/session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <variant>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/hash_aggregate.h"
#include "exec/pipeline.h"
#include "obs/trace.h"
#include "storage/profile.h"
#include "vertica/pipeline.h"
#include "vertica/projections/planner.h"
#include "vertica/sql_analyzer.h"
#include "vertica/sql_eval.h"
#include "vertica/sql_parser.h"

namespace fabric::vertica {
namespace {

using storage::DataProfile;
using storage::DataType;
using storage::Epoch;
using storage::Row;
using storage::Schema;
using storage::TxnId;
using storage::Value;

// Ack latency after a commit becomes durable: a kill landing inside this
// window produces the paper's "task fails immediately after the commit"
// hazard (Section 2.2.2) — the change is durable but the client never
// learns it.
constexpr double kCommitAckLatency = 0.002;

// ------------------------------------------------------- plan structures

// Which table columns a query touches (column-store projection pruning:
// only these columns are scanned and costed).
Status CollectColumns(const sql::Expr& expr, const Schema& schema,
                      std::set<int>* out) {
  if (expr.kind == sql::Expr::Kind::kColumnRef) {
    FABRIC_ASSIGN_OR_RETURN(int idx, schema.IndexOf(expr.column));
    out->insert(idx);
    return Status::OK();
  }
  for (const sql::ExprPtr& arg : expr.args) {
    FABRIC_RETURN_IF_ERROR(CollectColumns(*arg, schema, out));
  }
  return Status::OK();
}

// Result-schema helpers shared with the pipeline compiler.
using sql::InferType;

// Applies ORDER BY / LIMIT to a materialized result (by output column
// names).
Status ApplyOrderAndLimit(const sql::SelectStmt& select,
                          QueryResult* result) {
  if (!select.order_by.empty()) {
    std::vector<std::pair<int, bool>> keys;
    for (const sql::OrderItem& item : select.order_by) {
      FABRIC_ASSIGN_OR_RETURN(int idx,
                              result->schema.IndexOf(item.column));
      keys.emplace_back(idx, item.descending);
    }
    std::stable_sort(result->rows.begin(), result->rows.end(),
                     [&keys](const Row& a, const Row& b) {
                       for (const auto& [idx, desc] : keys) {
                         auto c = a[idx].Compare(b[idx]);
                         int cc = c.ok() ? *c : 0;
                         if (cc != 0) return desc ? cc > 0 : cc < 0;
                       }
                       return false;
                     });
  }
  if (select.limit >= 0 &&
      static_cast<int64_t>(result->rows.size()) > select.limit) {
    result->rows.resize(select.limit);
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- lifecycle

Session::Session(Database* db, int node, const net::Host* client)
    : db_(db), node_(node), client_(client) {}

Session::~Session() { Abandon(); }

void Session::Abandon() {
  if (closed_) return;
  closed_ = true;
  if (txn_ != 0) {
    db_->AbortTxnInternal(txn_);
    txn_ = 0;
  }
  db_->UnregisterSession(node_, this);
}

Status Session::Close(sim::Process& self) {
  if (closed_) return Status::OK();
  Status status = self.Sleep(db_->cost().session_teardown);
  Abandon();
  return status;
}

// ------------------------------------------------------------- dispatch

Result<QueryResult> Session::Execute(sim::Process& self,
                                     std::string_view sql_text) {
  if (closed_) return FailedPreconditionError("session closed");
  if (broken_ || db_->cluster_is_down()) {
    return UnavailableError(
        StrCat("connection to ", db_->node_name(node_), " lost"));
  }
  FABRIC_RETURN_IF_ERROR(self.CheckAlive());
  // Per-statement observability state: a statement killed before its
  // dispatcher runs must not leave the previous statement's outcome
  // visible through last_commit_epoch()/last_update_affected().
  last_commit_epoch_ = 0;
  last_update_affected_ = -1;
  FABRIC_ASSIGN_OR_RETURN(sql::Statement statement, sql::Parse(sql_text));
  // Workload-manager admission covers every statement except transaction
  // control: BEGIN/COMMIT/ROLLBACK must never queue, else a session
  // holding table locks could wait on admission behind statements
  // waiting on those locks (admission <-> lock deadlock).
  wm::WorkloadManager* wm = db_->workload_manager();
  bool admitted = false;
  if (wm != nullptr && !std::holds_alternative<sql::TxnStmt>(statement)) {
    FABRIC_ASSIGN_OR_RETURN(
        wm_grant_, wm->Admit(self, node_, resource_pool_, memory_request_));
    admitted = true;
  }
  // Releases the admission grant on every exit path below (statement
  // errors, kills, broken-node unwinds).
  auto release_grant = [&] {
    if (admitted) {
      wm->Release(wm_grant_);
      wm_grant_ = wm::Grant{};
      admitted = false;
    }
  };
  // Parse/plan cost on the initiator node.
  Status overhead = net::RunCpu(self, db_->network(), db_->node_host(node_),
                                db_->cost().statement_overhead_cpu);
  if (!overhead.ok()) {
    release_grant();
    return overhead;
  }
  // Workload capture: scans dispatched below record their query shapes;
  // stamp every entry this statement produced with its total duration
  // once it finishes (the designer weighs shapes by what they cost).
  const int64_t first_request_id = db_->next_query_request_id();
  const double statement_started = db_->engine()->now();
  Result<QueryResult> result = std::visit(
      [&](auto&& stmt) -> Result<QueryResult> {
        using T = std::decay_t<decltype(stmt)>;
        if constexpr (std::is_same_v<T, sql::SelectStmt>) {
          return ExecSelect(self, stmt, /*to_client=*/true, 0);
        } else if constexpr (std::is_same_v<T, sql::CreateTableStmt>) {
          return ExecCreateTable(self, stmt);
        } else if constexpr (std::is_same_v<T, sql::CreateViewStmt>) {
          return ExecCreateView(self, stmt);
        } else if constexpr (std::is_same_v<T, sql::CreateProjectionStmt>) {
          return ExecCreateProjection(self, stmt);
        } else if constexpr (std::is_same_v<T, sql::ExplainStmt>) {
          return ExecExplain(self, stmt);
        } else if constexpr (std::is_same_v<T, sql::DropStmt>) {
          return ExecDrop(self, stmt);
        } else if constexpr (std::is_same_v<T, sql::RenameTableStmt>) {
          return ExecRename(self, stmt);
        } else if constexpr (std::is_same_v<T, sql::TruncateStmt>) {
          return ExecTruncate(self, stmt);
        } else if constexpr (std::is_same_v<T, sql::InsertStmt>) {
          return ExecInsert(self, stmt);
        } else if constexpr (std::is_same_v<T, sql::UpdateStmt>) {
          return ExecUpdate(self, stmt);
        } else if constexpr (std::is_same_v<T, sql::DeleteStmt>) {
          return ExecDelete(self, stmt);
        } else {
          return ExecTxn(self, stmt);
        }
      },
      statement);
  release_grant();
  db_->StampQueryDurations(first_request_id,
                           db_->engine()->now() - statement_started);
  // The node died while the statement was in flight: whatever the server
  // did (including a commit that reached durability just before the
  // kill), the client never hears the outcome.
  if (result.ok() && broken_) {
    return UnavailableError(
        StrCat("connection to ", db_->node_name(node_), " lost"));
  }
  return result;
}

Result<QueryResult> Session::ExecuteSelectInternal(
    sim::Process& self, const sql::SelectStmt& select, int view_depth) {
  return ExecSelect(self, select, /*to_client=*/false, view_depth);
}

// ------------------------------------------------------------ txn basics

Session::WriteTxn Session::EnsureWriteTxn() {
  if (txn_ != 0) return WriteTxn{txn_, false};
  return WriteTxn{db_->BeginTxnInternal(), true};
}

Status Session::FinishWriteTxn(sim::Process& self, const WriteTxn& wt,
                               Status status) {
  // If the node died under the statement, the write never reaches
  // durability — abort instead of committing on a dead node.
  if (status.ok() && broken_) {
    status = UnavailableError(
        StrCat("connection to ", db_->node_name(node_), " lost"));
  }
  if (!wt.autocommit) {
    // Explicit transaction: statement failure aborts the whole txn (the
    // Vertica behaviour connector code relies on for conditional
    // updates).
    if (!status.ok()) {
      db_->AbortTxnInternal(wt.txn);
      txn_ = 0;
    }
    return status;
  }
  last_commit_epoch_ = 0;
  if (!status.ok()) {
    db_->AbortTxnInternal(wt.txn);
    return status;
  }
  Status commit = db_->CommitTxnInternal(self, wt.txn);
  if (!commit.ok()) {
    db_->AbortTxnInternal(wt.txn);
    return commit;
  }
  last_commit_epoch_ = db_->current_epoch();
  return self.Sleep(kCommitAckLatency);
}

Result<QueryResult> Session::ExecTxn(sim::Process& self,
                                     const sql::TxnStmt& stmt) {
  QueryResult result;
  switch (stmt.kind) {
    case sql::TxnStmt::Kind::kBegin:
      if (txn_ == 0) txn_ = db_->BeginTxnInternal();
      return result;
    case sql::TxnStmt::Kind::kCommit: {
      last_commit_epoch_ = 0;
      if (txn_ == 0) return result;
      if (broken_) {
        db_->AbortTxnInternal(txn_);
        txn_ = 0;
        return UnavailableError(
            StrCat("connection to ", db_->node_name(node_), " lost"));
      }
      TxnId txn = txn_;
      Status commit = db_->CommitTxnInternal(self, txn);
      if (!commit.ok()) {
        // Commit did not reach durability; roll back.
        db_->AbortTxnInternal(txn);
        txn_ = 0;
        return commit;
      }
      txn_ = 0;
      last_commit_epoch_ = db_->current_epoch();
      // The commit is durable; a kill during the ack still loses the
      // client's confirmation (exactly the hazard S2V must survive).
      FABRIC_RETURN_IF_ERROR(self.Sleep(kCommitAckLatency));
      return result;
    }
    case sql::TxnStmt::Kind::kRollback:
      if (txn_ != 0) {
        db_->AbortTxnInternal(txn_);
        txn_ = 0;
      }
      return result;
  }
  return InternalError("corrupt txn statement");
}

// ------------------------------------------------------------------ DDL

Result<QueryResult> Session::ExecCreateTable(
    sim::Process& self, const sql::CreateTableStmt& stmt) {
  FABRIC_RETURN_IF_ERROR(self.Sleep(db_->cost().ddl_overhead));
  if (stmt.if_not_exists && db_->catalog().HasTable(stmt.name)) {
    return QueryResult{};
  }
  TableDef def;
  def.name = stmt.name;
  std::vector<storage::ColumnDef> columns;
  for (const auto& [name, type] : stmt.columns) {
    columns.push_back({name, type});
  }
  def.schema = Schema(std::move(columns));
  if (stmt.unsegmented) {
    // Replicated table: empty segmentation.
  } else if (!stmt.segmentation_columns.empty()) {
    for (const std::string& col : stmt.segmentation_columns) {
      FABRIC_ASSIGN_OR_RETURN(int idx, def.schema.IndexOf(col));
      def.segmentation.columns.push_back(idx);
    }
  } else {
    // Default segmentation: Vertica derives a compact expression from the
    // table definition; we use the first column(s), capped at two.
    for (int i = 0; i < std::min(2, def.schema.num_columns()); ++i) {
      def.segmentation.columns.push_back(i);
    }
  }
  FABRIC_RETURN_IF_ERROR(db_->CreateTableWithStorage(std::move(def)));
  return QueryResult{};
}

Result<QueryResult> Session::ExecCreateView(sim::Process& self,
                                            const sql::CreateViewStmt& stmt) {
  FABRIC_RETURN_IF_ERROR(self.Sleep(db_->cost().ddl_overhead));
  ViewDef def;
  def.name = stmt.name;
  def.query_sql = stmt.select->ToSql();
  FABRIC_RETURN_IF_ERROR(db_->catalog().CreateView(std::move(def)));
  return QueryResult{};
}

Result<QueryResult> Session::ExecCreateProjection(
    sim::Process& self, const sql::CreateProjectionStmt& stmt) {
  if (txn_ != 0) {
    return FailedPreconditionError(
        "CREATE PROJECTION inside an explicit transaction is not "
        "supported");
  }
  FABRIC_RETURN_IF_ERROR(self.Sleep(db_->cost().ddl_overhead));
  FABRIC_ASSIGN_OR_RETURN(const TableDef* def,
                          db_->catalog().GetTable(stmt.anchor));
  const Schema& anchor_schema = def->schema;

  ProjectionDef proj;
  proj.name = stmt.name;
  proj.anchor = def->name;
  if (stmt.star) {
    for (int c = 0; c < anchor_schema.num_columns(); ++c) {
      proj.columns.push_back(c);
    }
  } else {
    std::set<int> seen;
    for (const std::string& col : stmt.columns) {
      FABRIC_ASSIGN_OR_RETURN(int idx, anchor_schema.IndexOf(col));
      if (!seen.insert(idx).second) {
        return InvalidArgumentError(
            StrCat("duplicate projection column '", col, "'"));
      }
      proj.columns.push_back(idx);
    }
  }
  proj.schema = anchor_schema.Project(proj.columns);
  for (const std::string& col : stmt.order_by) {
    FABRIC_ASSIGN_OR_RETURN(int idx, proj.schema.IndexOf(col));
    proj.sort_columns.push_back(idx);
  }
  if (stmt.unsegmented) {
    // Replicated projection: empty segmentation.
  } else if (!stmt.segmentation_columns.empty()) {
    for (const std::string& col : stmt.segmentation_columns) {
      FABRIC_ASSIGN_OR_RETURN(int idx, proj.schema.IndexOf(col));
      proj.segmentation.columns.push_back(idx);
    }
  } else if (!proj.sort_columns.empty()) {
    // Default segmentation: hash of the sort key.
    proj.segmentation.columns = proj.sort_columns;
  } else {
    proj.segmentation.columns.push_back(0);
  }

  // Populate from the anchor's current snapshot inside the creating
  // transaction: snapshot every segment, project, choose encodings from
  // the sample, route by the projection's own segmentation, and commit —
  // the projection becomes queryable exactly at its create epoch.
  FABRIC_ASSIGN_OR_RETURN(Database::TableStorage * anchor_storage,
                          db_->GetStorage(def->name));
  TxnId txn = db_->BeginTxnInternal();
  bool created = false;
  Status status = [&]() -> Status {
    FABRIC_RETURN_IF_ERROR(db_->LockTableX(self, txn, def->name));
    db_->TouchTable(txn, def->name);
    Epoch snapshot = db_->current_epoch();
    const CostModel& cost = db_->cost();
    double scale = db_->EffectiveScale(def->name);

    std::vector<Row> anchor_rows;
    if (def->segmentation.unsegmented()) {
      // Replicated anchor: the initiator's local copy holds everything.
      FABRIC_ASSIGN_OR_RETURN(
          anchor_rows,
          anchor_storage->per_node[node_]->SnapshotRows(snapshot));
      DataProfile profile = ProfileRows(anchor_rows);
      profile.ScaleBy(scale);
      FABRIC_RETURN_IF_ERROR(net::RunCpu(self, db_->network(),
                                         db_->node_host(node_),
                                         profile.ScanCpu(cost)));
    } else {
      for (int n = 0; n < db_->num_nodes(); ++n) {
        FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy copy,
                                db_->ReadCopy(anchor_storage, n));
        FABRIC_ASSIGN_OR_RETURN(std::vector<Row> seg_rows,
                                copy.store->SnapshotRows(snapshot));
        DataProfile profile = ProfileRows(seg_rows);
        profile.ScaleBy(scale);
        FABRIC_RETURN_IF_ERROR(net::RunCpu(self, db_->network(),
                                           db_->node_host(copy.host),
                                           profile.ScanCpu(cost)));
        if (copy.host != node_) {
          FABRIC_RETURN_IF_ERROR(db_->network()->Transfer(
              self,
              {db_->node_host(copy.host).int_egress,
               db_->node_host(node_).int_ingress},
              profile.raw_bytes));
        }
        for (Row& row : seg_rows) anchor_rows.push_back(std::move(row));
      }
    }

    std::vector<Row> proj_rows;
    proj_rows.reserve(anchor_rows.size());
    for (const Row& row : anchor_rows) {
      Row prow;
      prow.reserve(proj.columns.size());
      for (int c : proj.columns) prow.push_back(row[c]);
      proj_rows.push_back(std::move(prow));
    }
    proj.encodings = projections::ChooseEncodings(
        proj.schema, proj.sort_columns, proj_rows);
    FABRIC_RETURN_IF_ERROR(db_->CreateProjectionWithStorage(proj));
    created = true;

    FABRIC_ASSIGN_OR_RETURN(Database::SegmentSet * set,
                            db_->GetProjectionStorage(proj.name));
    std::vector<std::vector<Row>> per_node(db_->num_nodes());
    bool replicated = proj.segmentation.unsegmented();
    for (Row& prow : proj_rows) {
      int owner = db_->OwnerNode(proj, prow);
      if (owner < 0) {
        for (int n = 0; n < db_->num_nodes(); ++n) {
          per_node[n].push_back(prow);
        }
      } else {
        per_node[owner].push_back(std::move(prow));
      }
    }
    for (int n = 0; n < db_->num_nodes(); ++n) {
      if (per_node[n].empty()) continue;
      std::vector<Database::SegmentCopy> copies;
      if (replicated) {
        if (!db_->node_up(n)) continue;
        copies.push_back(
            Database::SegmentCopy{set->per_node[n].get(), n});
      } else {
        FABRIC_ASSIGN_OR_RETURN(copies, db_->WriteCopies(set, n));
      }
      double raw_bytes = ProfileRows(per_node[n]).raw_bytes * scale;
      for (size_t c = 0; c < copies.size(); ++c) {
        const Database::SegmentCopy& copy = copies[c];
        if (copy.host != node_) {
          FABRIC_RETURN_IF_ERROR(db_->network()->Transfer(
              self,
              {db_->node_host(node_).int_egress,
               db_->node_host(copy.host).int_ingress},
              raw_bytes));
        }
        // Sort + encode into the projection's physical design.
        FABRIC_RETURN_IF_ERROR(net::RunCpu(
            self, db_->network(), db_->node_host(copy.host),
            raw_bytes * cost.scan_cpu_per_byte));
        std::vector<Row> batch = c + 1 < copies.size()
                                     ? per_node[n]
                                     : std::move(per_node[n]);
        FABRIC_RETURN_IF_ERROR(
            copy.store->InsertPendingDirect(txn, std::move(batch)));
      }
    }
    return Status::OK();
  }();
  if (!status.ok()) {
    db_->AbortTxnInternal(txn);
    if (created) {
      Status dropped = db_->DropProjectionWithStorage(proj.name);
      (void)dropped;
    }
    return status;
  }
  Status commit = db_->CommitTxnInternal(self, txn);
  if (!commit.ok()) {
    db_->AbortTxnInternal(txn);
    Status dropped = db_->DropProjectionWithStorage(proj.name);
    (void)dropped;
    return commit;
  }
  FABRIC_RETURN_IF_ERROR(db_->catalog().SetProjectionCreateEpoch(
      proj.name, db_->current_epoch()));
  obs::TraceEvent("vertica", "projection.create",
                  {{"projection", proj.name},
                   {"anchor", def->name},
                   {"epoch", db_->current_epoch()}});
  return QueryResult{};
}

Result<QueryResult> Session::ExecExplain(sim::Process& self,
                                         const sql::ExplainStmt& stmt) {
  FABRIC_RETURN_IF_ERROR(self.CheckAlive());
  const sql::SelectStmt& select = *stmt.select;
  QueryResult result;
  result.schema = Schema({{"plan", DataType::kVarchar}});
  auto emit = [&result](std::string line) {
    result.rows.push_back({Value::Varchar(std::move(line))});
  };
  emit(StrCat("EXPLAIN SELECT FROM ",
              select.from.empty() ? "<constants>" : select.from));
  std::string from = ToLower(select.from);
  auto fmt_cost = [](double cost) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", cost);
    return std::string(buf);
  };
  auto fmt_candidates = [&fmt_cost](
      const std::vector<std::pair<std::string, double>>& candidates) {
    std::string cands;
    for (const auto& [cand_name, cand_cost] : candidates) {
      if (!cands.empty()) cands += ", ";
      cands += StrCat(cand_name, "=", fmt_cost(cand_cost));
    }
    return cands;
  };
  if (!select.join.empty()) {
    // Typed forced-hint errors (per-table projection, forced merge)
    // propagate so EXPLAIN fails the same way execution would.
    FABRIC_ASSIGN_OR_RETURN(std::optional<JoinQueryPlan> planned,
                            PlanJoinQuery(select));
    if (!planned.has_value()) {
      emit("  join: n/a (not a plannable base-table join)");
      return result;
    }
    const JoinQueryPlan& jq = *planned;
    emit(StrCat("  join strategy: ", jq.plan.strategy(), " join",
                jq.plan.co_located ? " (co-located)" : ""));
    emit(StrCat("  join key: ", select.from, ".",
                jq.left_table->schema.column(jq.left_key).name, " = ",
                select.join, ".",
                jq.right_table->schema.column(jq.right_key).name));
    auto side_name = [](const projections::PlanChoice& pick) {
      return pick.projection == nullptr ? std::string("super")
                                        : pick.projection->name;
    };
    emit(StrCat("  projection(", select.from, "): ",
                side_name(jq.plan.left),
                " (cost=", fmt_cost(jq.plan.left.cost), ")"));
    emit(StrCat("  projection(", select.join, "): ",
                side_name(jq.plan.right),
                " (cost=", fmt_cost(jq.plan.right.cost), ")"));
    emit(StrCat("  candidates(", select.from, "): ",
                fmt_candidates(jq.left_candidates)));
    emit(StrCat("  candidates(", select.join, "): ",
                fmt_candidates(jq.right_candidates)));
    return result;
  }
  if (select.from.empty() ||
      StartsWith(from, "v_catalog.") || StartsWith(from, "v_monitor.") ||
      db_->catalog().HasView(select.from)) {
    emit("  projection: n/a (not a base-table scan)");
    return result;
  }
  FABRIC_ASSIGN_OR_RETURN(const TableDef* def,
                          db_->catalog().GetTable(select.from));
  projections::QueryShape shape =
      projections::ShapeOf(select, def->schema);
  std::vector<std::pair<std::string, double>> candidates;
  projections::PlanChoice plan =
      projections::ChoosePlan(db_->catalog(), *def, shape, &candidates);
  char cost_buf[32];
  std::snprintf(cost_buf, sizeof(cost_buf), "%.4f", plan.cost);
  emit(StrCat("  projection: ",
              plan.projection == nullptr ? std::string("super")
                                         : plan.projection->name,
              " (cost=", cost_buf, ")"));
  emit(StrCat("  reason: ", plan.reason));
  if (shape.aggregate && !shape.group_by.empty()) {
    emit(StrCat("  group-by strategy: ",
                plan.sorted_group_by ? "merge (sorted)" : "hash"));
  }
  std::string cands;
  for (const auto& [cand_name, cand_cost] : candidates) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", cand_cost);
    if (!cands.empty()) cands += ", ";
    cands += StrCat(cand_name, "=", buf);
  }
  emit(StrCat("  candidates: ", cands));
  return result;
}

Result<QueryResult> Session::ExecDrop(sim::Process& self,
                                      const sql::DropStmt& stmt) {
  FABRIC_RETURN_IF_ERROR(self.Sleep(db_->cost().ddl_overhead));
  if (stmt.is_projection) {
    auto proj = db_->catalog().GetProjection(stmt.name);
    if (!proj.ok()) {
      if (stmt.if_exists &&
          proj.status().code() == StatusCode::kNotFound) {
        return QueryResult{};
      }
      return proj.status();
    }
    // Writers routing into the projection's stores must drain first.
    FABRIC_RETURN_IF_ERROR(
        db_->WaitTablesIdle(self, txn_, {(*proj)->anchor}));
    FABRIC_RETURN_IF_ERROR(db_->DropProjectionWithStorage(stmt.name));
    return QueryResult{};
  }
  if (stmt.is_view) {
    Status status = db_->catalog().DropView(stmt.name);
    if (!status.ok() && stmt.if_exists &&
        status.code() == StatusCode::kNotFound) {
      return QueryResult{};
    }
    FABRIC_RETURN_IF_ERROR(status);
    return QueryResult{};
  }
  FABRIC_RETURN_IF_ERROR(db_->WaitTablesIdle(self, txn_, {stmt.name}));
  Status status = db_->DropTableWithStorage(stmt.name);
  if (!status.ok() && stmt.if_exists &&
      status.code() == StatusCode::kNotFound) {
    return QueryResult{};
  }
  FABRIC_RETURN_IF_ERROR(status);
  return QueryResult{};
}

Result<QueryResult> Session::ExecRename(sim::Process& self,
                                        const sql::RenameTableStmt& stmt) {
  FABRIC_RETURN_IF_ERROR(self.Sleep(db_->cost().ddl_overhead));
  // Loads into either name (e.g. a speculative task attempt still
  // copying into the staging table) must drain before the swap.
  FABRIC_RETURN_IF_ERROR(
      db_->WaitTablesIdle(self, txn_, {stmt.from, stmt.to}));
  FABRIC_RETURN_IF_ERROR(
      db_->RenameTableWithStorage(stmt.from, stmt.to, stmt.replace));
  return QueryResult{};
}

Result<QueryResult> Session::ExecTruncate(sim::Process& self,
                                          const sql::TruncateStmt& stmt) {
  if (txn_ != 0) {
    return FailedPreconditionError(
        "TRUNCATE inside an explicit transaction is not supported");
  }
  FABRIC_RETURN_IF_ERROR(self.Sleep(db_->cost().ddl_overhead));
  FABRIC_RETURN_IF_ERROR(db_->WaitTablesIdle(self, txn_, {stmt.table}));
  FABRIC_ASSIGN_OR_RETURN(const TableDef* def,
                          db_->catalog().GetTable(stmt.table));
  FABRIC_ASSIGN_OR_RETURN(Database::TableStorage * storage,
                          db_->GetStorage(stmt.table));
  for (auto& store : storage->per_node) {
    store = std::make_unique<storage::SegmentStore>(def->schema);
  }
  for (auto& store : storage->buddy) {
    store = std::make_unique<storage::SegmentStore>(def->schema);
  }
  // Projections truncate in lockstep, keeping their physical design.
  for (auto& [proj_name, set] : storage->projections) {
    FABRIC_ASSIGN_OR_RETURN(const ProjectionDef* proj,
                            db_->catalog().GetProjection(proj_name));
    for (auto& store : set.per_node) {
      store = std::make_unique<storage::SegmentStore>(proj->schema,
                                                      proj->Design());
    }
    for (auto& store : set.buddy) {
      store = std::make_unique<storage::SegmentStore>(proj->schema,
                                                      proj->Design());
    }
  }
  return QueryResult{};
}

// ------------------------------------------------------------------ DML

Result<QueryResult> Session::ExecInsert(sim::Process& self,
                                        const sql::InsertStmt& stmt) {
  FABRIC_ASSIGN_OR_RETURN(const TableDef* def,
                          db_->catalog().GetTable(stmt.table));
  const Schema& schema = def->schema;

  // Materialize the rows to insert.
  std::vector<Row> rows;
  if (stmt.select != nullptr) {
    FABRIC_ASSIGN_OR_RETURN(QueryResult sub,
                            ExecuteSelectInternal(self, *stmt.select, 0));
    if (sub.schema.num_columns() !=
        (stmt.columns.empty() ? schema.num_columns()
                              : static_cast<int>(stmt.columns.size()))) {
      return InvalidArgumentError("INSERT ... SELECT arity mismatch");
    }
    rows = std::move(sub.rows);
  } else {
    sql::EvalContext const_context;
    const_context.udx = &db_->udx_resolver();
    for (const auto& exprs : stmt.rows) {
      Row row;
      for (const sql::ExprPtr& e : exprs) {
        FABRIC_ASSIGN_OR_RETURN(Value v, sql::Eval(*e, const_context));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
  }

  // Map explicit column lists onto full-width rows.
  if (!stmt.columns.empty()) {
    std::vector<int> target_indices;
    for (const std::string& col : stmt.columns) {
      FABRIC_ASSIGN_OR_RETURN(int idx, schema.IndexOf(col));
      target_indices.push_back(idx);
    }
    for (Row& row : rows) {
      if (row.size() != target_indices.size()) {
        return InvalidArgumentError("INSERT arity mismatch");
      }
      Row full(schema.num_columns(), Value::Null());
      for (size_t i = 0; i < target_indices.size(); ++i) {
        full[target_indices[i]] = std::move(row[i]);
      }
      row = std::move(full);
    }
  }
  for (const Row& row : rows) {
    FABRIC_RETURN_IF_ERROR(ValidateRow(schema, row));
  }

  WriteTxn wt = EnsureWriteTxn();
  Status status = [&]() -> Status {
    FABRIC_RETURN_IF_ERROR(db_->LockTableI(self, wt.txn, def->name));
    db_->TouchTable(wt.txn, def->name);
    FABRIC_ASSIGN_OR_RETURN(Database::TableStorage * storage,
                            db_->GetStorage(def->name));

    const CostModel& cost = db_->cost();
    const double scale = db_->EffectiveScale(def->name);
    DataProfile profile = ProfileRows(rows);
    profile.ScaleBy(scale);

    // Client -> initiator wire (VALUES travel with the statement).
    if (stmt.select == nullptr) {
      FABRIC_RETURN_IF_ERROR(StreamToClientReverse(self,
                                                   profile.JdbcWireBytes(cost)));
    }

    // Route rows to their owner nodes.
    std::vector<std::vector<Row>> per_node(db_->num_nodes());
    for (const Row& row : rows) {
      int owner = db_->OwnerNode(*def, row);
      if (owner < 0) {
        for (int n = 0; n < db_->num_nodes(); ++n) {
          per_node[n].push_back(row);
        }
      } else {
        per_node[owner].push_back(row);
      }
    }
    bool replicated = def->segmentation.unsegmented();
    for (int n = 0; n < db_->num_nodes(); ++n) {
      if (per_node[n].empty()) continue;
      // Every live copy of the segment takes the rows: replicated tables
      // write each UP replica, segmented tables write the primary and the
      // buddy (whichever are UP); DOWN copies catch up during recovery.
      std::vector<Database::SegmentCopy> copies;
      if (replicated) {
        if (!db_->node_up(n)) continue;
        copies.push_back(
            Database::SegmentCopy{storage->per_node[n].get(), n});
      } else {
        FABRIC_ASSIGN_OR_RETURN(copies, db_->WriteCopies(storage, n));
      }
      DataProfile node_profile = ProfileRows(per_node[n]);
      node_profile.ScaleBy(scale);
      for (size_t c = 0; c < copies.size(); ++c) {
        const Database::SegmentCopy& copy = copies[c];
        if (copy.host != node_) {
          FABRIC_RETURN_IF_ERROR(db_->network()->Transfer(
              self,
              {db_->node_host(node_).int_egress,
               db_->node_host(copy.host).int_ingress},
              node_profile.raw_bytes));
        }
        FABRIC_RETURN_IF_ERROR(
            net::RunCpu(self, db_->network(), db_->node_host(copy.host),
                        node_profile.CopyParseCpu(cost)));
        std::vector<Row> batch = c + 1 < copies.size()
                                     ? per_node[n]
                                     : std::move(per_node[n]);
        if (stmt.direct) {
          FABRIC_RETURN_IF_ERROR(
              copy.store->InsertPendingDirect(wt.txn, std::move(batch)));
        } else {
          // WOS backpressure: stall admission while this store's
          // committed WOS batches sit at the Tuple Mover's hard cap.
          FABRIC_RETURN_IF_ERROR(db_->tuple_mover()->AdmitWos(
              self, def->name, copy.store, copy.host));
          FABRIC_RETURN_IF_ERROR(
              copy.store->InsertPending(wt.txn, std::move(batch)));
        }
      }
    }
    // Maintain every projection of the table in the same transaction.
    return db_->WriteProjectionRows(self, *def, rows, wt.txn, node_,
                                    stmt.direct, scale);
  }();
  FABRIC_RETURN_IF_ERROR(FinishWriteTxn(self, wt, status));
  QueryResult result;
  result.affected = static_cast<int64_t>(rows.size());
  return result;
}

Result<QueryResult> Session::ExecUpdate(sim::Process& self,
                                        const sql::UpdateStmt& stmt) {
  FABRIC_ASSIGN_OR_RETURN(const TableDef* def,
                          db_->catalog().GetTable(stmt.table));
  const Schema& schema = def->schema;
  std::vector<std::pair<int, const sql::Expr*>> assignments;
  for (const auto& [col, expr] : stmt.assignments) {
    FABRIC_ASSIGN_OR_RETURN(int idx, schema.IndexOf(col));
    assignments.emplace_back(idx, expr.get());
  }

  WriteTxn wt = EnsureWriteTxn();
  int64_t affected = 0;
  Status status = [&]() -> Status {
    FABRIC_RETURN_IF_ERROR(db_->LockTableX(self, wt.txn, def->name));
    db_->TouchTable(wt.txn, def->name);
    FABRIC_ASSIGN_OR_RETURN(Database::TableStorage * storage,
                            db_->GetStorage(def->name));
    Epoch snapshot = db_->current_epoch();
    const CostModel& cost = db_->cost();
    bool replicated = def->segmentation.unsegmented();

    // Compile the WHERE for the vectorized scan; the leftovers run
    // row-at-a-time with the write path's lenient error semantics
    // (an erroring predicate simply doesn't match).
    storage::ScanPredicate predicate;
    sql::ExprPtr residual;
    std::vector<int> residual_columns;
    if (stmt.where != nullptr) {
      sql::CompiledScan compiled =
          sql::CompileScanPredicate(*stmt.where, schema);
      predicate = std::move(compiled.predicate);
      residual = std::move(compiled.residual);
      if (residual != nullptr) {
        std::set<int> cols;
        FABRIC_RETURN_IF_ERROR(CollectColumns(*residual, schema, &cols));
        residual_columns.assign(cols.begin(), cols.end());
      }
    }
    std::vector<int> all_columns(schema.num_columns());
    for (int c = 0; c < schema.num_columns(); ++c) all_columns[c] = c;

    storage::ScanSpec spec;
    spec.as_of = snapshot;
    spec.txn = wt.txn;
    spec.predicate = &predicate;
    if (residual != nullptr) {
      spec.residual = [&](const Row& row) -> Result<bool> {
        sql::EvalContext context;
        context.schema = &schema;
        context.row = &row;
        context.udx = &db_->udx_resolver();
        return sql::EvalPredicateLenient(*residual, context);
      };
    }
    spec.residual_columns = &residual_columns;

    // Anchor-side victim / replacement capture for projection
    // maintenance (full anchor-width rows, each logical row once).
    std::vector<Row> all_victims;
    std::vector<Row> all_replacements;
    bool counted_replicated = false;
    for (int n = 0; n < db_->num_nodes(); ++n) {
      // Replicated: every UP replica applies the update in place.
      // Segmented: the scan reads the segment's serving copy (primary, or
      // buddy when the primary's node is down) and the delete + reinsert
      // hit every live copy.
      if (replicated && !db_->node_up(n)) continue;
      Database::SegmentCopy read_copy;
      if (replicated) {
        read_copy = Database::SegmentCopy{storage->per_node[n].get(), n};
      } else {
        FABRIC_ASSIGN_OR_RETURN(read_copy, db_->ReadCopy(storage, n));
      }
      // Scan cost over the segment's visible rows (all columns, as the
      // row-store UPDATE reads full rows to build replacements).
      storage::ScanSpec node_spec = spec;
      node_spec.cost_columns = &all_columns;
      storage::ScanStats stats;
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> matched,
                              read_copy.store->Scan(node_spec, &stats));
      DataProfile scanned = stats.visible_profile;
      scanned.ScaleBy(db_->EffectiveScale(def->name));
      FABRIC_RETURN_IF_ERROR(
          net::RunCpu(self, db_->network(),
                      db_->node_host(read_copy.host),
                      scanned.ScanCpu(cost) +
                          static_cast<double>(stats.containers_scanned) *
                              cost.ros_container_open_cpu));
      std::vector<Row> replacements;
      replacements.reserve(matched.size());
      for (const Row& row : matched) {
        Row updated = row;
        sql::EvalContext context;
        context.schema = &schema;
        context.row = &row;
        context.udx = &db_->udx_resolver();
        for (const auto& [idx, expr] : assignments) {
          FABRIC_ASSIGN_OR_RETURN(Value v, sql::Eval(*expr, context));
          updated[idx] = std::move(v);
        }
        FABRIC_RETURN_IF_ERROR(ValidateRow(schema, updated));
        replacements.push_back(std::move(updated));
      }
      // Same selection pipeline as the Scan above, so every copy picks
      // exactly the same rows.
      if (replicated) {
        FABRIC_ASSIGN_OR_RETURN(
            int64_t deleted, read_copy.store->MarkDeletedPending(spec));
        FABRIC_CHECK(deleted == static_cast<int64_t>(replacements.size()));
        // Count each logical row once, from the first replica that is
        // actually UP (node 0's replica may be down).
        if (!counted_replicated) {
          affected += deleted;
          counted_replicated = true;
          all_victims.insert(all_victims.end(), matched.begin(),
                             matched.end());
          all_replacements.insert(all_replacements.end(),
                                  replacements.begin(),
                                  replacements.end());
        }
        if (!replacements.empty()) {
          FABRIC_RETURN_IF_ERROR(read_copy.store->InsertPending(
              wt.txn, std::move(replacements)));
        }
      } else {
        FABRIC_ASSIGN_OR_RETURN(std::vector<Database::SegmentCopy> writes,
                                db_->WriteCopies(storage, n));
        int64_t deleted = -1;
        for (const Database::SegmentCopy& copy : writes) {
          FABRIC_ASSIGN_OR_RETURN(int64_t d,
                                  copy.store->MarkDeletedPending(spec));
          if (deleted < 0) {
            deleted = d;
          } else {
            FABRIC_CHECK(d == deleted) << "buddy copies diverged";
          }
        }
        FABRIC_CHECK(deleted == static_cast<int64_t>(replacements.size()));
        affected += deleted;
        all_victims.insert(all_victims.end(), matched.begin(),
                           matched.end());
        all_replacements.insert(all_replacements.end(),
                                replacements.begin(), replacements.end());
        // Re-route new versions by the (possibly changed) segmentation
        // hash, into every live copy of the owning segment.
        for (Row& row : replacements) {
          int owner = db_->OwnerNode(*def, row);
          FABRIC_ASSIGN_OR_RETURN(
              std::vector<Database::SegmentCopy> owner_writes,
              db_->WriteCopies(storage, owner));
          double row_bytes =
              ProfileRow(row).raw_bytes * db_->EffectiveScale(def->name);
          for (size_t c = 0; c < owner_writes.size(); ++c) {
            const Database::SegmentCopy& copy = owner_writes[c];
            if (copy.host != read_copy.host) {
              FABRIC_RETURN_IF_ERROR(db_->network()->Transfer(
                  self,
                  {db_->node_host(read_copy.host).int_egress,
                   db_->node_host(copy.host).int_ingress},
                  row_bytes));
            }
            Row replica = c + 1 < owner_writes.size() ? row
                                                      : std::move(row);
            FABRIC_RETURN_IF_ERROR(
                copy.store->InsertPending(wt.txn, {std::move(replica)}));
          }
        }
      }
    }
    // Projection maintenance: mark the old images deleted by content,
    // then route the new versions through each projection's own
    // segmentation — same transaction, same commit epoch.
    double scale = db_->EffectiveScale(def->name);
    FABRIC_RETURN_IF_ERROR(db_->DeleteProjectionRows(
        self, *def, all_victims, wt.txn, snapshot, scale));
    return db_->WriteProjectionRows(self, *def, all_replacements, wt.txn,
                                    node_, /*direct=*/false, scale);
  }();
  Status finished = FinishWriteTxn(self, wt, status);
  // Recorded before ack-loss propagation: conditional updates (UPDATE ...
  // WHERE guard) are the connector's election and dedup primitive, and
  // the trace layer must see who won even when the winner's ack was
  // killed mid-flight.
  last_update_affected_ = affected;
  obs::TraceEvent("vertica", "update",
                  {{"table", def->name},
                   {"affected", affected},
                   {"txn", wt.txn}});
  FABRIC_RETURN_IF_ERROR(finished);
  QueryResult result;
  result.affected = affected;
  return result;
}

Result<QueryResult> Session::ExecDelete(sim::Process& self,
                                        const sql::DeleteStmt& stmt) {
  FABRIC_ASSIGN_OR_RETURN(const TableDef* def,
                          db_->catalog().GetTable(stmt.table));
  const Schema& schema = def->schema;
  WriteTxn wt = EnsureWriteTxn();
  int64_t affected = 0;
  Status status = [&]() -> Status {
    FABRIC_RETURN_IF_ERROR(db_->LockTableX(self, wt.txn, def->name));
    db_->TouchTable(wt.txn, def->name);
    FABRIC_ASSIGN_OR_RETURN(Database::TableStorage * storage,
                            db_->GetStorage(def->name));
    Epoch snapshot = db_->current_epoch();
    const CostModel& cost = db_->cost();
    bool replicated = def->segmentation.unsegmented();

    storage::ScanPredicate predicate;
    sql::ExprPtr residual;
    std::vector<int> residual_columns;
    if (stmt.where != nullptr) {
      sql::CompiledScan compiled =
          sql::CompileScanPredicate(*stmt.where, schema);
      predicate = std::move(compiled.predicate);
      residual = std::move(compiled.residual);
      if (residual != nullptr) {
        std::set<int> cols;
        FABRIC_RETURN_IF_ERROR(CollectColumns(*residual, schema, &cols));
        residual_columns.assign(cols.begin(), cols.end());
      }
    }
    storage::ScanSpec spec;
    spec.as_of = snapshot;
    spec.txn = wt.txn;
    spec.predicate = &predicate;
    if (residual != nullptr) {
      spec.residual = [&](const Row& row) -> Result<bool> {
        sql::EvalContext context;
        context.schema = &schema;
        context.row = &row;
        context.udx = &db_->udx_resolver();
        return sql::EvalPredicateLenient(*residual, context);
      };
    }
    spec.residual_columns = &residual_columns;

    // Victim capture (full anchor-width rows, each logical row once)
    // for projection maintenance below.
    std::vector<Row> all_victims;
    bool counted_replicated = false;
    for (int n = 0; n < db_->num_nodes(); ++n) {
      if (replicated) {
        // Every UP replica applies the delete; count each logical row
        // once, from the first replica that is actually UP.
        if (!db_->node_up(n)) continue;
        storage::SegmentStore* store = storage->per_node[n].get();
        FABRIC_ASSIGN_OR_RETURN(int64_t visible_count,
                                store->CountVisible(snapshot, wt.txn));
        DataProfile scanned;
        scanned.rows = static_cast<double>(visible_count);
        scanned.ScaleBy(db_->EffectiveScale(def->name));
        FABRIC_RETURN_IF_ERROR(net::RunCpu(self, db_->network(),
                                           db_->node_host(n),
                                           scanned.ScanCpu(cost)));
        FABRIC_ASSIGN_OR_RETURN(
            int64_t deleted,
            store->MarkDeletedPending(
                spec, counted_replicated ? nullptr : &all_victims));
        if (!counted_replicated) {
          affected += deleted;
          counted_replicated = true;
        }
      } else {
        // Scan cost on the segment's serving copy; the delete marks land
        // on every live copy.
        FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy read_copy,
                                db_->ReadCopy(storage, n));
        FABRIC_ASSIGN_OR_RETURN(
            int64_t visible_count,
            read_copy.store->CountVisible(snapshot, wt.txn));
        DataProfile scanned;
        scanned.rows = static_cast<double>(visible_count);
        scanned.ScaleBy(db_->EffectiveScale(def->name));
        FABRIC_RETURN_IF_ERROR(
            net::RunCpu(self, db_->network(),
                        db_->node_host(read_copy.host),
                        scanned.ScanCpu(cost)));
        FABRIC_ASSIGN_OR_RETURN(std::vector<Database::SegmentCopy> writes,
                                db_->WriteCopies(storage, n));
        int64_t deleted = -1;
        for (const Database::SegmentCopy& copy : writes) {
          FABRIC_ASSIGN_OR_RETURN(
              int64_t d,
              copy.store->MarkDeletedPending(
                  spec, deleted < 0 ? &all_victims : nullptr));
          if (deleted < 0) {
            deleted = d;
          } else {
            FABRIC_CHECK(d == deleted) << "buddy copies diverged";
          }
        }
        affected += deleted;
      }
    }
    // Keep every projection's view of the table in lockstep with the
    // anchor delete.
    return db_->DeleteProjectionRows(self, *def, all_victims, wt.txn,
                                     snapshot,
                                     db_->EffectiveScale(def->name));
  }();
  FABRIC_RETURN_IF_ERROR(FinishWriteTxn(self, wt, status));
  QueryResult result;
  result.affected = affected;
  return result;
}

// --------------------------------------------------------------- SELECT

namespace {

// Applies a SELECT's WHERE / aggregation / projection / ORDER / LIMIT to
// an in-memory rowset (the initiator-local part of query execution,
// shared by base tables, views and system tables).
Result<QueryResult> LocalSelect(const std::vector<Row>& rows,
                                const Schema& schema,
                                const sql::SelectStmt& select,
                                const sql::UdxResolver* udx,
                                const sql::AggregateUdxResolver* agg_udx,
                                PipelineCompiler* pipeline,
                                const exec::SpillPolicy* spill = nullptr) {
  const bool budgeted = spill != nullptr && spill->budget_bytes > 0;
  // Compiled fast path: a cached vectorized pipeline runs the whole
  // body (filter → project/aggregate) over row blocks. It either
  // produces exactly what the interpreter below would — same rows, same
  // order, same schema — or bails (dynamic type surprise, division by
  // zero, UDx error, uncompilable shape), in which case the interpreter
  // runs from scratch and stays authoritative for results and errors.
  // A budgeted run skips it: the compiled aggregate cannot spill.
  if (pipeline != nullptr && pipeline->enabled() && !budgeted) {
    std::shared_ptr<const CompiledQuery> compiled =
        pipeline->GetOrCompileSelect(select, schema, udx, agg_udx);
    if (compiled != nullptr) {
      auto compiled_rows = exec::RunCompiledSelect(compiled->select, rows);
      if (compiled_rows.has_value()) {
        QueryResult result;
        result.schema = compiled->out_schema;
        result.rows = std::move(*compiled_rows);
        FABRIC_RETURN_IF_ERROR(ApplyOrderAndLimit(select, &result));
        obs::IncrCounter("sql.compiled_pipelines");
        return result;
      }
    }
    obs::IncrCounter("sql.interpreted_fallbacks");
  }

  // Filter.
  std::vector<const Row*> filtered;
  filtered.reserve(rows.size());
  for (const Row& row : rows) {
    if (select.where != nullptr) {
      sql::EvalContext context;
      context.schema = &schema;
      context.row = &row;
      context.udx = udx;
      context.aggregate_udx = agg_udx;
      FABRIC_ASSIGN_OR_RETURN(bool keep,
                              sql::EvalPredicate(*select.where, context));
      if (!keep) continue;
    }
    filtered.push_back(&row);
  }

  const bool aggregate = sql::IsAggregateSelect(select, agg_udx);

  QueryResult result;
  if (!aggregate) {
    // Output schema.
    std::vector<storage::ColumnDef> out_columns;
    std::vector<const sql::Expr*> exprs;
    for (size_t i = 0; i < select.items.size(); ++i) {
      const sql::SelectItem& item = select.items[i];
      if (item.star) {
        for (int c = 0; c < schema.num_columns(); ++c) {
          out_columns.push_back(schema.column(c));
          exprs.push_back(nullptr);  // placeholder: positional copy
        }
        continue;
      }
      out_columns.push_back({sql::SelectItemName(item, static_cast<int>(i)),
                             InferType(*item.expr, schema)});
      exprs.push_back(item.expr.get());
    }
    result.schema = Schema(std::move(out_columns));
    for (const Row* row : filtered) {
      Row out;
      out.reserve(exprs.size());
      int star_cursor = 0;
      for (const sql::Expr* e : exprs) {
        if (e == nullptr) {
          out.push_back((*row)[star_cursor++]);
          continue;
        }
        sql::EvalContext context;
        context.schema = &schema;
        context.row = row;
        context.udx = udx;
        context.aggregate_udx = agg_udx;
        FABRIC_ASSIGN_OR_RETURN(Value v, sql::Eval(*e, context));
        out.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
    }
    FABRIC_RETURN_IF_ERROR(ApplyOrderAndLimit(select, &result));
    return result;
  }

  FABRIC_ASSIGN_OR_RETURN(AggregateItems items,
                          ResolveAggregateItems(select, schema, udx, agg_udx));
  result.schema = std::move(items.out_schema);
  const std::vector<exec::AggCall>& calls = items.calls;
  exec::GroupTable groups(&calls, spill);
  sql::EvalContext context;
  context.schema = &schema;
  context.udx = udx;
  context.aggregate_udx = agg_udx;
  for (const Row* row : filtered) {
    context.row = row;
    FABRIC_RETURN_IF_ERROR(groups.Add(
        *row, items.group_cols,
        [&](exec::GroupTable::Group& group) -> Status {
          for (size_t i = 0; i < calls.size(); ++i) {
            if (calls[i].group_pos >= 0) continue;
            Value v = Value::Int64(1);  // COUNT(*) counts rows
            if (items.args[i] != nullptr) {
              FABRIC_ASSIGN_OR_RETURN(v, sql::Eval(*items.args[i], context));
            }
            FABRIC_RETURN_IF_ERROR(
                exec::Update(calls[i], v, &group.states[i]));
          }
          return Status::OK();
        }));
  }
  FABRIC_RETURN_IF_ERROR(groups.Finish(items.group_cols.empty()));
  for (const auto& [key, group] : groups.groups()) {
    Row out;
    out.reserve(calls.size());
    FABRIC_RETURN_IF_ERROR(groups.AppendFinal(group, &out));
    result.rows.push_back(std::move(out));
  }
  FABRIC_RETURN_IF_ERROR(ApplyOrderAndLimit(select, &result));
  return result;
}

}  // namespace

Result<QueryResult> Session::SystemTable(
    const std::string& lower_name) const {
  QueryResult result;
  if (lower_name == "v_catalog.nodes") {
    result.schema = Schema({{"node_id", DataType::kInt64},
                            {"node_name", DataType::kVarchar},
                            {"node_address", DataType::kVarchar},
                            {"state", DataType::kVarchar}});
    for (int i = 0; i < db_->num_nodes(); ++i) {
      result.rows.push_back(
          {Value::Int64(i), Value::Varchar(db_->node_name(i)),
           Value::Varchar(db_->node_address(i)),
           Value::Varchar(std::string(
               NodeStateName(db_->node_state(i))))});
    }
    return result;
  }
  if (lower_name == "v_catalog.segments") {
    // Signed ring bounds; the wrap segment's upper bound is NULL (+inf).
    result.schema = Schema({{"table_name", DataType::kVarchar},
                            {"node_id", DataType::kInt64},
                            {"node_name", DataType::kVarchar},
                            {"segment_lower", DataType::kInt64},
                            {"segment_upper", DataType::kInt64},
                            {"buddy_node_id", DataType::kInt64},
                            {"buddy_node_name", DataType::kVarchar}});
    for (const std::string& table : db_->catalog().TableNames()) {
      auto def = db_->catalog().GetTable(table);
      if (!def.ok() || (*def)->segmentation.unsegmented()) continue;
      const auto& ranges = db_->node_ranges();
      for (int n = 0; n < db_->num_nodes(); ++n) {
        Value upper = ranges[n].upper == 0
                          ? Value::Null()
                          : Value::Int64(sql::RingHashToSigned(
                                ranges[n].upper));
        // k=1 buddy placement: single-node clusters keep no buddy copy.
        Value buddy_id = db_->num_nodes() > 1
                             ? Value::Int64(db_->buddy_node(n))
                             : Value::Null();
        Value buddy_name =
            db_->num_nodes() > 1
                ? Value::Varchar(db_->node_name(db_->buddy_node(n)))
                : Value::Null();
        result.rows.push_back(
            {Value::Varchar(table), Value::Int64(n),
             Value::Varchar(db_->node_name(n)),
             Value::Int64(sql::RingHashToSigned(ranges[n].lower)),
             upper, buddy_id, buddy_name});
      }
    }
    return result;
  }
  if (lower_name == "v_catalog.epochs") {
    result.schema = Schema({{"current_epoch", DataType::kInt64},
                            {"last_good_epoch", DataType::kInt64},
                            {"ahm_epoch", DataType::kInt64},
                            {"retained_epochs", DataType::kInt64}});
    result.rows.push_back(
        {Value::Int64(static_cast<int64_t>(db_->current_epoch())),
         Value::Int64(static_cast<int64_t>(db_->current_epoch())),
         Value::Int64(static_cast<int64_t>(db_->ahm())),
         Value::Int64(static_cast<int64_t>(db_->epoch_commits().size()))});
    return result;
  }
  if (lower_name == "v_monitor.tuple_mover") {
    TupleMover* tm = db_->tuple_mover();
    result.schema = Schema({{"node_id", DataType::kInt64},
                            {"node_name", DataType::kVarchar},
                            {"operation", DataType::kVarchar},
                            {"runs", DataType::kInt64},
                            {"bytes", DataType::kFloat64},
                            {"is_armed", DataType::kBool}});
    for (int n = 0; n < db_->num_nodes(); ++n) {
      const TupleMover::TaskStats& mo = tm->moveout_stats(n);
      const TupleMover::TaskStats& me = tm->mergeout_stats(n);
      result.rows.push_back({Value::Int64(n),
                             Value::Varchar(db_->node_name(n)),
                             Value::Varchar("moveout"),
                             Value::Int64(mo.runs), Value::Float64(mo.bytes),
                             Value::Bool(mo.armed)});
      result.rows.push_back({Value::Int64(n),
                             Value::Varchar(db_->node_name(n)),
                             Value::Varchar("mergeout"),
                             Value::Int64(me.runs), Value::Float64(me.bytes),
                             Value::Bool(me.armed)});
    }
    // Cluster-wide AHM/purge row: runs = AHM advances, bytes = purged rows.
    result.rows.push_back(
        {Value::Int64(-1), Value::Varchar("cluster"), Value::Varchar("ahm"),
         Value::Int64(tm->ahm_advances()),
         Value::Float64(static_cast<double>(tm->purged_rows())),
         Value::Bool(false)});
    return result;
  }
  if (lower_name == "v_monitor.storage_containers") {
    result.schema = Schema({{"table_name", DataType::kVarchar},
                            {"node_id", DataType::kInt64},
                            {"copy", DataType::kVarchar},
                            {"container_id", DataType::kInt64},
                            {"rows", DataType::kInt64},
                            {"deleted_rows", DataType::kInt64},
                            {"raw_bytes", DataType::kFloat64},
                            {"encoded_bytes", DataType::kFloat64},
                            {"min_epoch", DataType::kInt64},
                            {"max_epoch", DataType::kInt64},
                            {"is_committed", DataType::kBool}});
    for (int n = 0; n < db_->num_nodes(); ++n) {
      db_->ForEachHostedStore(n, [&](const Database::HostedStore& hs) {
        // Projection containers are reported by
        // v_monitor.projection_storage, not here.
        if (!hs.projection.empty()) return;
        std::vector<storage::ContainerStats> stats = hs.store->RosStats();
        for (size_t i = 0; i < stats.size(); ++i) {
          const storage::ContainerStats& s = stats[i];
          result.rows.push_back(
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
    return result;
  }
  if (lower_name == "v_monitor.resource_pool_status") {
    result.schema = Schema({{"node_id", DataType::kInt64},
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
                            {"queue_wait_seconds", DataType::kFloat64}});
    wm::WorkloadManager* wm = db_->workload_manager();
    if (wm != nullptr) {
      for (const wm::WorkloadManager::PoolStatus& s : wm->PoolStatusRows()) {
        result.rows.push_back(
            {Value::Int64(s.node), Value::Varchar(db_->node_name(s.node)),
             Value::Varchar(s.pool), Value::Int64(s.priority),
             Value::Int64(s.max_concurrency),
             Value::Float64(s.memory_budget),
             Value::Float64(s.memory_inuse), Value::Int64(s.running),
             Value::Int64(s.queued), Value::Int64(s.admitted),
             Value::Int64(s.borrowed), Value::Int64(s.timeouts),
             Value::Int64(s.rejected), Value::Int64(s.spills),
             Value::Float64(s.spill_bytes),
             Value::Float64(s.queue_wait_seconds)});
      }
    }
    return result;
  }
  if (lower_name == "v_monitor.resource_queues") {
    result.schema = Schema({{"node_id", DataType::kInt64},
                            {"node_name", DataType::kVarchar},
                            {"pool_name", DataType::kVarchar},
                            {"priority", DataType::kInt64},
                            {"position", DataType::kInt64},
                            {"memory_requested_bytes", DataType::kFloat64},
                            {"queued_at", DataType::kFloat64}});
    wm::WorkloadManager* wm = db_->workload_manager();
    if (wm != nullptr) {
      for (const wm::WorkloadManager::QueueEntry& q : wm->QueueRows()) {
        result.rows.push_back(
            {Value::Int64(q.node), Value::Varchar(db_->node_name(q.node)),
             Value::Varchar(q.pool), Value::Int64(q.priority),
             Value::Int64(q.position), Value::Float64(q.memory_requested),
             Value::Float64(q.queued_at)});
      }
    }
    return result;
  }
  if (lower_name == "v_catalog.projections") {
    result.schema = Schema({{"projection_name", DataType::kVarchar},
                            {"anchor_table", DataType::kVarchar},
                            {"columns", DataType::kVarchar},
                            {"sort_columns", DataType::kVarchar},
                            {"encodings", DataType::kVarchar},
                            // "is_segmented": SEGMENTED is a keyword, a
                            // bare `segmented` column would not parse.
                            {"is_segmented", DataType::kBool},
                            {"segment_columns", DataType::kVarchar},
                            {"create_epoch", DataType::kInt64}});
    for (const std::string& name : db_->catalog().ProjectionNames()) {
      auto proj = db_->catalog().GetProjection(name);
      if (!proj.ok()) continue;
      const ProjectionDef& p = **proj;
      auto join_names = [&p](const std::vector<int>& cols) {
        std::string out;
        for (int c : cols) {
          if (!out.empty()) out += ",";
          out += p.schema.column(c).name;
        }
        return out;
      };
      std::vector<int> all_columns(p.schema.num_columns());
      for (int c = 0; c < p.schema.num_columns(); ++c) all_columns[c] = c;
      std::string encodings;
      for (storage::Encoding e : p.encodings) {
        if (!encodings.empty()) encodings += ",";
        encodings += storage::EncodingName(e);
      }
      result.rows.push_back(
          {Value::Varchar(p.name), Value::Varchar(p.anchor),
           Value::Varchar(join_names(all_columns)),
           Value::Varchar(join_names(p.sort_columns)),
           Value::Varchar(encodings),
           Value::Bool(!p.segmentation.unsegmented()),
           Value::Varchar(join_names(p.segmentation.columns)),
           Value::Int64(static_cast<int64_t>(p.create_epoch))});
    }
    return result;
  }
  if (lower_name == "v_monitor.projection_storage") {
    result.schema = Schema({{"projection_name", DataType::kVarchar},
                            {"anchor_table", DataType::kVarchar},
                            {"node_id", DataType::kInt64},
                            {"copy", DataType::kVarchar},
                            {"containers", DataType::kInt64},
                            {"rows", DataType::kInt64},
                            {"deleted_rows", DataType::kInt64},
                            {"raw_bytes", DataType::kFloat64},
                            {"encoded_bytes", DataType::kFloat64},
                            {"wos_batches", DataType::kInt64}});
    for (int n = 0; n < db_->num_nodes(); ++n) {
      db_->ForEachHostedStore(n, [&](const Database::HostedStore& hs) {
        if (hs.projection.empty()) return;
        auto proj = db_->catalog().GetProjection(hs.projection);
        int64_t rows = 0;
        int64_t deleted = 0;
        double raw = 0;
        double encoded = 0;
        std::vector<storage::ContainerStats> stats = hs.store->RosStats();
        for (const storage::ContainerStats& s : stats) {
          rows += s.rows;
          deleted += s.deleted_rows;
          raw += s.raw_bytes;
          encoded += s.encoded_bytes;
        }
        result.rows.push_back(
            {Value::Varchar(hs.projection),
             Value::Varchar(proj.ok() ? (*proj)->anchor : hs.table),
             Value::Int64(n),
             Value::Varchar(hs.is_buddy ? "buddy" : "primary"),
             Value::Int64(static_cast<int64_t>(stats.size())),
             Value::Int64(rows), Value::Int64(deleted), Value::Float64(raw),
             Value::Float64(encoded),
             Value::Int64(hs.store->num_wos_batches())});
      });
    }
    return result;
  }
  if (lower_name == "v_catalog.tables") {
    result.schema = Schema({{"table_name", DataType::kVarchar},
                            {"is_view", DataType::kBool},
                            {"segmented", DataType::kBool}});
    for (const std::string& table : db_->catalog().TableNames()) {
      auto def = db_->catalog().GetTable(table);
      result.rows.push_back(
          {Value::Varchar(table), Value::Bool(false),
           Value::Bool(def.ok() &&
                       !(*def)->segmentation.unsegmented())});
    }
    for (const std::string& view : db_->catalog().ViewNames()) {
      result.rows.push_back({Value::Varchar(view), Value::Bool(true),
                             Value::Bool(false)});
    }
    return result;
  }
  if (lower_name == "v_monitor.query_requests") {
    result.schema = Schema({{"request_id", DataType::kInt64},
                            {"table_name", DataType::kVarchar},
                            {"join_table", DataType::kVarchar},
                            {"referenced_columns", DataType::kVarchar},
                            {"group_by_columns", DataType::kVarchar},
                            {"join_key_columns", DataType::kVarchar},
                            {"aggregate", DataType::kBool},
                            {"pool_name", DataType::kVarchar},
                            {"strategy", DataType::kVarchar},
                            {"started_at", DataType::kFloat64},
                            {"duration_seconds", DataType::kFloat64}});
    auto csv = [](const std::vector<std::string>& names) {
      std::string out;
      for (const std::string& name : names) {
        if (!out.empty()) out += ",";
        out += name;
      }
      return out;
    };
    for (const QueryRequest& request : db_->query_requests()) {
      result.rows.push_back(
          {Value::Int64(request.request_id), Value::Varchar(request.table),
           Value::Varchar(request.join_table),
           Value::Varchar(csv(request.referenced)),
           Value::Varchar(csv(request.group_by)),
           Value::Varchar(csv(request.join_keys)),
           Value::Bool(request.aggregate), Value::Varchar(request.pool),
           Value::Varchar(request.strategy),
           Value::Float64(request.started_at),
           Value::Float64(request.duration)});
    }
    return result;
  }
  if (lower_name == "v_monitor.design_proposals") {
    result.schema = Schema({{"proposal_name", DataType::kVarchar},
                            {"anchor_table", DataType::kVarchar},
                            {"columns", DataType::kVarchar},
                            {"sort_columns", DataType::kVarchar},
                            {"segment_columns", DataType::kVarchar},
                            {"benefit", DataType::kFloat64},
                            {"storage_bytes", DataType::kFloat64},
                            {"ddl", DataType::kVarchar}});
    auto csv = [](const std::vector<std::string>& names) {
      std::string out;
      for (const std::string& name : names) {
        if (!out.empty()) out += ",";
        out += name;
      }
      return out;
    };
    for (const designer::Proposal& proposal : db_->design_proposals()) {
      result.rows.push_back(
          {Value::Varchar(proposal.name), Value::Varchar(proposal.anchor),
           Value::Varchar(csv(proposal.columns)),
           Value::Varchar(csv(proposal.sort_columns)),
           Value::Varchar(csv(proposal.segment_columns)),
           Value::Float64(proposal.benefit),
           Value::Float64(proposal.storage_bytes),
           Value::Varchar(proposal.ddl)});
    }
    return result;
  }
  return NotFoundError(
      StrCat("unknown system table '", lower_name, "'"));
}

Result<QueryResult> Session::ExecSelect(sim::Process& self,
                                        const sql::SelectStmt& select,
                                        bool to_client, int view_depth) {
  if (view_depth > 8) {
    return InvalidArgumentError("view nesting too deep");
  }
  const CostModel& cost = db_->cost();
  const sql::UdxResolver* udx = &db_->udx_resolver();
  const sql::AggregateUdxResolver* agg_udx = &db_->aggregate_udx_resolver();

  // Memory budget from the statement's admission grant: beyond it the
  // aggregate hash table spills partitioned runs to the initiator's
  // local disk and merges them back (grace hash), byte-identical to the
  // unbudgeted run.
  exec::SpillPolicy spill_policy;
  const exec::SpillPolicy* spill = nullptr;
  if (wm_grant_.valid() && wm_grant_.memory > 0) {
    auto charge_disk = [this, &self](double bytes) -> Status {
      const net::Host& host = db_->node_host(node_);
      if (host.has_disk()) {
        return db_->network()->Transfer(self, {host.disk}, bytes);
      }
      return self.Sleep(bytes / db_->cost().disk_read_bandwidth);
    };
    spill_policy.budget_bytes = wm_grant_.memory;
    spill_policy.charge_write = charge_disk;
    spill_policy.charge_read = charge_disk;
    spill_policy.on_spill = [this](double bytes, int64_t spilled_groups) {
      db_->workload_manager()->ReportSpill(wm_grant_, bytes);
      obs::IncrCounter("sql.agg_spills");
      obs::IncrCounter("sql.agg_spill_groups",
                       static_cast<double>(spilled_groups));
    };
    spill = &spill_policy;
  }

  // Aggregates (builtin or UDx) cannot be evaluated per row, so a WHERE
  // clause containing one is rejected at planning — the scan's residual
  // evaluator never sees the call.
  if (select.where != nullptr &&
      sql::ContainsAggregate(*select.where, agg_udx)) {
    return InvalidArgumentError(
        "aggregate functions are not allowed in WHERE");
  }

  // FROM-less SELECT (constant expressions).
  if (select.from.empty()) {
    std::vector<Row> one_row = {Row{}};
    Schema empty_schema;
    FABRIC_ASSIGN_OR_RETURN(QueryResult result,
                            LocalSelect(one_row, empty_schema, select,
                                        udx, agg_udx,
                                        db_->pipeline_compiler(), spill));
    if (to_client) {
      FABRIC_RETURN_IF_ERROR(StreamToClient(self, 64, net::kUnlimitedRate));
    }
    return result;
  }

  std::string from = ToLower(select.from);

  // INNER JOIN: a planned merge/hash join when both sides are base
  // tables with a simple equality ON (ExecJoin), with a recursive
  // scan-then-join fallback for views, system tables and complex ON
  // clauses. Views over joins are what let V2S push join processing into
  // Vertica (Section 3.1.1).
  if (!select.join.empty()) {
    return ExecJoin(self, select, to_client, view_depth, spill);
  }

  // System tables.
  if (StartsWith(from, "v_catalog.") || StartsWith(from, "v_monitor.")) {
    FABRIC_ASSIGN_OR_RETURN(QueryResult base, SystemTable(from));
    FABRIC_ASSIGN_OR_RETURN(QueryResult result,
                            LocalSelect(base.rows, base.schema, select,
                                        udx, agg_udx,
                                        db_->pipeline_compiler(), spill));
    if (to_client) {
      DataProfile profile = ProfileRows(result.rows);
      FABRIC_RETURN_IF_ERROR(StreamToClient(
          self, profile.JdbcWireBytes(cost), net::kUnlimitedRate));
    }
    return result;
  }

  // Views: execute the stored SELECT inside the database (this is how a
  // pre-defined view lets V2S push joins/aggregations down, Sec. 3.1.1),
  // then run the outer query over its result on the initiator.
  if (db_->catalog().HasView(select.from)) {
    FABRIC_ASSIGN_OR_RETURN(const ViewDef* view,
                            db_->catalog().GetView(select.from));
    FABRIC_ASSIGN_OR_RETURN(sql::Statement view_statement,
                            sql::Parse(view->query_sql));
    auto* view_select = std::get_if<sql::SelectStmt>(&view_statement);
    if (view_select == nullptr) {
      return InternalError("view body is not a SELECT");
    }
    // Propagate the outer epoch so all V2S partition queries of a view
    // read one snapshot.
    if (select.at_epoch >= 0 && view_select->at_epoch < 0) {
      view_select->at_epoch = select.at_epoch;
    }
    FABRIC_ASSIGN_OR_RETURN(
        QueryResult sub,
        ExecSelect(self, *view_select, /*to_client=*/false,
                   view_depth + 1));
    FABRIC_ASSIGN_OR_RETURN(QueryResult result,
                            LocalSelect(sub.rows, sub.schema, select,
                                        udx, agg_udx,
                                        db_->pipeline_compiler(), spill));
    if (to_client) {
      DataProfile profile = ProfileRows(result.rows);
      profile.ScaleBy(cost.data_scale);
      double wire = profile.JdbcWireBytes(cost);
      double cap = profile.StreamRateCap(cost.result_stream_bytes_per_sec,
                                         cost.result_row_overhead, wire);
      FABRIC_RETURN_IF_ERROR(StreamToClient(self, wire, cap));
    }
    return result;
  }

  // Base table: distributed scan.
  FABRIC_ASSIGN_OR_RETURN(const TableDef* def,
                          db_->catalog().GetTable(select.from));

  // Projection-aware planning: cost every eligible physical layout of
  // the anchor and scan the cheapest (the super projection is the 1.0
  // baseline). The test hooks pin the choice when set.
  projections::QueryShape shape = projections::ShapeOf(select, def->schema);
  FABRIC_ASSIGN_OR_RETURN(projections::PlanChoice plan,
                          ResolveScanPlan(*def, shape));

  // Workload capture for the designer (v_monitor.query_requests).
  QueryRequest request;
  request.table = ToLower(def->name);
  if (shape.star) {
    for (int c = 0; c < def->schema.num_columns(); ++c) {
      request.referenced.push_back(ToLower(def->schema.column(c).name));
    }
  } else {
    request.referenced = shape.referenced;
  }
  request.group_by = shape.group_by;
  request.aggregate = shape.aggregate;
  request.pool = resource_pool_;
  db_->RecordQueryRequest(std::move(request));

  return ExecScanSelect(self, select, def, plan, to_client, spill);
}

Result<projections::PlanChoice> Session::ResolveScanPlan(
    const TableDef& def, const projections::QueryShape& shape) const {
  auto hint = forced_table_projections_.find(ToLower(def.name));
  if (hint != forced_table_projections_.end()) {
    projections::PlanChoice plan;  // defaults = the super projection
    if (hint->second.empty()) {
      plan.reason = "forced super projection (per-table hint)";
      return plan;
    }
    Result<const ProjectionDef*> forced =
        db_->catalog().GetProjection(hint->second);
    if (!forced.ok() || !EqualsIgnoreCase((*forced)->anchor, def.name) ||
        !projections::Eligible(def, **forced, shape)) {
      return FailedPreconditionError(
          StrCat(kForcedProjectionToken, ": projection '", hint->second,
                 "' cannot serve this query over table '", def.name, "'"));
    }
    projections::CostAttrs attrs;
    plan.projection = *forced;
    plan.cost = projections::CostProjection(def, *forced, shape, &attrs);
    plan.sorted_group_by = attrs.sorted_group_by;
    plan.sorted_join = attrs.sorted_join;
    plan.reason = StrCat("forced by per-table hint (", hint->second, ")");
    return plan;
  }
  if (forced_projection_.has_value()) {
    // Legacy session-wide hint: "" (or an ineligible / wrongly-anchored
    // name) silently pins the super projection.
    projections::PlanChoice plan;
    if (!forced_projection_->empty()) {
      Result<const ProjectionDef*> forced =
          db_->catalog().GetProjection(*forced_projection_);
      if (forced.ok() && (*forced)->anchor == def.name &&
          projections::Eligible(def, **forced, shape)) {
        projections::CostAttrs attrs;
        plan.projection = *forced;
        plan.cost = projections::CostProjection(def, *forced, shape, &attrs);
        plan.sorted_group_by = attrs.sorted_group_by;
        plan.sorted_join = attrs.sorted_join;
        plan.reason = "forced by session hint";
      }
    }
    return plan;
  }
  return projections::ChoosePlan(db_->catalog(), def, shape);
}

Result<QueryResult> Session::ExecScanSelect(
    sim::Process& self, const sql::SelectStmt& select, const TableDef* def,
    const projections::PlanChoice& plan, bool to_client,
    const exec::SpillPolicy* spill) {
  const CostModel& cost = db_->cost();
  const sql::UdxResolver* udx = &db_->udx_resolver();
  const sql::AggregateUdxResolver* agg_udx = &db_->aggregate_udx_resolver();
  FABRIC_ASSIGN_OR_RETURN(Database::TableStorage * table_storage,
                          db_->GetStorage(select.from));

  // Everything below scans through the chosen physical layout: its
  // schema, its segmentation, its segment stores.
  Database::SegmentSet* scan_set = table_storage;
  const auto* segmentation = &def->segmentation;
  Schema schema = def->schema;
  if (plan.projection != nullptr) {
    FABRIC_ASSIGN_OR_RETURN(
        Database::SegmentSet * proj_set,
        db_->GetProjectionStorage(plan.projection->name));
    scan_set = proj_set;
    segmentation = &plan.projection->segmentation;
    schema = plan.projection->schema;
    obs::IncrCounter(
        StrCat("vertica.projection_scans{", plan.projection->name, "}"));
    obs::TraceEvent("vertica", "projection.scan",
                    {{"projection", plan.projection->name},
                     {"table", def->name}});
  }

  Epoch snapshot;
  if (select.at_epoch >= 0) {
    if (static_cast<Epoch>(select.at_epoch) > db_->current_epoch()) {
      return OutOfRangeError(
          StrCat("epoch ", select.at_epoch, " is in the future"));
    }
    if (static_cast<Epoch>(select.at_epoch) < db_->ahm()) {
      // History at or below the Ancient History Mark may already be
      // purged (rows deleted <= AHM are physically gone), so the read
      // cannot be answered exactly.
      return OutOfRangeError(StrCat(
          "HISTORY_PURGED: epoch ", select.at_epoch,
          " predates the ancient history mark ", db_->ahm()));
    }
    snapshot = static_cast<Epoch>(select.at_epoch);
  } else {
    snapshot = db_->current_epoch();
  }
  // Pin the snapshot for the duration of the statement so the AHM (and
  // the purge behind it) cannot overtake a running scan.
  db_->PinEpoch(snapshot);
  struct EpochPin {
    Database* db;
    Epoch epoch;
    ~EpochPin() { db->UnpinEpoch(epoch); }
  } epoch_pin{db_, snapshot};

  // Columns this query touches (column-store pruning).
  std::set<int> referenced;
  bool any_star = false;
  for (const sql::SelectItem& item : select.items) {
    if (item.star) {
      any_star = true;
    } else {
      FABRIC_RETURN_IF_ERROR(CollectColumns(*item.expr, schema,
                                            &referenced));
    }
  }
  if (select.where != nullptr) {
    FABRIC_RETURN_IF_ERROR(CollectColumns(*select.where, schema,
                                          &referenced));
  }
  for (const std::string& g : select.group_by) {
    FABRIC_ASSIGN_OR_RETURN(int idx, schema.IndexOf(g));
    referenced.insert(idx);
  }
  if (any_star) {
    for (int c = 0; c < schema.num_columns(); ++c) referenced.insert(c);
  }

  const bool aggregate = sql::IsAggregateSelect(select, agg_udx);

  // Participating nodes: unsegmented layouts are served locally;
  // segmented layouts are pruned by the hash ranges the predicate
  // constrains.
  std::vector<int> nodes;
  if (segmentation->unsegmented()) {
    nodes.push_back(node_);
  } else {
    sql::RingRangeSet constrained = sql::RingRangeSet::Full();
    if (select.where != nullptr) {
      std::vector<std::string> seg_names;
      for (int c : segmentation->columns) {
        seg_names.push_back(schema.column(c).name);
      }
      constrained = sql::ExtractHashRanges(*select.where, seg_names);
    }
    for (int n = 0; n < db_->num_nodes(); ++n) {
      if (constrained.Intersects(db_->node_ranges()[n])) nodes.push_back(n);
    }
  }

  // Resource-pool admission on the initiator.
  FABRIC_RETURN_IF_ERROR(db_->PoolAdmit(self, node_));
  struct PoolGuard {
    Database* db;
    int node;
    ~PoolGuard() { db->PoolRelease(node); }
  } pool_guard{db_, node_};

  // Shared state between the per-node scan processes and the streaming
  // loop below. Heap-allocated and self-contained so the scans stay valid
  // even if this process is killed mid-query.
  struct ScanState {
    Schema schema;
    // WHERE compiled for the vectorized scan: kernel-runnable terms plus
    // the interpreted residual (null when fully compiled).
    storage::ScanPredicate predicate;
    sql::ExprPtr residual;
    // The residual lowered to a vectorized program (null: interpret
    // per row). Compiled once per query on the initiator and shared by
    // every node's scan process.
    std::shared_ptr<const exec::Program> compiled_residual;
    std::vector<int> residual_columns;
    std::vector<int> cost_columns;  // WHERE columns, charged per visible row
    std::vector<int> projection;    // referenced columns, charged per match
    Epoch snapshot;
    TxnId txn;
    bool aggregate;
    // Chosen layout's sort order prefixes the GROUP BY keys: charge the
    // merge-style aggregation rate instead of the hash rate.
    bool sorted_group_by = false;
    int64_t scan_limit = -1;  // per-node row cap (LIMIT pushed into Scan)
    std::vector<int> group_cols;
    const sql::UdxResolver* udx;
    Database* db;
    int initiator;
    double chunk_bytes;
    double data_scale;
    CostModel cost;
    std::vector<std::vector<Row>> node_rows;
    std::vector<Status> node_status;
    double available_wire = 0;
    double produced_wire = 0;
    double produced_rows = 0;
    int producers_left = 0;
    std::unique_ptr<sim::Condition> progress;
  };
  auto state = std::make_shared<ScanState>();
  state->schema = schema;
  if (select.where != nullptr) {
    sql::CompiledScan compiled =
        sql::CompileScanPredicate(*select.where, schema);
    state->predicate = std::move(compiled.predicate);
    state->residual = std::move(compiled.residual);
    if (state->residual != nullptr) {
      if (db_->pipeline_compiler()->enabled()) {
        state->compiled_residual =
            db_->pipeline_compiler()->GetOrCompilePredicate(
                *state->residual, schema);
      }
      std::set<int> cols;
      FABRIC_RETURN_IF_ERROR(
          CollectColumns(*state->residual, schema, &cols));
      state->residual_columns.assign(cols.begin(), cols.end());
    }
    std::set<int> where_columns;
    FABRIC_RETURN_IF_ERROR(
        CollectColumns(*select.where, schema, &where_columns));
    state->cost_columns.assign(where_columns.begin(), where_columns.end());
  }
  state->projection.assign(referenced.begin(), referenced.end());
  state->snapshot = snapshot;
  state->txn = txn_;
  state->aggregate = aggregate;
  state->sorted_group_by = plan.sorted_group_by;
  // LIMIT n without ORDER BY or aggregation caps each node's scan at n:
  // every node's emitted rows stay a prefix of what the uncapped scan
  // emits, so the initiator's global LIMIT picks exactly the same rows
  // while the storage layer skips the containers past the cap.
  if (!aggregate && select.order_by.empty() && select.limit >= 0) {
    state->scan_limit = select.limit;
  }
  for (const std::string& g : select.group_by) {
    state->group_cols.push_back(*schema.IndexOf(g));
  }
  state->udx = udx;
  state->db = db_;
  state->initiator = node_;
  state->chunk_bytes = cost.chunk_bytes;
  state->data_scale = db_->EffectiveScale(select.from);
  state->cost = cost;
  state->node_rows.resize(db_->num_nodes());
  state->node_status.assign(db_->num_nodes(), Status::OK());
  state->producers_left = static_cast<int>(nodes.size());
  state->progress = std::make_unique<sim::Condition>(db_->engine());

  // Resolve each participating segment to its serving copy: the primary
  // when its node is UP, else the buddy (k-safety failover reroute).
  struct ScanTarget {
    int segment;
    storage::SegmentStore* store;
    int host;
  };
  std::vector<ScanTarget> targets;
  for (int n : nodes) {
    if (segmentation->unsegmented()) {
      targets.push_back(ScanTarget{n, scan_set->per_node[n].get(), n});
      continue;
    }
    FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy copy,
                            db_->ReadCopy(scan_set, n));
    if (copy.host != n) {
      obs::TraceEvent("ksafety", "scan.reroute",
                      {{"table", select.from},
                       {"segment", n},
                       {"to_node", copy.host}});
      obs::IncrCounter("ksafety.scan_reroutes");
    }
    targets.push_back(ScanTarget{n, copy.store, copy.host});
  }

  for (const ScanTarget& target : targets) {
    storage::SegmentStore* store = target.store;
    const int n = target.segment;
    const int scan_host = target.host;
    db_->engine()->Spawn(
        StrCat("vscan:", select.from, ":n", n),
        [state, store, n, scan_host](sim::Process& scan) {
          Status status = [&]() -> Status {
            Database* db = state->db;
            // Vectorized scan: predicate kernels run directly on encoded
            // columns, refining a selection vector; only passing rows are
            // materialized (late materialization). The virtual-time cost
            // accounting is unchanged from the row-at-a-time loop it
            // replaces: predicate columns are charged for every visible
            // row (this is where V2S pays its per-row HASH evaluation,
            // Section 4.7.2), output columns only for passing rows.
            storage::ScanSpec spec;
            spec.as_of = state->snapshot;
            spec.txn = state->txn;
            spec.predicate = &state->predicate;
            std::function<Result<bool>(const Row&)> residual_fn;
            if (state->residual != nullptr) {
              // SELECT keeps strict semantics: residual evaluation errors
              // fail the query, as the interpreter did.
              residual_fn = [&](const Row& row) -> Result<bool> {
                sql::EvalContext context;
                context.schema = &state->schema;
                context.row = &row;
                context.udx = state->udx;
                return sql::EvalPredicate(*state->residual, context);
              };
              spec.residual = residual_fn;
              spec.residual_columns = &state->residual_columns;
              if (state->compiled_residual != nullptr) {
                const exec::Program* program =
                    state->compiled_residual.get();
                spec.batch_residual =
                    [program](const std::vector<Row>& rows,
                              std::vector<uint32_t>* keep) {
                      exec::EvalState es;
                      std::vector<uint32_t> active;
                      std::vector<uint32_t> kept;
                      for (size_t base = 0; base < rows.size();
                           base += exec::kBlockRows) {
                        size_t len =
                            std::min(exec::kBlockRows, rows.size() - base);
                        active.resize(len);
                        for (size_t i = 0; i < len; ++i) {
                          active[i] = static_cast<uint32_t>(i);
                        }
                        kept.clear();
                        if (!exec::RunFilter(*program, rows.data() + base,
                                             len, active, &es, &kept)) {
                          return false;
                        }
                        for (uint32_t i : kept) {
                          keep->push_back(static_cast<uint32_t>(base) + i);
                        }
                      }
                      return true;
                    };
              }
            }
            spec.cost_columns = &state->cost_columns;
            spec.projection = &state->projection;
            spec.limit = state->scan_limit;
            storage::ScanStats stats;
            FABRIC_ASSIGN_OR_RETURN(std::vector<Row> passed,
                                    store->Scan(spec, &stats));
            obs::IncrCounter("vertica.rows_scanned",
                             stats.rows_visible * state->data_scale);
            DataProfile scanned = stats.visible_profile;
            DataProfile out_cost = stats.output_profile;
            out_cost.rows = 0;  // passing rows were already counted
            scanned.Add(out_cost);
            scanned.ScaleBy(state->data_scale);

            // Result volume leaving this node: for aggregates only the
            // merged partials travel (#groups x output width); otherwise
            // the referenced columns of the passing rows.
            DataProfile produced;
            if (state->aggregate) {
              std::set<std::string> group_keys;
              std::string key;
              for (const Row& row : passed) {
                key.clear();
                exec::AppendGroupKey(row, state->group_cols, &key);
                auto it = group_keys.lower_bound(key);
                if (it == group_keys.end() || *it != key) {
                  group_keys.emplace_hint(it, key);
                }
              }
              produced.rows = static_cast<double>(
                  std::max<size_t>(group_keys.size(), 1));
              produced.fields = produced.rows *
                                (state->group_cols.size() + 1);
              produced.numeric_bytes = produced.fields * 8;
              produced.raw_bytes = produced.numeric_bytes;
            } else {
              produced = stats.output_profile;
              produced.ScaleBy(state->data_scale);
            }

            // Chunked pipeline: scan CPU, intra-cluster shuffle when the
            // segment is remote from the initiator, then publish to the
            // client stream.
            // Each scanned container costs a fixed open (headers, fds):
            // fragmentation hurts until the Tuple Mover merges it away.
            double scan_cpu =
                scanned.ScanCpu(state->cost) +
                static_cast<double>(stats.containers_scanned) *
                    state->cost.ros_container_open_cpu;
            if (state->aggregate) {
              // Aggregation CPU per passing input row: hash-aggregate
              // unless the layout's sort order makes equal keys adjacent.
              scan_cpu += static_cast<double>(passed.size()) *
                          state->data_scale *
                          (state->sorted_group_by
                               ? state->cost.group_by_sorted_cpu_per_row
                               : state->cost.group_by_hash_cpu_per_row);
            }
            double wire = produced.JdbcWireBytes(state->cost);
            double internal = produced.raw_bytes;
            int chunks = static_cast<int>(std::ceil(
                std::max(scanned.raw_bytes, 1.0) / state->chunk_bytes));
            chunks = std::clamp(chunks, 1, 512);
            const net::Host& host = db->node_host(scan_host);
            const net::Host& initiator = db->node_host(state->initiator);
            for (int c = 0; c < chunks; ++c) {
              FABRIC_RETURN_IF_ERROR(net::RunCpu(scan, db->network(),
                                                 host, scan_cpu / chunks));
              if (scan_host != state->initiator && internal > 0) {
                FABRIC_RETURN_IF_ERROR(db->network()->Transfer(
                    scan, {host.int_egress, initiator.int_ingress},
                    internal / chunks));
              }
              state->available_wire += wire / chunks;
              state->produced_wire += wire / chunks;
              state->produced_rows += produced.rows / chunks;
              state->progress->NotifyAll();
            }
            state->node_rows[n] = std::move(passed);
            return Status::OK();
          }();
          state->node_status[n] = status;
          --state->producers_left;
          state->progress->NotifyAll();
        });
  }

  // Stream produced chunks to the client as they appear (scan/stream
  // pipelining); internal executions (views) skip the external wire.
  while (state->producers_left > 0 || state->available_wire > 0) {
    FABRIC_RETURN_IF_ERROR(state->progress->WaitUntil(self, [&] {
      return state->available_wire > 0 || state->producers_left == 0;
    }));
    double wire = state->available_wire;
    state->available_wire = 0;
    if (wire <= 0) continue;
    if (to_client) {
      DataProfile so_far;
      so_far.rows = std::max(state->produced_rows, 1.0);
      double cap = so_far.StreamRateCap(
          cost.result_stream_bytes_per_sec, cost.result_row_overhead,
          std::max(state->produced_wire, 1.0));
      FABRIC_RETURN_IF_ERROR(StreamToClient(self, wire, cap));
      // The per-connection cap is serialization CPU on this node; credit
      // it so resource telemetry (Table 2) sees the load.
      const net::Host& host = db_->node_host(node_);
      if (host.has_cpu()) {
        db_->network()->CreditLink(
            host.cpu, wire * cost.result_serialize_cpu_per_byte *
                          net::kCpuUnitsPerCore);
      }
    }
  }
  for (int n : nodes) {
    FABRIC_RETURN_IF_ERROR(state->node_status[n]);
  }

  // Final pipeline at the initiator over the gathered rows.
  std::vector<Row> gathered;
  for (int n : nodes) {
    for (Row& row : state->node_rows[n]) {
      gathered.push_back(std::move(row));
    }
  }
  // WHERE already applied during the scan; strip it for the local pass.
  sql::SelectStmt local = [&select] {
    sql::SelectStmt copy;
    for (const sql::SelectItem& item : select.items) {
      sql::SelectItem ci;
      ci.star = item.star;
      ci.alias = item.alias;
      if (item.expr != nullptr) ci.expr = item.expr->Clone();
      copy.items.push_back(std::move(ci));
    }
    copy.group_by = select.group_by;
    copy.order_by = select.order_by;
    copy.limit = select.limit;
    return copy;
  }();
  return LocalSelect(gathered, schema, local, udx, agg_udx,
                     db_->pipeline_compiler(), spill);
}

Result<std::optional<JoinQueryPlan>> Session::PlanJoinQuery(
    const sql::SelectStmt& select) const {
  std::optional<JoinQueryPlan> none;
  if (select.from.empty() || select.join.empty() ||
      select.join_on == nullptr) {
    return none;
  }
  const std::string from = ToLower(select.from);
  const std::string join = ToLower(select.join);
  if (from == join || StartsWith(from, "v_catalog.") ||
      StartsWith(from, "v_monitor.") || StartsWith(join, "v_catalog.") ||
      StartsWith(join, "v_monitor.") ||
      db_->catalog().HasView(select.from) ||
      db_->catalog().HasView(select.join)) {
    return none;
  }
  Result<const TableDef*> left_or = db_->catalog().GetTable(select.from);
  Result<const TableDef*> right_or = db_->catalog().GetTable(select.join);
  if (!left_or.ok() || !right_or.ok()) return none;  // legacy path reports
  const TableDef* left = *left_or;
  const TableDef* right = *right_or;

  // ON must be a simple column equality resolving one column per anchor
  // (either spelling); anything else joins through the legacy
  // nested-loop path.
  const sql::Expr& on = *select.join_on;
  int lk = -1;
  int rk = -1;
  if (on.kind == sql::Expr::Kind::kBinary && on.op == "=" &&
      on.args[0]->kind == sql::Expr::Kind::kColumnRef &&
      on.args[1]->kind == sql::Expr::Kind::kColumnRef) {
    auto l = left->schema.IndexOf(on.args[0]->column);
    auto r = right->schema.IndexOf(on.args[1]->column);
    if (!l.ok() || !r.ok()) {
      l = left->schema.IndexOf(on.args[1]->column);
      r = right->schema.IndexOf(on.args[0]->column);
    }
    if (l.ok() && r.ok()) {
      lk = *l;
      rk = *r;
    }
  }
  if (lk < 0 || rk < 0) return none;

  JoinQueryPlan jq;
  jq.left_table = left;
  jq.right_table = right;
  jq.left_key = lk;
  jq.right_key = rk;

  // Column pruning: resolve every outer reference against the combined
  // exposed schema (left anchor columns, then right anchor columns with
  // collisions renamed <join>_<name>), then map each back to its side.
  // Renames compare against the full left anchor schema — not the pruned
  // subset — so the exposed names never depend on the projection choice.
  const int left_n = left->schema.num_columns();
  std::vector<storage::ColumnDef> combined_columns = left->schema.columns();
  for (const storage::ColumnDef& column : right->schema.columns()) {
    storage::ColumnDef renamed = column;
    if (left->schema.Contains(column.name)) {
      renamed.name = StrCat(select.join, "_", column.name);
    }
    combined_columns.push_back(renamed);
  }
  Schema combined(std::move(combined_columns));
  std::set<int> refs;
  bool star = false;
  for (const sql::SelectItem& item : select.items) {
    if (item.star) {
      star = true;
      continue;
    }
    if (!CollectColumns(*item.expr, combined, &refs).ok()) return none;
  }
  if (select.where != nullptr &&
      !CollectColumns(*select.where, combined, &refs).ok()) {
    return none;
  }
  for (const std::string& g : select.group_by) {
    auto idx = combined.IndexOf(g);
    if (!idx.ok()) return none;
    refs.insert(*idx);
  }
  for (const sql::OrderItem& item : select.order_by) {
    auto idx = combined.IndexOf(item.column);
    if (!idx.ok()) return none;
    refs.insert(*idx);
  }
  if (star) {
    for (int c = 0; c < combined.num_columns(); ++c) refs.insert(c);
  }
  refs.insert(lk);
  refs.insert(left_n + rk);
  for (int c : refs) {
    if (c < left_n) {
      jq.left_needed.push_back(c);
    } else {
      jq.right_needed.push_back(c - left_n);
    }
  }

  // Per-side shapes carry explicit column lists (never star) so narrow
  // sorted projections stay eligible for wide tables.
  auto side_shape = [&select](const TableDef& t,
                              const std::vector<int>& needed, int key) {
    projections::QueryShape shape;
    for (int c : needed) {
      shape.referenced.push_back(ToLower(t.schema.column(c).name));
    }
    shape.join_keys.push_back(ToLower(t.schema.column(key).name));
    shape.at_epoch = select.at_epoch;
    return shape;
  };
  projections::QueryShape left_shape = side_shape(*left, jq.left_needed, lk);
  projections::QueryShape right_shape =
      side_shape(*right, jq.right_needed, rk);

  // Per side: the cheapest plan overall plus the cheapest merge-capable
  // plan (sorted on the join key). When both sides have a merge-capable
  // layout the merge join wins outright — its per-row rate is far below
  // the hash rate, so a slightly wider sorted projection still beats the
  // narrowest unsorted one. A forced hint pins the side to one layout.
  struct SidePlan {
    projections::PlanChoice overall;
    std::optional<projections::PlanChoice> sorted;
  };
  auto plan_side = [this](const TableDef& t,
                          const projections::QueryShape& shape,
                          std::vector<std::pair<std::string, double>>* cands)
      -> Result<SidePlan> {
    SidePlan side;
    side.overall = projections::ChoosePlan(db_->catalog(), t, shape, cands);
    const bool forced =
        forced_table_projections_.count(ToLower(t.name)) > 0 ||
        forced_projection_.has_value();
    if (forced) {
      FABRIC_ASSIGN_OR_RETURN(side.overall, ResolveScanPlan(t, shape));
      if (side.overall.sorted_join) side.sorted = side.overall;
      return side;
    }
    side.sorted = projections::ChooseSortedJoinPlan(db_->catalog(), t, shape);
    return side;
  };
  FABRIC_ASSIGN_OR_RETURN(SidePlan left_side,
                          plan_side(*left, left_shape, &jq.left_candidates));
  FABRIC_ASSIGN_OR_RETURN(
      SidePlan right_side,
      plan_side(*right, right_shape, &jq.right_candidates));

  bool want_merge =
      left_side.sorted.has_value() && right_side.sorted.has_value();
  if (forced_join_strategy_.has_value()) {
    if (*forced_join_strategy_ == "hash") {
      want_merge = false;
    } else if (*forced_join_strategy_ == "merge") {
      if (!want_merge) {
        return FailedPreconditionError(StrCat(
            kForcedJoinStrategyToken, ": no merge-capable projection pair for ",
            select.from, " JOIN ", select.join,
            " (both sides must scan a layout sorted on the join key)"));
      }
    } else {
      return InvalidArgumentError(StrCat("unknown forced join strategy '",
                                         *forced_join_strategy_, "'"));
    }
  }
  const projections::PlanChoice& lpick =
      want_merge ? *left_side.sorted : left_side.overall;
  const projections::PlanChoice& rpick =
      want_merge ? *right_side.sorted : right_side.overall;
  jq.plan = projections::ClassifyJoin(*left, lpick,
                                      left_shape.join_keys.front(), *right,
                                      rpick, right_shape.join_keys.front());
  if (!want_merge) {
    jq.plan.merge = false;
    jq.plan.co_located = false;
  }
  return std::optional<JoinQueryPlan>(std::move(jq));
}

Result<QueryResult> Session::ExecJoin(sim::Process& self,
                                      const sql::SelectStmt& select,
                                      bool to_client, int view_depth,
                                      const exec::SpillPolicy* spill) {
  const CostModel& cost = db_->cost();
  const sql::UdxResolver* udx = &db_->udx_resolver();
  const sql::AggregateUdxResolver* agg_udx = &db_->aggregate_udx_resolver();

  FABRIC_ASSIGN_OR_RETURN(std::optional<JoinQueryPlan> planned,
                          PlanJoinQuery(select));
  if (!planned.has_value()) {
    // Legacy path (views, system tables, complex ON): execute both sides
    // as internal distributed scans, join at the initiator (hash join on
    // simple column equality, nested-loop otherwise), then run the outer
    // pipeline over the combined rows. Views over joins are what let V2S
    // push join processing into Vertica (Section 3.1.1).
    auto scan_side = [&](const std::string& table) -> Result<QueryResult> {
      sql::SelectStmt sub;
      sql::SelectItem star;
      star.star = true;
      sub.items.push_back(std::move(star));
      sub.from = table;
      sub.at_epoch = select.at_epoch;
      return ExecSelect(self, sub, /*to_client=*/false, view_depth + 1);
    };
    FABRIC_ASSIGN_OR_RETURN(QueryResult left, scan_side(select.from));
    FABRIC_ASSIGN_OR_RETURN(QueryResult right, scan_side(select.join));

    // Combined schema: left columns, then right columns; a right column
    // whose name collides is exposed as <join>_<name>.
    std::vector<storage::ColumnDef> combined_columns =
        left.schema.columns();
    for (const storage::ColumnDef& column : right.schema.columns()) {
      storage::ColumnDef renamed = column;
      if (left.schema.Contains(column.name)) {
        renamed.name = StrCat(select.join, "_", column.name);
      }
      combined_columns.push_back(renamed);
    }
    Schema combined(std::move(combined_columns));

    // Join CPU on the initiator: hash-join-shaped cost.
    obs::IncrCounter("vertica.hash_joins");
    DataProfile join_cost;
    join_cost.rows = static_cast<double>(left.rows.size()) +
                     static_cast<double>(right.rows.size());
    join_cost.ScaleBy(cost.data_scale);
    FABRIC_RETURN_IF_ERROR(
        net::RunCpu(self, db_->network(), db_->node_host(node_),
                    join_cost.rows * cost.join_hash_cpu_per_row));

    // Hash join when ON is `leftcol = rightcol`; nested loop otherwise.
    std::vector<Row> joined;
    const sql::Expr& on = *select.join_on;
    int left_key = -1, right_key = -1;
    if (on.kind == sql::Expr::Kind::kBinary && on.op == "=" &&
        on.args[0]->kind == sql::Expr::Kind::kColumnRef &&
        on.args[1]->kind == sql::Expr::Kind::kColumnRef) {
      auto l = left.schema.IndexOf(on.args[0]->column);
      auto r = right.schema.IndexOf(on.args[1]->column);
      if (!l.ok() || !r.ok()) {
        // Reversed spelling: right.col = left.col.
        l = left.schema.IndexOf(on.args[1]->column);
        r = right.schema.IndexOf(on.args[0]->column);
      }
      if (l.ok() && r.ok()) {
        left_key = *l;
        right_key = *r;
      }
    }
    if (left_key >= 0) {
      std::multimap<std::string, const Row*> build;
      for (const Row& row : right.rows) {
        if (row[right_key].is_null()) continue;  // NULL never joins
        build.emplace(row[right_key].ToDisplayString(), &row);
      }
      std::string key;
      for (const Row& lrow : left.rows) {
        if (lrow[left_key].is_null()) continue;
        key.clear();
        lrow[left_key].AppendDisplayString(&key);
        auto [begin, end] = build.equal_range(key);
        for (auto it = begin; it != end; ++it) {
          Row out = lrow;
          out.insert(out.end(), it->second->begin(), it->second->end());
          joined.push_back(std::move(out));
        }
      }
    } else {
      for (const Row& lrow : left.rows) {
        for (const Row& rrow : right.rows) {
          Row out = lrow;
          out.insert(out.end(), rrow.begin(), rrow.end());
          sql::EvalContext context;
          context.schema = &combined;
          context.row = &out;
          context.udx = udx;
          FABRIC_ASSIGN_OR_RETURN(bool match,
                                  sql::EvalPredicate(on, context));
          if (match) joined.push_back(std::move(out));
        }
      }
    }

    FABRIC_ASSIGN_OR_RETURN(QueryResult result,
                            LocalSelect(joined, combined, select, udx,
                                        agg_udx, db_->pipeline_compiler(),
                                        spill));
    if (to_client) {
      DataProfile profile = ProfileRows(result.rows);
      profile.ScaleBy(cost.data_scale);
      double wire = profile.JdbcWireBytes(cost);
      double cap = profile.StreamRateCap(cost.result_stream_bytes_per_sec,
                                         cost.result_row_overhead, wire);
      FABRIC_RETURN_IF_ERROR(StreamToClient(self, wire, cap));
    }
    return result;
  }

  // Planned path: both sides are base tables scanning a chosen layout.
  const JoinQueryPlan& jq = *planned;
  const TableDef& left_t = *jq.left_table;
  const TableDef& right_t = *jq.right_table;
  const char* strategy = jq.plan.strategy();

  // Workload capture for the designer: one request per side, so the
  // designer sees which tables want join-key-sorted layouts.
  auto record_side = [&](const TableDef& t, const std::vector<int>& needed,
                         int key, const TableDef& other) {
    QueryRequest request;
    request.table = ToLower(t.name);
    request.join_table = ToLower(other.name);
    for (int c : needed) {
      request.referenced.push_back(ToLower(t.schema.column(c).name));
    }
    request.join_keys.push_back(ToLower(t.schema.column(key).name));
    for (const std::string& g : select.group_by) {
      if (t.schema.Contains(g)) request.group_by.push_back(ToLower(g));
    }
    request.aggregate = !select.group_by.empty();
    request.pool = resource_pool_;
    request.strategy = strategy;
    db_->RecordQueryRequest(std::move(request));
  };
  record_side(left_t, jq.left_needed, jq.left_key, right_t);
  record_side(right_t, jq.right_needed, jq.right_key, left_t);

  obs::IncrCounter(jq.plan.merge ? "vertica.merge_joins"
                                 : "vertica.hash_joins");
  obs::TraceEvent(
      "vertica", "join.plan",
      {{"strategy", strategy},
       {"left", jq.plan.left.projection != nullptr
                    ? jq.plan.left.projection->name
                    : "super"},
       {"right", jq.plan.right.projection != nullptr
                     ? jq.plan.right.projection->name
                     : "super"},
       {"co_located", jq.plan.co_located ? 1 : 0}});

  // Combined schema over the pruned column sets, in anchor order per
  // side; the rename rule matches the legacy path (collisions against
  // the full left anchor schema), so a query sees the same column names
  // whichever strategy or projection pair serves it.
  std::vector<storage::ColumnDef> combined_columns;
  for (int c : jq.left_needed) {
    combined_columns.push_back(left_t.schema.column(c));
  }
  for (int c : jq.right_needed) {
    storage::ColumnDef renamed = right_t.schema.column(c);
    if (left_t.schema.Contains(renamed.name)) {
      renamed.name = StrCat(select.join, "_", renamed.name);
    }
    combined_columns.push_back(renamed);
  }
  Schema combined(std::move(combined_columns));

  std::vector<Row> joined;
  if (jq.plan.co_located) {
    FABRIC_ASSIGN_OR_RETURN(joined, ExecCoLocatedJoin(self, select, jq));
  } else {
    // Gathered join: scan each side through its chosen layout (pruned to
    // the needed columns), then join at the initiator.
    auto scan_side = [&](const TableDef& t, const std::vector<int>& needed,
                         const projections::PlanChoice& pick)
        -> Result<QueryResult> {
      sql::SelectStmt sub;
      for (int c : needed) {
        sql::SelectItem item;
        item.expr = sql::Expr::ColumnRef(t.schema.column(c).name);
        sub.items.push_back(std::move(item));
      }
      sub.from = t.name;
      sub.at_epoch = select.at_epoch;
      return ExecScanSelect(self, sub, &t, pick, /*to_client=*/false,
                            nullptr);
    };
    FABRIC_ASSIGN_OR_RETURN(QueryResult left,
                            scan_side(left_t, jq.left_needed, jq.plan.left));
    FABRIC_ASSIGN_OR_RETURN(
        QueryResult right,
        scan_side(right_t, jq.right_needed, jq.plan.right));

    // Join-key positions within the pruned rows.
    const int lpos = static_cast<int>(
        std::find(jq.left_needed.begin(), jq.left_needed.end(),
                  jq.left_key) -
        jq.left_needed.begin());
    const int rpos = static_cast<int>(
        std::find(jq.right_needed.begin(), jq.right_needed.end(),
                  jq.right_key) -
        jq.right_needed.begin());

    // Join CPU on the initiator: the merge rate skips the hash table
    // build/probe because both inputs already arrive sorted on the key.
    DataProfile join_cost;
    join_cost.rows = static_cast<double>(left.rows.size()) +
                     static_cast<double>(right.rows.size());
    join_cost.ScaleBy(cost.data_scale);
    FABRIC_RETURN_IF_ERROR(net::RunCpu(
        self, db_->network(), db_->node_host(node_),
        join_cost.rows * (jq.plan.merge ? cost.join_merge_cpu_per_row
                                        : cost.join_hash_cpu_per_row)));

    if (jq.plan.merge) {
      // Merge join: a stable sorted index over the right side replaces
      // the hash table. Keys compare by display string — the same
      // equality the hash path uses — and equal right keys keep their
      // arrival order, so the output is byte-identical to the hash
      // join's.
      std::vector<std::pair<std::string, size_t>> index;
      index.reserve(right.rows.size());
      for (size_t i = 0; i < right.rows.size(); ++i) {
        if (right.rows[i][rpos].is_null()) continue;  // NULL never joins
        index.emplace_back(right.rows[i][rpos].ToDisplayString(), i);
      }
      std::stable_sort(index.begin(), index.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      std::string key;
      for (const Row& lrow : left.rows) {
        if (lrow[lpos].is_null()) continue;
        key.clear();
        lrow[lpos].AppendDisplayString(&key);
        auto it = std::lower_bound(
            index.begin(), index.end(), key,
            [](const auto& entry, const std::string& k) {
              return entry.first < k;
            });
        for (; it != index.end() && it->first == key; ++it) {
          Row out = lrow;
          const Row& rrow = right.rows[it->second];
          out.insert(out.end(), rrow.begin(), rrow.end());
          joined.push_back(std::move(out));
        }
      }
    } else {
      std::multimap<std::string, const Row*> build;
      for (const Row& row : right.rows) {
        if (row[rpos].is_null()) continue;  // NULL never joins
        build.emplace(row[rpos].ToDisplayString(), &row);
      }
      std::string key;
      for (const Row& lrow : left.rows) {
        if (lrow[lpos].is_null()) continue;
        key.clear();
        lrow[lpos].AppendDisplayString(&key);
        auto [begin, end] = build.equal_range(key);
        for (auto it = begin; it != end; ++it) {
          Row out = lrow;
          out.insert(out.end(), it->second->begin(), it->second->end());
          joined.push_back(std::move(out));
        }
      }
    }
  }

  FABRIC_ASSIGN_OR_RETURN(QueryResult result,
                          LocalSelect(joined, combined, select, udx,
                                      agg_udx, db_->pipeline_compiler(),
                                      spill));
  if (to_client) {
    DataProfile profile = ProfileRows(result.rows);
    profile.ScaleBy(cost.data_scale);
    double wire = profile.JdbcWireBytes(cost);
    double cap = profile.StreamRateCap(cost.result_stream_bytes_per_sec,
                                       cost.result_row_overhead, wire);
    FABRIC_RETURN_IF_ERROR(StreamToClient(self, wire, cap));
  }
  return result;
}

Result<std::vector<storage::Row>> Session::ExecCoLocatedJoin(
    sim::Process& self, const sql::SelectStmt& select,
    const JoinQueryPlan& jq) {
  const CostModel& cost = db_->cost();
  const TableDef& left_t = *jq.left_table;
  const TableDef& right_t = *jq.right_table;

  // Epoch snapshot: same rules as the single-table scan.
  Epoch snapshot;
  if (select.at_epoch >= 0) {
    if (static_cast<Epoch>(select.at_epoch) > db_->current_epoch()) {
      return OutOfRangeError(
          StrCat("epoch ", select.at_epoch, " is in the future"));
    }
    if (static_cast<Epoch>(select.at_epoch) < db_->ahm()) {
      return OutOfRangeError(StrCat(
          "HISTORY_PURGED: epoch ", select.at_epoch,
          " predates the ancient history mark ", db_->ahm()));
    }
    snapshot = static_cast<Epoch>(select.at_epoch);
  } else {
    snapshot = db_->current_epoch();
  }
  db_->PinEpoch(snapshot);
  struct EpochPin {
    Database* db;
    Epoch epoch;
    ~EpochPin() { db->UnpinEpoch(epoch); }
  } epoch_pin{db_, snapshot};

  FABRIC_RETURN_IF_ERROR(db_->PoolAdmit(self, node_));
  struct PoolGuard {
    Database* db;
    int node;
    ~PoolGuard() { db->PoolRelease(node); }
  } pool_guard{db_, node_};

  // Storage sets for the chosen layouts.
  auto side_set = [this](const TableDef& t,
                         const projections::PlanChoice& pick)
      -> Result<Database::SegmentSet*> {
    if (pick.projection != nullptr) {
      return db_->GetProjectionStorage(pick.projection->name);
    }
    FABRIC_ASSIGN_OR_RETURN(Database::TableStorage * table_storage,
                            db_->GetStorage(t.name));
    return static_cast<Database::SegmentSet*>(table_storage);
  };
  FABRIC_ASSIGN_OR_RETURN(Database::SegmentSet * left_set,
                          side_set(left_t, jq.plan.left));
  FABRIC_ASSIGN_OR_RETURN(Database::SegmentSet * right_set,
                          side_set(right_t, jq.plan.right));
  for (const projections::PlanChoice* pick :
       {&jq.plan.left, &jq.plan.right}) {
    if (pick->projection != nullptr) {
      obs::IncrCounter(
          StrCat("vertica.projection_scans{", pick->projection->name, "}"));
      obs::TraceEvent("vertica", "projection.scan",
                      {{"projection", pick->projection->name},
                       {"table", pick->projection->anchor}});
    }
  }

  // Map each needed anchor column (and the join key) to its position in
  // the scanned layout's store schema; rows are emitted in anchor order
  // so the combined layout matches the gathered path's exactly.
  auto side_positions = [](const projections::PlanChoice& pick,
                           const std::vector<int>& needed, int key,
                           std::vector<int>* positions,
                           int* key_position) -> Status {
    auto to_store = [&pick](int anchor_col) -> int {
      const ProjectionDef* proj = pick.projection;
      if (proj == nullptr) return anchor_col;
      for (size_t i = 0; i < proj->columns.size(); ++i) {
        if (proj->columns[i] == anchor_col) return static_cast<int>(i);
      }
      return -1;
    };
    for (int c : needed) {
      int p = to_store(c);
      if (p < 0) return InternalError("projection missing a needed column");
      positions->push_back(p);
    }
    *key_position = to_store(key);
    if (*key_position < 0) {
      return InternalError("projection missing the join key");
    }
    return Status::OK();
  };
  std::vector<int> left_positions, right_positions;
  int left_key_position = -1, right_key_position = -1;
  FABRIC_RETURN_IF_ERROR(side_positions(jq.plan.left, jq.left_needed,
                                        jq.left_key, &left_positions,
                                        &left_key_position));
  FABRIC_RETURN_IF_ERROR(side_positions(jq.plan.right, jq.right_needed,
                                        jq.right_key, &right_positions,
                                        &right_key_position));

  const Segmentation& left_seg = jq.plan.left.projection != nullptr
                                     ? jq.plan.left.projection->segmentation
                                     : left_t.segmentation;
  const bool right_replicated =
      (jq.plan.right.projection != nullptr
           ? jq.plan.right.projection->segmentation
           : right_t.segmentation)
          .unsegmented();

  // One join process per left segment, on whichever node serves that
  // segment today (primary, or buddy after failover). A replicated right
  // side is read from the serving node's local copy; a segmented right
  // side reads the matching segment (equal keys land on equal segment
  // indices — that is what ClassifyJoin certified).
  struct JoinTarget {
    int segment;
    storage::SegmentStore* left_store;
    storage::SegmentStore* right_store;
    int host;        // node whose CPU runs the join
    int right_host;  // node serving the right store (differs only in
                     // asymmetric failover states)
  };
  std::vector<JoinTarget> targets;
  if (left_seg.unsegmented()) {
    targets.push_back(JoinTarget{node_, left_set->per_node[node_].get(),
                                 right_set->per_node[node_].get(), node_,
                                 node_});
  } else {
    for (int n = 0; n < db_->num_nodes(); ++n) {
      FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy left_copy,
                              db_->ReadCopy(left_set, n));
      storage::SegmentStore* right_store = nullptr;
      int right_host = left_copy.host;
      if (right_replicated) {
        right_store = right_set->per_node[left_copy.host].get();
      } else {
        FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy right_copy,
                                db_->ReadCopy(right_set, n));
        right_store = right_copy.store;
        right_host = right_copy.host;
      }
      if (left_copy.host != n) {
        obs::TraceEvent("ksafety", "scan.reroute",
                        {{"table", left_t.name},
                         {"segment", n},
                         {"to_node", left_copy.host}});
        obs::IncrCounter("ksafety.scan_reroutes");
      }
      targets.push_back(JoinTarget{n, left_copy.store, right_store,
                                   left_copy.host, right_host});
    }
  }

  // Shared state between the per-segment join processes and the gather
  // below; heap-allocated so the joins stay valid if this process is
  // killed mid-query.
  struct JoinState {
    Database* db;
    CostModel cost;
    Epoch snapshot;
    TxnId txn;
    std::vector<int> left_positions, right_positions;
    int left_key_position, right_key_position;
    double left_scale, right_scale;
    int initiator;
    std::vector<std::vector<Row>> node_rows;
    std::vector<Status> node_status;
    int producers_left = 0;
    std::unique_ptr<sim::Condition> progress;
  };
  auto state = std::make_shared<JoinState>();
  state->db = db_;
  state->cost = cost;
  state->snapshot = snapshot;
  state->txn = txn_;
  state->left_positions = left_positions;
  state->right_positions = right_positions;
  state->left_key_position = left_key_position;
  state->right_key_position = right_key_position;
  state->left_scale = db_->EffectiveScale(left_t.name);
  state->right_scale = db_->EffectiveScale(right_t.name);
  state->initiator = node_;
  state->node_rows.resize(db_->num_nodes());
  state->node_status.assign(db_->num_nodes(), Status::OK());
  state->producers_left = static_cast<int>(targets.size());
  state->progress = std::make_unique<sim::Condition>(db_->engine());

  for (const JoinTarget& target : targets) {
    db_->engine()->Spawn(
        StrCat("vjoin:", left_t.name, "x", right_t.name, ":n",
               target.segment),
        [state, target](sim::Process& proc) {
          Status status = [&]() -> Status {
            Database* db = state->db;
            auto scan = [&](storage::SegmentStore* store,
                            const std::vector<int>& cost_columns,
                            storage::ScanStats* stats)
                -> Result<std::vector<Row>> {
              storage::ScanSpec spec;
              spec.as_of = state->snapshot;
              spec.txn = state->txn;
              spec.projection = &cost_columns;
              return store->Scan(spec, stats);
            };
            storage::ScanStats left_stats, right_stats;
            FABRIC_ASSIGN_OR_RETURN(
                std::vector<Row> left_rows,
                scan(target.left_store, state->left_positions, &left_stats));
            FABRIC_ASSIGN_OR_RETURN(std::vector<Row> right_rows,
                                    scan(target.right_store,
                                         state->right_positions,
                                         &right_stats));
            obs::IncrCounter(
                "vertica.rows_scanned",
                left_stats.rows_visible * state->left_scale +
                    right_stats.rows_visible * state->right_scale);

            // Node-local merge join, emitting combined rows pruned to the
            // needed columns in anchor order (see ExecJoin): left rows in
            // storage order, matches in right storage order — the same
            // order the gathered hash join produces for this segment.
            std::vector<std::pair<std::string, size_t>> index;
            index.reserve(right_rows.size());
            for (size_t i = 0; i < right_rows.size(); ++i) {
              const Value& key = right_rows[i][state->right_key_position];
              if (key.is_null()) continue;  // NULL never joins
              index.emplace_back(key.ToDisplayString(), i);
            }
            std::stable_sort(index.begin(), index.end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             });
            std::vector<Row> out;
            std::string key;
            for (const Row& lrow : left_rows) {
              const Value& key_value = lrow[state->left_key_position];
              if (key_value.is_null()) continue;
              key.clear();
              key_value.AppendDisplayString(&key);
              auto it = std::lower_bound(
                  index.begin(), index.end(), key,
                  [](const auto& entry, const std::string& k) {
                    return entry.first < k;
                  });
              for (; it != index.end() && it->first == key; ++it) {
                const Row& rrow = right_rows[it->second];
                Row row;
                row.reserve(state->left_positions.size() +
                            state->right_positions.size());
                for (int p : state->left_positions) row.push_back(lrow[p]);
                for (int p : state->right_positions) row.push_back(rrow[p]);
                out.push_back(std::move(row));
              }
            }

            // Virtual-time cost: both scans' bytes and container opens
            // plus the merge-join CPU per input row, all on the serving
            // node. Only the join output travels to the initiator.
            auto scanned_of = [](const storage::ScanStats& stats,
                                 double scale) {
              DataProfile scanned = stats.visible_profile;
              DataProfile out_cost = stats.output_profile;
              out_cost.rows = 0;  // passing rows were already counted
              scanned.Add(out_cost);
              scanned.ScaleBy(scale);
              return scanned;
            };
            DataProfile scanned = scanned_of(left_stats, state->left_scale);
            scanned.Add(scanned_of(right_stats, state->right_scale));
            double cpu =
                scanned.ScanCpu(state->cost) +
                static_cast<double>(left_stats.containers_scanned +
                                    right_stats.containers_scanned) *
                    state->cost.ros_container_open_cpu +
                (static_cast<double>(left_rows.size()) * state->left_scale +
                 static_cast<double>(right_rows.size()) *
                     state->right_scale) *
                    state->cost.join_merge_cpu_per_row;
            const net::Host& host = db->node_host(target.host);
            FABRIC_RETURN_IF_ERROR(
                net::RunCpu(proc, db->network(), host, cpu));
            if (target.right_host != target.host) {
              // Asymmetric failover: the right segment is served from a
              // different node, so its scan output crosses the cluster.
              DataProfile moved = right_stats.output_profile;
              moved.ScaleBy(state->right_scale);
              if (moved.raw_bytes > 0) {
                const net::Host& rhost = db->node_host(target.right_host);
                FABRIC_RETURN_IF_ERROR(db->network()->Transfer(
                    proc, {rhost.int_egress, host.int_ingress},
                    moved.raw_bytes));
              }
            }
            if (target.host != state->initiator) {
              DataProfile produced = ProfileRows(out);
              produced.ScaleBy(state->cost.data_scale);
              if (produced.raw_bytes > 0) {
                const net::Host& initiator =
                    db->node_host(state->initiator);
                FABRIC_RETURN_IF_ERROR(db->network()->Transfer(
                    proc, {host.int_egress, initiator.int_ingress},
                    produced.raw_bytes));
              }
            }
            state->node_rows[target.segment] = std::move(out);
            return Status::OK();
          }();
          state->node_status[target.segment] = status;
          --state->producers_left;
          state->progress->NotifyAll();
        });
  }

  FABRIC_RETURN_IF_ERROR(state->progress->WaitUntil(
      self, [&] { return state->producers_left == 0; }));
  for (const JoinTarget& target : targets) {
    FABRIC_RETURN_IF_ERROR(state->node_status[target.segment]);
  }
  std::vector<Row> joined;
  for (const JoinTarget& target : targets) {
    for (Row& row : state->node_rows[target.segment]) {
      joined.push_back(std::move(row));
    }
  }
  return joined;
}

Status Session::StreamToClient(sim::Process& self, double wire_bytes,
                               double rate_cap) {
  if (client_ == nullptr || wire_bytes <= 0) return self.CheckAlive();
  obs::IncrCounter("vertica.result_wire_bytes", wire_bytes);
  return db_->network()->Transfer(
      self,
      {db_->node_host(node_).ext_egress, client_->ext_ingress},
      wire_bytes, rate_cap);
}

Status Session::StreamToClientReverse(sim::Process& self,
                                      double wire_bytes) {
  if (client_ == nullptr || wire_bytes <= 0) return self.CheckAlive();
  obs::IncrCounter("vertica.load_wire_bytes", wire_bytes);
  return db_->network()->Transfer(
      self,
      {client_->ext_egress, db_->node_host(node_).ext_ingress},
      wire_bytes);
}

}  // namespace fabric::vertica
