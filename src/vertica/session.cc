#include "vertica/session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <unordered_set>
#include <variant>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/hash_aggregate.h"
#include "exec/join.h"
#include "exec/pipeline.h"
#include "obs/trace.h"
#include "storage/profile.h"
#include "vertica/pipeline.h"
#include "vertica/projections/planner.h"
#include "vertica/sql_analyzer.h"
#include "vertica/sql_eval.h"
#include "vertica/sql_parser.h"
#include "vertica/system_tables.h"

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

// Every column of `schema` that `select`'s items, WHERE and GROUP BY
// read (all of them under a star).
Result<std::set<int>> ReferencedColumns(const sql::SelectStmt& select,
                                        const Schema& schema) {
  std::set<int> refs;
  for (const sql::SelectItem& item : select.items) {
    if (item.star) {
      for (int c = 0; c < schema.num_columns(); ++c) refs.insert(c);
    } else {
      FABRIC_RETURN_IF_ERROR(CollectColumns(*item.expr, schema, &refs));
    }
  }
  if (select.where != nullptr) {
    FABRIC_RETURN_IF_ERROR(CollectColumns(*select.where, schema, &refs));
  }
  for (const std::string& g : select.group_by) {
    FABRIC_ASSIGN_OR_RETURN(int idx, schema.IndexOf(g));
    refs.insert(idx);
  }
  return refs;
}

// Result-schema helpers shared with the pipeline compiler.
using sql::InferType;

// A WHERE clause compiled for the vectorized scan: the kernel-runnable
// terms, the interpreted residual (null when fully compiled) with the
// columns it reads, and the residual lowered to a vectorized program
// (null: interpret per row).
struct CompiledWhere {
  storage::ScanPredicate predicate;
  sql::ExprPtr residual;
  std::vector<int> residual_columns;
  std::shared_ptr<const exec::Program> compiled_residual;
};

// Compiles `where` (null: match all) over `schema`. The residual is
// lowered only when `pipeline` is given and enabled.
Result<CompiledWhere> CompileWhere(const sql::Expr* where,
                                   const Schema& schema,
                                   PipelineCompiler* pipeline) {
  CompiledWhere out;
  if (where == nullptr) return out;
  sql::CompiledScan compiled = sql::CompileScanPredicate(*where, schema);
  out.predicate = std::move(compiled.predicate);
  out.residual = std::move(compiled.residual);
  if (out.residual == nullptr) return out;
  if (pipeline != nullptr && pipeline->enabled()) {
    out.compiled_residual =
        pipeline->GetOrCompilePredicate(*out.residual, schema);
  }
  std::set<int> cols;
  FABRIC_RETURN_IF_ERROR(CollectColumns(*out.residual, schema, &cols));
  out.residual_columns.assign(cols.begin(), cols.end());
  return out;
}

// Points `spec` at `where`, which must outlive it. SELECT evaluates the
// residual strictly (an evaluation error fails the query); DML evaluates
// it leniently (an erroring predicate simply doesn't match).
void BindWhere(const CompiledWhere& where, const Schema* schema,
               const sql::UdxResolver* udx, bool lenient,
               storage::ScanSpec* spec) {
  spec->predicate = &where.predicate;
  spec->residual_columns = &where.residual_columns;
  if (where.residual == nullptr) return;
  spec->residual = [&where, schema, udx, lenient](const Row& row)
      -> Result<bool> {
    sql::EvalContext context;
    context.schema = schema;
    context.row = &row;
    context.udx = udx;
    return lenient ? sql::EvalPredicateLenient(*where.residual, context)
                   : sql::EvalPredicate(*where.residual, context);
  };
  if (where.compiled_residual == nullptr) return;
  const exec::Program* program = where.compiled_residual.get();
  spec->batch_residual = [program](const storage::LaneRows& rows,
                                   std::vector<uint32_t>* keep) {
    exec::EvalState es;
    std::vector<uint32_t> active(rows.num_rows);
    for (size_t i = 0; i < active.size(); ++i) {
      active[i] = static_cast<uint32_t>(i);
    }
    return exec::RunFilter(*program, rows, active, &es, keep);
  };
}

// A statement's read snapshot, unpinned when the guard goes out of
// scope.
class SnapshotGuard {
 public:
  explicit SnapshotGuard(Database* db) : db_(db) {}
  SnapshotGuard(const SnapshotGuard&) = delete;
  SnapshotGuard& operator=(const SnapshotGuard&) = delete;
  ~SnapshotGuard() {
    if (pinned_) db_->UnpinEpoch(epoch_);
  }

  // Resolves AT EPOCH (< 0: the current epoch) and pins it so the AHM
  // (and the purge behind it) cannot overtake the running scan; a killed
  // initiator then fails before any scan starts. A future epoch is
  // OUT_OF_RANGE; one below the AHM is HISTORY_PURGED, since rows deleted
  // at or below the AHM may already be physically gone.
  Status Acquire(sim::Process& self, int64_t at_epoch) {
    epoch_ = db_->current_epoch();
    if (at_epoch >= 0) {
      if (static_cast<Epoch>(at_epoch) > db_->current_epoch()) {
        return OutOfRangeError(
            StrCat("epoch ", at_epoch, " is in the future"));
      }
      if (static_cast<Epoch>(at_epoch) < db_->ahm()) {
        return OutOfRangeError(
            StrCat("HISTORY_PURGED: epoch ", at_epoch,
                   " predates the ancient history mark ", db_->ahm()));
      }
      epoch_ = static_cast<Epoch>(at_epoch);
    }
    db_->PinEpoch(epoch_);
    pinned_ = true;
    return self.CheckAlive();
  }

  Epoch epoch() const { return epoch_; }

 private:
  Database* db_;
  Epoch epoch_ = 0;
  bool pinned_ = false;
};

// The physical layout serving a scan: the super projection or a named
// projection, with its stores, segmentation and schema.
struct ScanLayout {
  Database::SegmentSet* set = nullptr;
  const Segmentation* segmentation = nullptr;
  const Schema* schema = nullptr;
};

// The name of the layout `pick` chose ("super" for the super
// projection).
std::string LayoutName(const projections::PlanChoice& pick) {
  return pick.projection == nullptr ? "super" : pick.projection->name;
}

// The layout `pick` chose for `def`; a named projection's scan is
// counted and traced.
Result<ScanLayout> ResolveLayout(Database* db, const TableDef& def,
                                 const projections::PlanChoice& pick) {
  if (pick.projection == nullptr) {
    FABRIC_ASSIGN_OR_RETURN(Database::TableStorage * storage,
                            db->GetStorage(def.name));
    return ScanLayout{storage, &def.segmentation, &def.schema};
  }
  FABRIC_ASSIGN_OR_RETURN(Database::SegmentSet * set,
                          db->GetProjectionStorage(pick.projection->name));
  obs::IncrCounter(
      StrCat("vertica.projection_scans{", pick.projection->name, "}"));
  obs::TraceEvent("vertica", "projection.scan",
                  {{"projection", pick.projection->name},
                   {"table", def.name}});
  return ScanLayout{set, &pick.projection->segmentation,
                    &pick.projection->schema};
}

// The segments a scan of `layout` reads: the initiator's local copy of
// an unsegmented layout, else every segment whose hash range `where`
// (null: no predicate) can match.
std::vector<int> ScanSegments(const Database& db, const ScanLayout& layout,
                              const sql::Expr* where, int initiator) {
  if (layout.segmentation->unsegmented()) return {initiator};
  sql::RingRangeSet constrained = sql::RingRangeSet::Full();
  if (where != nullptr) {
    std::vector<std::string> seg_names;
    for (int c : layout.segmentation->columns) {
      seg_names.push_back(layout.schema->column(c).name);
    }
    constrained = sql::ExtractHashRanges(*where, seg_names);
  }
  std::vector<int> segments;
  for (int n = 0; n < db.num_nodes(); ++n) {
    if (constrained.Intersects(db.node_ranges()[n])) segments.push_back(n);
  }
  return segments;
}

// The copy serving `segment` of `layout`: an unsegmented layout's local
// replica, else the primary when its node is UP and the buddy otherwise
// (the k-safety failover reroute, traced under `table`).
Result<Database::SegmentCopy> ServingCopy(const Database& db,
                                          const ScanLayout& layout,
                                          int segment,
                                          const std::string& table) {
  if (layout.segmentation->unsegmented()) {
    return Database::SegmentCopy{layout.set->per_node[segment].get(),
                                 segment};
  }
  FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy copy,
                          db.ReadCopy(layout.set, segment));
  if (copy.host != segment) {
    obs::TraceEvent("ksafety", "scan.reroute",
                    {{"table", table},
                     {"segment", segment},
                     {"to_node", copy.host}});
    obs::IncrCounter("ksafety.scan_reroutes");
  }
  return copy;
}

// What a scan read, at paper scale: every visible row's predicate
// columns plus the passing rows' output columns.
DataProfile ScannedProfile(const storage::ScanStats& stats, double scale) {
  DataProfile scanned = stats.visible_profile;
  DataProfile out_cost = stats.output_profile;
  out_cost.rows = 0;  // passing rows were already counted
  scanned.Add(out_cost);
  scanned.ScaleBy(scale);
  return scanned;
}

// The key columns of a simple column-equality ON (`l = r`, either
// spelling) in the two sides' schemas; nullopt for any other ON.
std::optional<std::pair<int, int>> EquiJoinKeys(const sql::Expr& on,
                                                const Schema& left,
                                                const Schema& right) {
  if (on.kind != sql::Expr::Kind::kBinary || on.op != "=" ||
      on.args[0]->kind != sql::Expr::Kind::kColumnRef ||
      on.args[1]->kind != sql::Expr::Kind::kColumnRef) {
    return std::nullopt;
  }
  auto l = left.IndexOf(on.args[0]->column);
  auto r = right.IndexOf(on.args[1]->column);
  if (!l.ok() || !r.ok()) {
    // Reversed spelling: right.col = left.col.
    l = left.IndexOf(on.args[1]->column);
    r = right.IndexOf(on.args[0]->column);
  }
  if (!l.ok() || !r.ok()) return std::nullopt;
  return std::make_pair(*l, *r);
}

// The schema a join exposes over `left_cols` then `right_cols`: a right
// column whose name collides with any column of the full `left` schema
// is exposed as <join>_<name>, so a query sees the same names whichever
// columns, layouts or strategy serve it.
Schema JoinedSchema(const Schema& left, const std::vector<int>& left_cols,
                    const Schema& right, const std::vector<int>& right_cols,
                    const std::string& join) {
  std::vector<storage::ColumnDef> columns;
  for (int c : left_cols) columns.push_back(left.column(c));
  for (int c : right_cols) {
    storage::ColumnDef renamed = right.column(c);
    if (left.Contains(renamed.name)) {
      renamed.name = StrCat(join, "_", renamed.name);
    }
    columns.push_back(std::move(renamed));
  }
  return Schema(std::move(columns));
}

// The position of `value` in `values` (which holds it).
int PositionOf(const std::vector<int>& values, int value) {
  return static_cast<int>(std::find(values.begin(), values.end(), value) -
                          values.begin());
}

// Column indices 0 .. n-1.
std::vector<int> AllColumns(size_t n) {
  std::vector<int> columns(n);
  for (size_t c = 0; c < n; ++c) columns[c] = static_cast<int>(c);
  return columns;
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
        wm_grant_,
        wm->Admit(self, node_, resource_pool_, /*memory_request=*/0));
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

    // Every anchor row visible at the snapshot, read by the vectorized
    // scan: a replicated anchor's local copy holds everything; each
    // segment of a segmented one is read on its serving copy and shipped
    // to the initiator.
    storage::LaneRows anchor_rows(def->schema);
    const bool replicated = def->segmentation.unsegmented();
    for (int n = 0; n < (replicated ? 1 : db_->num_nodes()); ++n) {
      Database::SegmentCopy copy{anchor_storage->per_node[node_].get(), node_};
      if (!replicated) {
        FABRIC_ASSIGN_OR_RETURN(copy, db_->ReadCopy(anchor_storage, n));
      }
      storage::ScanSpec spec;
      spec.as_of = snapshot;
      storage::ScanStats stats;
      FABRIC_ASSIGN_OR_RETURN(storage::LaneRows seg_rows,
                              copy.store->Scan(spec, &stats));
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
      anchor_rows.Append(std::move(seg_rows));
    }

    storage::LaneRows projected;
    projected.num_rows = anchor_rows.num_rows;
    for (int c : proj.columns) {
      projected.columns.push_back(std::move(anchor_rows.columns[c]));
    }
    std::vector<Row> proj_rows = projected.BoxRows();
    proj.encodings = projections::ChooseEncodings(
        proj.schema, proj.sort_columns, proj_rows);
    FABRIC_RETURN_IF_ERROR(db_->CreateProjectionWithStorage(proj));
    created = true;

    FABRIC_ASSIGN_OR_RETURN(Database::SegmentSet * set,
                            db_->GetProjectionStorage(proj.name));
    return db_->WriteRows(self,
                          {.set = set,
                           .segmentation = &proj.segmentation,
                           .table = &def->name,
                           .txn = txn,
                           .source_host = node_,
                           .direct = true,
                           .scale = scale},
                          std::move(proj_rows));
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
  // The plan execution reads: typed forced-hint errors (per-table
  // projection, forced merge) fail EXPLAIN the way they fail the query.
  FABRIC_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(select));
  if (plan.from == SelectPlan::From::kJoin) {
    if (!plan.join.has_value()) {
      emit("  join: n/a (not a plannable base-table join)");
      return result;
    }
    const JoinQueryPlan& jq = *plan.join;
    emit(StrCat("  join strategy: ", jq.plan.strategy(), " join",
                jq.plan.co_located ? " (co-located)" : ""));
    emit(StrCat("  join key: ", select.from, ".",
                jq.left_table->schema.column(jq.left_key).name, " = ",
                select.join, ".",
                jq.right_table->schema.column(jq.right_key).name));
    emit(StrCat("  projection(", select.from, "): ",
                LayoutName(jq.plan.left),
                " (cost=", fmt_cost(jq.plan.left.cost), ")"));
    emit(StrCat("  projection(", select.join, "): ",
                LayoutName(jq.plan.right),
                " (cost=", fmt_cost(jq.plan.right.cost), ")"));
    emit(StrCat("  candidates(", select.from, "): ",
                fmt_candidates(jq.left_candidates)));
    emit(StrCat("  candidates(", select.join, "): ",
                fmt_candidates(jq.right_candidates)));
    return result;
  }
  if (plan.from != SelectPlan::From::kScan) {
    emit("  projection: n/a (not a base-table scan)");
    return result;
  }
  emit(StrCat("  projection: ", LayoutName(plan.scan),
              " (cost=", fmt_cost(plan.scan.cost), ")"));
  emit(StrCat("  reason: ", plan.scan.reason));
  if (plan.shape.aggregate && !plan.shape.group_by.empty()) {
    emit(StrCat("  group-by strategy: ",
                plan.scan.sorted_group_by ? "merge (sorted)" : "hash"));
  }
  emit(StrCat("  candidates: ", fmt_candidates(plan.candidates)));
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
  FABRIC_RETURN_IF_ERROR(db_->TruncateTableWithStorage(stmt.table));
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
    FABRIC_ASSIGN_OR_RETURN(
        QueryResult sub,
        ExecSelect(self, *stmt.select, /*to_client=*/false, 0));
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

    // Every live copy of each owner segment takes its rows, parsed on
    // the copy's host.
    FABRIC_RETURN_IF_ERROR(db_->WriteRows(
        self,
        {.set = storage,
         .segmentation = &def->segmentation,
         .table = &def->name,
         .txn = wt.txn,
         .source_host = node_,
         .direct = stmt.direct,
         .cpu = Database::WriteCpu::kParse,
         .scale = scale},
        rows));
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
    // row-at-a-time with the write path's lenient error semantics.
    FABRIC_ASSIGN_OR_RETURN(
        CompiledWhere where,
        CompileWhere(stmt.where.get(), schema, /*pipeline=*/nullptr));
    const std::vector<int> all_columns = AllColumns(schema.num_columns());

    storage::ScanSpec spec;
    spec.as_of = snapshot;
    spec.txn = wt.txn;
    BindWhere(where, &schema, &db_->udx_resolver(), /*lenient=*/true, &spec);

    // Anchor-side victim / replacement capture for projection
    // maintenance (full anchor-width rows, each logical row once).
    std::vector<Row> all_victims;
    std::vector<Row> all_replacements;
    bool counted = false;
    for (int n = 0; n < db_->num_nodes(); ++n) {
      // Replicated: every UP replica applies the update in place.
      // Segmented: the scan reads the segment's serving copy (primary, or
      // buddy when the primary's node is down) and the delete + reinsert
      // hit every live copy.
      if (replicated && !db_->node_up(n)) continue;
      FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy read_copy,
                              db_->ReadCopy(storage, n));
      // Scan cost over the segment's visible rows (all columns, as the
      // row-store UPDATE reads full rows to build replacements).
      storage::ScanSpec node_spec = spec;
      node_spec.cost_columns = &all_columns;
      storage::ScanStats stats;
      FABRIC_ASSIGN_OR_RETURN(storage::LaneRows matched_lanes,
                              read_copy.store->Scan(node_spec, &stats));
      // The row-store UPDATE works on full rows: box them once here.
      const std::vector<Row> matched = matched_lanes.BoxRows();
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
      // A replicated table counts each logical row once, from the first
      // replica that is actually UP (node 0's replica may be down).
      if (!counted) {
        affected += deleted;
        all_victims.insert(all_victims.end(), matched.begin(),
                           matched.end());
        all_replacements.insert(all_replacements.end(),
                                replacements.begin(), replacements.end());
      }
      counted = replicated;
      if (replicated) {
        if (!replacements.empty()) {
          FABRIC_RETURN_IF_ERROR(read_copy.store->InsertPending(
              wt.txn, std::move(replacements)));
        }
        continue;
      }
      // Re-route new versions by the (possibly changed) segmentation
      // hash, into every live copy of the owning segment.
      for (Row& row : replacements) {
        int owner = db_->OwnerNode(def->segmentation, row);
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
          Row replica = c + 1 < owner_writes.size() ? row : std::move(row);
          FABRIC_RETURN_IF_ERROR(
              copy.store->InsertPending(wt.txn, {std::move(replica)}));
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

    FABRIC_ASSIGN_OR_RETURN(
        CompiledWhere where,
        CompileWhere(stmt.where.get(), schema, /*pipeline=*/nullptr));
    storage::ScanSpec spec;
    spec.as_of = snapshot;
    spec.txn = wt.txn;
    BindWhere(where, &schema, &db_->udx_resolver(), /*lenient=*/true, &spec);

    // Scan cost on each segment's serving copy; the delete marks land on
    // every live copy, and the first captures the victims (full
    // anchor-width rows) for projection maintenance below. A replicated
    // table's UP replicas all apply the delete, but each logical row is
    // counted and captured once, from the first replica actually UP.
    std::vector<Row> all_victims;
    bool counted = false;
    for (int n = 0; n < db_->num_nodes(); ++n) {
      if (replicated && !db_->node_up(n)) continue;
      FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy read_copy,
                              db_->ReadCopy(storage, n));
      FABRIC_ASSIGN_OR_RETURN(
          int64_t visible_count,
          read_copy.store->CountVisible(snapshot, wt.txn));
      DataProfile scanned;
      scanned.rows = static_cast<double>(visible_count);
      scanned.ScaleBy(db_->EffectiveScale(def->name));
      FABRIC_RETURN_IF_ERROR(net::RunCpu(self, db_->network(),
                                         db_->node_host(read_copy.host),
                                         scanned.ScanCpu(cost)));
      FABRIC_ASSIGN_OR_RETURN(std::vector<Database::SegmentCopy> writes,
                              db_->WriteCopies(storage, n));
      int64_t deleted = -1;
      for (const Database::SegmentCopy& copy : writes) {
        const bool capture = deleted < 0 && !counted;
        FABRIC_ASSIGN_OR_RETURN(
            int64_t d, copy.store->MarkDeletedPending(
                           spec, capture ? &all_victims : nullptr));
        if (deleted < 0) {
          deleted = d;
        } else {
          FABRIC_CHECK(d == deleted) << "buddy copies diverged";
        }
      }
      if (!counted) affected += deleted;
      counted = replicated;
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

// A SELECT body's result before the QueryResult edge: lanes from a
// compiled projection, or rows (a compiled aggregate's groups, or the
// interpreter's output).
struct SelectOutput {
  Schema schema;
  std::optional<storage::LaneRows> lanes;
  std::vector<Row> rows;
};

// A SELECT body's input: lanes (scans, joins) or boxed rows (system
// tables, view results). Each evaluator converts only what it reads.
struct SelectInput {
  const storage::LaneRows* lanes = nullptr;
  const std::vector<Row>* rows = nullptr;
};

// Applies a SELECT's WHERE / aggregation / projection to an in-memory
// row set (the initiator-local part of query execution, shared by base
// tables, joins, views and system tables); ORDER BY / LIMIT are left to
// LocalSelect.
Result<SelectOutput> SelectBody(SelectInput input, const Schema& schema,
                                const sql::SelectStmt& select, Database* db,
                                const exec::SpillPolicy* spill) {
  const sql::UdxResolver* udx = &db->udx_resolver();
  const sql::AggregateUdxResolver* agg_udx = &db->aggregate_udx_resolver();
  PipelineCompiler* pipeline = db->pipeline_compiler();
  const bool budgeted = spill != nullptr && spill->budget_bytes > 0;
  // Compiled fast path: a cached vectorized pipeline runs the whole
  // body (filter → project/aggregate) over the input lanes. It either
  // produces exactly what the interpreter below would — same rows, same
  // order, same schema — or bails (dynamic type surprise, division by
  // zero, UDx error, uncompilable shape), in which case the interpreter
  // runs from scratch and stays authoritative for results and errors.
  // A budgeted run skips it: the compiled aggregate cannot spill.
  if (pipeline != nullptr && pipeline->enabled() && !budgeted) {
    std::shared_ptr<const CompiledQuery> compiled =
        pipeline->GetOrCompileSelect(select, schema, udx, agg_udx);
    if (compiled != nullptr) {
      storage::LaneRows unboxed;
      if (input.lanes == nullptr) {
        const std::vector<int> columns = exec::InputColumns(compiled->select);
        unboxed = storage::LaneRows::FromRows(schema, *input.rows, &columns);
      }
      auto compiled_result = exec::RunCompiledSelect(
          compiled->select, input.lanes != nullptr ? *input.lanes : unboxed);
      if (compiled_result.has_value()) {
        obs::IncrCounter("sql.compiled_pipelines");
        SelectOutput output;
        output.schema = compiled->out_schema;
        output.lanes = std::move(compiled_result->lanes);
        output.rows = std::move(compiled_result->rows);
        return output;
      }
    }
    obs::IncrCounter("sql.interpreted_fallbacks");
  }

  // The interpreter reads boxed rows.
  std::vector<Row> boxed;
  if (input.rows == nullptr) boxed = input.lanes->BoxRows();
  const std::vector<Row>& rows = input.rows != nullptr ? *input.rows : boxed;

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

  SelectOutput result;
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
  return result;
}

// SelectBody, then the QueryResult edge: compiled lanes are boxed here,
// once, and ORDER BY (by output column names) and LIMIT apply.
Result<QueryResult> LocalSelect(SelectInput input, const Schema& schema,
                                const sql::SelectStmt& select, Database* db,
                                const exec::SpillPolicy* spill) {
  FABRIC_ASSIGN_OR_RETURN(SelectOutput output,
                          SelectBody(input, schema, select, db, spill));
  QueryResult result;
  result.schema = std::move(output.schema);
  result.rows = output.lanes.has_value() ? output.lanes->BoxRows()
                                         : std::move(output.rows);
  if (!select.order_by.empty()) {
    std::vector<std::pair<int, bool>> keys;
    for (const sql::OrderItem& item : select.order_by) {
      FABRIC_ASSIGN_OR_RETURN(int idx, result.schema.IndexOf(item.column));
      keys.emplace_back(idx, item.descending);
    }
    std::stable_sort(result.rows.begin(), result.rows.end(),
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
      static_cast<int64_t>(result.rows.size()) > select.limit) {
    result.rows.resize(select.limit);
  }
  return result;
}

// `select` without its WHERE clause: the initiator's part of a scan
// query whose WHERE the scan already applied.
sql::SelectStmt WithoutWhere(const sql::SelectStmt& select) {
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
}

// The kind of table one FROM or JOIN name reads.
SelectPlan::From SourceKind(const Catalog& catalog, const std::string& name) {
  if (IsSystemTableName(name)) return SelectPlan::From::kSystemTable;
  if (catalog.HasView(name)) return SelectPlan::From::kView;
  return SelectPlan::From::kScan;
}

// The per-segment processes of one distributed read and what they hand
// back to the initiator. Heap-shared with every process, so the segments
// keep running, and their state stays valid, if the initiator is killed
// mid-query.
struct SegmentFanOut {
  SegmentFanOut(sim::Engine* engine, int num_nodes)
      : lanes(num_nodes), status(num_nodes, Status::OK()), progress(engine) {}

  std::vector<int> segments;             // spawn and gather order
  std::vector<storage::LaneRows> lanes;  // by segment
  std::vector<Status> status;            // by segment
  int running = 0;
  sim::Condition progress;
  // Result wire the segments published that the initiator has not
  // streamed yet, and the totals so far (a single-table scan streams
  // while it runs).
  double available_wire = 0;
  double produced_wire = 0;
  double produced_rows = 0;
};

// One segment's work, run on its own process; returns the lanes the
// segment hands to the initiator.
using SegmentWork =
    std::function<Result<storage::LaneRows>(sim::Process&, SegmentFanOut&)>;

// Spawns one process per (segment, work) pair, in order, named
// `<name>:n<segment>`.
std::shared_ptr<SegmentFanOut> FanOut(
    Database* db, const std::string& name,
    std::vector<std::pair<int, SegmentWork>> work) {
  auto fan = std::make_shared<SegmentFanOut>(db->engine(), db->num_nodes());
  fan->running = static_cast<int>(work.size());
  for (auto& [segment, run] : work) {
    fan->segments.push_back(segment);
    db->engine()->Spawn(
        StrCat(name, ":n", segment),
        [fan, segment = segment, run = std::move(run)](sim::Process& proc) {
          Result<storage::LaneRows> lanes = run(proc, *fan);
          if (lanes.ok()) {
            fan->lanes[segment] = std::move(*lanes);
          } else {
            fan->status[segment] = lanes.status();
          }
          --fan->running;
          fan->progress.NotifyAll();
        });
  }
  return fan;
}

// Waits for every segment of `fan`, handing each burst of published wire
// to `drain` (when set) as it appears. Then appends every segment's
// lanes, in segment order, to `gathered`, or returns the first failed
// segment's status.
Result<storage::LaneRows> Gather(sim::Process& self, SegmentFanOut& fan,
                                 const std::function<Status(double)>& drain,
                                 storage::LaneRows gathered) {
  while (fan.running > 0 || fan.available_wire > 0) {
    FABRIC_RETURN_IF_ERROR(fan.progress.WaitUntil(self, [&fan] {
      return fan.available_wire > 0 || fan.running == 0;
    }));
    const double wire = fan.available_wire;
    fan.available_wire = 0;
    if (wire > 0 && drain) FABRIC_RETURN_IF_ERROR(drain(wire));
  }
  for (int segment : fan.segments) {
    FABRIC_RETURN_IF_ERROR(fan.status[segment]);
    gathered.Append(std::move(fan.lanes[segment]));
    fan.lanes[segment] = storage::LaneRows();
  }
  return gathered;
}

// The initiator's join of two gathered sides: `cpu_per_row` per input
// row at paper scale, then the equi-join kernel on `keys`, or a nested
// loop over `on` (evaluated against `combined`) when ON is not a column
// equality.
Result<storage::LaneRows> JoinAtInitiator(
    sim::Process& self, Database* db, int initiator,
    const storage::LaneRows& left, const storage::LaneRows& right,
    const std::optional<std::pair<int, int>>& keys, const sql::Expr& on,
    const Schema& combined, double cpu_per_row) {
  DataProfile join_cost;
  join_cost.rows = static_cast<double>(left.num_rows) +
                   static_cast<double>(right.num_rows);
  join_cost.ScaleBy(db->cost().data_scale);
  FABRIC_RETURN_IF_ERROR(net::RunCpu(self, db->network(),
                                     db->node_host(initiator),
                                     join_cost.rows * cpu_per_row));
  if (keys.has_value()) {
    return exec::EquiJoin(left, keys->first, AllColumns(left.columns.size()),
                          right, keys->second,
                          AllColumns(right.columns.size()));
  }
  std::vector<Row> matched;
  const std::vector<Row> right_rows = right.BoxRows();
  sql::EvalContext context;
  context.schema = &combined;
  context.udx = &db->udx_resolver();
  for (const Row& lrow : left.BoxRows()) {
    for (const Row& rrow : right_rows) {
      Row out = lrow;
      out.insert(out.end(), rrow.begin(), rrow.end());
      context.row = &out;
      FABRIC_ASSIGN_OR_RETURN(bool match, sql::EvalPredicate(on, context));
      if (match) matched.push_back(std::move(out));
    }
  }
  return storage::LaneRows::FromRows(combined, matched);
}

}  // namespace

Result<SelectPlan> Session::PlanSelect(const sql::SelectStmt& select) const {
  SelectPlan plan;
  if (select.from.empty()) return plan;
  if (!select.join.empty()) {
    plan.from = SelectPlan::From::kJoin;
    FABRIC_ASSIGN_OR_RETURN(plan.join, PlanJoinQuery(select));
    return plan;
  }
  plan.from = SourceKind(db_->catalog(), select.from);
  if (plan.from != SelectPlan::From::kScan) return plan;
  FABRIC_ASSIGN_OR_RETURN(plan.table, db_->catalog().GetTable(select.from));
  plan.shape = projections::ShapeOf(select, plan.table->schema);
  FABRIC_ASSIGN_OR_RETURN(
      plan.scan, ResolveScanPlan(*plan.table, plan.shape, &plan.candidates));
  return plan;
}

Result<QueryResult> Session::ExecSelect(sim::Process& self,
                                        const sql::SelectStmt& select,
                                        bool to_client, int view_depth) {
  if (view_depth > 8) {
    return InvalidArgumentError("view nesting too deep");
  }

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
      sql::ContainsAggregate(*select.where, &db_->aggregate_udx_resolver())) {
    return InvalidArgumentError(
        "aggregate functions are not allowed in WHERE");
  }

  FABRIC_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(select));
  switch (plan.from) {
    case SelectPlan::From::kConstants:
    case SelectPlan::From::kSystemTable: {
      // Answered on the initiator, from one empty row or from the
      // catalog, and streamed without the result-stream cap.
      QueryResult base{Schema(), {Row{}}};
      if (plan.from == SelectPlan::From::kSystemTable) {
        FABRIC_ASSIGN_OR_RETURN(base, ReadSystemTable(*db_, select.from));
      }
      FABRIC_ASSIGN_OR_RETURN(
          QueryResult result,
          LocalSelect({nullptr, &base.rows}, base.schema, select, db_, spill));
      if (to_client) {
        const double wire =
            plan.from == SelectPlan::From::kConstants
                ? 64
                : ProfileRows(result.rows).JdbcWireBytes(db_->cost());
        FABRIC_RETURN_IF_ERROR(
            StreamToClient(self, wire, net::kUnlimitedRate));
      }
      return result;
    }
    case SelectPlan::From::kJoin:
      // Views over joins are what let V2S push join processing into
      // Vertica (Section 3.1.1).
      return ExecJoin(self, select, plan.join, to_client, view_depth, spill);
    case SelectPlan::From::kView: {
      // Execute the stored SELECT inside the database (this is how a
      // pre-defined view lets V2S push joins/aggregations down, Sec.
      // 3.1.1), then run the outer query over its result on the
      // initiator.
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
      FABRIC_ASSIGN_OR_RETURN(
          QueryResult result,
          LocalSelect({nullptr, &sub.rows}, sub.schema, select, db_, spill));
      if (to_client) FABRIC_RETURN_IF_ERROR(StreamResult(self, result));
      return result;
    }
    case SelectPlan::From::kScan:
      break;
  }

  // Base table: a distributed scan through the planned layout. Workload
  // capture for the designer (v_monitor.query_requests) first.
  const TableDef& def = *plan.table;
  QueryRequest request;
  request.table = ToLower(def.name);
  if (plan.shape.star) {
    for (int c = 0; c < def.schema.num_columns(); ++c) {
      request.referenced.push_back(ToLower(def.schema.column(c).name));
    }
  } else {
    request.referenced = plan.shape.referenced;
  }
  request.group_by = plan.shape.group_by;
  request.aggregate = plan.shape.aggregate;
  request.pool = resource_pool_;
  db_->RecordQueryRequest(std::move(request));

  Schema schema;
  FABRIC_ASSIGN_OR_RETURN(
      storage::LaneRows gathered,
      ExecScanSelect(self, select, &def, plan.scan, to_client, &schema));
  // WHERE already applied during the scan: the initiator runs the rest.
  return LocalSelect({&gathered, nullptr}, schema, WithoutWhere(select), db_,
                     spill);
}

Result<projections::PlanChoice> Session::ResolveScanPlan(
    const TableDef& def, const projections::QueryShape& shape,
    std::vector<std::pair<std::string, double>>* candidates) const {
  projections::PlanChoice plan =
      projections::ChoosePlan(db_->catalog(), def, shape, candidates);
  auto hint = forced_table_projections_.find(ToLower(def.name));
  if (hint == forced_table_projections_.end()) return plan;
  plan = projections::PlanChoice();  // defaults = the super projection
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

Result<storage::LaneRows> Session::ExecScanSelect(
    sim::Process& self, const sql::SelectStmt& select, const TableDef* def,
    const projections::PlanChoice& plan, bool to_client,
    storage::Schema* scanned_schema) {
  // Everything below scans through the chosen physical layout: its
  // schema, its segmentation, its segment stores.
  FABRIC_ASSIGN_OR_RETURN(ScanLayout layout, ResolveLayout(db_, *def, plan));
  const Schema& schema = *layout.schema;
  // Columns this query touches (column-store pruning).
  FABRIC_ASSIGN_OR_RETURN(std::set<int> referenced,
                          ReferencedColumns(select, schema));

  // Participating segments, pruned by the hash ranges the predicate
  // constrains.
  const std::vector<int> nodes =
      ScanSegments(*db_, layout, select.where.get(), node_);

  SnapshotGuard snapshot(db_);
  FABRIC_RETURN_IF_ERROR(snapshot.Acquire(self, select.at_epoch));

  // What every segment's scan reads, shared by their processes.
  struct ScanContext {
    Schema schema;
    // WHERE compiled for the vectorized scan; the residual program is
    // compiled once per query on the initiator and shared by every
    // node's scan process.
    CompiledWhere where;
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
    double data_scale;
  };
  auto ctx = std::make_shared<ScanContext>();
  ctx->schema = schema;
  FABRIC_ASSIGN_OR_RETURN(ctx->where,
                          CompileWhere(select.where.get(), schema,
                                       db_->pipeline_compiler()));
  if (select.where != nullptr) {
    std::set<int> where_columns;
    FABRIC_RETURN_IF_ERROR(
        CollectColumns(*select.where, schema, &where_columns));
    ctx->cost_columns.assign(where_columns.begin(), where_columns.end());
  }
  ctx->projection.assign(referenced.begin(), referenced.end());
  ctx->snapshot = snapshot.epoch();
  ctx->txn = txn_;
  ctx->aggregate =
      sql::IsAggregateSelect(select, &db_->aggregate_udx_resolver());
  ctx->sorted_group_by = plan.sorted_group_by;
  // LIMIT n without ORDER BY or aggregation caps each node's scan at n:
  // every node's emitted rows stay a prefix of what the uncapped scan
  // emits, so the initiator's global LIMIT picks exactly the same rows
  // while the storage layer skips the containers past the cap.
  if (!ctx->aggregate && select.order_by.empty() && select.limit >= 0) {
    ctx->scan_limit = select.limit;
  }
  for (const std::string& g : select.group_by) {
    ctx->group_cols.push_back(*schema.IndexOf(g));
  }
  ctx->data_scale = db_->EffectiveScale(select.from);

  // Each participating segment is scanned on its serving copy.
  std::vector<std::pair<int, SegmentWork>> work;
  for (int n : nodes) {
    FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy copy,
                            ServingCopy(*db_, layout, n, select.from));
    work.emplace_back(n, [ctx, copy, db = db_, initiator = node_](
                             sim::Process& scan, SegmentFanOut& fan)
                             -> Result<storage::LaneRows> {
      const CostModel& cost = db->cost();
      // Vectorized scan: predicate kernels run directly on encoded
      // columns, refining a selection vector; only passing rows are
      // materialized (late materialization). The virtual-time cost
      // accounting is unchanged from the row-at-a-time loop it
      // replaces: predicate columns are charged for every visible row
      // (this is where V2S pays its per-row HASH evaluation, Section
      // 4.7.2), output columns only for passing rows.
      storage::ScanSpec spec;
      spec.as_of = ctx->snapshot;
      spec.txn = ctx->txn;
      BindWhere(ctx->where, &ctx->schema, &db->udx_resolver(),
                /*lenient=*/false, &spec);
      spec.cost_columns = &ctx->cost_columns;
      spec.projection = &ctx->projection;
      spec.limit = ctx->scan_limit;
      storage::ScanStats stats;
      FABRIC_ASSIGN_OR_RETURN(storage::LaneRows passed,
                              copy.store->Scan(spec, &stats));
      obs::IncrCounter("vertica.rows_scanned",
                       stats.rows_visible * ctx->data_scale);
      DataProfile scanned = ScannedProfile(stats, ctx->data_scale);

      // Result volume leaving this node: for aggregates only the merged
      // partials travel (#groups x output width); otherwise the
      // referenced columns of the passing rows.
      DataProfile produced;
      if (ctx->aggregate) {
        // Only the number of distinct groups matters here.
        std::unordered_set<std::string> group_keys;
        std::string key;
        for (size_t i = 0; i < passed.num_rows; ++i) {
          key.clear();
          exec::AppendGroupKey(passed, static_cast<uint32_t>(i),
                               ctx->group_cols, &key);
          group_keys.insert(key);
        }
        produced.rows =
            static_cast<double>(std::max<size_t>(group_keys.size(), 1));
        produced.fields = produced.rows * (ctx->group_cols.size() + 1);
        produced.numeric_bytes = produced.fields * 8;
        produced.raw_bytes = produced.numeric_bytes;
      } else {
        produced = stats.output_profile;
        produced.ScaleBy(ctx->data_scale);
      }

      // Chunked pipeline: scan CPU, intra-cluster shuffle when the
      // segment is remote from the initiator, then publish to the client
      // stream. Each scanned container costs a fixed open (headers,
      // fds): fragmentation hurts until the Tuple Mover merges it away.
      double scan_cpu = scanned.ScanCpu(cost) +
                        static_cast<double>(stats.containers_scanned) *
                            cost.ros_container_open_cpu;
      if (ctx->aggregate) {
        // Aggregation CPU per passing input row: hash-aggregate unless
        // the layout's sort order makes equal keys adjacent.
        scan_cpu += static_cast<double>(passed.num_rows) * ctx->data_scale *
                    (ctx->sorted_group_by
                         ? cost.group_by_sorted_cpu_per_row
                         : cost.group_by_hash_cpu_per_row);
      }
      double wire = produced.JdbcWireBytes(cost);
      double internal = produced.raw_bytes;
      int chunks = static_cast<int>(std::ceil(
          std::max(scanned.raw_bytes, 1.0) / cost.chunk_bytes));
      chunks = std::clamp(chunks, 1, 512);
      const net::Host& host = db->node_host(copy.host);
      const net::Host& initiator_host = db->node_host(initiator);
      for (int c = 0; c < chunks; ++c) {
        FABRIC_RETURN_IF_ERROR(
            net::RunCpu(scan, db->network(), host, scan_cpu / chunks));
        if (copy.host != initiator && internal > 0) {
          FABRIC_RETURN_IF_ERROR(db->network()->Transfer(
              scan, {host.int_egress, initiator_host.int_ingress},
              internal / chunks));
        }
        fan.available_wire += wire / chunks;
        fan.produced_wire += wire / chunks;
        fan.produced_rows += produced.rows / chunks;
        fan.progress.NotifyAll();
      }
      return passed;
    });
  }
  std::shared_ptr<SegmentFanOut> fan =
      FanOut(db_, StrCat("vscan:", select.from), std::move(work));

  // Stream produced chunks to the client as they appear (scan/stream
  // pipelining); internal executions (views, joins) skip the external
  // wire.
  std::function<Status(double)> drain;
  if (to_client) {
    drain = [&](double wire) -> Status {
      const CostModel& cost = db_->cost();
      DataProfile so_far;
      so_far.rows = std::max(fan->produced_rows, 1.0);
      double cap = so_far.StreamRateCap(cost.result_stream_bytes_per_sec,
                                        cost.result_row_overhead,
                                        std::max(fan->produced_wire, 1.0));
      FABRIC_RETURN_IF_ERROR(StreamToClient(self, wire, cap));
      // The per-connection cap is serialization CPU on this node; credit
      // it so resource telemetry (Table 2) sees the load.
      const net::Host& host = db_->node_host(node_);
      if (host.has_cpu()) {
        db_->network()->CreditLink(
            host.cpu, wire * cost.result_serialize_cpu_per_byte *
                          net::kCpuUnitsPerCore);
      }
      return Status::OK();
    };
  }
  *scanned_schema = schema;
  return Gather(self, *fan, drain, storage::LaneRows(schema));
}

Result<std::optional<JoinQueryPlan>> Session::PlanJoinQuery(
    const sql::SelectStmt& select) const {
  std::optional<JoinQueryPlan> none;
  if (select.join_on == nullptr || EqualsIgnoreCase(select.from, select.join) ||
      SourceKind(db_->catalog(), select.from) != SelectPlan::From::kScan ||
      SourceKind(db_->catalog(), select.join) != SelectPlan::From::kScan) {
    return none;
  }
  Result<const TableDef*> left_or = db_->catalog().GetTable(select.from);
  Result<const TableDef*> right_or = db_->catalog().GetTable(select.join);
  if (!left_or.ok() || !right_or.ok()) return none;  // the fallback reports
  const TableDef* left = *left_or;
  const TableDef* right = *right_or;

  // ON must be a simple column equality resolving one column per anchor
  // (either spelling); anything else joins through the fallback's nested
  // loop.
  const std::optional<std::pair<int, int>> keys =
      EquiJoinKeys(*select.join_on, left->schema, right->schema);
  if (!keys.has_value()) return none;
  const auto [lk, rk] = *keys;

  JoinQueryPlan jq;
  jq.left_table = left;
  jq.right_table = right;
  jq.left_key = lk;
  jq.right_key = rk;

  // Column pruning: resolve every outer reference against the combined
  // exposed schema, then map each back to its side.
  const int left_n = left->schema.num_columns();
  const Schema combined = JoinedSchema(
      left->schema, AllColumns(left_n), right->schema,
      AllColumns(right->schema.num_columns()), select.join);
  Result<std::set<int>> referenced = ReferencedColumns(select, combined);
  if (!referenced.ok()) return none;
  std::set<int>& refs = *referenced;
  for (const sql::OrderItem& item : select.order_by) {
    auto idx = combined.IndexOf(item.column);
    if (!idx.ok()) return none;
    refs.insert(*idx);
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

  // Per side: the cheapest plan overall plus the cheapest merge-capable
  // plan (sorted on the join key). When both sides have a merge-capable
  // layout the merge join wins outright — its per-row rate is far below
  // the hash rate, so a slightly wider sorted projection still beats the
  // narrowest unsorted one. A forced hint pins the side to one layout.
  // Side shapes carry explicit column lists (never star) so narrow sorted
  // projections stay eligible for wide tables.
  struct SidePlan {
    std::string key;  // lower-cased join-key column
    projections::PlanChoice overall;
    std::optional<projections::PlanChoice> sorted;
  };
  auto plan_side = [&](const TableDef& t, const std::vector<int>& needed,
                       int key,
                       std::vector<std::pair<std::string, double>>* cands)
      -> Result<SidePlan> {
    projections::QueryShape shape;
    for (int c : needed) {
      shape.referenced.push_back(ToLower(t.schema.column(c).name));
    }
    shape.join_keys.push_back(ToLower(t.schema.column(key).name));
    shape.at_epoch = select.at_epoch;
    SidePlan side{shape.join_keys.front(), {}, {}};
    FABRIC_ASSIGN_OR_RETURN(side.overall, ResolveScanPlan(t, shape, cands));
    if (forced_table_projections_.count(ToLower(t.name)) > 0) {
      if (side.overall.sorted_join) side.sorted = side.overall;
    } else {
      side.sorted =
          projections::ChooseSortedJoinPlan(db_->catalog(), t, shape);
    }
    return side;
  };
  FABRIC_ASSIGN_OR_RETURN(
      SidePlan left_side,
      plan_side(*left, jq.left_needed, lk, &jq.left_candidates));
  FABRIC_ASSIGN_OR_RETURN(
      SidePlan right_side,
      plan_side(*right, jq.right_needed, rk, &jq.right_candidates));

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
  jq.plan = projections::ClassifyJoin(*left, lpick, left_side.key, *right,
                                      rpick, right_side.key);
  if (!want_merge) {
    jq.plan.merge = false;
    jq.plan.co_located = false;
  }
  return std::optional<JoinQueryPlan>(std::move(jq));
}

Result<QueryResult> Session::ExecJoin(
    sim::Process& self, const sql::SelectStmt& select,
    const std::optional<JoinQueryPlan>& planned, bool to_client,
    int view_depth, const exec::SpillPolicy* spill) {
  const CostModel& cost = db_->cost();
  Schema combined;
  storage::LaneRows joined;
  if (!planned.has_value()) {
    // Fallback (a view or system-table side, a self join, a complex ON):
    // execute both sides as internal distributed scans and join at the
    // initiator, hash-join-shaped.
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
    combined = JoinedSchema(
        left.schema, AllColumns(left.schema.num_columns()), right.schema,
        AllColumns(right.schema.num_columns()), select.join);
    obs::IncrCounter("vertica.hash_joins");
    FABRIC_ASSIGN_OR_RETURN(
        joined,
        JoinAtInitiator(
            self, db_, node_,
            storage::LaneRows::FromRows(left.schema, left.rows),
            storage::LaneRows::FromRows(right.schema, right.rows),
            EquiJoinKeys(*select.join_on, left.schema, right.schema),
            *select.join_on, combined, cost.join_hash_cpu_per_row));
  } else {
    // Planned: both sides are base tables scanning a chosen layout.
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
         {"left", LayoutName(jq.plan.left)},
         {"right", LayoutName(jq.plan.right)},
         {"co_located", jq.plan.co_located ? 1 : 0}});

    // Combined schema over the pruned column sets, in anchor order per
    // side.
    combined = JoinedSchema(left_t.schema, jq.left_needed, right_t.schema,
                            jq.right_needed, select.join);
    if (jq.plan.co_located) {
      FABRIC_ASSIGN_OR_RETURN(joined, ExecCoLocatedJoin(self, select, jq));
    } else {
      // Gathered join: scan each side through its chosen layout (pruned
      // to the needed columns), then join at the initiator.
      auto scan_side = [&](const TableDef& t, const std::vector<int>& needed,
                           const projections::PlanChoice& pick)
          -> Result<storage::LaneRows> {
        sql::SelectStmt sub;
        for (int c : needed) {
          sql::SelectItem item;
          item.expr = sql::Expr::ColumnRef(t.schema.column(c).name);
          sub.items.push_back(std::move(item));
        }
        sub.from = t.name;
        sub.at_epoch = select.at_epoch;
        Schema schema;
        FABRIC_ASSIGN_OR_RETURN(
            storage::LaneRows gathered,
            ExecScanSelect(self, sub, &t, pick, /*to_client=*/false,
                           &schema));
        FABRIC_ASSIGN_OR_RETURN(
            SelectOutput output,
            SelectBody({&gathered, nullptr}, schema, sub, db_, nullptr));
        if (output.lanes.has_value()) return std::move(*output.lanes);
        return storage::LaneRows::FromRows(output.schema, output.rows);
      };
      FABRIC_ASSIGN_OR_RETURN(
          storage::LaneRows left,
          scan_side(left_t, jq.left_needed, jq.plan.left));
      FABRIC_ASSIGN_OR_RETURN(
          storage::LaneRows right,
          scan_side(right_t, jq.right_needed, jq.plan.right));
      // The merge rate skips the hash table build/probe because both
      // inputs already arrive sorted on the key; both strategies produce
      // the same rows in the same order, so one kernel serves them.
      FABRIC_ASSIGN_OR_RETURN(
          joined, JoinAtInitiator(
                      self, db_, node_, left, right,
                      std::make_pair(PositionOf(jq.left_needed, jq.left_key),
                                     PositionOf(jq.right_needed, jq.right_key)),
                      *select.join_on, combined,
                      jq.plan.merge ? cost.join_merge_cpu_per_row
                                    : cost.join_hash_cpu_per_row));
    }
  }

  FABRIC_ASSIGN_OR_RETURN(
      QueryResult result,
      LocalSelect({&joined, nullptr}, combined, select, db_, spill));
  if (to_client) FABRIC_RETURN_IF_ERROR(StreamResult(self, result));
  return result;
}

Result<storage::LaneRows> Session::ExecCoLocatedJoin(
    sim::Process& self, const sql::SelectStmt& select,
    const JoinQueryPlan& jq) {
  const TableDef& left_t = *jq.left_table;
  const TableDef& right_t = *jq.right_table;

  SnapshotGuard snapshot(db_);
  FABRIC_RETURN_IF_ERROR(snapshot.Acquire(self, select.at_epoch));
  FABRIC_ASSIGN_OR_RETURN(ScanLayout left,
                          ResolveLayout(db_, left_t, jq.plan.left));
  FABRIC_ASSIGN_OR_RETURN(ScanLayout right,
                          ResolveLayout(db_, right_t, jq.plan.right));

  // What every segment's join reads, shared by their processes.
  struct JoinContext {
    Epoch snapshot;
    TxnId txn;
    // Each needed anchor column's position in the scanned layout's store
    // schema, and the join key's; rows are emitted in anchor order so the
    // combined layout matches the gathered path's exactly.
    std::vector<int> left_positions, right_positions;
    int left_key_position = -1, right_key_position = -1;
    double left_scale, right_scale;
  };
  auto ctx = std::make_shared<JoinContext>();
  auto store_positions = [](const projections::PlanChoice& pick,
                            std::vector<int> columns)
      -> Result<std::vector<int>> {
    if (pick.projection == nullptr) return columns;
    const std::vector<int>& stored = pick.projection->columns;
    for (int& c : columns) {
      auto it = std::find(stored.begin(), stored.end(), c);
      if (it == stored.end()) {
        return InternalError("projection missing a join column");
      }
      c = static_cast<int>(it - stored.begin());
    }
    return columns;
  };
  FABRIC_ASSIGN_OR_RETURN(ctx->left_positions,
                          store_positions(jq.plan.left, jq.left_needed));
  FABRIC_ASSIGN_OR_RETURN(ctx->right_positions,
                          store_positions(jq.plan.right, jq.right_needed));
  ctx->left_key_position =
      ctx->left_positions[PositionOf(jq.left_needed, jq.left_key)];
  ctx->right_key_position =
      ctx->right_positions[PositionOf(jq.right_needed, jq.right_key)];
  ctx->snapshot = snapshot.epoch();
  ctx->txn = txn_;
  ctx->left_scale = db_->EffectiveScale(left_t.name);
  ctx->right_scale = db_->EffectiveScale(right_t.name);

  // One join process per left segment, on whichever node serves that
  // segment today (primary, or buddy after failover). A replicated right
  // side is read from the serving node's local copy; a segmented right
  // side reads the matching segment (equal keys land on equal segment
  // indices — that is what ClassifyJoin certified). The left copy's host
  // runs the join; the right copy's differs only in asymmetric failover
  // states.
  std::vector<std::pair<int, SegmentWork>> work;
  for (int n : ScanSegments(*db_, left, nullptr, node_)) {
    FABRIC_ASSIGN_OR_RETURN(Database::SegmentCopy left_copy,
                            ServingCopy(*db_, left, n, left_t.name));
    Database::SegmentCopy right_copy{
        right.set->per_node[left_copy.host].get(), left_copy.host};
    if (!right.segmentation->unsegmented()) {
      FABRIC_ASSIGN_OR_RETURN(right_copy, db_->ReadCopy(right.set, n));
    }
    work.emplace_back(n, [ctx, left_copy, right_copy, db = db_,
                          initiator = node_](sim::Process& proc,
                                             SegmentFanOut&)
                             -> Result<storage::LaneRows> {
      const CostModel& cost = db->cost();
      auto scan = [&](storage::SegmentStore* store,
                      const std::vector<int>& cost_columns,
                      storage::ScanStats* stats) {
        storage::ScanSpec spec;
        spec.as_of = ctx->snapshot;
        spec.txn = ctx->txn;
        spec.projection = &cost_columns;
        return store->Scan(spec, stats);
      };
      storage::ScanStats left_stats, right_stats;
      FABRIC_ASSIGN_OR_RETURN(
          storage::LaneRows left_rows,
          scan(left_copy.store, ctx->left_positions, &left_stats));
      FABRIC_ASSIGN_OR_RETURN(
          storage::LaneRows right_rows,
          scan(right_copy.store, ctx->right_positions, &right_stats));
      obs::IncrCounter("vertica.rows_scanned",
                       left_stats.rows_visible * ctx->left_scale +
                           right_stats.rows_visible * ctx->right_scale);

      // Node-local merge join, emitting combined rows pruned to the
      // needed columns in anchor order (see ExecJoin): left rows in
      // storage order, matches in right storage order — the same order
      // the gathered join produces for this segment.
      storage::LaneRows out = exec::EquiJoin(
          left_rows, ctx->left_key_position, ctx->left_positions,
          right_rows, ctx->right_key_position, ctx->right_positions);

      // Virtual-time cost: both scans' bytes and container opens plus
      // the merge-join CPU per input row, all on the serving node. Only
      // the join output travels to the initiator.
      DataProfile scanned = ScannedProfile(left_stats, ctx->left_scale);
      scanned.Add(ScannedProfile(right_stats, ctx->right_scale));
      double cpu =
          scanned.ScanCpu(cost) +
          static_cast<double>(left_stats.containers_scanned +
                              right_stats.containers_scanned) *
              cost.ros_container_open_cpu +
          (static_cast<double>(left_rows.num_rows) * ctx->left_scale +
           static_cast<double>(right_rows.num_rows) * ctx->right_scale) *
              cost.join_merge_cpu_per_row;
      const net::Host& host = db->node_host(left_copy.host);
      FABRIC_RETURN_IF_ERROR(net::RunCpu(proc, db->network(), host, cpu));
      if (right_copy.host != left_copy.host) {
        // Asymmetric failover: the right segment is served from a
        // different node, so its scan output crosses the cluster.
        DataProfile moved = right_stats.output_profile;
        moved.ScaleBy(ctx->right_scale);
        if (moved.raw_bytes > 0) {
          const net::Host& rhost = db->node_host(right_copy.host);
          FABRIC_RETURN_IF_ERROR(db->network()->Transfer(
              proc, {rhost.int_egress, host.int_ingress}, moved.raw_bytes));
        }
      }
      if (left_copy.host != initiator) {
        DataProfile produced = ProfileRows(out);
        produced.ScaleBy(cost.data_scale);
        if (produced.raw_bytes > 0) {
          FABRIC_RETURN_IF_ERROR(db->network()->Transfer(
              proc, {host.int_egress, db->node_host(initiator).int_ingress},
              produced.raw_bytes));
        }
      }
      return out;
    });
  }
  std::shared_ptr<SegmentFanOut> fan =
      FanOut(db_, StrCat("vjoin:", left_t.name, "x", right_t.name),
             std::move(work));
  storage::LaneRows joined;
  joined.columns.resize(ctx->left_positions.size() +
                        ctx->right_positions.size());
  return Gather(self, *fan, nullptr, std::move(joined));
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

Status Session::StreamResult(sim::Process& self, const QueryResult& result) {
  const CostModel& cost = db_->cost();
  DataProfile profile = ProfileRows(result.rows);
  profile.ScaleBy(cost.data_scale);
  double wire = profile.JdbcWireBytes(cost);
  double cap = profile.StreamRateCap(cost.result_stream_bytes_per_sec,
                                     cost.result_row_overhead, wire);
  return StreamToClient(self, wire, cap);
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
