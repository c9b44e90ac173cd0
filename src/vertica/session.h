#ifndef FABRIC_VERTICA_SESSION_H_
#define FABRIC_VERTICA_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "vertica/database.h"
#include "vertica/projections/planner.h"
#include "vertica/sql_ast.h"

namespace fabric::exec {
struct SpillPolicy;
}  // namespace fabric::exec

namespace fabric::vertica {

// Stable message prefix of the FAILED_PRECONDITION error a per-table
// forced-projection hint raises when the named projection cannot serve
// the query (unknown, wrong anchor, or ineligible for the shape).
inline constexpr char kForcedProjectionToken[] =
    "FORCED_PROJECTION_INELIGIBLE";

// Stable message prefix of the FAILED_PRECONDITION error a forced
// "merge" join strategy raises when the two sides' layouts cannot feed a
// merge join (either side lacks a projection sorted on its join key).
inline constexpr char kForcedJoinStrategyToken[] =
    "FORCED_JOIN_STRATEGY_UNAVAILABLE";

// A fully planned two-table INNER JOIN (both sides base tables, simple
// column-equality ON): the join keys, the anchor columns each side must
// scan, the chosen layout per side and the join strategy they imply.
// Shared by the executor and EXPLAIN.
struct JoinQueryPlan {
  const TableDef* left_table = nullptr;
  const TableDef* right_table = nullptr;
  int left_key = -1;   // join-key column index in each anchor schema
  int right_key = -1;
  std::vector<int> left_needed;   // anchor columns each side scans,
  std::vector<int> right_needed;  // ascending, join key included
  projections::JoinPlan plan;
  std::vector<std::pair<std::string, double>> left_candidates;
  std::vector<std::pair<std::string, double>> right_candidates;
};

// How one SELECT reads its FROM clause, decided once by
// Session::PlanSelect and read by both execution and EXPLAIN.
struct SelectPlan {
  enum class From { kConstants, kSystemTable, kView, kScan, kJoin };
  From from = From::kConstants;
  // kScan: the anchor table, the query's shape over it, the layout the
  // scan reads and the cost-based candidates EXPLAIN lists.
  const TableDef* table = nullptr;
  projections::QueryShape shape;
  projections::PlanChoice scan;
  std::vector<std::pair<std::string, double>> candidates;
  // kJoin: the planned merge/hash join; nullopt when the join falls back
  // to scanning both sides whole and joining them at the initiator (a
  // view or system-table side, a self join, or a non-equality ON).
  std::optional<JoinQueryPlan> join;
};

// One client connection to a Vertica node (the JDBC-connection analogue
// the connector tasks hold). Sessions execute SQL with full cost
// accounting and carry transaction state. Sessions are not shared across
// processes.
//
// Error handling mirrors a real driver: a killed process sees CANCELLED
// from Execute; the session's open transaction is rolled back when the
// session is destroyed (the server noticing the dropped connection).
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Executes one SQL statement. SELECT streams its result back to the
  // client with per-connection serialization costs; DML returns the
  // affected-row count; DDL auto-commits.
  Result<QueryResult> Execute(sim::Process& self, std::string_view sql);

  // Graceful close: rolls back any open transaction, frees the session
  // slot, charges teardown latency.
  Status Close(sim::Process& self);

  // Instant host-side cleanup (rollback + slot release) used on abandoned
  // sessions — what the server does when the TCP connection drops. Safe
  // to call from killed processes and destructors.
  void Abandon();

  int node() const { return node_; }
  Database* database() const { return db_; }
  bool in_transaction() const { return txn_ != 0; }

  // True once the node this session was attached to died. A broken
  // session fails every further statement with UNAVAILABLE; its open
  // transaction aborts when the in-flight statement unwinds (or on
  // Abandon/Close). Set by Database::KillNode.
  bool broken() const { return broken_; }
  void MarkBroken() { broken_ = true; }

  // Workload-manager pool this session's statements are admitted
  // against ("" = the default pool). No-op when the database runs
  // without named pools.
  void set_resource_pool(std::string pool) {
    resource_pool_ = std::move(pool);
  }
  const std::string& resource_pool() const { return resource_pool_; }

  // Observability aids (the server's view of this session's last write,
  // exposed so instrumented clients can distinguish "commit durable, ack
  // lost to a kill" from "commit never happened" — the Section 2.2.2
  // hazard). Protocol code must NOT branch on these; only tracing and
  // conformance tests read them.
  //
  // Epoch of the most recent durable commit (explicit COMMIT or DML
  // autocommit) on this session; 0 if the last commit attempt never
  // reached durability.
  storage::Epoch last_commit_epoch() const { return last_commit_epoch_; }
  // Affected-row count of the most recent UPDATE, recorded even when the
  // statement's ack was lost; -1 before any UPDATE ran.
  int64_t last_update_affected() const { return last_update_affected_; }

  // Test hook pinning the projection used whenever `table` is scanned
  // ("" = the super projection). An unknown or ineligible name fails the
  // statement (and its EXPLAIN) with a FAILED_PRECONDITION error
  // prefixed kForcedProjectionToken.
  void set_forced_projection(const std::string& table,
                             const std::string& projection) {
    forced_table_projections_[ToLower(table)] = projection;
  }
  void clear_forced_projections() { forced_table_projections_.clear(); }

  // Test hook pinning the join strategy: nullopt = automatic (default),
  // "hash" = always allowed, "merge" = fail the statement with a
  // FAILED_PRECONDITION error prefixed kForcedJoinStrategyToken when the
  // sides' layouts cannot feed a merge join.
  void set_forced_join_strategy(std::optional<std::string> strategy) {
    forced_join_strategy_ = std::move(strategy);
  }

 private:
  friend class Database;
  friend class CopyStream;

  Session(Database* db, int node, const net::Host* client);

  // Classifies the FROM clause and, for a base-table scan or a join,
  // chooses the layouts it reads. Typed forced-hint errors propagate.
  Result<SelectPlan> PlanSelect(const sql::SelectStmt& select) const;

  // Statement dispatchers. ExecSelect without `to_client` runs a SELECT
  // internally (views, join sides, INSERT ... SELECT).
  Result<QueryResult> ExecSelect(sim::Process& self,
                                 const sql::SelectStmt& select,
                                 bool to_client, int view_depth);
  // The INNER JOIN arm of ExecSelect: runs the planned merge/hash join,
  // or (`planned` empty) scans both sides whole and joins them at the
  // initiator.
  Result<QueryResult> ExecJoin(sim::Process& self,
                               const sql::SelectStmt& select,
                               const std::optional<JoinQueryPlan>& planned,
                               bool to_client, int view_depth,
                               const exec::SpillPolicy* spill);
  // Distributed scan of one base table through an already-chosen layout
  // (the tail of ExecSelect; also used for each side of a planned join):
  // every node scans its segment with the WHERE clause applied, and the
  // initiator gathers the rows, in node order, as lanes over the scanned
  // layout's schema (stored in *schema). The rest of the SELECT is the
  // caller's.
  Result<storage::LaneRows> ExecScanSelect(
      sim::Process& self, const sql::SelectStmt& select, const TableDef* def,
      const projections::PlanChoice& plan, bool to_client,
      storage::Schema* schema);
  // Node-local merge join of co-located layouts: every node joins its
  // own segments of both sides and ships only the join output to the
  // initiator. Returns combined rows ordered by (segment, left storage
  // order) — byte-identical to the gathered hash join's row order.
  Result<storage::LaneRows> ExecCoLocatedJoin(
      sim::Process& self, const sql::SelectStmt& select,
      const JoinQueryPlan& jq);
  // Resolves the physical layout for one base-table scan: the per-table
  // forced hint when set (typed error when it cannot serve the shape),
  // else the cost-based planner. `candidates` receives the cost-based
  // candidates either way.
  Result<projections::PlanChoice> ResolveScanPlan(
      const TableDef& def, const projections::QueryShape& shape,
      std::vector<std::pair<std::string, double>>* candidates) const;
  // Plans a two-table INNER JOIN. nullopt = not plannable here (a view /
  // system-table side, self join, or non-equality ON) — the caller joins
  // at the initiator. Typed forced-hint errors propagate.
  Result<std::optional<JoinQueryPlan>> PlanJoinQuery(
      const sql::SelectStmt& select) const;
  Result<QueryResult> ExecCreateTable(sim::Process& self,
                                      const sql::CreateTableStmt& stmt);
  Result<QueryResult> ExecCreateView(sim::Process& self,
                                     const sql::CreateViewStmt& stmt);
  Result<QueryResult> ExecCreateProjection(
      sim::Process& self, const sql::CreateProjectionStmt& stmt);
  Result<QueryResult> ExecExplain(sim::Process& self,
                                  const sql::ExplainStmt& stmt);
  Result<QueryResult> ExecDrop(sim::Process& self, const sql::DropStmt& s);
  Result<QueryResult> ExecRename(sim::Process& self,
                                 const sql::RenameTableStmt& stmt);
  Result<QueryResult> ExecTruncate(sim::Process& self,
                                   const sql::TruncateStmt& stmt);
  Result<QueryResult> ExecInsert(sim::Process& self,
                                 const sql::InsertStmt& stmt);
  Result<QueryResult> ExecUpdate(sim::Process& self,
                                 const sql::UpdateStmt& stmt);
  Result<QueryResult> ExecDelete(sim::Process& self,
                                 const sql::DeleteStmt& stmt);
  Result<QueryResult> ExecTxn(sim::Process& self, const sql::TxnStmt& stmt);

  // Ensures a write transaction exists; returns (txn, autocommit?).
  struct WriteTxn {
    storage::TxnId txn;
    bool autocommit;
  };
  WriteTxn EnsureWriteTxn();
  // Finishes an autocommit txn (commit on OK, abort on error).
  Status FinishWriteTxn(sim::Process& self, const WriteTxn& wt,
                        Status status);

  // Streams `wire_bytes` of result data (already produced at the
  // initiator) to the client with the per-connection rate cap.
  Status StreamToClient(sim::Process& self, double wire_bytes,
                        double rate_cap);

  // Streams a result finished at the initiator (views, joins) to the
  // client at paper scale under the per-connection result-stream cap.
  Status StreamResult(sim::Process& self, const QueryResult& result);

  // The reverse direction: statement payload travelling client -> node
  // (INSERT VALUES data).
  Status StreamToClientReverse(sim::Process& self, double wire_bytes);

  Database* db_;
  int node_;
  const net::Host* client_;  // may be null (console)
  storage::TxnId txn_ = 0;   // open explicit transaction
  std::map<std::string, std::string> forced_table_projections_;
  std::optional<std::string> forced_join_strategy_;
  std::string resource_pool_;
  // The admission grant covering the executing statement (invalid
  // between statements or when WM is off); its memory is the
  // aggregate's spill budget.
  wm::Grant wm_grant_;
  storage::Epoch last_commit_epoch_ = 0;
  int64_t last_update_affected_ = -1;
  bool closed_ = false;
  bool broken_ = false;
};

}  // namespace fabric::vertica

#endif  // FABRIC_VERTICA_SESSION_H_
