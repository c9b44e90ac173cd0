#ifndef FABRIC_VERTICA_DATABASE_H_
#define FABRIC_VERTICA_DATABASE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/result.h"
#include "common/string_util.h"
#include "net/host.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/waitable.h"
#include "storage/schema.h"
#include "storage/segment_store.h"
#include "vertica/catalog.h"
#include "vertica/designer/designer.h"
#include "vertica/dfs.h"
#include "vertica/ksafety/ksafety.h"
#include "vertica/pipeline.h"
#include "vertica/sql_eval.h"
#include "vertica/tm/tuple_mover.h"
#include "vertica/wm/resource_pool.h"

namespace fabric::vertica {

class Session;

// Stable message prefix of the RESOURCE_EXHAUSTED error Connect returns
// when a node is at MaxClientSessions, so connectors can retry with
// backoff on a contract rather than on prose.
inline constexpr char kMaxClientSessionsToken[] = "MAX_CLIENT_SESSIONS";

bool IsMaxClientSessionsError(const Status& status);

// Result of one SQL statement: a schema+rows for queries, an affected-row
// count for DML, both empty for DDL/txn control.
struct QueryResult {
  storage::Schema schema;
  std::vector<storage::Row> rows;
  int64_t affected = 0;
};

// A simulated HPE Vertica database: N nodes, each with two NICs (external
// and intra-cluster) and a CPU pool, sharing a global catalog, an epoch
// counter, table-level exclusive write locks and MVCC storage segmented
// across the hash ring. All entry points must be called from simulation
// context.
class Database {
 public:
  struct Options {
    int num_nodes = 4;
    CostModel cost;
    // MaxClientSessions per node (the paper raises it to 100 for the
    // parallelism experiments).
    int max_client_sessions = 100;
    // Named hierarchical resource pools (workload manager). Empty = no
    // admission control.
    wm::WorkloadConfig workload;
    // Tuple Mover (background moveout/mergeout/AHM) knobs; enabled by
    // default so default-configured clusters drain their WOS.
    TupleMoverConfig tuple_mover;
    // Pipeline compilation: lower compilable SELECT bodies and scan
    // residuals to vectorized exec programs (byte-identical results and
    // traces; off forces the row-at-a-time interpreter everywhere).
    bool compile_pipelines = true;
  };

  Database(sim::Engine* engine, net::Network* network, Options options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ----------------------------------------------------------- topology
  int num_nodes() const { return options_.num_nodes; }
  const net::Host& node_host(int node) const { return hosts_[node]; }
  std::string node_name(int node) const;     // "v_fabric_node0001"
  std::string node_address(int node) const;  // "10.20.0.<node+1>"
  Result<int> ResolveNode(std::string_view name_or_address) const;

  sim::Engine* engine() const { return engine_; }
  net::Network* network() const { return network_; }
  const Options& options() const { return options_; }
  const CostModel& cost() const { return options_.cost; }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  Dfs& dfs() { return dfs_; }

  storage::Epoch current_epoch() const { return epoch_; }

  // The background storage-management service (always constructed; obeys
  // options().tuple_mover.enabled).
  TupleMover* tuple_mover() { return tm_.get(); }
  const TupleMover* tuple_mover() const { return tm_.get(); }
  // Ancient History Mark: AT EPOCH below this fails with HISTORY_PURGED.
  storage::Epoch ahm() const { return tm_->ahm(); }

  // Ring ranges per node for a table segmented across all nodes.
  const std::vector<HashRange>& node_ranges() const { return node_ranges_; }

  // Cost-model scaling control: data_scale makes each real row stand in
  // for many paper rows, which is right for bulk dataset tables but wrong
  // for control-plane tables (the S2V bookkeeping tables hold exactly as
  // many real rows as the system would at paper scale). Exempt tables
  // are costed at scale 1.
  void MarkScaleExempt(const std::string& table) {
    scale_exempt_.insert(ToLower(table));
  }
  double EffectiveScale(const std::string& table) const {
    return scale_exempt_.count(ToLower(table)) > 0
               ? 1.0
               : options_.cost.data_scale;
  }

  // ---------------------------------------------------------------- UDx
  // Scalar UDx callable from SQL. `fn` receives evaluated arguments and
  // USING PARAMETERS.
  using ScalarFn = std::function<Result<storage::Value>(
      const std::vector<storage::Value>&,
      const std::map<std::string, storage::Value>&)>;
  void RegisterScalarFunction(const std::string& name, ScalarFn fn);

  // Aggregate UDx with mergeable state (init/update/merge/finalize, see
  // sql::AggregateUdx). APPROXIMATE_COUNT_DISTINCT and the HLL_* family
  // are registered here at construction (udx_hll.cc).
  void RegisterAggregateFunction(const std::string& name,
                                 sql::AggregateUdx udx);

  // ------------------------------------------------------------ clients
  // Opens a session against `node`. `client` is the caller's host for
  // network accounting (nullptr: a co-located console client, no network
  // cost). Fails with RESOURCE_EXHAUSTED beyond MaxClientSessions.
  Result<std::unique_ptr<Session>> Connect(sim::Process& self, int node,
                                           const net::Host* client);

  // ----------------------------------------------------------- k-safety
  // The fabric runs k=1: every segment of a segmented table has a buddy
  // copy on the ring-successor node, so the cluster survives any single
  // node loss. Unsegmented tables are already replicated on every node.
  NodeState node_state(int node) const { return node_states_[node]; }
  bool node_up(int node) const {
    return node_states_[node] == NodeState::kUp;
  }
  // True once both copies of some segment were lost (two adjacent nodes
  // down with k=1) — Vertica's automatic cluster shutdown. Terminal for
  // the simulated database.
  bool cluster_is_down() const { return cluster_down_; }
  // Node hosting the buddy copy of `segment` (ring successor).
  int buddy_node(int segment) const {
    return (segment + 1) % num_nodes();
  }

  // Crash injection: marks `node` DOWN instantly (host-side, callable
  // from engine callbacks — see ksafety::NodeFailureSchedule). Sessions
  // connected to the node break; its segments fail over to the buddy
  // copies. Idempotent on an already-DOWN node.
  Status KillNode(int node);
  // Rejoin: DOWN -> RECOVERING, then a spawned recovery process pulls the
  // missed delta from the buddy copies over the internal fabric and
  // atomically promotes the node back to UP.
  Status RestartNode(int node);
  // Blocks until `node` reaches `state` (test/driver convenience).
  Status WaitForNodeState(sim::Process& self, int node, NodeState state);

  // =====================================================================
  // Internal interface below: used by Session / CopyStream / benchmarks.
  // =====================================================================

  // One physical layout of a table (the super projection or one named
  // projection): a store per segment plus optional buddy copies.
  struct SegmentSet {
    // One store per node. Unsegmented layouts are replicated: every node
    // holds the full copy and serves reads locally.
    std::vector<std::unique_ptr<storage::SegmentStore>> per_node;
    // k=1 buddy copies for segmented layouts: buddy[s] is the second copy
    // of segment s, resident on node (s+1) % N. Empty for unsegmented
    // layouts (already replicated) and single-node clusters.
    std::vector<std::unique_ptr<storage::SegmentStore>> buddy;
  };

  struct TableStorage : SegmentSet {
    // Additional physical layouts, keyed by lower-cased projection name.
    // Each projection follows its own segmentation and sort order; every
    // write path maintains all of them in the same transaction.
    std::map<std::string, SegmentSet> projections;
  };

  // One physical copy of a segment: the store plus the node whose CPU and
  // NICs serve it.
  struct SegmentCopy {
    storage::SegmentStore* store = nullptr;
    int host = -1;
  };

  // The copy serving reads of `segment`: the primary when its node is UP,
  // else the buddy. UNAVAILABLE when both copies are lost.
  Result<SegmentCopy> ReadCopy(SegmentSet* storage, int segment) const;
  // The live copies (primary and/or buddy) a write to `segment` must
  // reach; copies on non-UP nodes are skipped and caught up by recovery.
  // UNAVAILABLE when no copy is live.
  Result<std::vector<SegmentCopy>> WriteCopies(SegmentSet* storage,
                                               int segment) const;

  Result<TableStorage*> GetStorage(const std::string& table);
  // The stores of one named projection (anchored via the catalog).
  Result<SegmentSet*> GetProjectionStorage(const std::string& name);

  // Every physical segment-store copy whose serving CPU and NICs belong
  // to `node`: per_node[node] of every table, plus — for segmented tables
  // — the buddy copy whose ring successor is `node`. The Tuple Mover and
  // v_monitor.storage_containers walk stores through this. The names
  // refer into the storage map and are valid during the call only.
  struct HostedStore {
    const std::string& table;
    const std::string& projection;  // empty for the super projection
    storage::SegmentStore* store = nullptr;
    int segment = -1;      // segment index (== node for primaries)
    bool is_buddy = false;
  };
  // Calls fn(const HostedStore&) for each store hosted on `node`, in
  // table-name order (super projection first). Allocates nothing, so the
  // Tuple Mover can run it on every commit. `fn` may change store
  // contents but must not create, drop or rename tables or projections.
  template <typename Fn>
  void ForEachHostedStore(int node, Fn&& fn) const;

  // ------------------------------------------- epoch pins / bookkeeping
  // Snapshot pins keep the AHM at or below every running statement's and
  // open transaction's snapshot epoch (refcounted).
  void PinEpoch(storage::Epoch epoch) { ++pinned_epochs_[epoch]; }
  void UnpinEpoch(storage::Epoch epoch);
  storage::Epoch MinPinnedEpoch() const;
  // Oldest down-epoch over non-UP nodes (max Epoch when all UP): a node
  // that must still recover pins history at its last current epoch.
  storage::Epoch MinNodeDownEpoch() const;
  // Per-epoch commit bookkeeping, GC'd below the AHM by the Tuple Mover.
  void TrimEpochBookkeeping(storage::Epoch ahm);
  const std::map<storage::Epoch, int64_t>& epoch_commits() const {
    return epoch_commits_;
  }
  // Cluster-wide WOS batch count (the vertica.wos_batches gauge): kept
  // by the stores themselves, so O(1).
  int64_t TotalWosBatches() const { return wos_units_; }
  Status CreateTableWithStorage(TableDef def);
  Status DropTableWithStorage(const std::string& name);
  // Empties every store of the table and of its projections.
  Status TruncateTableWithStorage(const std::string& name);
  Status RenameTableWithStorage(const std::string& from,
                                const std::string& to, bool replace);
  // Registers `def` in the catalog and builds its per-node (and, when
  // segmented on a multi-node cluster, buddy) stores with the
  // projection's sort order and encodings. Population is the caller's
  // job (ExecCreateProjection routes the anchor snapshot through the new
  // stores inside its creating transaction).
  Status CreateProjectionWithStorage(ProjectionDef def);
  Status DropProjectionWithStorage(const std::string& name);

  // Node owning each row of `batch` under the segmented
  // layout `segmentation`, hashed from the stored (coerced) values.
  std::vector<int> OwnerNodes(const Segmentation& segmentation,
                              const storage::LaneViewRows& batch) const;

  // CPU a routed write charges on each copy it lands on.
  enum class WriteCpu {
    kParse,   // COPY-parse CPU of the batch (INSERT)
    kEncode,  // raw bytes x scan_cpu_per_byte: sort + encode into the layout
  };
  // Where a batch shaped for one layout goes, and how it is charged.
  struct WriteRoute {
    SegmentSet* set = nullptr;
    const Segmentation* segmentation = nullptr;
    const std::string* table = nullptr;  // anchor; WOS admission is per table
    storage::TxnId txn = 0;
    int source_host = 0;
    bool direct = false;  // DIRECT into ROS, else WOS
    WriteCpu cpu = WriteCpu::kEncode;
    double scale = 1;
  };
  // The write path of every layout: routes the rows of `batch` (one lane
  // per layout column) to their owner segments, then lands each segment's
  // lanes on every live copy (each UP replica of an unsegmented layout,
  // WriteCopies of a segmented one; DOWN copies catch up during
  // recovery): a transfer from the source host when the copy is remote,
  // the CPU charge on the copy's host, then the DIRECT insert, or WOS
  // admission (backpressure at the Tuple Mover's hard cap) plus the WOS
  // insert. Varchar slots must stay valid until it returns.
  Status WriteRows(sim::Process& self, const WriteRoute& route,
                   storage::LaneViewRows batch);

  // Projection maintenance for the write paths (INSERT / COPY / UPDATE
  // reinsertion): picks every projection of `def`'s columns out of the
  // anchor-width `batch` and writes them through WriteRows under `txn`.
  Status WriteProjectionRows(sim::Process& self, const TableDef& def,
                             const storage::LaneViewRows& batch,
                             storage::TxnId txn, int source_host,
                             bool direct, double scale);
  // DELETE/UPDATE-side maintenance: marks the projected images of
  // `victims` (anchor-width rows deleted from the super projection, as
  // the anchor scan captured them) deleted in every projection, by
  // content, first match in storage order — deterministic across buddy
  // copies. A copy missing an image fails the statement with an
  // InternalError (its transaction then aborts).
  Status DeleteProjectionRows(sim::Process& self, const TableDef& def,
                              const storage::LaneRows& victims,
                              storage::TxnId txn, storage::Epoch as_of,
                              double scale);

  // ------------------------------------------------- transactions/locks
  storage::TxnId BeginTxnInternal();
  // Exclusive lock (UPDATE/DELETE/conditional writes): blocks all other
  // lock holders.
  Status LockTableX(sim::Process& self, storage::TxnId txn,
                    const std::string& table);
  // Insert lock (INSERT/COPY): compatible with other insert locks, so
  // parallel COPYs into one staging table proceed concurrently, as in
  // Vertica.
  Status LockTableI(sim::Process& self, storage::TxnId txn,
                    const std::string& table);
  // Blocks until no transaction other than `txn` (pass 0 for "any")
  // holds a lock on any of `tables`. Destructive DDL (DROP / RENAME /
  // TRUNCATE) calls this before swapping storage out from under the
  // name: the swap then happens in the same engine step the wait
  // returns in, so an in-flight COPY holding its insert lock always
  // finishes (or aborts) before its table disappears. Costs zero
  // virtual time when the tables are already idle.
  Status WaitTablesIdle(sim::Process& self, storage::TxnId txn,
                        const std::vector<std::string>& tables);
  void TouchTable(storage::TxnId txn, const std::string& table);
  // Applies the txn's pending changes at a fresh epoch and releases locks.
  Status CommitTxnInternal(sim::Process& self, storage::TxnId txn);
  // Instant, host-side (safe from killed processes / destructors).
  void AbortTxnInternal(storage::TxnId txn);

  // ----------------------------------------------------------- resources
  // The workload manager, or nullptr when options().workload is empty
  // (no admission control).
  wm::WorkloadManager* workload_manager() { return wm_.get(); }
  const wm::WorkloadManager* workload_manager() const { return wm_.get(); }

  // Connect registers each session so KillNode can break every session
  // attached to the dying node; Session::Abandon unregisters.
  void UnregisterSession(int node, Session* session);

  // The UDx resolver bound to this database (for sql::EvalContext).
  const sql::UdxResolver& udx_resolver() const { return udx_resolver_; }

  // The aggregate UDx resolver bound to this database (threaded through
  // the aggregate executor and per-row rejection in sql::EvalCall).
  const sql::AggregateUdxResolver& aggregate_udx_resolver() const {
    return aggregate_udx_resolver_;
  }

  // The pipeline compilation cache bound to this database (obeys
  // options().compile_pipelines; compiled plans are reused across
  // sessions, partitions and failover retries).
  PipelineCompiler* pipeline_compiler() { return &pipeline_compiler_; }

  // ------------------------------------------- workload history (designer)
  // Every executed base-table scan appends its QueryShape here (a join
  // appends one entry per side), bounded to the most recent
  // kQueryHistoryCap entries. v_monitor.query_requests reads it; the
  // database designer replays it.
  static constexpr size_t kQueryHistoryCap = 4096;
  // Returns the assigned request_id (monotone, 1-based).
  int64_t RecordQueryRequest(QueryRequest request);
  // Stamps `duration` on every entry with request_id >= from_id — the
  // session calls this when the statement finishes, covering both sides
  // of a join with one call.
  void StampQueryDurations(int64_t from_id, double duration);
  int64_t next_query_request_id() const { return next_query_request_id_; }
  const std::deque<QueryRequest>& query_requests() const {
    return query_requests_;
  }

  // Runs the database designer over the captured history against the
  // current catalog and storage footprint; stores the proposals (read
  // back through v_monitor.design_proposals) and returns a one-line
  // summary. Exposed in SQL as SELECT DESIGN_PROPOSALS(budget_fraction,
  // max_proposals).
  Result<std::string> RunDesigner(double budget_fraction, int max_proposals);
  const std::vector<designer::Proposal>& design_proposals() const {
    return design_proposals_;
  }

 private:
  // Empty stores for one layout: a primary per node, plus a buddy per
  // segment when the layout is segmented, each counting its WOS units
  // into wos_units_.
  SegmentSet EmptySegmentSet(const storage::Schema& schema,
                             const Segmentation& segmentation,
                             const storage::PhysicalDesign& design);
  // `batch` split by owner segment under `segmentation`, each part in
  // arrival order; an unsegmented layout's batch goes to every node.
  std::vector<storage::LaneViewRows> RouteLanes(
      const Segmentation& segmentation, storage::LaneViewRows batch) const;

  struct TxnState {
    std::set<std::string> locked_tables;
    std::set<std::string> touched_tables;
    storage::Epoch snapshot_epoch = 0;  // pinned while the txn is open
  };

  struct TableLock {
    storage::TxnId x_owner = 0;
    std::set<storage::TxnId> insert_owners;
    std::unique_ptr<sim::Condition> released;
  };

  sim::Engine* engine_;
  net::Network* network_;
  Options options_;
  std::vector<net::Host> hosts_;
  std::vector<HashRange> node_ranges_;
  Catalog catalog_;
  Dfs dfs_;
  storage::Epoch epoch_ = 1;
  storage::TxnId next_txn_ = 1;
  std::map<storage::TxnId, TxnState> txns_;
  std::map<storage::Epoch, int> pinned_epochs_;     // epoch -> pin count
  std::map<storage::Epoch, int64_t> epoch_commits_;  // epoch -> commits
  std::deque<QueryRequest> query_requests_;
  int64_t next_query_request_id_ = 1;
  std::vector<designer::Proposal> design_proposals_;
  std::unique_ptr<TupleMover> tm_;
  std::map<std::string, TableLock> locks_;
  // WOS units in every store of storage_; declared first so it outlives
  // the stores, which take their units out of it as they die.
  int64_t wos_units_ = 0;
  std::map<std::string, TableStorage> storage_;
  std::set<std::string> scale_exempt_;
  std::map<std::string, ScalarFn> functions_;
  sql::UdxResolver udx_resolver_;
  std::map<std::string, sql::AggregateUdx> aggregate_functions_;
  sql::AggregateUdxResolver aggregate_udx_resolver_;
  PipelineCompiler pipeline_compiler_;
  std::vector<int> active_sessions_;
  std::unique_ptr<wm::WorkloadManager> wm_;

  // ----------------------------------------------------------- k-safety
  // Recovery catch-up for `node`, run as a spawned process. `incarnation`
  // is the node's incarnation at RestartNode time: a concurrent KillNode
  // bumps it, telling an in-flight recovery to abandon (node stays DOWN).
  void RunRecovery(sim::Process& self, int node, uint64_t incarnation);

  std::vector<NodeState> node_states_;
  // Epoch the node was last current at (set on kill; recovery pulls the
  // delta committed after it).
  std::vector<storage::Epoch> node_down_epoch_;
  // Bumped on every KillNode; guards recovery against a re-kill.
  std::vector<uint64_t> node_incarnation_;
  bool cluster_down_ = false;
  std::vector<std::set<Session*>> node_sessions_;
  std::unique_ptr<sim::Condition> state_changed_;
};

template <typename Fn>
void Database::ForEachHostedStore(int node, Fn&& fn) const {
  static const std::string kSuperProjection;
  int prev = (node - 1 + num_nodes()) % num_nodes();
  auto visit = [&](const std::string& table, const SegmentSet& set,
                   const std::string& projection) {
    fn(HostedStore{table, projection, set.per_node[node].get(), node,
                   /*is_buddy=*/false});
    if (!set.buddy.empty()) {
      // buddy[s] lives on the ring successor of s, so node hosts the
      // buddy copy of its predecessor's segment.
      fn(HostedStore{table, projection, set.buddy[prev].get(), prev,
                     /*is_buddy=*/true});
    }
  };
  for (auto& [name, table_storage] : storage_) {
    visit(name, table_storage, kSuperProjection);
    // The Tuple Mover (and storage telemetry) maintains every projection
    // of a table alongside its super projection.
    for (auto& [proj_name, set] : table_storage.projections) {
      visit(name, set, proj_name);
    }
  }
}

}  // namespace fabric::vertica

#endif  // FABRIC_VERTICA_DATABASE_H_
