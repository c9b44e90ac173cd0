#include "vertica/database.h"

#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "storage/profile.h"
#include "vertica/session.h"
#include "vertica/udx_hll.h"

namespace fabric::vertica {

Database::Database(sim::Engine* engine, net::Network* network,
                   Options options)
    : engine_(engine), network_(network), options_(std::move(options)) {
  FABRIC_CHECK(options_.num_nodes > 0);
  hosts_.reserve(options_.num_nodes);
  for (int i = 0; i < options_.num_nodes; ++i) {
    hosts_.push_back(net::AddHost(network_, node_name(i),
                                  options_.cost.nic_bandwidth,
                                  options_.cost.nic_bandwidth,
                                  options_.cost.vertica_cores,
                                  options_.cost.disk_read_bandwidth));
  }
  node_ranges_ = EvenRingPartition(options_.num_nodes);
  active_sessions_.assign(options_.num_nodes, 0);
  node_states_.assign(options_.num_nodes, NodeState::kUp);
  node_down_epoch_.assign(options_.num_nodes, 0);
  node_incarnation_.assign(options_.num_nodes, 0);
  node_sessions_.resize(options_.num_nodes);
  state_changed_ = std::make_unique<sim::Condition>(engine_);
  udx_resolver_ = [this](const std::string& fn,
                         const std::vector<storage::Value>& args,
                         const std::map<std::string, storage::Value>&
                             parameters) -> Result<storage::Value> {
    auto it = functions_.find(ToUpper(fn));
    if (it == functions_.end()) {
      return NotFoundError(StrCat("unknown function '", fn, "'"));
    }
    return it->second(args, parameters);
  };
  aggregate_udx_resolver_ =
      [this](const std::string& fn) -> const sql::AggregateUdx* {
    auto it = aggregate_functions_.find(ToUpper(fn));
    return it == aggregate_functions_.end() ? nullptr : &it->second;
  };
  if (options_.workload.enabled()) {
    wm_ = std::make_unique<wm::WorkloadManager>(engine_, options_.workload,
                                                options_.num_nodes);
  }
  pipeline_compiler_.set_enabled(options_.compile_pipelines);
  RegisterHllFunctions(this);
  // SELECT DESIGN_PROPOSALS([budget_fraction[, max_proposals]]) runs the
  // database designer over the captured workload history; the proposals
  // land in v_monitor.design_proposals and the call returns a summary.
  RegisterScalarFunction(
      "DESIGN_PROPOSALS",
      [this](const std::vector<storage::Value>& args,
             const std::map<std::string, storage::Value>&)
          -> Result<storage::Value> {
        designer::Options defaults;
        double budget = defaults.budget_fraction;
        int max_proposals = defaults.max_proposals;
        if (!args.empty() && !args[0].is_null()) {
          FABRIC_ASSIGN_OR_RETURN(budget, args[0].AsDouble());
        }
        if (args.size() > 1 && !args[1].is_null()) {
          FABRIC_ASSIGN_OR_RETURN(double raw, args[1].AsDouble());
          max_proposals = static_cast<int>(raw);
        }
        FABRIC_ASSIGN_OR_RETURN(std::string summary,
                                RunDesigner(budget, max_proposals));
        return storage::Value::Varchar(std::move(summary));
      });
  tm_ = std::make_unique<TupleMover>(this, options_.tuple_mover);
}

int64_t Database::RecordQueryRequest(QueryRequest request) {
  request.request_id = next_query_request_id_++;
  request.started_at = engine_->now();
  query_requests_.push_back(std::move(request));
  while (query_requests_.size() > kQueryHistoryCap) {
    query_requests_.pop_front();
  }
  return query_requests_.back().request_id;
}

void Database::StampQueryDurations(int64_t from_id, double duration) {
  for (auto it = query_requests_.rbegin(); it != query_requests_.rend();
       ++it) {
    if (it->request_id < from_id) break;
    it->duration = duration;
  }
}

Result<std::string> Database::RunDesigner(double budget_fraction,
                                          int max_proposals) {
  if (budget_fraction < 0) {
    return InvalidArgumentError("designer budget fraction must be >= 0");
  }
  if (max_proposals < 0) {
    return InvalidArgumentError("designer max proposals must be >= 0");
  }
  // Primary-copy raw bytes per anchor: the designer sizes candidate
  // projections as width fractions of this.
  std::map<std::string, double> table_raw_bytes;
  for (const std::string& table : catalog_.TableNames()) {
    auto it = storage_.find(ToLower(table));
    if (it == storage_.end()) continue;
    double bytes = 0;
    for (const auto& store : it->second.per_node) {
      bytes += store->TotalRawBytes();
    }
    table_raw_bytes[ToLower(table)] = bytes;
  }
  designer::Options options;
  options.budget_fraction = budget_fraction;
  options.max_proposals = max_proposals;
  design_proposals_ =
      designer::Propose(catalog_, query_requests_, table_raw_bytes, options);
  double benefit = 0;
  for (const designer::Proposal& p : design_proposals_) {
    benefit += p.benefit;
  }
  obs::IncrCounter("vertica.designer_runs");
  obs::TraceEvent("vertica", "designer.run",
                  {{"proposals", design_proposals_.size()},
                   {"history", query_requests_.size()}});
  char benefit_buf[32];
  std::snprintf(benefit_buf, sizeof(benefit_buf), "%.4f", benefit);
  return StrCat(design_proposals_.size(), " proposals (replayed ",
                query_requests_.size(), " requests, total benefit ",
                benefit_buf, ")");
}

Database::~Database() = default;

std::string Database::node_name(int node) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "v_fabric_node%04d", node + 1);
  return buf;
}

std::string Database::node_address(int node) const {
  return StrCat("10.20.0.", node + 1);
}

Result<int> Database::ResolveNode(std::string_view name_or_address) const {
  for (int i = 0; i < num_nodes(); ++i) {
    if (EqualsIgnoreCase(node_name(i), name_or_address) ||
        node_address(i) == name_or_address) {
      return i;
    }
  }
  return NotFoundError(
      StrCat("no Vertica node '", name_or_address, "'"));
}

void Database::RegisterScalarFunction(const std::string& name,
                                      ScalarFn fn) {
  functions_[ToUpper(name)] = std::move(fn);
}

void Database::RegisterAggregateFunction(const std::string& name,
                                         sql::AggregateUdx udx) {
  aggregate_functions_[ToUpper(name)] = std::move(udx);
}

Result<std::unique_ptr<Session>> Database::Connect(sim::Process& self,
                                                   int node,
                                                   const net::Host* client) {
  if (node < 0 || node >= num_nodes()) {
    return InvalidArgumentError(StrCat("no node ", node));
  }
  if (cluster_down_) {
    return UnavailableError("cluster is down");
  }
  if (!node_up(node)) {
    return UnavailableError(StrCat(node_name(node), " is ",
                                   NodeStateName(node_states_[node])));
  }
  if (active_sessions_[node] >= options_.max_client_sessions) {
    obs::IncrCounter("vertica.session_rejects");
    return ResourceExhaustedError(
        StrCat(kMaxClientSessionsToken, ": limit ",
               options_.max_client_sessions, " reached on ",
               node_name(node)));
  }
  ++active_sessions_[node];
  // Connection setup: handshake round trip plus session create CPU.
  Status status = self.Sleep(options_.cost.connection_setup);
  if (status.ok()) {
    status = net::RunCpu(self, network_, hosts_[node],
                         options_.cost.statement_overhead_cpu);
  }
  // The node may have died during the handshake.
  if (status.ok() && !node_up(node)) {
    status = UnavailableError(StrCat(node_name(node), " is ",
                                     NodeStateName(node_states_[node])));
  }
  if (!status.ok()) {
    --active_sessions_[node];
    return status;
  }
  auto session = std::unique_ptr<Session>(new Session(this, node, client));
  node_sessions_[node].insert(session.get());
  return session;
}

void Database::UnregisterSession(int node, Session* session) {
  --active_sessions_[node];
  node_sessions_[node].erase(session);
}

Result<Database::TableStorage*> Database::GetStorage(
    const std::string& table) {
  auto it = storage_.find(ToLower(table));
  if (it == storage_.end()) {
    return NotFoundError(StrCat("no storage for table '", table, "'"));
  }
  return &it->second;
}

Database::SegmentSet Database::EmptySegmentSet(
    const storage::Schema& schema, const Segmentation& segmentation,
    const storage::PhysicalDesign& design) const {
  // k=1 buddy projection: a segmented layout gets a second copy of every
  // segment on the ring-successor node. Unsegmented layouts are already
  // replicated everywhere, and a single-node cluster has no buddy.
  const bool buddies = !segmentation.unsegmented() && num_nodes() > 1;
  SegmentSet set;
  for (int i = 0; i < num_nodes(); ++i) {
    set.per_node.push_back(
        std::make_unique<storage::SegmentStore>(schema, design));
    if (buddies) {
      set.buddy.push_back(
          std::make_unique<storage::SegmentStore>(schema, design));
    }
  }
  return set;
}

Status Database::CreateTableWithStorage(TableDef def) {
  std::string key = ToLower(def.name);
  SegmentSet stores = EmptySegmentSet(def.schema, def.segmentation, {});
  FABRIC_RETURN_IF_ERROR(catalog_.CreateTable(std::move(def)));
  storage_.emplace(key, TableStorage{std::move(stores), {}});
  return Status::OK();
}

Status Database::TruncateTableWithStorage(const std::string& name) {
  FABRIC_ASSIGN_OR_RETURN(const TableDef* def, catalog_.GetTable(name));
  FABRIC_ASSIGN_OR_RETURN(TableStorage * storage, GetStorage(name));
  static_cast<SegmentSet&>(*storage) =
      EmptySegmentSet(def->schema, def->segmentation, {});
  // Projections truncate in lockstep, keeping their physical design.
  for (auto& [proj_name, set] : storage->projections) {
    FABRIC_ASSIGN_OR_RETURN(const ProjectionDef* proj,
                            catalog_.GetProjection(proj_name));
    set = EmptySegmentSet(proj->schema, proj->segmentation, proj->Design());
  }
  return Status::OK();
}

Status Database::DropTableWithStorage(const std::string& name) {
  // Catalog drop cascades to the table's projections; the nested
  // SegmentSets die with the TableStorage entry.
  FABRIC_RETURN_IF_ERROR(catalog_.DropTable(name));
  storage_.erase(ToLower(name));
  return Status::OK();
}

Status Database::CreateProjectionWithStorage(ProjectionDef def) {
  std::string key = ToLower(def.name);
  std::string anchor_key = ToLower(def.anchor);
  SegmentSet stores =
      EmptySegmentSet(def.schema, def.segmentation, def.Design());
  FABRIC_RETURN_IF_ERROR(catalog_.CreateProjection(std::move(def)));
  auto it = storage_.find(anchor_key);
  FABRIC_CHECK(it != storage_.end()) << "anchor storage missing";
  it->second.projections.emplace(key, std::move(stores));
  return Status::OK();
}

Status Database::DropProjectionWithStorage(const std::string& name) {
  auto proj = catalog_.GetProjection(name);
  FABRIC_RETURN_IF_ERROR(proj.status());
  std::string anchor_key = ToLower((*proj)->anchor);
  FABRIC_RETURN_IF_ERROR(catalog_.DropProjection(name));
  auto it = storage_.find(anchor_key);
  if (it != storage_.end()) it->second.projections.erase(ToLower(name));
  return Status::OK();
}

Result<Database::SegmentSet*> Database::GetProjectionStorage(
    const std::string& name) {
  auto proj = catalog_.GetProjection(name);
  FABRIC_RETURN_IF_ERROR(proj.status());
  auto it = storage_.find(ToLower((*proj)->anchor));
  if (it == storage_.end()) {
    return NotFoundError(
        StrCat("no storage for projection '", name, "'"));
  }
  auto set_it = it->second.projections.find(ToLower(name));
  if (set_it == it->second.projections.end()) {
    return NotFoundError(
        StrCat("no storage for projection '", name, "'"));
  }
  return &set_it->second;
}

Status Database::RenameTableWithStorage(const std::string& from,
                                        const std::string& to,
                                        bool replace) {
  // The whole swap happens in one engine step, so it is atomic with
  // respect to every other simulated actor (Vertica's global catalog
  // commit).
  if (replace && catalog_.HasTable(to)) {
    FABRIC_RETURN_IF_ERROR(catalog_.GetTable(from).status());
    FABRIC_RETURN_IF_ERROR(DropTableWithStorage(to));
  }
  FABRIC_RETURN_IF_ERROR(catalog_.RenameTable(from, to));
  auto it = storage_.find(ToLower(from));
  FABRIC_CHECK(it != storage_.end()) << "storage missing for " << from;
  TableStorage moved = std::move(it->second);
  storage_.erase(it);
  storage_.emplace(ToLower(to), std::move(moved));
  return Status::OK();
}

int Database::OwnerNode(const Segmentation& segmentation,
                        const storage::Row& row) const {
  if (segmentation.unsegmented()) return -1;
  uint64_t h = storage::RowSegmentationHash(row, segmentation.columns);
  return RingSegmentOf(h, num_nodes());
}

std::vector<std::vector<storage::Row>> Database::RouteRows(
    const Segmentation& segmentation, std::vector<storage::Row> rows) const {
  std::vector<std::vector<storage::Row>> per_node(num_nodes());
  for (storage::Row& row : rows) {
    int owner = OwnerNode(segmentation, row);
    if (owner < 0) {
      for (int n = 0; n < num_nodes(); ++n) per_node[n].push_back(row);
    } else {
      per_node[owner].push_back(std::move(row));
    }
  }
  return per_node;
}

Status Database::WriteRows(sim::Process& self, const WriteRoute& route,
                           std::vector<storage::Row> rows) {
  std::vector<std::vector<storage::Row>> per_node =
      RouteRows(*route.segmentation, std::move(rows));
  const bool replicated = route.segmentation->unsegmented();
  for (int n = 0; n < num_nodes(); ++n) {
    if (per_node[n].empty() || (replicated && !node_up(n))) continue;
    FABRIC_ASSIGN_OR_RETURN(std::vector<SegmentCopy> copies,
                            WriteCopies(route.set, n));
    storage::DataProfile profile = storage::ProfileRows(per_node[n]);
    profile.ScaleBy(route.scale);
    const CostModel& cost = options_.cost;
    const double cpu = route.cpu == WriteCpu::kParse
                           ? profile.CopyParseCpu(cost)
                           : profile.raw_bytes * cost.scan_cpu_per_byte;
    for (size_t c = 0; c < copies.size(); ++c) {
      const SegmentCopy& copy = copies[c];
      if (copy.host != route.source_host) {
        FABRIC_RETURN_IF_ERROR(network_->Transfer(
            self,
            {hosts_[route.source_host].int_egress,
             hosts_[copy.host].int_ingress},
            profile.raw_bytes));
      }
      FABRIC_RETURN_IF_ERROR(
          net::RunCpu(self, network_, hosts_[copy.host], cpu));
      std::vector<storage::Row> batch = c + 1 < copies.size()
                                            ? per_node[n]
                                            : std::move(per_node[n]);
      if (route.direct) {
        FABRIC_RETURN_IF_ERROR(
            copy.store->InsertPendingDirect(route.txn, std::move(batch)));
      } else {
        FABRIC_RETURN_IF_ERROR(
            tm_->AdmitWos(self, *route.table, copy.store, copy.host));
        FABRIC_RETURN_IF_ERROR(
            copy.store->InsertPending(route.txn, std::move(batch)));
      }
    }
  }
  return Status::OK();
}

namespace {

// Anchor-width `rows` narrowed to `proj`'s columns.
std::vector<storage::Row> ProjectRows(const ProjectionDef& proj,
                                      const std::vector<storage::Row>& rows) {
  std::vector<storage::Row> projected;
  projected.reserve(rows.size());
  for (const storage::Row& row : rows) {
    storage::Row prow;
    prow.reserve(proj.columns.size());
    for (int c : proj.columns) prow.push_back(row[c]);
    projected.push_back(std::move(prow));
  }
  return projected;
}

}  // namespace

Status Database::WriteProjectionRows(sim::Process& self,
                                     const TableDef& def,
                                     const std::vector<storage::Row>& rows,
                                     storage::TxnId txn, int source_host,
                                     bool direct, double scale) {
  if (rows.empty()) return Status::OK();
  for (const ProjectionDef* proj : catalog_.ProjectionsOf(def.name)) {
    FABRIC_ASSIGN_OR_RETURN(SegmentSet * set,
                            GetProjectionStorage(proj->name));
    // Re-sorting and re-encoding into the projection's design.
    FABRIC_RETURN_IF_ERROR(WriteRows(self,
                                     {.set = set,
                                      .segmentation = &proj->segmentation,
                                      .table = &def.name,
                                      .txn = txn,
                                      .source_host = source_host,
                                      .direct = direct,
                                      .scale = scale},
                                     ProjectRows(*proj, rows)));
  }
  return Status::OK();
}

Status Database::DeleteProjectionRows(
    sim::Process& self, const TableDef& def,
    const std::vector<storage::Row>& victims, storage::TxnId txn,
    storage::Epoch as_of, double scale) {
  if (victims.empty()) return Status::OK();
  for (const ProjectionDef* proj : catalog_.ProjectionsOf(def.name)) {
    FABRIC_ASSIGN_OR_RETURN(SegmentSet * set,
                            GetProjectionStorage(proj->name));
    // Each victim's projected image is marked on every live copy of its
    // owner segment (every UP replica of an unsegmented projection).
    const bool replicated = proj->segmentation.unsegmented();
    std::vector<std::vector<storage::Row>> per_node =
        RouteRows(proj->segmentation, ProjectRows(*proj, victims));
    for (int n = 0; n < num_nodes(); ++n) {
      if (per_node[n].empty() || (replicated && !node_up(n))) continue;
      FABRIC_ASSIGN_OR_RETURN(std::vector<SegmentCopy> copies,
                              WriteCopies(set, n));
      double raw_bytes =
          storage::ProfileRows(per_node[n]).raw_bytes * scale;
      for (const SegmentCopy& copy : copies) {
        FABRIC_RETURN_IF_ERROR(
            net::RunCpu(self, network_, hosts_[copy.host],
                        raw_bytes * options_.cost.scan_cpu_per_byte));
        FABRIC_ASSIGN_OR_RETURN(
            int64_t marked, copy.store->MarkDeletedPendingByContent(
                                txn, as_of, per_node[n]));
        FABRIC_CHECK(marked == static_cast<int64_t>(per_node[n].size()))
            << "projection " << proj->name << " missing delete victims";
      }
    }
  }
  return Status::OK();
}

storage::TxnId Database::BeginTxnInternal() {
  storage::TxnId txn = next_txn_++;
  TxnState state;
  // The open transaction reads at its begin epoch; pin it so the AHM (and
  // with it the purge) cannot pass the snapshot while the txn runs.
  state.snapshot_epoch = epoch_;
  PinEpoch(state.snapshot_epoch);
  txns_.emplace(txn, std::move(state));
  obs::TraceEvent("vertica", "txn.begin", {{"txn", txn}});
  obs::IncrCounter("vertica.txns_begun");
  return txn;
}

Status Database::LockTableX(sim::Process& self, storage::TxnId txn,
                            const std::string& table) {
  std::string key = ToLower(table);
  TableLock& lock = locks_[key];
  if (lock.released == nullptr) {
    lock.released = std::make_unique<sim::Condition>(engine_);
  }
  if (lock.x_owner == txn) return Status::OK();
  // X is granted once no other txn holds any lock on the table (an
  // insert lock held by this txn upgrades).
  FABRIC_RETURN_IF_ERROR(lock.released->WaitUntil(self, [&lock, txn] {
    if (lock.x_owner != 0 && lock.x_owner != txn) return false;
    for (storage::TxnId holder : lock.insert_owners) {
      if (holder != txn) return false;
    }
    return true;
  }));
  lock.x_owner = txn;
  auto it = txns_.find(txn);
  FABRIC_CHECK(it != txns_.end()) << "lock by unknown txn";
  it->second.locked_tables.insert(key);
  return Status::OK();
}

Status Database::LockTableI(sim::Process& self, storage::TxnId txn,
                            const std::string& table) {
  std::string key = ToLower(table);
  TableLock& lock = locks_[key];
  if (lock.released == nullptr) {
    lock.released = std::make_unique<sim::Condition>(engine_);
  }
  if (lock.x_owner == txn || lock.insert_owners.count(txn) > 0) {
    return Status::OK();
  }
  FABRIC_RETURN_IF_ERROR(lock.released->WaitUntil(
      self, [&lock] { return lock.x_owner == 0; }));
  lock.insert_owners.insert(txn);
  auto it = txns_.find(txn);
  FABRIC_CHECK(it != txns_.end()) << "lock by unknown txn";
  it->second.locked_tables.insert(key);
  return Status::OK();
}

Status Database::WaitTablesIdle(sim::Process& self, storage::TxnId txn,
                                const std::vector<std::string>& tables) {
  auto idle = [this, txn](const std::string& key) {
    auto it = locks_.find(key);
    if (it == locks_.end()) return true;
    const TableLock& lock = it->second;
    if (lock.x_owner != 0 && lock.x_owner != txn) return false;
    for (storage::TxnId holder : lock.insert_owners) {
      if (holder != txn) return false;
    }
    return true;
  };
  // Waiting on one table can let another re-lock, so loop until the
  // whole set is observed idle inside a single engine step.
  for (;;) {
    bool all_idle = true;
    for (const std::string& table : tables) {
      std::string key = ToLower(table);
      if (idle(key)) continue;
      all_idle = false;
      TableLock& lock = locks_[key];
      if (lock.released == nullptr) {
        lock.released = std::make_unique<sim::Condition>(engine_);
      }
      FABRIC_RETURN_IF_ERROR(lock.released->WaitUntil(
          self, [&idle, &key] { return idle(key); }));
      break;
    }
    if (all_idle) return Status::OK();
  }
}

void Database::TouchTable(storage::TxnId txn, const std::string& table) {
  auto it = txns_.find(txn);
  FABRIC_CHECK(it != txns_.end()) << "touch by unknown txn";
  it->second.touched_tables.insert(ToLower(table));
}

Status Database::CommitTxnInternal(sim::Process& self,
                                   storage::TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return FailedPreconditionError("commit of unknown txn");
  }
  // Commit latency: group-commit style fixed cost.
  FABRIC_RETURN_IF_ERROR(self.Sleep(options_.cost.commit_overhead));
  storage::Epoch commit_epoch = ++epoch_;
  ++epoch_commits_[commit_epoch];
  obs::TraceEvent("vertica", "epoch.advance", {{"epoch", commit_epoch}});
  obs::TraceEvent("vertica", "txn.commit",
                  {{"txn", txn}, {"epoch", commit_epoch}});
  obs::IncrCounter("vertica.txns_committed");
  for (const std::string& table : it->second.touched_tables) {
    auto storage_it = storage_.find(table);
    if (storage_it == storage_.end()) continue;  // dropped mid-txn
    // All physical layouts — super projection and every named projection
    // — commit at the same epoch, in lockstep.
    for (auto& store : storage_it->second.per_node) {
      store->CommitTxn(txn, commit_epoch);
    }
    for (auto& store : storage_it->second.buddy) {
      store->CommitTxn(txn, commit_epoch);
    }
    for (auto& [proj_name, set] : storage_it->second.projections) {
      for (auto& store : set.per_node) store->CommitTxn(txn, commit_epoch);
      for (auto& store : set.buddy) store->CommitTxn(txn, commit_epoch);
    }
  }
  for (const std::string& table : it->second.locked_tables) {
    TableLock& lock = locks_[table];
    if (lock.x_owner == txn) lock.x_owner = 0;
    lock.insert_owners.erase(txn);
    lock.released->NotifyAll();
  }
  UnpinEpoch(it->second.snapshot_epoch);
  txns_.erase(it);
  // The commit created drainable WOS batches / ROS containers and
  // advanced the epoch: arm the Tuple Mover's background ticks.
  tm_->NotifyCommit();
  return Status::OK();
}

void Database::AbortTxnInternal(storage::TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  obs::TraceEvent("vertica", "txn.abort", {{"txn", txn}});
  obs::IncrCounter("vertica.txns_aborted");
  for (const std::string& table : it->second.touched_tables) {
    auto storage_it = storage_.find(table);
    if (storage_it == storage_.end()) continue;
    for (auto& store : storage_it->second.per_node) {
      store->AbortTxn(txn);
    }
    for (auto& store : storage_it->second.buddy) {
      store->AbortTxn(txn);
    }
    for (auto& [proj_name, set] : storage_it->second.projections) {
      for (auto& store : set.per_node) store->AbortTxn(txn);
      for (auto& store : set.buddy) store->AbortTxn(txn);
    }
  }
  for (const std::string& table : it->second.locked_tables) {
    TableLock& lock = locks_[table];
    if (lock.x_owner == txn) lock.x_owner = 0;
    lock.insert_owners.erase(txn);
    lock.released->NotifyAll();
  }
  UnpinEpoch(it->second.snapshot_epoch);
  txns_.erase(it);
}

void Database::UnpinEpoch(storage::Epoch epoch) {
  auto it = pinned_epochs_.find(epoch);
  FABRIC_CHECK(it != pinned_epochs_.end()) << "unpin of unpinned epoch";
  if (--it->second == 0) pinned_epochs_.erase(it);
}

storage::Epoch Database::MinPinnedEpoch() const {
  if (pinned_epochs_.empty()) {
    return std::numeric_limits<storage::Epoch>::max();
  }
  return pinned_epochs_.begin()->first;
}

storage::Epoch Database::MinNodeDownEpoch() const {
  storage::Epoch min = std::numeric_limits<storage::Epoch>::max();
  for (int n = 0; n < num_nodes(); ++n) {
    if (node_states_[n] != NodeState::kUp) {
      min = std::min(min, node_down_epoch_[n]);
    }
  }
  return min;
}

void Database::TrimEpochBookkeeping(storage::Epoch ahm) {
  epoch_commits_.erase(epoch_commits_.begin(),
                       epoch_commits_.lower_bound(ahm));
}

int64_t Database::TotalWosBatches() const {
  int64_t total = 0;
  for (const auto& [name, table_storage] : storage_) {
    for (const auto& store : table_storage.per_node) {
      total += store->num_wos_batches();
    }
    for (const auto& store : table_storage.buddy) {
      total += store->num_wos_batches();
    }
    for (const auto& [proj_name, set] : table_storage.projections) {
      for (const auto& store : set.per_node) {
        total += store->num_wos_batches();
      }
      for (const auto& store : set.buddy) {
        total += store->num_wos_batches();
      }
    }
  }
  return total;
}

Result<Database::SegmentCopy> Database::ReadCopy(SegmentSet* storage,
                                                 int segment) const {
  if (node_up(segment)) {
    return SegmentCopy{storage->per_node[segment].get(), segment};
  }
  int buddy = buddy_node(segment);
  if (!storage->buddy.empty() && node_up(buddy)) {
    return SegmentCopy{storage->buddy[segment].get(), buddy};
  }
  return UnavailableError(
      StrCat("both copies of segment ", segment, " are unavailable"));
}

Result<std::vector<Database::SegmentCopy>> Database::WriteCopies(
    SegmentSet* storage, int segment) const {
  std::vector<SegmentCopy> copies;
  // Only UP copies take writes; a RECOVERING node's copies are caught up
  // wholesale by the final recovery clone, so routing writes to them
  // would double-apply.
  if (node_up(segment)) {
    copies.push_back(SegmentCopy{storage->per_node[segment].get(), segment});
  }
  if (!storage->buddy.empty()) {
    int buddy = buddy_node(segment);
    if (node_up(buddy)) {
      copies.push_back(SegmentCopy{storage->buddy[segment].get(), buddy});
    }
  }
  if (copies.empty()) {
    return UnavailableError(
        StrCat("no live copy of segment ", segment, " to write"));
  }
  return copies;
}

Status Database::KillNode(int node) {
  if (node < 0 || node >= num_nodes()) {
    return InvalidArgumentError(StrCat("no node ", node));
  }
  if (node_states_[node] == NodeState::kDown) return Status::OK();
  bool was_up = node_states_[node] == NodeState::kUp;
  node_states_[node] = NodeState::kDown;
  ++node_incarnation_[node];
  // A node killed while RECOVERING keeps its original down epoch: it
  // never finished catching up, so its copies are still stale from the
  // first crash.
  if (was_up) node_down_epoch_[node] = epoch_;
  obs::TraceEvent("ksafety", "node.down",
                  {{"node", node},
                   {"node_name", node_name(node)},
                   {"epoch", epoch_}});
  obs::IncrCounter("ksafety.node_kills");
  // Every session attached to the dead node is broken; the open txn (if
  // any) aborts lazily when the in-flight statement unwinds or the client
  // discards the session.
  for (Session* session : node_sessions_[node]) {
    session->MarkBroken();
  }
  // k=1 shutdown rule: losing both copies of any segment (two ring-
  // adjacent nodes non-UP, or any loss on a single-node cluster) is
  // unrecoverable — Vertica shuts the whole cluster down to protect
  // consistency.
  bool shutdown = num_nodes() == 1;
  for (int s = 0; s < num_nodes() && !shutdown; ++s) {
    if (node_states_[s] != NodeState::kUp &&
        node_states_[buddy_node(s)] != NodeState::kUp) {
      shutdown = true;
    }
  }
  if (shutdown && !cluster_down_) {
    cluster_down_ = true;
    obs::TraceEvent("ksafety", "cluster.shutdown",
                    {{"trigger_node", node}, {"epoch", epoch_}});
    obs::IncrCounter("ksafety.cluster_shutdowns");
    for (int n = 0; n < num_nodes(); ++n) {
      node_states_[n] = NodeState::kDown;
      ++node_incarnation_[n];
      for (Session* session : node_sessions_[n]) {
        session->MarkBroken();
      }
    }
  }
  // Requests queued on the dead node's pools fail with UNAVAILABLE.
  if (wm_ != nullptr) {
    wm_->OnNodeDown(node);
    if (cluster_down_) {
      for (int n = 0; n < num_nodes(); ++n) wm_->OnNodeDown(n);
    }
  }
  state_changed_->NotifyAll();
  // Wake writers stalled on WOS backpressure against the dead node and
  // let the Tuple Mover drop it from its rotation.
  tm_->NotifyTopology();
  return Status::OK();
}

Status Database::RestartNode(int node) {
  if (node < 0 || node >= num_nodes()) {
    return InvalidArgumentError(StrCat("no node ", node));
  }
  if (cluster_down_) {
    return FailedPreconditionError(
        "cluster is down; no surviving copy to recover from");
  }
  if (node_states_[node] != NodeState::kDown) {
    return FailedPreconditionError(StrCat(
        node_name(node), " is ", NodeStateName(node_states_[node])));
  }
  node_states_[node] = NodeState::kRecovering;
  obs::TraceEvent("ksafety", "node.recovering",
                  {{"node", node},
                   {"node_name", node_name(node)},
                   {"down_epoch", node_down_epoch_[node]},
                   {"epoch", epoch_}});
  obs::IncrCounter("ksafety.node_restarts");
  state_changed_->NotifyAll();
  uint64_t incarnation = node_incarnation_[node];
  engine_->Spawn(StrCat("recovery:n", node),
                 [this, node, incarnation](sim::Process& self) {
                   RunRecovery(self, node, incarnation);
                 });
  return Status::OK();
}

void Database::RunRecovery(sim::Process& self, int node,
                           uint64_t incarnation) {
  uint64_t span = obs::TraceBegin(
      "ksafety", "recovery.transfer",
      {{"node", node}, {"down_epoch", node_down_epoch_[node]}});
  auto abandoned = [&] {
    return node_incarnation_[node] != incarnation ||
           node_states_[node] != NodeState::kRecovering;
  };
  auto abandon = [&] {
    obs::TraceEnd(span, "ksafety", "recovery.transfer",
                  {{"node", node}, {"ok", false}});
    obs::TraceEvent("ksafety", "recovery.abandoned", {{"node", node}});
    obs::IncrCounter("ksafety.recoveries_abandoned");
  };

  // Phase 1: pull the delta each hosted copy missed since the node went
  // down, from the surviving copy, over the internal fabric. Sources and
  // sizes are snapshotted up front; virtual time passes during the
  // transfers.
  struct Pull {
    int src = -1;       // source node (its int_egress feeds our ingress)
    double bytes = 0;   // cost-scaled raw bytes to move
  };
  storage::Epoch down_epoch = node_down_epoch_[node];
  int prev = (node - 1 + num_nodes()) % num_nodes();
  std::vector<Pull> pulls;
  // Recovery pulls deltas per projection: the super projection and every
  // named projection of a table each catch up from their own surviving
  // copy (a projection's buddy may be a different node's copy than the
  // anchor's, since each projection segments the ring on its own keys).
  auto plan_pulls = [&](SegmentSet& set, double scale) {
    if (!set.buddy.empty()) {
      // Primary copy of segment `node` recovers from its buddy; the buddy
      // copy of segment `prev` recovers from that segment's primary.
      pulls.push_back(Pull{
          buddy_node(node), set.buddy[node]->RawBytesSince(down_epoch) *
                                scale});
      pulls.push_back(Pull{
          prev, set.per_node[prev]->RawBytesSince(down_epoch) * scale});
    } else {
      // Replicated layout: any UP replica serves as the source.
      for (int m = 0; m < num_nodes(); ++m) {
        if (m == node || !node_up(m)) continue;
        pulls.push_back(
            Pull{m, set.per_node[m]->RawBytesSince(down_epoch) * scale});
        break;
      }
    }
  };
  for (auto& [name, table_storage] : storage_) {
    double scale = EffectiveScale(name);
    plan_pulls(table_storage, scale);
    for (auto& [proj_name, set] : table_storage.projections) {
      plan_pulls(set, scale);
    }
  }
  double total_bytes = 0;
  for (const Pull& pull : pulls) {
    if (pull.src < 0 || pull.bytes <= 0) continue;
    Status status = network_->Transfer(
        self, {hosts_[pull.src].int_egress, hosts_[node].int_ingress},
        pull.bytes);
    if (status.ok()) {
      // Re-sorting and re-encoding the received delta on the joiner.
      status = net::RunCpu(self, network_, hosts_[node],
                           pull.bytes * options_.cost.scan_cpu_per_byte);
    }
    if (!status.ok() || abandoned()) {
      abandon();
      return;
    }
    total_bytes += pull.bytes;
  }
  if (abandoned()) {
    abandon();
    return;
  }

  // Phase 2: atomic catch-up. Clone every hosted store from its surviving
  // copy in one engine step — writes that landed during the transfers are
  // included, and nothing can interleave before the node flips to UP.
  // Each projection clones independently; afterwards every layout's
  // copies agree (ContentFingerprint matches projection by projection).
  auto clone_set = [&](SegmentSet& set) -> bool {
    if (!set.buddy.empty()) {
      if (!node_up(buddy_node(node)) || !node_up(prev)) return false;
      set.per_node[node]->CopyContentsFrom(*set.buddy[node]);
      set.buddy[prev]->CopyContentsFrom(*set.per_node[prev]);
      return true;
    }
    int src = -1;
    for (int m = 0; m < num_nodes(); ++m) {
      if (m != node && node_up(m)) {
        src = m;
        break;
      }
    }
    if (src < 0) return false;
    set.per_node[node]->CopyContentsFrom(*set.per_node[src]);
    return true;
  };
  for (auto& [name, table_storage] : storage_) {
    if (!clone_set(table_storage)) {
      abandon();
      return;
    }
    for (auto& [proj_name, set] : table_storage.projections) {
      if (!clone_set(set)) {
        abandon();
        return;
      }
    }
  }
  node_states_[node] = NodeState::kUp;
  node_down_epoch_[node] = 0;
  obs::TraceEnd(span, "ksafety", "recovery.transfer",
                {{"node", node}, {"bytes", total_bytes}, {"ok", true}});
  obs::TraceEvent("ksafety", "node.up",
                  {{"node", node},
                   {"node_name", node_name(node)},
                   {"epoch", epoch_}});
  obs::IncrCounter("ksafety.recoveries");
  obs::IncrCounter("ksafety.recovery_bytes", total_bytes);
  state_changed_->NotifyAll();
  // The node is UP again: resume Tuple Mover passes over its stores and
  // recompute the AHM (its down-epoch no longer bounds history).
  tm_->NotifyTopology();
}

Status Database::WaitForNodeState(sim::Process& self, int node,
                                  NodeState state) {
  if (node < 0 || node >= num_nodes()) {
    return InvalidArgumentError(StrCat("no node ", node));
  }
  return state_changed_->WaitUntil(self, [this, node, state] {
    return node_states_[node] == state;
  });
}

bool IsMaxClientSessionsError(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         StartsWith(std::string(status.message()), kMaxClientSessionsToken);
}

}  // namespace fabric::vertica
