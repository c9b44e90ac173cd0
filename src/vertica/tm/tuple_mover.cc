#include "vertica/tm/tuple_mover.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "common/string_util.h"
#include "net/host.h"
#include "obs/trace.h"
#include "vertica/database.h"

namespace fabric::vertica {

namespace {

// Size-tiered stratum of a container: 0 below strata_base_bytes, k below
// base * ratio^k, capped so absurd sizes cannot loop forever.
int Stratum(double raw_bytes, const TupleMoverConfig& config) {
  int k = 0;
  double bound = std::max(config.strata_base_bytes, 1.0);
  double ratio = std::max(config.strata_ratio, 2.0);
  while (raw_bytes >= bound && k < 48) {
    bound *= ratio;
    ++k;
  }
  return k;
}

// Strata Stratum() can return: 0 through its cap of 48.
constexpr int kStrata = 49;

// Lowest stratum of `store` outside `done` (a bit set of strata) whose
// committed containers reached the merge threshold, or -1. Counts in
// place, so the per-commit work check allocates nothing.
int MergeableStratum(const storage::SegmentStore& store,
                     const TupleMoverConfig& config, uint64_t done = 0) {
  const std::vector<storage::RosContainer>& ros = store.ros_containers();
  // Too few containers for any stratum to qualify: the common case, and
  // the only work most stores see per commit.
  if (static_cast<int>(ros.size()) <
      std::max(config.strata_min_containers, 1)) {
    return -1;
  }
  std::array<int, kStrata> counts{};
  for (const storage::RosContainer& c : ros) {
    if (c.committed()) ++counts[Stratum(c.raw_bytes(), config)];
  }
  for (int k = 0; k < kStrata; ++k) {
    if ((done >> k & 1) == 0 && counts[k] > 0 &&
        counts[k] >= config.strata_min_containers) {
      return k;
    }
  }
  return -1;
}

// The oldest committed containers of `stratum` in `store`, at most
// strata_max_fanin of them: one mergeout's inputs.
std::vector<int> StratumMembers(const storage::SegmentStore& store,
                                const TupleMoverConfig& config,
                                int stratum) {
  std::vector<int> members;
  const std::vector<storage::RosContainer>& ros = store.ros_containers();
  for (size_t i = 0; i < ros.size(); ++i) {
    if (static_cast<int>(members.size()) >= config.strata_max_fanin) break;
    if (ros[i].committed() &&
        Stratum(ros[i].raw_bytes(), config) == stratum) {
      members.push_back(static_cast<int>(i));
    }
  }
  return members;
}

// A rejected moveout, mergeout or purge of `table` on `node`. The store
// is unchanged, so the run skips it and the ticks re-arm as after a
// successful run.
void RecordFailure(const char* task, int node, const std::string& table,
                   const Status& status) {
  obs::IncrCounter("tm.failures");
  obs::TraceEvent("tm", "failure",
                  {{"task", std::string(task)},
                   {"node", static_cast<int64_t>(node)},
                   {"table", table},
                   {"error", status.ToString()}});
}

}  // namespace

TupleMover::TupleMover(Database* db, TupleMoverConfig config)
    : db_(db),
      config_(config),
      moveout_(static_cast<size_t>(db->num_nodes())),
      mergeout_(static_cast<size_t>(db->num_nodes())),
      wos_relief_(std::make_unique<sim::Condition>(db->engine())) {}

void TupleMover::NotifyCommit() {
  if (!config_.enabled) return;
  for (int n = 0; n < db_->num_nodes(); ++n) {
    if (!db_->node_up(n)) continue;
    ArmMoveout(n);
    ArmMergeout(n);
  }
  ArmAhm();
  UpdateWosGauge();
}

void TupleMover::NotifyTopology() {
  // Stalled writers re-check their predicate (a dead host unblocks its
  // writers; the statement then fails on the broken session/copy path).
  wos_relief_->NotifyAll();
  if (!config_.enabled) return;
  for (int n = 0; n < db_->num_nodes(); ++n) {
    if (!db_->node_up(n)) continue;
    ArmMoveout(n);
    ArmMergeout(n);
  }
  ArmAhm();
}

Status TupleMover::AdmitWos(sim::Process& self, const std::string& table,
                            storage::SegmentStore* store, int host) {
  if (!config_.enabled || config_.wos_hard_cap_batches <= 0) {
    return Status::OK();
  }
  if (store->num_committed_wos_batches() < config_.wos_hard_cap_batches) {
    return Status::OK();
  }
  // Over the cap: moveout is necessarily armed (the commit that pushed
  // the count to the cap armed it), so wait for it to drain the WOS.
  double stalled_at = db_->engine()->now();
  obs::TraceEvent("tm", "wos.stall",
                  {{"table", table}, {"node", static_cast<int64_t>(host)}});
  Status waited = wos_relief_->WaitUntil(self, [this, store, host] {
    return !db_->node_up(host) ||
           store->num_committed_wos_batches() < config_.wos_hard_cap_batches;
  });
  double stall = db_->engine()->now() - stalled_at;
  if (stall > 0) obs::IncrCounter("vertica.wos_stall_ms", stall * 1e3);
  return waited;
}

bool TupleMover::MoveoutWorkPending(int node) const {
  bool pending = false;
  db_->ForEachHostedStore(node, [&](const Database::HostedStore& hs) {
    if (pending) return;
    int committed = hs.store->num_committed_wos_batches();
    pending = committed >= config_.moveout_min_batches ||
              (config_.wos_hard_cap_batches > 0 &&
               committed >= config_.wos_hard_cap_batches);
  });
  return pending;
}

bool TupleMover::MergeoutWorkPending(int node) const {
  bool pending = false;
  db_->ForEachHostedStore(node, [&](const Database::HostedStore& hs) {
    pending = pending || MergeableStratum(*hs.store, config_) >= 0;
  });
  return pending;
}

void TupleMover::ArmMoveout(int node) {
  if (moveout_[node].armed || !MoveoutWorkPending(node)) return;
  moveout_[node].armed = true;
  db_->engine()->Spawn(StrCat("tm:moveout:n", node),
                       [this, node](sim::Process& self) {
                         RunMoveout(self, node);
                       });
}

void TupleMover::ArmMergeout(int node) {
  if (mergeout_[node].armed || !MergeoutWorkPending(node)) return;
  mergeout_[node].armed = true;
  db_->engine()->Spawn(StrCat("tm:mergeout:n", node),
                       [this, node](sim::Process& self) {
                         RunMergeout(self, node);
                       });
}

void TupleMover::ArmAhm() {
  if (ahm_armed_) return;
  ahm_armed_ = true;
  db_->engine()->Spawn("tm:ahm", [this](sim::Process& self) { RunAhm(self); });
}

void TupleMover::RunMoveout(sim::Process& self, int node) {
  Status slept = self.Sleep(config_.moveout_interval);
  moveout_[node].armed = false;
  if (!slept.ok()) return;
  if (!db_->node_up(node)) {
    // Paused on a non-UP node; recovery completion re-arms via
    // NotifyTopology. Writers must still re-check (their host is gone).
    wos_relief_->NotifyAll();
    return;
  }
  // Host-side, step-atomic drain of every pressured hosted store, then
  // one CPU charge for the rewrite — mutating before charging keeps the
  // store state consistent with any scan interleaved during the charge.
  double drained_bytes = 0;
  int64_t drained_batches = 0;
  db_->ForEachHostedStore(node, [&](const Database::HostedStore& hs) {
    int committed = hs.store->num_committed_wos_batches();
    bool over_cap = config_.wos_hard_cap_batches > 0 &&
                    committed >= config_.wos_hard_cap_batches;
    if (committed < config_.moveout_min_batches && !over_cap) return;
    double bytes =
        hs.store->CommittedWosRawBytes() * db_->EffectiveScale(hs.table);
    Status moved = hs.store->Moveout();
    if (!moved.ok()) {
      RecordFailure("moveout", node, hs.table, moved);
      return;
    }
    drained_bytes += bytes;
    drained_batches += committed;
    ++moveout_[node].runs;
    moveout_[node].bytes += bytes;
    obs::IncrCounter("tm.moveout_runs");
  });
  wos_relief_->NotifyAll();
  UpdateWosGauge();
  if (drained_batches > 0) {
    obs::TraceEvent("tm", "moveout",
                    {{"node", static_cast<int64_t>(node)},
                     {"batches", drained_batches},
                     {"bytes", drained_bytes}});
    // Re-encoding the drained rows into a ROS container costs CPU on the
    // hosting node (ignore failure: a kill mid-charge loses nothing, the
    // store already moved).
    Status charged =
        net::RunCpu(self, db_->network(), db_->node_host(node),
                    drained_bytes * db_->cost().scan_cpu_per_byte);
    (void)charged;  // a kill mid-charge loses nothing, the store moved
    ArmMergeout(node);
  }
  ArmMoveout(node);
}

void TupleMover::RunMergeout(sim::Process& self, int node) {
  Status slept = self.Sleep(config_.mergeout_interval);
  mergeout_[node].armed = false;
  if (!slept.ok()) return;
  if (!db_->node_up(node)) return;
  double merged_bytes = 0;
  int64_t merges = 0;
  db_->ForEachHostedStore(node, [&](const Database::HostedStore& hs) {
    // One merge per stratum per pass, lowest stratum first. Every merge
    // invalidates container indices, so re-count after each and track
    // which strata already ran.
    uint64_t done = 0;
    while (true) {
      int stratum = MergeableStratum(*hs.store, config_, done);
      if (stratum < 0) break;
      done |= uint64_t{1} << stratum;
      Result<double> merged = hs.store->MergeRosContainers(
          StratumMembers(*hs.store, config_, stratum));
      if (!merged.ok()) {
        RecordFailure("mergeout", node, hs.table, merged.status());
        break;
      }
      merged_bytes += *merged * db_->EffectiveScale(hs.table);
      ++merges;
      ++mergeout_[node].runs;
      mergeout_[node].bytes += *merged * db_->EffectiveScale(hs.table);
    }
  });
  if (merges > 0) {
    obs::IncrCounter("tm.mergeout_runs", static_cast<double>(merges));
    obs::IncrCounter("tm.mergeout_bytes", merged_bytes);
    obs::TraceEvent("tm", "mergeout",
                    {{"node", static_cast<int64_t>(node)},
                     {"merges", merges},
                     {"bytes", merged_bytes}});
    // Mergeout reads and rewrites every merged byte.
    Status charged =
        net::RunCpu(self, db_->network(), db_->node_host(node),
                    2 * merged_bytes * db_->cost().scan_cpu_per_byte);
    (void)charged;
  }
  ArmMergeout(node);
}

void TupleMover::RunAhm(sim::Process& self) {
  Status slept = self.Sleep(config_.ahm_interval);
  ahm_armed_ = false;
  if (!slept.ok()) return;
  // AHM = min(retention bound, oldest pinned snapshot, oldest down-node
  // epoch); monotone non-decreasing.
  storage::Epoch current = db_->current_epoch();
  storage::Epoch candidate =
      current > config_.retention_epochs ? current - config_.retention_epochs
                                         : 0;
  candidate = std::min(candidate, db_->MinPinnedEpoch());
  candidate = std::min(candidate, db_->MinNodeDownEpoch());
  if (candidate <= ahm_) return;
  ahm_ = candidate;
  ++ahm_advances_;
  obs::IncrCounter("tm.ahm_advances");
  obs::TraceEvent("tm", "ahm.advance",
                  {{"ahm", static_cast<int64_t>(ahm_)},
                   {"epoch", static_cast<int64_t>(current)}});
  db_->TrimEpochBookkeeping(ahm_);
  if (!config_.purge) return;
  // Purge every UP-hosted copy in one engine step: both UP copies of a
  // buddy pair purge together, so quiesced pairs keep equal fingerprints.
  // Copies on non-UP nodes are skipped — recovery's final atomic clone
  // re-converges them.
  int64_t purged = 0;
  double purged_scaled_rows = 0;
  std::vector<double> host_bytes(static_cast<size_t>(db_->num_nodes()), 0.0);
  for (int n = 0; n < db_->num_nodes(); ++n) {
    if (!db_->node_up(n)) continue;
    db_->ForEachHostedStore(n, [&](const Database::HostedStore& hs) {
      // Only committed delete marks are purgeable; most stores have none.
      if (hs.store->committed_deletes() == 0) return;
      double before = hs.store->TotalRawBytes();
      Result<int64_t> dropped = hs.store->PurgeDeletedRows(ahm_);
      if (!dropped.ok()) {
        RecordFailure("purge", n, hs.table, dropped.status());
        return;
      }
      if (*dropped == 0) return;
      purged += *dropped;
      purged_scaled_rows +=
          static_cast<double>(*dropped) * db_->EffectiveScale(hs.table);
      // Rewriting a container costs a read+write of its surviving bytes
      // plus the dropped ones — approximate with the pre-purge size.
      host_bytes[n] += before * db_->EffectiveScale(hs.table);
    });
  }
  if (purged > 0) {
    purged_rows_ += purged;
    obs::IncrCounter("tm.purged_rows", purged_scaled_rows);
    obs::TraceEvent("tm", "purge",
                    {{"ahm", static_cast<int64_t>(ahm_)},
                     {"rows", purged}});
    for (int n = 0; n < db_->num_nodes(); ++n) {
      if (host_bytes[n] <= 0) continue;
      Status charged =
          net::RunCpu(self, db_->network(), db_->node_host(n),
                      2 * host_bytes[n] * db_->cost().scan_cpu_per_byte);
      (void)charged;
    }
  }
}

void TupleMover::UpdateWosGauge() {
  obs::SetGauge("vertica.wos_batches",
                static_cast<double>(db_->TotalWosBatches()));
}

}  // namespace fabric::vertica
