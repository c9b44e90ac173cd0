#ifndef FABRIC_VERTICA_KSAFETY_KSAFETY_H_
#define FABRIC_VERTICA_KSAFETY_KSAFETY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace fabric::vertica {

class Database;

// Lifecycle of one Vertica node under k-safety (Section "C-Store 7 Years
// Later": a cluster with k=1 keeps serving through any single node loss).
//
//   kUp ──KillNode──▶ kDown ──RestartNode──▶ kRecovering ──catch-up──▶ kUp
//
// A DOWN node serves nothing; its segments are served from their buddy
// copies. A RECOVERING node is transferring the delta it missed from the
// buddy copies and still serves nothing until the catch-up completes.
enum class NodeState { kUp, kDown, kRecovering };

std::string_view NodeStateName(NodeState state);

namespace ksafety {

// One planned node outage on the virtual-time axis: kill `node` at
// `kill_at`; restart it at `restart_at` (< 0 means the node stays down).
struct Outage {
  int node = 0;
  double kill_at = 0;
  double restart_at = -1;
};

// Deterministic crash/restart schedule for Vertica nodes — the
// database-side mirror of spark::FailureInjector. A schedule is a plain
// list of outages built either by hand (scripted tests) or from a seed
// (randomized property suites); Install() arms every entry as an engine
// callback, so kills land at exact virtual times regardless of what the
// workload is doing.
class NodeFailureSchedule {
 public:
  NodeFailureSchedule() = default;

  // Scripted entry points (chainable, mirroring ScriptedFailureInjector).
  NodeFailureSchedule& KillNode(int node, double at_vtime);
  NodeFailureSchedule& KillAndRestart(int node, double kill_at,
                                      double restart_at);

  const std::vector<Outage>& outages() const { return outages_; }

  // Arms the schedule on the database's engine. Call before engine.Run();
  // entries fire in engine context via ScheduleAt. The database must
  // outlive the simulation run.
  void Install(Database* db) const;

 private:
  std::vector<Outage> outages_;
};

// Options for the seeded random schedule.
struct RandomOutageOptions {
  // Outages are drawn uniformly over [0, horizon) virtual seconds.
  double horizon = 10.0;
  int max_outages = 2;
  // Each killed node restarts after a uniform delay in
  // [min_downtime, max_downtime); with restart_probability 0 the node
  // stays down for good.
  double min_downtime = 0.5;
  double max_downtime = 3.0;
  double restart_probability = 1.0;
};

// Builds a deterministic seeded outage schedule that never takes down two
// ring-adjacent nodes at once — the k=1 double-copy loss that shuts the
// cluster down — so randomized suites exercise failover and recovery, not
// total outage. Identical (seed, num_nodes, options) give identical
// schedules.
NodeFailureSchedule RandomNodeOutages(uint64_t seed, int num_nodes,
                                      const RandomOutageOptions& options);

}  // namespace ksafety
}  // namespace fabric::vertica

#endif  // FABRIC_VERTICA_KSAFETY_KSAFETY_H_
