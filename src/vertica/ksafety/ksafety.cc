#include "vertica/ksafety/ksafety.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/engine.h"
#include "vertica/database.h"

namespace fabric::vertica {

std::string_view NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kUp:
      return "UP";
    case NodeState::kDown:
      return "DOWN";
    case NodeState::kRecovering:
      return "RECOVERING";
  }
  return "UNKNOWN";
}

namespace ksafety {

NodeFailureSchedule& NodeFailureSchedule::KillNode(int node,
                                                   double at_vtime) {
  outages_.push_back(Outage{node, at_vtime, -1});
  return *this;
}


NodeFailureSchedule& NodeFailureSchedule::KillAndRestart(int node,
                                                         double kill_at,
                                                         double restart_at) {
  FABRIC_CHECK(restart_at >= kill_at)
      << "restart scheduled before the kill";
  outages_.push_back(Outage{node, kill_at, restart_at});
  return *this;
}

void NodeFailureSchedule::Install(Database* db) const {
  for (const Outage& outage : outages_) {
    int node = outage.node;
    if (outage.kill_at >= 0) {
      db->engine()->ScheduleAt(outage.kill_at, [db, node] {
        Status status = db->KillNode(node);
        if (!status.ok()) {
          FABRIC_LOG(Warning) << "scheduled KillNode(" << node
                              << "): " << status.ToString();
        }
      });
    }
    if (outage.restart_at >= 0) {
      db->engine()->ScheduleAt(outage.restart_at, [db, node] {
        Status status = db->RestartNode(node);
        if (!status.ok()) {
          FABRIC_LOG(Warning) << "scheduled RestartNode(" << node
                              << "): " << status.ToString();
        }
      });
    }
  }
}

NodeFailureSchedule RandomNodeOutages(uint64_t seed, int num_nodes,
                                      const RandomOutageOptions& options) {
  NodeFailureSchedule schedule;
  if (num_nodes < 2 || options.max_outages <= 0) return schedule;
  Rng rng(seed);
  // One victim per schedule: repeated crash/restart cycles of a single
  // node can never lose both copies of a segment (its ring neighbours
  // stay up), so seeded suites always exercise failover and recovery
  // rather than the terminal cluster shutdown.
  int victim = static_cast<int>(rng.NextUint64(num_nodes));
  double t = rng.NextDouble() * options.horizon;
  for (int i = 0; i < options.max_outages; ++i) {
    if (t >= options.horizon) break;
    if (!rng.NextBool(options.restart_probability)) {
      schedule.KillNode(victim, t);
      break;
    }
    double downtime =
        options.min_downtime +
        rng.NextDouble() *
            std::max(0.0, options.max_downtime - options.min_downtime);
    schedule.KillAndRestart(victim, t, t + downtime);
    // Serialize outages: the next kill lands after this restart fired
    // (the node may still be RECOVERING — killing a recovering node is a
    // legal, interesting case that sends it back to DOWN).
    t += downtime + rng.NextDouble() * options.horizon;
  }
  return schedule;
}

}  // namespace ksafety
}  // namespace fabric::vertica
