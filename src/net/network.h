#ifndef FABRIC_NET_NETWORK_H_
#define FABRIC_NET_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/engine.h"
#include "sim/waitable.h"

namespace fabric::net {

// Identifies a link within a Network.
using LinkId = int;

inline constexpr double kUnlimitedRate =
    std::numeric_limits<double>::infinity();

// Fluid-flow network model. Links are unidirectional capacity-constrained
// resources (typically one egress and one ingress link per NIC); a flow
// traverses an ordered list of links and receives a max-min fair share of
// every link it crosses, additionally bounded by an optional per-flow rate
// cap (used to model per-connection processing limits, e.g. a JDBC result
// stream bounded by per-row CPU cost rather than the wire).
//
// All methods must be called from simulation context (a running process or
// an engine callback); the engine guarantees single-runnability.
class Network {
 public:
  explicit Network(sim::Engine* engine) : engine_(engine) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Adds a link with `capacity` in bytes/second. Returns its id.
  LinkId AddLink(std::string name, double capacity);

  int num_links() const { return static_cast<int>(links_.size()); }
  const std::string& link_name(LinkId id) const { return links_[id].name; }
  double link_capacity(LinkId id) const { return links_[id].capacity; }

  // Total bytes that have crossed the link so far (telemetry).
  double LinkBytesCarried(LinkId id);

  // Instantaneous aggregate rate on the link, bytes/second (telemetry for
  // the Table 2 resource plots).
  double LinkCurrentRate(LinkId id) const;

  // Number of flows currently crossing the link.
  int LinkActiveFlows(LinkId id) const;

  // Moves `bytes` across `path`, blocking `self` in virtual time until the
  // transfer completes under fair-share dynamics. Returns CANCELLED if the
  // process is killed mid-transfer (the flow is torn down; bytes already
  // "on the wire" stay accounted to link telemetry, mirroring a dropped
  // TCP connection).
  Status Transfer(sim::Process& self, const std::vector<LinkId>& path,
                  double bytes, double rate_cap = kUnlimitedRate);

  // Recomputed on every flow arrival/departure; exposed for tests.
  int num_active_flows() const { return static_cast<int>(flows_.size()); }

  // Telemetry-only credit to a link's byte counter (work that is already
  // paced by something else — e.g. result-stream serialization CPU, whose
  // pace is the per-connection rate cap — but should still show up in
  // utilization sampling).
  void CreditLink(LinkId id, double bytes);

 private:
  struct Flow {
    std::vector<LinkId> path;
    double total = 0;  // original size (for relative completion slack)
    double remaining = 0;
    double cap = kUnlimitedRate;
    double rate = 0;
    bool done = false;
    std::unique_ptr<sim::Condition> cond;
  };

  // Remaining bytes below this count as delivered. Relative to the flow
  // size: accumulated floating-point error on a multi-GB flow can leave
  // microscopic residues whose completion horizon underflows the time
  // resolution at large timestamps.
  static double CompletionSlack(const Flow& flow) {
    return std::max(1e-6, flow.total * 1e-9);
  }

  struct Link {
    std::string name;
    double capacity = 0;
    double bytes_carried = 0;
  };

  // Credits elapsed-time progress to all flows and link telemetry.
  void Advance();

  // Runs max-min water-filling over active flows, then (re)schedules the
  // next completion callback.
  void Recompute();

  // Timer fired at a predicted completion instant.
  void OnTimer(uint64_t generation);

  sim::Engine* engine_;
  std::vector<Link> links_;
  std::list<Flow> flows_;
  double last_update_ = 0;
  uint64_t timer_generation_ = 0;

  // Recompute's scratch, kept across calls so re-rating allocates nothing.
  // Indexed by LinkId; valid only for the links in used_links_.
  std::vector<double> avail_;
  std::vector<int> active_;
  std::vector<char> link_bottleneck_;  // bytes: no bit read-modify-write
  std::vector<LinkId> used_links_;  // links crossed by an unfrozen flow
  std::vector<Flow*> unfrozen_;
  std::vector<Flow*> still_unfrozen_;
};

}  // namespace fabric::net

#endif  // FABRIC_NET_NETWORK_H_
