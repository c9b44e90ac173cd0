#ifndef FABRIC_NET_NETWORK_H_
#define FABRIC_NET_NETWORK_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <limits>
#include <span>
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
// Flow arrivals, completions and cancels only mark the allocation stale;
// it is re-rated once, when the virtual instant ends (Engine::AtInstantEnd).
// Progress over a zero-length interval is nil and filling the same flows
// gives the same rates, so this matches re-rating at every change.
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
  // the Table 2 resource plots). Re-rates first if flows came or went
  // earlier in this instant, so the read sees the current fair share.
  double LinkCurrentRate(LinkId id);

  // Number of flows currently crossing the link.
  int LinkActiveFlows(LinkId id) const;

  // Moves `bytes` across `path`, blocking `self` in virtual time until the
  // transfer completes under fair-share dynamics. Returns CANCELLED if the
  // process is killed mid-transfer (the flow is torn down; bytes already
  // "on the wire" stay accounted to link telemetry, mirroring a dropped
  // TCP connection). `path` has at most kMaxPathLinks links.
  Status Transfer(sim::Process& self, std::span<const LinkId> path,
                  double bytes, double rate_cap = kUnlimitedRate);
  Status Transfer(sim::Process& self, std::initializer_list<LinkId> path,
                  double bytes, double rate_cap = kUnlimitedRate) {
    return Transfer(self, std::span<const LinkId>(path.begin(), path.size()),
                    bytes, rate_cap);
  }

  static constexpr size_t kMaxPathLinks = 4;

  // Exposed for tests.
  int num_active_flows() const { return static_cast<int>(flows_.size()); }
  // Water-fillings run so far (net.recomputes counts the requests).
  uint64_t num_fillings() const { return fillings_; }

  // Telemetry-only credit to a link's byte counter (work that is already
  // paced by something else — e.g. result-stream serialization CPU, whose
  // pace is the per-connection rate cap — but should still show up in
  // utilization sampling).
  void CreditLink(LinkId id, double bytes);

 private:
  // A slab slot, reused by later transfers once its own has returned.
  struct Flow {
    explicit Flow(sim::Engine* engine) : cond(engine) {}
    std::span<const LinkId> path() const { return {links.data(), num_links}; }

    std::array<LinkId, kMaxPathLinks> links;
    size_t num_links = 0;
    double total = 0;  // original size (for relative completion slack)
    double remaining = 0;
    double cap = kUnlimitedRate;
    double rate = 0;
    bool done = false;
    bool frozen = false;  // Recompute's scratch
    sim::Condition cond;  // waited on by the transferring process
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

  // Marks the allocation stale after the flow set changed; the instant's
  // end re-rates.
  void RequestRerate();

  // Runs a requested re-rate now, if one is pending.
  void FlushRerate();

  // Runs max-min water-filling over active flows, then (re)schedules the
  // next completion callback.
  void Recompute();

  // Timer fired at a predicted completion instant.
  void OnTimer(uint64_t generation);

  sim::Engine* engine_;
  std::vector<Link> links_;
  std::deque<Flow> slab_;     // stable addresses
  std::vector<Flow*> free_;   // slab slots no transfer holds
  std::vector<Flow*> flows_;  // live flows, in arrival order
  double last_update_ = 0;
  uint64_t timer_generation_ = 0;
  bool rerate_pending_ = false;
  uint64_t fillings_ = 0;

  // Recompute's scratch, kept across calls so re-rating allocates nothing.
  // Indexed by LinkId; valid only for the links in used_links_.
  std::vector<double> avail_;
  std::vector<int> active_;
  std::vector<std::vector<Flow*>> link_flows_;  // unfrozen at filling start
  std::vector<LinkId> used_links_;  // links crossed by an unfrozen flow
  std::vector<double> share_;  // per used_links_ entry, this round
  std::vector<Flow*> capped_;  // unfrozen flows with a finite cap
};

}  // namespace fabric::net

#endif  // FABRIC_NET_NETWORK_H_
