#include "net/network.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace fabric::net {

LinkId Network::AddLink(std::string name, double capacity) {
  FABRIC_CHECK(capacity > 0) << "link capacity must be positive";
  links_.push_back(Link{std::move(name), capacity, 0});
  avail_.push_back(0);
  active_.push_back(0);
  link_flows_.emplace_back();
  return static_cast<LinkId>(links_.size() - 1);
}

double Network::LinkBytesCarried(LinkId id) {
  Advance();
  return links_[id].bytes_carried;
}

double Network::LinkCurrentRate(LinkId id) {
  FlushRerate();
  double rate = 0;
  for (const Flow* flow : flows_) {
    for (LinkId link : flow->path()) {
      if (link == id) {
        rate += flow->rate;
        break;
      }
    }
  }
  return rate;
}

int Network::LinkActiveFlows(LinkId id) const {
  int count = 0;
  for (const Flow* flow : flows_) {
    for (LinkId link : flow->path()) {
      if (link == id) {
        ++count;
        break;
      }
    }
  }
  return count;
}

Status Network::Transfer(sim::Process& self, std::span<const LinkId> path,
                         double bytes, double rate_cap) {
  FABRIC_RETURN_IF_ERROR(self.CheckAlive());
  if (bytes <= 0) return Status::OK();
  FABRIC_CHECK(rate_cap > 0) << "rate cap must be positive";
  FABRIC_CHECK(path.size() <= kMaxPathLinks)
      << "path of " << path.size() << " links";
  for (LinkId id : path) {
    FABRIC_CHECK(id >= 0 && id < num_links()) << "bad link id " << id;
  }

  if (free_.empty()) free_.push_back(&slab_.emplace_back(engine_));
  Flow* flow = free_.back();
  free_.pop_back();
  std::copy(path.begin(), path.end(), flow->links.begin());
  flow->num_links = path.size();
  flow->total = bytes;
  flow->remaining = bytes;
  flow->cap = rate_cap;
  flow->rate = 0;
  flow->done = false;
  flows_.push_back(flow);
  uint64_t span = 0;
  if (obs::CapturingEvents()) {
    std::string links;
    for (LinkId id : path) {
      if (!links.empty()) links += ",";
      links += links_[id].name;
    }
    span = obs::TraceBegin("net", "flow",
                           {{"links", links}, {"bytes", bytes}});
  }
  obs::IncrCounter("net.flows_opened");
  obs::IncrCounter("net.bytes_requested", bytes);
  RequestRerate();

  Status status = flow->cond.WaitUntil(self, [flow] { return flow->done; });
  if (span != 0) {
    if (status.ok()) {
      obs::TraceEnd(span, "net", "flow", {{"ok", true}});
    } else {
      obs::TraceEnd(span, "net", "flow",
                    {{"ok", false}, {"remaining", flow->remaining}});
    }
  }
  bool torn_down = !flow->done;  // killed mid-transfer
  flows_.erase(std::find(flows_.begin(), flows_.end(), flow));
  free_.push_back(flow);
  if (!status.ok()) obs::IncrCounter("net.flows_cancelled");
  if (torn_down) RequestRerate();
  return status;
}

void Network::CreditLink(LinkId id, double bytes) {
  Advance();
  links_[id].bytes_carried += bytes;
}

void Network::Advance() {
  double now = engine_->now();
  double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0) return;
  for (Flow* flow : flows_) {
    if (flow->done || flow->rate <= 0) continue;
    double moved = std::min(flow->remaining, flow->rate * dt);
    flow->remaining -= moved;
    for (LinkId id : flow->path()) links_[id].bytes_carried += moved;
  }
}

void Network::RequestRerate() {
  Advance();
  // Counts re-rate requests, one per arrival, completion batch or cancel;
  // num_fillings() counts the water-fillings they add up to.
  obs::IncrCounter("net.recomputes");
  if (rerate_pending_) return;
  rerate_pending_ = true;
  engine_->AtInstantEnd([this] { FlushRerate(); });
}

void Network::FlushRerate() {
  if (!rerate_pending_) return;
  rerate_pending_ = false;
  Recompute();
}

void Network::Recompute() {
  ++fillings_;
  // Max-min fair allocation with per-flow caps (progressive filling),
  // over only the links that carry an unfrozen flow. Every flow freezes by
  // the end, which brings active_ back to all zeros for the next call.
  // A round freezes the flows on its bottleneck links and the flows
  // capped at its rate; each subtracts the same rate from its links, so
  // the order they freeze in does not change any avail_.
  //
  // The next completion is due at the horizon: the soonest a flow drains
  // at its rate, floored at the engine's effective time resolution so
  // completions never stall on increments that round to zero at large
  // timestamps; or now, if a flow is already within its slack.
  double horizon = kUnlimitedRate;
  const double time_floor = std::max(1e-9, engine_->now() * 1e-12);
  bool drained = false;
  used_links_.clear();
  capped_.clear();
  int unfrozen = 0;
  for (Flow* flow : flows_) {
    if (flow->done) continue;
    flow->rate = 0;
    flow->frozen = false;
    drained = drained || flow->remaining <= CompletionSlack(*flow);
    ++unfrozen;
    if (flow->cap < kUnlimitedRate) capped_.push_back(flow);
    for (LinkId id : flow->path()) {
      if (active_[id]++ == 0) {
        used_links_.push_back(id);
        avail_[id] = links_[id].capacity;
        link_flows_[id].clear();
      }
      link_flows_[id].push_back(flow);
    }
  }
  auto freeze = [&](Flow* flow, double rate) {
    flow->frozen = true;
    flow->rate = rate;
    for (LinkId id : flow->path()) {
      avail_[id] -= rate;
      if (avail_[id] < 0) avail_[id] = 0;
      --active_[id];
    }
    horizon = std::min(horizon, std::max(flow->remaining / rate, time_floor));
    --unfrozen;
  };

  while (unfrozen > 0) {
    // The binding rate this round: the smallest of (a) any link's equal
    // share among its unfrozen flows, (b) any unfrozen flow's cap.
    std::erase_if(used_links_, [this](LinkId i) { return active_[i] == 0; });
    std::erase_if(capped_, [](const Flow* flow) { return flow->frozen; });
    double round_rate = kUnlimitedRate;
    share_.clear();
    for (LinkId i : used_links_) {
      share_.push_back(avail_[i] / active_[i]);
      round_rate = std::min(round_rate, share_.back());
    }
    for (const Flow* flow : capped_) {
      round_rate = std::min(round_rate, flow->cap);
    }
    FABRIC_CHECK(round_rate > 0 && round_rate < kUnlimitedRate);

    // Freeze every flow bound at round_rate: capped flows whose cap equals
    // the round rate, plus all flows crossing a link saturated at it. The
    // bottlenecks are picked before any of them freezes.
    const int before = unfrozen;
    const double bound = round_rate * (1 + 1e-12);
    for (Flow* flow : capped_) {
      if (flow->cap <= bound) freeze(flow, round_rate);
    }
    for (size_t k = 0; k < used_links_.size(); ++k) {
      if (share_[k] > bound) continue;
      for (Flow* flow : link_flows_[used_links_[k]]) {
        if (!flow->frozen) freeze(flow, round_rate);
      }
    }
    FABRIC_CHECK(unfrozen < before) << "water-filling failed to make progress";
  }

  if (drained) horizon = 0;
  ++timer_generation_;
  if (horizon < kUnlimitedRate) {
    uint64_t generation = timer_generation_;
    engine_->ScheduleAt(engine_->now() + horizon,
                        [this, generation] { OnTimer(generation); });
  }
}

void Network::OnTimer(uint64_t generation) {
  if (generation != timer_generation_) return;  // superseded by a re-rate
  Advance();
  double time_floor = std::max(1e-9, engine_->now() * 1e-12);
  bool completed_any = false;
  for (Flow* flow : flows_) {
    if (flow->done) continue;
    // Complete on byte slack, or when the residual transfer time is below
    // the time resolution (so it could never elapse).
    bool finished = flow->remaining <= CompletionSlack(*flow) ||
                    (flow->rate > 0 &&
                     flow->remaining / flow->rate < time_floor);
    if (finished) {
      flow->done = true;
      flow->rate = 0;
      flow->remaining = 0;
      completed_any = true;
      flow->cond.NotifyAll();
    }
  }
  // Always re-rate and re-arm: even without completions the timer must
  // make forward progress rather than silently dropping the flow.
  if (completed_any || num_active_flows() > 0) RequestRerate();
}

}  // namespace fabric::net
