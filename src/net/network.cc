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
  link_bottleneck_.push_back(false);
  return static_cast<LinkId>(links_.size() - 1);
}

double Network::LinkBytesCarried(LinkId id) {
  Advance();
  return links_[id].bytes_carried;
}

double Network::LinkCurrentRate(LinkId id) const {
  double rate = 0;
  for (const Flow& flow : flows_) {
    for (LinkId link : flow.path) {
      if (link == id) {
        rate += flow.rate;
        break;
      }
    }
  }
  return rate;
}

int Network::LinkActiveFlows(LinkId id) const {
  int count = 0;
  for (const Flow& flow : flows_) {
    for (LinkId link : flow.path) {
      if (link == id) {
        ++count;
        break;
      }
    }
  }
  return count;
}

Status Network::Transfer(sim::Process& self, const std::vector<LinkId>& path,
                         double bytes, double rate_cap) {
  FABRIC_RETURN_IF_ERROR(self.CheckAlive());
  if (bytes <= 0) return Status::OK();
  FABRIC_CHECK(rate_cap > 0) << "rate cap must be positive";
  for (LinkId id : path) {
    FABRIC_CHECK(id >= 0 && id < num_links()) << "bad link id " << id;
  }

  flows_.emplace_back();
  auto it = std::prev(flows_.end());
  it->path = path;
  it->total = bytes;
  it->remaining = bytes;
  it->cap = rate_cap;
  it->cond = std::make_unique<sim::Condition>(engine_);
  uint64_t span = 0;
  if (obs::CurrentTracer() != nullptr) {
    std::string links;
    for (LinkId id : path) {
      if (!links.empty()) links += ",";
      links += links_[id].name;
    }
    span = obs::TraceBegin("net", "flow",
                           {{"links", links}, {"bytes", bytes}});
    obs::IncrCounter("net.flows_opened");
    obs::IncrCounter("net.bytes_requested", bytes);
  }
  Recompute();

  Status status = it->cond->WaitUntil(self, [&] { return it->done; });
  if (!status.ok()) {
    // Killed mid-transfer: tear the flow down and re-rate the rest.
    obs::TraceEnd(span, "net", "flow",
                  {{"ok", false}, {"remaining", it->remaining}});
    obs::IncrCounter("net.flows_cancelled");
    if (!it->done) {
      flows_.erase(it);
      Recompute();
    } else {
      flows_.erase(it);
    }
    return status;
  }
  obs::TraceEnd(span, "net", "flow", {{"ok", true}});
  flows_.erase(it);
  return Status::OK();
}

std::string Network::DebugDumpFlows() const {
  std::string out;
  for (const Flow& flow : flows_) {
    out += StrCat("flow rate=", flow.rate, " remaining=", flow.remaining,
                  " cap=", flow.cap, " done=", flow.done, " path=");
    for (LinkId id : flow.path) out += StrCat(links_[id].name, " ");
    out += "\n";
  }
  return out;
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
  for (Flow& flow : flows_) {
    if (flow.done || flow.rate <= 0) continue;
    double moved = std::min(flow.remaining, flow.rate * dt);
    flow.remaining -= moved;
    for (LinkId id : flow.path) links_[id].bytes_carried += moved;
  }
}

void Network::Recompute() {
  Advance();
  // Every arrival/departure re-rates the whole fleet of flows; the count
  // (not per-flow spam) is the useful observability signal.
  obs::IncrCounter("net.recomputes");

  // Max-min fair allocation with per-flow caps (progressive filling),
  // over only the links that carry an unfrozen flow. Every flow freezes by
  // the end, which brings active_ back to all zeros for the next call.
  used_links_.clear();
  unfrozen_.clear();
  for (Flow& flow : flows_) {
    if (flow.done) continue;
    flow.rate = 0;
    unfrozen_.push_back(&flow);
    for (LinkId id : flow.path) {
      if (active_[id]++ == 0) {
        used_links_.push_back(id);
        avail_[id] = links_[id].capacity;
      }
    }
  }

  while (!unfrozen_.empty()) {
    // The binding rate this round: the smallest of (a) any link's equal
    // share among its unfrozen flows, (b) any unfrozen flow's cap.
    double round_rate = kUnlimitedRate;
    for (LinkId i : used_links_) {
      if (active_[i] > 0) {
        round_rate = std::min(round_rate, avail_[i] / active_[i]);
      }
    }
    for (Flow* flow : unfrozen_) {
      round_rate = std::min(round_rate, flow->cap);
    }
    FABRIC_CHECK(round_rate > 0 && round_rate < kUnlimitedRate);

    // Freeze every flow bound at round_rate: capped flows whose cap equals
    // the round rate, plus all flows crossing a link saturated at it.
    for (LinkId i : used_links_) {
      link_bottleneck_[i] =
          active_[i] > 0 && avail_[i] / active_[i] <= round_rate * (1 + 1e-12);
    }
    still_unfrozen_.clear();
    bool froze_any = false;
    for (Flow* flow : unfrozen_) {
      bool bound = flow->cap <= round_rate * (1 + 1e-12);
      if (!bound) {
        for (LinkId id : flow->path) {
          if (link_bottleneck_[id]) {
            bound = true;
            break;
          }
        }
      }
      if (bound) {
        flow->rate = round_rate;
        froze_any = true;
        for (LinkId id : flow->path) {
          avail_[id] -= round_rate;
          if (avail_[id] < 0) avail_[id] = 0;
          --active_[id];
        }
      } else {
        still_unfrozen_.push_back(flow);
      }
    }
    FABRIC_CHECK(froze_any) << "water-filling failed to make progress";
    unfrozen_.swap(still_unfrozen_);
  }

  // Schedule the next completion. The horizon is floored at the engine's
  // effective time resolution so completions never stall on increments
  // that round to zero at large timestamps.
  double horizon = kUnlimitedRate;
  double time_floor = std::max(1e-9, engine_->now() * 1e-12);
  for (Flow& flow : flows_) {
    if (flow.done) continue;
    if (flow.remaining <= CompletionSlack(flow)) {
      horizon = 0;
      break;
    }
    if (flow.rate > 0) {
      horizon = std::min(horizon,
                         std::max(flow.remaining / flow.rate, time_floor));
    }
  }
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
  for (Flow& flow : flows_) {
    if (flow.done) continue;
    // Complete on byte slack, or when the residual transfer time is below
    // the time resolution (so it could never elapse).
    bool finished = flow.remaining <= CompletionSlack(flow) ||
                    (flow.rate > 0 &&
                     flow.remaining / flow.rate < time_floor);
    if (finished) {
      flow.done = true;
      flow.rate = 0;
      flow.remaining = 0;
      completed_any = true;
      flow.cond->NotifyAll();
    }
  }
  // Always re-rate and re-arm: even without completions the timer must
  // make forward progress rather than silently dropping the flow.
  if (completed_any || num_active_flows() > 0) {
    Recompute();
  }
}

}  // namespace fabric::net
