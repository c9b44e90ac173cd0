#ifndef FABRICBENCH_PROBE_H_
#define FABRICBENCH_PROBE_H_

// Benchmark-side host spans around calls into the fabric's public API.
// Spans are kept in memory and written out when the benchmark ends.
//
// Every sim process runs on its own host thread, but the engine runs one
// of them at a time and hands control over through a mutex, so the probe
// needs no locking of its own. Interleaved processes do make spans of
// different processes overlap in host time; parents are therefore
// tracked per process: a call's parent is the innermost open span of the
// same process, or the enclosing sim::Engine::Run span.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fabricbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root (an Engine::Run span)
  std::string name;
  double start_ms = 0;  // host milliseconds since the probe's epoch
  double end_ms = 0;
  int run = 0;  // the round the span belongs to
};

class Probe {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Probe(Clock::time_point epoch) : epoch_(epoch) {}

  // Spans are recorded only while enabled (the timed phase of a traced
  // round), tagged with the current round.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_run(int run) { run_ = run; }

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
        .count();
  }

  // Opens the root span of one sim::Engine::Run call.
  uint64_t BeginRun() {
    if (!enabled_) return 0;
    run_span_ = Open("sim.run", 0);
    return run_span_;
  }
  void EndRun(uint64_t id) {
    Close(id);
    run_span_ = 0;
    stacks_.clear();
  }

  // Opens a span for a call made from sim process `process`.
  uint64_t Begin(const char* name, uint64_t process) {
    if (!enabled_) return 0;
    std::vector<uint64_t>& stack = stacks_[process];
    uint64_t parent = stack.empty() ? run_span_ : stack.back();
    uint64_t id = Open(name, parent);
    stack.push_back(id);
    return id;
  }
  void End(uint64_t id, uint64_t process) {
    if (id == 0) return;
    std::vector<uint64_t>& stack = stacks_[process];
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    Close(id);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t Open(const char* name, uint64_t parent) {
    Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.name = name;
    span.run = run_;
    span.start_ms = NowMs();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void Close(uint64_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ms = NowMs();
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  int run_ = 0;
  uint64_t run_span_ = 0;
  std::map<uint64_t, std::vector<uint64_t>> stacks_;
  std::vector<Span> spans_;
};

// Times `fn` as a span named `name` of sim process `process`.
template <typename Fn>
decltype(auto) Traced(Probe& probe, const char* name, uint64_t process,
                      Fn&& fn) {
  uint64_t id = probe.Begin(name, process);
  decltype(auto) result = fn();
  probe.End(id, process);
  return result;
}

}  // namespace fabricbench

#endif  // FABRICBENCH_PROBE_H_
