#ifndef FABRIC_SIM_ENGINE_H_
#define FABRIC_SIM_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace fabric::sim {

// Virtual time, in seconds. The engine is the only source of time for the
// whole fabric; benchmarks report these seconds.
using SimTime = double;

class Condition;
class Engine;
class Process;

using ProcessHandle = std::shared_ptr<Process>;

// A Process is a cooperatively scheduled activity: a fiber on the host
// thread that calls Engine::Run, with its own stack. Exactly one process
// (or the engine itself) runs at any instant, so all simulation state can
// be accessed without locking from process context. Determinism: wake-ups
// are ordered by (virtual time, sequence number).
//
// A process observes virtual time only through blocking calls (Sleep and
// the primitives in waitable.h). Each blocking call returns CANCELLED once
// the process has been killed; well-behaved bodies propagate that status
// and return promptly.
class Process {
 public:
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  Engine& engine() const { return *engine_; }
  const std::string& name() const { return name_; }
  uint64_t id() const { return id_; }

  // Current virtual time (callable only while this process is running).
  SimTime Now() const;

  // Suspends for `seconds` of virtual time. seconds >= 0; Sleep(0) yields,
  // letting already-scheduled same-time events run first.
  Status Sleep(double seconds);

  // True once Kill() was called; blocking calls fail fast afterwards.
  bool killed() const { return killed_; }

  // Convenience: CANCELLED if killed, OK otherwise. Task code sprinkles
  // this at failure points.
  Status CheckAlive() const;

  // True once the body returned.
  bool done() const { return state_ == State::kDone; }

 private:
  friend class Engine;
  friend class Condition;

  enum class State { kReady, kRunning, kBlocked, kDone };

  Process(Engine* engine, uint64_t id, std::string name,
          std::function<void(Process&)> body);

  // Hands control back to the engine; returns once the engine wakes this
  // process again.
  void SwitchToEngine();

  // Entry function of the process's stack, called with the Process*: runs
  // the body, then switches back to the engine for good.
  static void FiberMain(void* self);

  Engine* engine_;
  uint64_t id_;
  std::string name_;
  std::function<void(Process&)> body_;
  State state_ = State::kReady;
  bool killed_ = false;
  // The condition this process is parked on, while registered in its
  // waiter list. Cleared at notify time and by ~Condition, so a process
  // resumed during teardown can tell whether deregistering is safe.
  Condition* wait_cond_ = nullptr;
  bool wake_posted_ = false;  // a wake event for this process is queued
  uint64_t wake_epoch_ = 0;   // invalidates superseded queued wakes
  void* sp_ = nullptr;        // saved context while switched out
  // Usable stack region, from the engine's pool: set at first run,
  // returned when the body finishes.
  void* stack_ = nullptr;
  void* asan_fake_stack_ = nullptr;  // ASan bookkeeping across switches
};

// Deterministic discrete-event engine. Typical use:
//
//   sim::Engine engine;
//   engine.Spawn("worker", [&](sim::Process& self) { ... self.Sleep(3); });
//   FABRIC_CHECK_OK(engine.Run());
//   double elapsed = engine.now();
class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  // Spawns a process whose body starts at the current virtual time. Safe to
  // call before Run() or from inside a running process.
  ProcessHandle Spawn(std::string name, std::function<void(Process&)> body);

  // Schedules `fn` to run in engine context (no process) at absolute time
  // `when` (>= now).
  void ScheduleAt(SimTime when, std::function<void()> fn);

  // Like ScheduleAt, but returns a token the scheduler honors lazily:
  // setting *token = true before the event fires discards it without
  // advancing virtual time to `when` (the workload manager's queue
  // timeouts would otherwise stretch every simulation to its deadline).
  // The token may only be flipped from process or engine context.
  using TimerToken = std::shared_ptr<bool>;
  TimerToken ScheduleCancelableAt(SimTime when, std::function<void()> fn);

  // Marks `process` killed. If it is blocked or sleeping it wakes
  // immediately and its pending blocking call returns CANCELLED.
  void Kill(Process& process);

  // Runs until every spawned process is done. Returns INTERNAL with
  // diagnostics if the simulation deadlocks (live processes but an empty
  // event queue) or exceeds the safety step limit.
  Status Run();

  // Total events processed (telemetry / step-limit tests).
  uint64_t steps() const { return steps_; }
  void set_max_steps(uint64_t max_steps) { max_steps_ = max_steps; }

 private:
  friend class Process;
  friend class Condition;

  struct Event {
    SimTime time;
    uint64_t seq;
    // Exactly one of the two is set.
    Process* process = nullptr;
    std::function<void()> callback;
    uint64_t wake_epoch = 0;  // must match the process's current epoch
    // Set for cancellable callbacks; a true flag at pop time skips the
    // event before virtual time advances to it.
    std::shared_ptr<bool> cancelled;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Queues a wake event for `process` at `when`; dedupes (a process has
  // at most one live pending wake). With `force`, supersedes any pending
  // wake (immediate kill delivery).
  void PostWake(Process* process, SimTime when, bool force = false);

  void PushEvent(Event event);

  // Switches into `process` until it blocks or finishes; gives it a stack
  // on first run and takes the stack back once the body has returned.
  void Resume(Process* process);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t steps_ = 0;
  uint64_t max_steps_ = 200'000'000;
  // Binary min-heap on (time, seq) under EventLater.
  std::vector<Event> events_;
  std::vector<ProcessHandle> processes_;
  Process* current_ = nullptr;
  void* sp_ = nullptr;  // the engine's saved context while a process runs
  // Stacks of finished processes, reused by the next ones to start.
  std::vector<void*> stack_pool_;
  // ASan bookkeeping: the host stack Run() switches from.
  void* asan_fake_stack_ = nullptr;
  const void* asan_host_stack_bottom_ = nullptr;
  size_t asan_host_stack_size_ = 0;
};

}  // namespace fabric::sim

#endif  // FABRIC_SIM_ENGINE_H_
