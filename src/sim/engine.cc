#include "sim/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "sim/fiber_switch.h"

#if defined(__SANITIZE_ADDRESS__)
#define FABRIC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FABRIC_ASAN_FIBERS 1
#endif
#endif

#ifdef FABRIC_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace fabric::sim {
namespace {

// Usable bytes per process stack: the default host thread stack size, so
// process bodies keep the recursion depth they had as threads. Pages are
// reserved lazily (MAP_NORESERVE); only touched ones cost memory.
constexpr size_t kStackSize = size_t{8} << 20;

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Maps a stack with a PROT_NONE guard page below it, so an overflow
// faults instead of silently corrupting a neighbouring stack. Returns the
// usable region's low end.
void* MapStack() {
  size_t guard = PageSize();
  void* base = mmap(nullptr, guard + kStackSize, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  FABRIC_CHECK(base != MAP_FAILED) << "mmap of a process stack failed";
  FABRIC_CHECK(mprotect(base, guard, PROT_NONE) == 0)
      << "mprotect of a stack guard page failed";
  return static_cast<char*>(base) + guard;
}

void UnmapStack(void* stack) {
  size_t guard = PageSize();
  munmap(static_cast<char*>(stack) - guard, guard + kStackSize);
}

// ASan keeps one stack per thread in mind; these tell it which stack is
// current across every context switch, or it reports the other stack's
// frames as stack-use-after-scope. No-ops in other builds.
void StartSwitch([[maybe_unused]] void** fake_stack_save,
                 [[maybe_unused]] const void* bottom,
                 [[maybe_unused]] size_t size) {
#ifdef FABRIC_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

void FinishSwitch([[maybe_unused]] void* fake_stack_save,
                  [[maybe_unused]] const void** bottom_old,
                  [[maybe_unused]] size_t* size_old) {
#ifdef FABRIC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

// A stack's shadow may still carry poison from frames that never returned
// (the previous owner's last switch) or, for a fresh mapping, from an
// unmapped stack at the same address: munmap leaves shadow bytes as is.
// __asan_unpoison_memory_region alone would write, and so commit, 1 MiB
// of shadow per stack; dropping the whole shadow pages instead (they read
// back as zero, i.e. unpoisoned) keeps 20k parked processes affordable.
void UnpoisonStack([[maybe_unused]] void* stack) {
#ifdef FABRIC_ASAN_FIBERS
  size_t scale = 0;
  size_t offset = 0;
  __asan_get_shadow_mapping(&scale, &offset);
  const uintptr_t page = PageSize();
  const auto lo = reinterpret_cast<uintptr_t>(stack);
  const uintptr_t hi = lo + kStackSize;
  // The shadow byte of address a lives at (a >> scale) + offset.
  const uintptr_t drop_lo = (((lo >> scale) + offset) + page - 1) & ~(page - 1);
  const uintptr_t drop_hi = ((hi >> scale) + offset) & ~(page - 1);
  const uintptr_t app_lo = (drop_lo - offset) << scale;
  const uintptr_t app_hi = (drop_hi - offset) << scale;
  madvise(reinterpret_cast<void*>(drop_lo), drop_hi - drop_lo, MADV_DONTNEED);
  __asan_unpoison_memory_region(stack, app_lo - lo);
  __asan_unpoison_memory_region(reinterpret_cast<void*>(app_hi), hi - app_hi);
#endif
}

}  // namespace

// ---------------------------------------------------------------- Process

Process::Process(Engine* engine, uint64_t id, std::string name,
                 std::function<void(Process&)> body)
    : engine_(engine), id_(id), name_(std::move(name)), body_(std::move(body)) {}

// A handle may outlive its engine, so this must not touch engine_; the
// engine reclaims the stack itself.
Process::~Process() = default;

SimTime Process::Now() const { return engine_->now(); }

Status Process::CheckAlive() const {
  if (killed_) return CancelledError(StrCat("process '", name_, "' killed"));
  return Status::OK();
}

Status Process::Sleep(double seconds) {
  FABRIC_CHECK(seconds >= 0) << "negative sleep: " << seconds;
  if (killed_) return CancelledError(StrCat("process '", name_, "' killed"));
  // Yields (Sleep(0)) are pure scheduling noise; only real sleeps trace.
  if (seconds > 0) {
    if (obs::CapturingEvents()) {
      obs::TraceEvent("sim", "process.sleep",
                      {{"process", name_}, {"seconds", seconds}});
    }
    obs::ObserveValue("sim.sleep_seconds", seconds);
  }
  engine_->PostWake(this, engine_->now_ + seconds);
  state_ = State::kBlocked;
  SwitchToEngine();
  if (killed_) return CancelledError(StrCat("process '", name_, "' killed"));
  return Status::OK();
}

void Process::SwitchToEngine() {
  FABRIC_CHECK(engine_->current_ == this)
      << "blocking call from outside process '" << name_ << "'";
  StartSwitch(&asan_fake_stack_, engine_->asan_host_stack_bottom_,
              engine_->asan_host_stack_size_);
  SwitchStacks(&sp_, engine_->sp_);
  FinishSwitch(asan_fake_stack_, &engine_->asan_host_stack_bottom_,
               &engine_->asan_host_stack_size_);
}

void Process::FiberMain(void* arg) {
  auto* self = static_cast<Process*>(arg);
  Engine* engine = self->engine_;
  FinishSwitch(nullptr, &engine->asan_host_stack_bottom_,
               &engine->asan_host_stack_size_);
  self->body_(*self);
  if (obs::CapturingEvents()) {
    obs::TraceEvent("sim", "process.done",
                    {{"process", self->name_}, {"pid", self->id_}});
  }
  self->state_ = State::kDone;
  // Leave for good: a null fake-stack slot tells ASan to drop this
  // fiber's bookkeeping. The engine never resumes this context.
  StartSwitch(nullptr, engine->asan_host_stack_bottom_,
              engine->asan_host_stack_size_);
  SwitchStacks(&self->sp_, engine->sp_);
  std::abort();  // unreachable: a finished process is never resumed
}

// ----------------------------------------------------------------- Engine

Engine::Engine() = default;

Engine::~Engine() {
  // Best effort shutdown for simulations abandoned mid-run (test failure
  // paths): kill everything and drive remaining processes until their
  // bodies observe CANCELLED and return.
  bool any_live = false;
  for (const auto& p : processes_) {
    if (p->state_ != Process::State::kDone) {
      any_live = true;
      p->killed_ = true;
      PostWake(p.get(), now_);
    }
  }
  if (any_live) {
    // Replenish the step budget: the teardown drain must run even when
    // the simulation stopped because it exhausted max_steps_.
    max_steps_ = steps_ + 10'000'000;
    Status status = Run();
    if (!status.ok()) {
      FABRIC_LOG(Error) << "engine teardown: " << status.ToString();
    }
  }
  // A process still suspended after a failed drain is abandoned: its
  // stack goes away with the frames on it unwound by nobody.
  for (const auto& p : processes_) {
    if (p->stack_ != nullptr) {
      UnmapStack(p->stack_);
      p->stack_ = nullptr;
    }
  }
  for (void* stack : stack_pool_) UnmapStack(stack);
}

ProcessHandle Engine::Spawn(std::string name,
                            std::function<void(Process&)> body) {
  auto process = std::shared_ptr<Process>(
      new Process(this, next_id_++, std::move(name), std::move(body)));
  if (obs::CapturingEvents()) {
    obs::TraceEvent("sim", "process.spawn",
                    {{"process", process->name_}, {"pid", process->id_}});
  }
  obs::IncrCounter("sim.processes_spawned");
  processes_.push_back(process);
  PostWake(process.get(), now_);
  return process;
}

void Engine::ScheduleAt(SimTime when, std::function<void()> fn) {
  FABRIC_CHECK(when >= now_) << "event scheduled in the past";
  PushEvent(Event{when, next_seq_++, nullptr, std::move(fn), 0, nullptr});
}

Engine::TimerToken Engine::ScheduleCancelableAt(SimTime when,
                                                std::function<void()> fn) {
  FABRIC_CHECK(when >= now_) << "event scheduled in the past";
  auto token = std::make_shared<bool>(false);
  PushEvent(Event{when, next_seq_++, nullptr, std::move(fn), 0, token});
  return token;
}

void Engine::Kill(Process& process) {
  if (process.state_ == Process::State::kDone || process.killed_) return;
  obs::TraceEvent("sim", "process.kill",
                  {{"process", process.name_}, {"pid", process.id_}});
  obs::IncrCounter("sim.kills");
  process.killed_ = true;
  if (process.state_ == Process::State::kBlocked) {
    PostWake(&process, now_, /*force=*/true);
  }
}

void Engine::AtInstantEnd(std::function<void()> fn) {
  instant_end_.push_back(std::move(fn));
}

void Engine::PostWake(Process* process, SimTime when, bool force) {
  if (process->wake_posted_) {
    if (!force) return;
    // Supersede the queued wake: bump the epoch so it is skipped.
    ++process->wake_epoch_;
  }
  process->wake_posted_ = true;
  PushEvent(Event{when, next_seq_++, process, nullptr, process->wake_epoch_,
                  nullptr});
}

void Engine::PushEvent(Event event) {
  events_.push_back(std::move(event));
  std::push_heap(events_.begin(), events_.end(), EventLater());
}

void Engine::Resume(Process* process) {
  if (process->stack_ == nullptr) {
    if (stack_pool_.empty()) {
      process->stack_ = MapStack();
    } else {
      process->stack_ = stack_pool_.back();
      stack_pool_.pop_back();
    }
    UnpoisonStack(process->stack_);
    process->sp_ = PrepareStack(process->stack_, kStackSize,
                                &Process::FiberMain, process);
  }
  StartSwitch(&asan_fake_stack_, process->stack_, kStackSize);
  SwitchStacks(&sp_, process->sp_);
  FinishSwitch(asan_fake_stack_, nullptr, nullptr);
  if (process->state_ == Process::State::kDone) {
    stack_pool_.push_back(process->stack_);
    process->stack_ = nullptr;
  }
}

Status Engine::Run() {
  while (true) {
    // The instant ends once no event is due at now_. The heap head is the
    // earliest event, stale or not, so nothing skipped below can be due
    // earlier than it.
    if (!instant_end_.empty() &&
        (events_.empty() || events_.front().time > now_)) {
      running_instant_end_.swap(instant_end_);
      for (auto& hook : running_instant_end_) hook();
      running_instant_end_.clear();
      continue;
    }
    if (events_.empty()) break;
    if (++steps_ > max_steps_) {
      std::string live;
      int live_count = 0;
      for (const auto& process : processes_) {
        if (process->state_ != Process::State::kDone) {
          ++live_count;
          if (live_count <= 12) {
            if (!live.empty()) live += ", ";
            live += process->name_;
          }
        }
      }
      return InternalError(StrCat("simulation exceeded ", max_steps_,
                                  " events at t=", now_, "; ", live_count,
                                  " live processes: ", live,
                                  " (runaway loop?)"));
    }
    std::pop_heap(events_.begin(), events_.end(), EventLater());
    Event event = std::move(events_.back());
    events_.pop_back();
    if (event.process != nullptr &&
        (event.process->state_ == Process::State::kDone ||
         event.wake_epoch != event.process->wake_epoch_)) {
      continue;  // stale wake: skip without advancing time
    }
    if (event.cancelled != nullptr && *event.cancelled) {
      continue;  // cancelled timer: skip without advancing time
    }
    FABRIC_CHECK(event.time >= now_);
    now_ = event.time;
    if (event.callback) {
      // Callbacks run in engine context and may freely Spawn / ScheduleAt
      // / Kill. No process runs concurrently.
      event.callback();
      continue;
    }
    Process* process = event.process;
    process->wake_posted_ = false;
    ++process->wake_epoch_;
    current_ = process;
    process->state_ = Process::State::kRunning;
    Resume(process);
    current_ = nullptr;
  }
  // Event queue drained: every process must be done, else deadlock.
  std::string blocked;
  for (const auto& process : processes_) {
    if (process->state_ != Process::State::kDone) {
      if (!blocked.empty()) blocked += ", ";
      blocked += process->name_;
    }
  }
  if (!blocked.empty()) {
    return InternalError(
        StrCat("simulation deadlock at t=", now_, "; blocked: ", blocked));
  }
  return Status::OK();
}

}  // namespace fabric::sim
