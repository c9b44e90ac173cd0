#include <unwind.h>

#include <cfenv>
#include <cfloat>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef __SSE__
#include <xmmintrin.h>
#endif

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "sim/engine.h"
#include "sim/waitable.h"

namespace fabric::sim {
namespace {

TEST(EngineTest, EmptyRunCompletesAtTimeZero) {
  Engine engine;
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.now(), 0.0);
}

TEST(EngineTest, SleepAdvancesVirtualTime) {
  Engine engine;
  double woke_at = -1;
  engine.Spawn("sleeper", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(3.5).ok());
    woke_at = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(woke_at, 3.5);
  EXPECT_DOUBLE_EQ(engine.now(), 3.5);
}

TEST(EngineTest, ProcessesInterleaveDeterministically) {
  Engine engine;
  std::vector<std::string> trace;
  engine.Spawn("a", [&](Process& self) {
    trace.push_back("a0");
    ASSERT_TRUE(self.Sleep(2).ok());
    trace.push_back("a2");
  });
  engine.Spawn("b", [&](Process& self) {
    trace.push_back("b0");
    ASSERT_TRUE(self.Sleep(1).ok());
    trace.push_back("b1");
    ASSERT_TRUE(self.Sleep(2).ok());
    trace.push_back("b3");
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(trace, (std::vector<std::string>{"a0", "b0", "b1", "a2", "b3"}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(EngineTest, SameTimeEventsRunInSpawnOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.Spawn("p", [&order, i](Process&) { order.push_back(i); });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, ScheduledCallbacksRunAtTheirTime) {
  Engine engine;
  std::vector<double> times;
  engine.ScheduleAt(2.0, [&] { times.push_back(engine.now()); });
  engine.ScheduleAt(1.0, [&] { times.push_back(engine.now()); });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(EngineTest, CallbackCanSpawnProcess) {
  Engine engine;
  double spawned_ran_at = -1;
  engine.ScheduleAt(1.0, [&] {
    engine.Spawn("late", [&](Process& self) {
      ASSERT_TRUE(self.Sleep(1).ok());
      spawned_ran_at = self.Now();
    });
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(spawned_ran_at, 2.0);
}

TEST(EngineTest, NestedSpawnFromProcess) {
  Engine engine;
  double child_done = -1;
  engine.Spawn("parent", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(1).ok());
    engine.Spawn("child", [&](Process& inner) {
      ASSERT_TRUE(inner.Sleep(2).ok());
      child_done = inner.Now();
    });
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(child_done, 3.0);
}

TEST(EngineTest, KillMakesSleepReturnCancelled) {
  Engine engine;
  Status observed;
  auto victim = engine.Spawn("victim", [&](Process& self) {
    observed = self.Sleep(100);
  });
  engine.ScheduleAt(5.0, [&] { engine.Kill(*victim); });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(observed.code(), StatusCode::kCancelled);
  // Killed at t=5, long before the sleep deadline.
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(EngineTest, KilledProcessFailsFutureBlockingCalls) {
  Engine engine;
  auto victim = engine.Spawn("victim", [&](Process& self) {
    EXPECT_EQ(self.Sleep(10).code(), StatusCode::kCancelled);
    EXPECT_EQ(self.Sleep(1).code(), StatusCode::kCancelled);
    EXPECT_EQ(self.CheckAlive().code(), StatusCode::kCancelled);
  });
  engine.ScheduleAt(1.0, [&] { engine.Kill(*victim); });
  ASSERT_TRUE(engine.Run().ok());
}

TEST(EngineTest, DeadlockIsDiagnosed) {
  Engine engine;
  Condition never(&engine);
  auto blocked = engine.Spawn("stuck", [&](Process& self) {
    // Nobody ever notifies; the run must report a deadlock rather than
    // hang. The engine destructor then kills the process.
    Status s = never.Wait(self);
    EXPECT_EQ(s.code(), StatusCode::kCancelled);
  });
  Status status = engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("stuck"), std::string::npos);
}

TEST(EngineTest, StepLimitAborts) {
  Engine engine;
  engine.set_max_steps(100);
  engine.Spawn("spinner", [&](Process& self) {
    while (self.Sleep(1).ok()) {
    }
  });
  Status status = engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(InstantEndTest, RunsAfterEveryEventOfTheInstant) {
  Engine engine;
  std::vector<std::string> log;
  engine.ScheduleAt(1.0, [&] {
    log.push_back("first");
    engine.AtInstantEnd([&] { log.push_back(StrCat("hook@", engine.now())); });
    // Pushed during the instant, so still part of it.
    engine.ScheduleAt(1.0, [&] { log.push_back("pushed"); });
  });
  engine.ScheduleAt(1.0, [&] { log.push_back("second"); });
  engine.Spawn("late", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(1.0).ok());
    log.push_back("process");
    ASSERT_TRUE(self.Sleep(0).ok());  // a yield stays in the instant
    log.push_back("yielded");
  });
  engine.ScheduleAt(2.0, [&] { log.push_back("next instant"); });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(log, (std::vector<std::string>{"first", "second", "process",
                                           "pushed", "yielded", "hook@1",
                                           "next instant"}));
}

TEST(InstantEndTest, EventsTheHookSchedulesNowRunAfterIt) {
  Engine engine;
  std::vector<std::string> log;
  engine.ScheduleAt(1.0, [&] {
    engine.AtInstantEnd([&] {
      log.push_back("hook");
      engine.ScheduleAt(engine.now(), [&] {
        log.push_back("scheduled by hook");
        engine.AtInstantEnd([&] { log.push_back("second hook"); });
      });
    });
  });
  engine.ScheduleAt(2.0, [&] { log.push_back("next instant"); });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(log, (std::vector<std::string>{"hook", "scheduled by hook",
                                           "second hook", "next instant"}));
  EXPECT_EQ(engine.steps(), 3u);  // hooks are not events
}

TEST(InstantEndTest, SkippedEventsDoNotEndTheInstantEarly) {
  Engine engine;
  std::vector<std::string> log;
  auto hook = [&] { log.push_back(StrCat("hook@", engine.now())); };
  // A cancelled event heads the heap at t=0, ahead of a live one.
  Engine::TimerToken token =
      engine.ScheduleCancelableAt(0.0, [&] { log.push_back("cancelled"); });
  engine.ScheduleAt(0.0, [&] { log.push_back("live@0"); });
  *token = true;
  engine.AtInstantEnd(hook);
  // A killed sleeper leaves its superseded wake at t=3 as a stale event.
  auto sleeper = engine.Spawn("sleeper", [&](Process& self) {
    EXPECT_FALSE(self.Sleep(3.0).ok());
    log.push_back(StrCat("killed@", self.Now()));
  });
  engine.ScheduleAt(1.0, [&] {
    engine.Kill(*sleeper);
    engine.AtInstantEnd(hook);
  });
  // Only the stale wake and a cancelled timer lie beyond t=2.
  Engine::TimerToken late =
      engine.ScheduleCancelableAt(5.0, [&] { log.push_back("late"); });
  engine.ScheduleAt(2.0, [&] {
    *late = true;
    engine.AtInstantEnd(hook);
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(log, (std::vector<std::string>{"live@0", "hook@0", "killed@1",
                                           "hook@1", "hook@2"}));
  EXPECT_EQ(engine.now(), 2.0);
}

TEST(InstantEndTest, PendingHookKeepsTheRunGoing) {
  Engine engine;
  Condition cond(&engine);
  bool ready = false;
  bool hook_ran = false;
  double woke_at = -1;
  // Registered before Run: runs once t=0's events have.
  engine.AtInstantEnd([&] { hook_ran = true; });
  engine.Spawn("waiter", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(1.0).ok());
    ASSERT_TRUE(cond.WaitUntil(self, [&] { return ready; }).ok());
    woke_at = self.Now();
  });
  engine.ScheduleAt(1.0, [&] {
    // When the instant ends the heap is empty and the waiter blocked;
    // only the hook can wake it.
    engine.AtInstantEnd([&] {
      ready = true;
      cond.NotifyAll();
    });
  });
  Status status = engine.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(hook_ran);
  EXPECT_EQ(woke_at, 1.0);
}

TEST(InstantEndTest, StepLimitDiagnosticsIgnoreHooks) {
  auto run = [](bool with_hooks) {
    Engine engine;
    engine.set_max_steps(100);
    int hooks = 0;
    engine.Spawn("spinner", [&](Process& self) {
      do {
        if (with_hooks) engine.AtInstantEnd([&] { ++hooks; });
      } while (self.Sleep(1).ok());
    });
    Status status = engine.Run();
    EXPECT_EQ(hooks, with_hooks ? 100 : 0);  // t=0..99
    return StrCat(status.ToString(), " steps=", engine.steps());
  };
  std::string plain = run(false);
  EXPECT_NE(plain.find("simulation exceeded 100 events at t=99; 1 live "
                       "processes: spinner (runaway loop?)"),
            std::string::npos)
      << plain;
  EXPECT_EQ(run(true), plain);
}

TEST(ConditionTest, NotifyAllWakesEveryWaiter) {
  Engine engine;
  Condition cond(&engine);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn("waiter", [&](Process& self) {
      ASSERT_TRUE(cond.Wait(self).ok());
      ++woke;
    });
  }
  engine.Spawn("notifier", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(1).ok());
    cond.NotifyAll();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(woke, 3);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

TEST(ConditionTest, NotifyOneWakesOldestWaiter) {
  Engine engine;
  Condition cond(&engine);
  std::vector<int> woke;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn("waiter", [&cond, &woke, i](Process& self) {
      ASSERT_TRUE(cond.Wait(self).ok());
      woke.push_back(i);
    });
  }
  engine.Spawn("notifier", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(self.Sleep(1).ok());
      cond.NotifyOne();
    }
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
}

TEST(ConditionTest, WaitUntilChecksPredicate) {
  Engine engine;
  Condition cond(&engine);
  int value = 0;
  double resumed_at = -1;
  engine.Spawn("consumer", [&](Process& self) {
    ASSERT_TRUE(cond.WaitUntil(self, [&] { return value >= 3; }).ok());
    resumed_at = self.Now();
  });
  engine.Spawn("producer", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(self.Sleep(1).ok());
      ++value;
      cond.NotifyAll();
    }
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(resumed_at, 3.0);
}

TEST(MutexTest, ProvidesMutualExclusion) {
  Engine engine;
  Mutex mutex(&engine);
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 4; ++i) {
    engine.Spawn("worker", [&](Process& self) {
      ASSERT_TRUE(mutex.Lock(self).ok());
      ++in_critical;
      max_in_critical = std::max(max_in_critical, in_critical);
      ASSERT_TRUE(self.Sleep(1).ok());
      --in_critical;
      mutex.Unlock();
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);  // serialized critical sections
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Engine engine;
  Semaphore sem(&engine, 2);
  int active = 0;
  int max_active = 0;
  for (int i = 0; i < 6; ++i) {
    engine.Spawn("worker", [&](Process& self) {
      ASSERT_TRUE(sem.Acquire(self).ok());
      ++active;
      max_active = std::max(max_active, active);
      ASSERT_TRUE(self.Sleep(1).ok());
      --active;
      sem.Release();
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(max_active, 2);
  // 6 unit jobs, 2 at a time => 3 virtual seconds.
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(SemaphoreTest, TryAcquireDoesNotBlock) {
  Engine engine;
  Semaphore sem(&engine, 1);
  engine.Spawn("p", [&](Process&) {
    EXPECT_TRUE(sem.TryAcquire());
    EXPECT_FALSE(sem.TryAcquire());
    sem.Release();
    EXPECT_TRUE(sem.TryAcquire());
    sem.Release();
  });
  ASSERT_TRUE(engine.Run().ok());
}

TEST(LatchTest, AwaitBlocksUntilZero) {
  Engine engine;
  Latch latch(&engine, 3);
  double released_at = -1;
  engine.Spawn("joiner", [&](Process& self) {
    ASSERT_TRUE(latch.Await(self).ok());
    released_at = self.Now();
  });
  for (int i = 1; i <= 3; ++i) {
    engine.Spawn("worker", [&latch, i](Process& self) {
      ASSERT_TRUE(self.Sleep(i).ok());
      latch.CountDown();
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(released_at, 3.0);
}

// Property sweep: a fork/join fleet of N sleepers always finishes at the
// max sleep, independent of N (scheduling is work-conserving and wakes are
// not lost).
class FleetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FleetPropertyTest, ForkJoinFinishesAtMax) {
  const int n = GetParam();
  Engine engine;
  Latch latch(&engine, n);
  for (int i = 1; i <= n; ++i) {
    engine.Spawn("w", [&latch, i](Process& self) {
      ASSERT_TRUE(self.Sleep(i * 0.5).ok());
      latch.CountDown();
    });
  }
  double done_at = -1;
  engine.Spawn("join", [&](Process& self) {
    ASSERT_TRUE(latch.Await(self).ok());
    done_at = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(done_at, n * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FleetPropertyTest,
                         ::testing::Values(1, 2, 8, 32, 100));

// ------------------------------------------------------------ fiber stacks

// Recurses `depth` frames of over 1 KiB each and sleeps at the bottom, so
// the deep stack stays suspended while other processes run on theirs.
// Clears *intact if a frame's contents did not survive the switch.
// Returns the lowest frame address reached.
[[gnu::noinline]] uintptr_t RecurseAndSleep(Process& self, int depth,
                                            bool* intact) {
  volatile char frame[1024];
  const char mark = static_cast<char>(depth);
  frame[depth % sizeof(frame)] = mark;
  auto lowest = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  if (depth == 0) {
    if (!self.Sleep(1).ok()) *intact = false;
  } else {
    lowest = RecurseAndSleep(self, depth - 1, intact);
  }
  if (frame[depth % sizeof(frame)] != mark) *intact = false;
  return lowest;
}

TEST(FiberTest, ProcessRecursesThroughFourMiBOfStack) {
  Engine engine;
  std::vector<uintptr_t> depths;
  bool intact = true;
  for (int i = 0; i < 2; ++i) {
    engine.Spawn("deep", [&](Process& self) {
      auto top = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
      uintptr_t lowest = RecurseAndSleep(self, 4500, &intact);
      depths.push_back(top - lowest);
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_TRUE(intact);
  ASSERT_EQ(depths.size(), 2u);
  for (uintptr_t depth : depths) EXPECT_GE(depth, uintptr_t{4} << 20);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

// Throws from `depth` frames down. ASan unpoisons the frames a throw
// unwinds only on the stack it believes is current, so this fails
// sanitized builds unless every switch is announced to it.
[[gnu::noinline]] int ThrowFrom(int depth) {
  volatile char frame[256];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) throw std::runtime_error("bottom");
  return ThrowFrom(depth - 1) + frame[0];
}

TEST(FiberTest, ExceptionsUnwindInsideProcesses) {
  Engine engine;
  int caught = 0;
  bool intact = true;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn("thrower", [&](Process& self) {
      for (int round = 0; round < 3; ++round) {
        try {
          ThrowFrom(40);
        } catch (const std::runtime_error&) {
          ++caught;
        }
        // Fresh frames over the unwound region, across a switch.
        RecurseAndSleep(self, 30, &intact);
      }
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(caught, 9);
  EXPECT_TRUE(intact);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

// Every frame one _Unwind_Backtrace reports, innermost first.
struct StackWalk {
  static constexpr size_t kMaxFrames = 64;
  std::vector<uintptr_t> pcs;
  std::vector<uintptr_t> cfas;
  _Unwind_Reason_Code code = _URC_NO_REASON;
};

_Unwind_Reason_Code RecordFrame(_Unwind_Context* context, void* arg) {
  auto* walk = static_cast<StackWalk*>(arg);
  int before_insn = 0;
  const uintptr_t pc = _Unwind_GetIPInfo(context, &before_insn);
  // libgcc reports the end of the stack as one last frame with pc 0.
  if (pc == 0) return _URC_NO_REASON;
  walk->pcs.push_back(pc);
  walk->cfas.push_back(_Unwind_GetCFA(context));
  // A walk that ran off the fiber stack could go on indefinitely.
  return walk->pcs.size() < StackWalk::kMaxFrames ? _URC_NO_REASON
                                                  : _URC_NORMAL_STOP;
}

// Walks the stack from `depth` frames below the caller.
[[gnu::noinline]] void WalkFrom(int depth, StackWalk* walk) {
  if (depth == 0) {
    walk->code = _Unwind_Backtrace(&RecordFrame, walk);
  } else {
    WalkFrom(depth - 1, walk);
  }
  asm volatile("");  // keeps the recursion from becoming a tail call
}

// The bytes of one process stack (engine.cc's kStackSize).
constexpr uintptr_t kProcessStackBytes = uintptr_t{8} << 20;

TEST(FiberTest, StackWalksEndAtTheFiberEntryFrame) {
  Engine engine;
  std::vector<StackWalk> walks;
  std::vector<uintptr_t> bodies;  // a frame address inside each body
  for (int i = 0; i < 3; ++i) {
    engine.Spawn("walker", [&, i](Process& self) {
      // On a fresh stack, and again after switching away and back.
      for (int round = 0; round < 2; ++round) {
        bodies.push_back(
            reinterpret_cast<uintptr_t>(__builtin_frame_address(0)));
        walks.emplace_back();
        WalkFrom(3 + i, &walks.back());
        ASSERT_TRUE(self.Sleep(1).ok());
      }
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_EQ(walks.size(), 6u);
  for (size_t w = 0; w < walks.size(); ++w) {
    const StackWalk& walk = walks[w];
    SCOPED_TRACE(StrCat("walk ", w));
    EXPECT_EQ(walk.code, _URC_END_OF_STACK);
    ASSERT_GE(walk.pcs.size(), 3u);
    EXPECT_LT(walk.pcs.size(), StackWalk::kMaxFrames);
    // Every frame lies on the walking process's own stack: the innermost
    // one below the body's frame, each caller above its callee, and all
    // within one stack's span.
    EXPECT_LT(bodies[w] - walk.cfas.front(), kProcessStackBytes);
    for (size_t f = 1; f < walk.cfas.size(); ++f) {
      EXPECT_GT(walk.cfas[f], walk.cfas[f - 1]) << f;
      EXPECT_LT(walk.cfas[f] - walk.cfas.front(), kProcessStackBytes) << f;
    }
  }
}

// 1/3 computed at run time under the current rounding mode.
[[gnu::noinline]] double Third() {
  volatile double one = 1;
  volatile double three = 3;
  return one / three;
}

TEST(FiberTest, RoundingModeIsPerProcess) {
  ASSERT_EQ(fegetround(), FE_TONEAREST);
  const double nearest_third = Third();
  Engine engine;
  std::vector<std::string> seen;
  auto record = [&](const Process& self) {
    seen.push_back(StrCat(self.name(), "@", self.Now(), " ",
                          fegetround() == FE_UPWARD ? "upward" : "",
                          fegetround() == FE_TONEAREST ? "nearest" : "",
                          Third() > nearest_third ? " rounds up" : ""));
  };
  engine.Spawn("a", [&](Process& self) {
    ASSERT_EQ(fesetround(FE_UPWARD), 0);
    record(self);
    ASSERT_TRUE(self.Sleep(1).ok());
    record(self);
  });
  engine.Spawn("b", [&](Process& self) {
    record(self);
    ASSERT_TRUE(self.Sleep(0.5).ok());
    record(self);
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "a@0 upward rounds up", "b@0 nearest",
                      "b@0.5 nearest", "a@1 upward rounds up"}));
  // The engine's own state came back with its final switch.
  EXPECT_EQ(fegetround(), FE_TONEAREST);
}

#ifdef __SSE__
// DBL_MIN / 2 computed at run time: subnormal, or zero under MXCSR
// flush-to-zero.
[[gnu::noinline]] double HalfOfSmallestNormal() {
  volatile double smallest = DBL_MIN;
  volatile double half = 0.5;
  return smallest * half;
}

TEST(FiberTest, FlushToZeroIsPerProcess) {
  ASSERT_EQ(_MM_GET_FLUSH_ZERO_MODE(), _MM_FLUSH_ZERO_OFF);
  Engine engine;
  std::vector<std::string> seen;
  auto record = [&](const Process& self) {
    seen.push_back(StrCat(
        self.name(), "@", self.Now(), " ",
        _MM_GET_FLUSH_ZERO_MODE() == _MM_FLUSH_ZERO_ON ? "ftz" : "no-ftz",
        HalfOfSmallestNormal() == 0 ? " flushed" : ""));
  };
  engine.Spawn("a", [&](Process& self) {
    _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);
    record(self);
    ASSERT_TRUE(self.Sleep(1).ok());
    record(self);
  });
  engine.Spawn("b", [&](Process& self) {
    record(self);
    ASSERT_TRUE(self.Sleep(0.5).ok());
    record(self);
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"a@0 ftz flushed", "b@0 no-ftz",
                                            "b@0.5 no-ftz",
                                            "a@1 ftz flushed"}));
  EXPECT_EQ(_MM_GET_FLUSH_ZERO_MODE(), _MM_FLUSH_ZERO_OFF);
}
#endif

TEST(FiberTest, TwentyThousandWaitersOnOneCondition) {
  constexpr int kWaiters = 20'000;
  Engine engine;
  Condition cond(&engine);
  int released = 0;
  for (int i = 0; i < kWaiters; ++i) {
    engine.Spawn("waiter", [&](Process& self) {
      if (cond.Wait(self).ok()) ++released;
    });
  }
  int parked = -1;
  engine.Spawn("releaser", [&](Process& self) {
    ASSERT_TRUE(self.Sleep(1).ok());
    parked = cond.num_waiters();
    cond.NotifyAll();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(parked, kWaiters);
  EXPECT_EQ(released, kWaiters);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

// A deterministic mix of semaphores, conditions, sleeps and a kill; the
// log records every completion with its virtual time.
std::vector<std::string> RunMixedWorkload(int seed) {
  Engine engine;
  Semaphore slots(&engine, 3);
  Condition progress(&engine);
  std::vector<std::string> log;
  std::vector<ProcessHandle> workers;
  int finished = 0;
  for (int i = 0; i < 60; ++i) {
    workers.push_back(engine.Spawn(StrCat("w", i), [&, i](Process& self) {
      for (int round = 0; round < 20; ++round) {
        if (!slots.Acquire(self).ok()) break;
        Status slept = self.Sleep(((i * seed + round) % 7) * 0.125);
        slots.Release();
        if (!slept.ok()) break;
      }
      log.push_back(StrCat(self.name(), "@", self.Now(),
                           self.killed() ? " killed" : ""));
      ++finished;
      progress.NotifyAll();
    }));
  }
  engine.ScheduleAt(2.0, [&] { engine.Kill(*workers[seed % 60]); });
  engine.Spawn("watcher", [&](Process& self) {
    Status status = progress.WaitUntil(self, [&] { return finished == 60; });
    log.push_back(StrCat("all done@", self.Now(), status.ok() ? "" : " !"));
  });
  Status status = engine.Run();
  log.push_back(StrCat("run ", status.ok() ? "ok" : status.ToString(), " t=",
                       engine.now(), " steps=", engine.steps()));
  return log;
}

TEST(FiberTest, EnginesOnTwoHostThreadsStayIndependent) {
  const std::vector<std::string> expected_a = RunMixedWorkload(3);
  const std::vector<std::string> expected_b = RunMixedWorkload(5);
  ASSERT_EQ(expected_a.back().rfind("run ok", 0), 0u) << expected_a.back();
  ASSERT_NE(expected_a, expected_b);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::string> a;
    std::vector<std::string> b;
    std::thread thread_a([&] { a = RunMixedWorkload(3); });
    std::thread thread_b([&] { b = RunMixedWorkload(5); });
    thread_a.join();
    thread_b.join();
    EXPECT_EQ(a, expected_a);
    EXPECT_EQ(b, expected_b);
  }
}

TEST(FiberTest, ProcessHandleOutlivesEngine) {
  ProcessHandle finished;
  ProcessHandle abandoned;
  {
    Engine engine;
    finished = engine.Spawn("finished", [](Process& self) {
      ASSERT_TRUE(self.Sleep(1).ok());
    });
    ASSERT_TRUE(engine.Run().ok());
    abandoned = engine.Spawn("abandoned", [](Process& self) {
      EXPECT_EQ(self.Sleep(1).code(), StatusCode::kCancelled);
    });
  }
  // The engine is gone; the handles still answer, and dropping them must
  // not reach back into it.
  EXPECT_TRUE(finished->done());
  EXPECT_FALSE(finished->killed());
  EXPECT_TRUE(abandoned->done());
  EXPECT_TRUE(abandoned->killed());
  EXPECT_EQ(abandoned->name(), "abandoned");
  finished.reset();
  abandoned.reset();
}

TEST(FiberTest, DestroyingEngineDrainsBlockedSleepingAndUnstarted) {
  std::vector<std::string> outcomes;
  auto record = [&outcomes](Process& self, const Status& status) {
    outcomes.push_back(StrCat(self.name(), status.ok() ? " ok" : " cancelled",
                              "@", self.Now()));
  };
  {
    Engine engine;
    Condition never(&engine);
    engine.Spawn("blocked",
                 [&](Process& self) { record(self, never.Wait(self)); });
    engine.Spawn("sleeping",
                 [&](Process& self) { record(self, self.Sleep(1000)); });
    // Two steps start both processes; the third (the sleeper's wake)
    // trips the limit, leaving one blocked and one sleeping.
    engine.set_max_steps(2);
    EXPECT_EQ(engine.Run().code(), StatusCode::kInternal);
    engine.Spawn("unstarted",
                 [&](Process& self) { record(self, self.CheckAlive()); });
    EXPECT_TRUE(outcomes.empty());
  }
  EXPECT_EQ(outcomes, (std::vector<std::string>{"unstarted cancelled@0",
                                                "blocked cancelled@0",
                                                "sleeping cancelled@1000"}));
}

}  // namespace
}  // namespace fabric::sim
