#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/waitable.h"

namespace fabric::net {
namespace {

TEST(NetworkTest, SingleFlowUsesFullCapacity) {
  sim::Engine engine;
  Network network(&engine);
  LinkId link = network.AddLink("nic", 100.0);  // 100 B/s
  double finished_at = -1;
  engine.Spawn("sender", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {link}, 500.0).ok());
    finished_at = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(finished_at, 5.0);
  EXPECT_DOUBLE_EQ(network.LinkBytesCarried(link), 500.0);
}

TEST(NetworkTest, TwoFlowsShareFairly) {
  sim::Engine engine;
  Network network(&engine);
  LinkId link = network.AddLink("nic", 100.0);
  std::vector<double> finish(2, -1);
  for (int i = 0; i < 2; ++i) {
    engine.Spawn("sender", [&network, &finish, link, i](sim::Process& self) {
      ASSERT_TRUE(network.Transfer(self, {link}, 500.0).ok());
      finish[i] = self.Now();
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  // Each gets 50 B/s for 500 B => both done at t=10.
  EXPECT_DOUBLE_EQ(finish[0], 10.0);
  EXPECT_DOUBLE_EQ(finish[1], 10.0);
}

TEST(NetworkTest, ShortFlowFreesBandwidthForLongFlow) {
  sim::Engine engine;
  Network network(&engine);
  LinkId link = network.AddLink("nic", 100.0);
  double long_done = -1, short_done = -1;
  engine.Spawn("long", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {link}, 1000.0).ok());
    long_done = self.Now();
  });
  engine.Spawn("short", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {link}, 100.0).ok());
    short_done = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  // Shared at 50/50 until the short flow finishes (t=2, 100B), then the
  // long flow runs at 100 B/s for its remaining 900 B: 2 + 9 = 11.
  EXPECT_DOUBLE_EQ(short_done, 2.0);
  EXPECT_DOUBLE_EQ(long_done, 11.0);
}

TEST(NetworkTest, RateCapLimitsASingleFlow) {
  sim::Engine engine;
  Network network(&engine);
  LinkId link = network.AddLink("nic", 100.0);
  double done = -1;
  engine.Spawn("capped", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {link}, 100.0, /*rate_cap=*/20.0).ok());
    done = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST(NetworkTest, CappedFlowsLeaveHeadroomToOthers) {
  sim::Engine engine;
  Network network(&engine);
  LinkId link = network.AddLink("nic", 100.0);
  double capped_done = -1, open_done = -1;
  engine.Spawn("capped", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {link}, 200.0, 20.0).ok());
    capped_done = self.Now();
  });
  engine.Spawn("open", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {link}, 400.0).ok());
    open_done = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  // Capped flow: 20 B/s for 200 B => 10 s. Open flow gets 80 B/s while the
  // capped flow is active: 400 B at 80 B/s => 5 s.
  EXPECT_DOUBLE_EQ(open_done, 5.0);
  EXPECT_DOUBLE_EQ(capped_done, 10.0);
}

TEST(NetworkTest, MultiLinkPathTakesMinimumShare) {
  sim::Engine engine;
  Network network(&engine);
  LinkId fast = network.AddLink("fast", 100.0);
  LinkId slow = network.AddLink("slow", 10.0);
  double done = -1;
  engine.Spawn("sender", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {fast, slow}, 100.0).ok());
    done = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(done, 10.0);
}

TEST(NetworkTest, CrossTrafficCongestsSharedLink) {
  // Two flows share an ingress link but have distinct egress links: the
  // ingress is the bottleneck and both flows halve.
  sim::Engine engine;
  Network network(&engine);
  LinkId egress_a = network.AddLink("egress_a", 100.0);
  LinkId egress_b = network.AddLink("egress_b", 100.0);
  LinkId ingress = network.AddLink("ingress", 100.0);
  std::vector<double> finish(2, -1);
  engine.Spawn("a", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {egress_a, ingress}, 300.0).ok());
    finish[0] = self.Now();
  });
  engine.Spawn("b", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {egress_b, ingress}, 300.0).ok());
    finish[1] = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(finish[0], 6.0);
  EXPECT_DOUBLE_EQ(finish[1], 6.0);
}

TEST(NetworkTest, ZeroByteTransferIsInstant) {
  sim::Engine engine;
  Network network(&engine);
  LinkId link = network.AddLink("nic", 100.0);
  engine.Spawn("sender", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {link}, 0.0).ok());
    EXPECT_DOUBLE_EQ(self.Now(), 0.0);
  });
  ASSERT_TRUE(engine.Run().ok());
}

TEST(NetworkTest, KilledSenderTearsDownFlow) {
  sim::Engine engine;
  Network network(&engine);
  LinkId link = network.AddLink("nic", 100.0);
  Status observed;
  double other_done = -1;
  auto victim = engine.Spawn("victim", [&](sim::Process& self) {
    observed = network.Transfer(self, {link}, 10000.0);
  });
  engine.Spawn("survivor", [&](sim::Process& self) {
    ASSERT_TRUE(network.Transfer(self, {link}, 500.0).ok());
    other_done = self.Now();
  });
  engine.ScheduleAt(2.0, [&] { engine.Kill(*victim); });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(observed.code(), StatusCode::kCancelled);
  // Survivor: 50 B/s for 2 s (100 B), then full 100 B/s for remaining
  // 400 B => 2 + 4 = 6 s.
  EXPECT_DOUBLE_EQ(other_done, 6.0);
  EXPECT_EQ(network.num_active_flows(), 0);
}

TEST(NetworkTest, LinkTelemetryTracksRateAndFlows) {
  sim::Engine engine;
  Network network(&engine);
  LinkId link = network.AddLink("nic", 100.0);
  double mid_rate = -1;
  int mid_flows = -1;
  for (int i = 0; i < 4; ++i) {
    engine.Spawn("sender", [&network, link](sim::Process& self) {
      ASSERT_TRUE(network.Transfer(self, {link}, 400.0).ok());
    });
  }
  engine.ScheduleAt(1.0, [&] {
    mid_rate = network.LinkCurrentRate(link);
    mid_flows = network.LinkActiveFlows(link);
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DOUBLE_EQ(mid_rate, 100.0);  // saturated
  EXPECT_EQ(mid_flows, 4);
  EXPECT_DOUBLE_EQ(network.LinkBytesCarried(link), 1600.0);
}

// Five flows start at one instant on two shared links, each also through
// a private link whose rate is that flow's. Lazily, the arrivals cost one
// filling; with `eager`, a flusher process reads LinkCurrentRate after
// each arrival, which re-rates every time as the network used to.
struct SameInstantRun {
  uint64_t fillings_at_start = 0;  // before any read, as t=0 ends
  uint64_t fillings_mid = 0;      // at t=0.5, before any completion
  double recomputes = 0;          // net.recomputes, whole run
  std::vector<double> read_at_start;  // same-instant LinkCurrentRate
  std::vector<double> read_mid;
  std::vector<double> finish;
};

SameInstantRun RunSameInstantArrivals(bool eager) {
  sim::Engine engine;
  Network network(&engine);
  obs::Tracer tracer([&engine] { return engine.now(); },
                     {.capture_events = false});
  obs::ScopedTracer scope(&tracer);
  LinkId a = network.AddLink("a", 100.0);
  LinkId b = network.AddLink("b", 50.0);
  const std::vector<std::vector<LinkId>> shared = {{a}, {a, b}, {b}, {a}, {a}};
  const std::vector<double> caps = {10.0, kUnlimitedRate, kUnlimitedRate,
                                    kUnlimitedRate, kUnlimitedRate};
  const int flows = static_cast<int>(shared.size());
  std::vector<LinkId> own;
  for (int f = 0; f < flows; ++f) own.push_back(network.AddLink("own", 1e3));
  auto read_rates = [&network, &own] {
    std::vector<double> rates;
    for (LinkId id : own) rates.push_back(network.LinkCurrentRate(id));
    return rates;
  };
  SameInstantRun run;
  run.finish.assign(flows, -1);
  for (int f = 0; f < flows; ++f) {
    std::vector<LinkId> path = shared[f];
    path.push_back(own[f]);
    engine.Spawn("flow", [&, path, f](sim::Process& self) {
      ASSERT_TRUE(network.Transfer(self, path, 100.0 * (f + 1), caps[f]).ok());
      run.finish[f] = self.Now();
    });
    if (eager) {
      engine.Spawn("flusher", [&](sim::Process&) { (void)read_rates(); });
    }
  }
  engine.Spawn("reader", [&](sim::Process&) {
    run.fillings_at_start = network.num_fillings();
    run.read_at_start = read_rates();
  });
  engine.ScheduleAt(0.5, [&] {
    run.fillings_mid = network.num_fillings();
    run.read_mid = read_rates();
  });
  EXPECT_TRUE(engine.Run().ok());
  run.recomputes = tracer.metrics().counter("net.recomputes");
  return run;
}

TEST(NetworkTest, SameInstantArrivalsShareOneFilling) {
  SameInstantRun lazy = RunSameInstantArrivals(false);
  SameInstantRun eager = RunSameInstantArrivals(true);
  // Round 1 freezes the capped flow at 10, round 2 the two flows on b at
  // 25, round 3 the rest of a's 65 at 32.5 each.
  const std::vector<double> expected = {10.0, 25.0, 25.0, 32.5, 32.5};
  EXPECT_EQ(lazy.fillings_at_start, 0u);
  EXPECT_EQ(lazy.fillings_mid, 1u);  // the reader's flush; none at t=0's end
  EXPECT_EQ(eager.fillings_mid, 5u);
  EXPECT_EQ(lazy.read_at_start, expected);
  EXPECT_EQ(lazy.read_mid, expected);
  EXPECT_EQ(eager.read_at_start, expected);
  EXPECT_EQ(eager.read_mid, expected);
  EXPECT_EQ(lazy.finish, eager.finish);
  // The counter counts requests, however many fillings they come to:
  // five arrivals and four completion batches (the capped flow and the
  // one alone on b finish together at t=10).
  EXPECT_EQ(lazy.recomputes, 9.0);
  EXPECT_EQ(eager.recomputes, 9.0);
}

TEST(NetworkTest, ArrivalsAtOneInstantRunOneFilling) {
  sim::Engine engine;
  Network network(&engine);
  LinkId link = network.AddLink("nic", 100.0);
  for (int i = 0; i < 8; ++i) {
    engine.Spawn("sender", [&network, link](sim::Process& self) {
      ASSERT_TRUE(network.Transfer(self, {link}, 400.0).ok());
    });
  }
  uint64_t fillings = 0;
  engine.ScheduleAt(1.0, [&] { fillings = network.num_fillings(); });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(fillings, 1u);
  // All eight complete in one timer: one more filling, with no flows.
  EXPECT_EQ(network.num_fillings(), 2u);
  EXPECT_EQ(engine.now(), 32.0);
}

// Property sweep over randomized flow sets: bytes are conserved (sum of
// carried bytes equals sum of flow sizes per traversed link), the link
// never exceeds capacity, and makespan is at least the lower bound
// total_bytes / capacity.
class NetworkPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetworkPropertyTest, ConservationAndCapacity) {
  Rng rng(GetParam());
  sim::Engine engine;
  Network network(&engine);
  LinkId shared = network.AddLink("shared", 100.0);
  std::vector<LinkId> privates;
  for (int i = 0; i < 3; ++i) {
    privates.push_back(network.AddLink("private", 60.0));
  }
  double total_bytes = 0;
  int flows = 2 + static_cast<int>(rng.NextUint64(10));
  for (int i = 0; i < flows; ++i) {
    double bytes = 50.0 + static_cast<double>(rng.NextUint64(1000));
    double start = rng.NextDouble() * 5.0;
    LinkId private_link = privates[rng.NextUint64(privates.size())];
    total_bytes += bytes;
    engine.Spawn("sender", [&network, private_link, shared, bytes, start](
                               sim::Process& self) {
      ASSERT_TRUE(self.Sleep(start).ok());
      ASSERT_TRUE(
          network.Transfer(self, {private_link, shared}, bytes).ok());
    });
  }
  // Sample the shared link rate periodically to check the capacity bound.
  for (int t = 1; t <= 40; ++t) {
    engine.ScheduleAt(t * 0.5, [&network, shared] {
      EXPECT_LE(network.LinkCurrentRate(shared), 100.0 * (1 + 1e-9));
    });
  }
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(network.LinkBytesCarried(shared), total_bytes, 1e-3);
  EXPECT_GE(engine.now(), total_bytes / 100.0 - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace fabric::net
