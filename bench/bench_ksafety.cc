// K-safety: recovery time and degraded-mode throughput. Not a paper
// figure — the paper's production clusters run k=1 (Section 4.1), and
// this bench characterizes what that buys: how long a restarted node
// takes to catch up as a function of how much data was written while it
// was down, and what a node loss costs a V2S load served from buddies.

#include "bench/bench_common.h"

#include "vertica/ksafety/ksafety.h"

namespace {

fabric::storage::Schema ScoreSchema() {
  return fabric::storage::Schema(
      {{"id", fabric::storage::DataType::kInt64},
       {"score", fabric::storage::DataType::kFloat64}});
}

std::vector<fabric::storage::Row> ScoreRows(int n) {
  std::vector<fabric::storage::Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back({fabric::storage::Value::Int64(i),
                    fabric::storage::Value::Float64(i * 0.5)});
  }
  return rows;
}

}  // namespace

int main() {
  using namespace fabric;
  using namespace fabric::bench;

  PrintHeader("K-safety: recovery catch-up and degraded loads",
              "k=1 buddy segments; recovery pulls the missed delta "
              "from the buddies");

  BenchReport report("ksafety");

  // --- recovery time vs. data written while the node was down ---------
  std::printf("%-18s %14s %16s\n", "rows while down", "recovery (s)",
              "recovery bytes");
  for (int rows_while_down : {0, 2000, 5000, 10000}) {
    FabricOptions options;
    Fabric fabric(options);
    SaveViaS2V(fabric, ScoreSchema(), ScoreRows(5000), "t", 16);

    double recovery_seconds = -1;
    fabric.RunTimed([&](sim::Process& driver) {
      FABRIC_CHECK_OK(fabric.db()->KillNode(1));
      auto session = fabric.db()->Connect(driver, 0, nullptr);
      FABRIC_CHECK_OK(session.status());
      constexpr int kBatch = 500;
      for (int base = 0; base < rows_while_down; base += kBatch) {
        std::string values;
        for (int i = 0; i < kBatch; ++i) {
          values += StrCat(i ? ", " : "", "(", 100000 + base + i, ", ",
                           (base + i) % 10, ".25)");
        }
        FABRIC_CHECK_OK(
            (*session)
                ->Execute(driver, StrCat("INSERT INTO t VALUES ", values))
                .status());
      }
      FABRIC_CHECK_OK((*session)->Close(driver));
      double start = driver.Now();
      FABRIC_CHECK_OK(fabric.db()->RestartNode(1));
      FABRIC_CHECK_OK(fabric.db()->WaitForNodeState(
          driver, 1, vertica::NodeState::kUp));
      recovery_seconds = driver.Now() - start;
    });
    double bytes =
        fabric.tracer()->metrics().counter("ksafety.recovery_bytes");
    std::printf("%-18d %14.3f %16.0f\n", rows_while_down,
                recovery_seconds, bytes);
    report.AddSample(fabric,
                     {{"rows_while_down",
                       static_cast<double>(rows_while_down)},
                      {"recovery_seconds", recovery_seconds},
                      {"recovery_bytes", bytes}});
  }

  // --- V2S load: healthy vs. degraded (one node down) -----------------
  std::printf("\n%-18s %14s\n", "cluster", "V2S load (s)");
  double healthy = 0, degraded = 0;
  {
    FabricOptions options;
    Fabric fabric(options);
    SaveViaS2V(fabric, ScoreSchema(), ScoreRows(10000), "t", 16);
    healthy = LoadViaV2S(fabric, "t", 16);
    std::printf("%-18s %14.2f\n", "4/4 nodes up", healthy);
    report.AddSample(fabric, {{"nodes_up", 4}, {"load_seconds", healthy}});
  }
  {
    FabricOptions options;
    Fabric fabric(options);
    SaveViaS2V(fabric, ScoreSchema(), ScoreRows(10000), "t", 16);
    fabric.RunTimed([&](sim::Process&) {
      FABRIC_CHECK_OK(fabric.db()->KillNode(2));
    });
    degraded = LoadViaV2S(fabric, "t", 16);
    std::printf("%-18s %14.2f\n", "3/4 nodes up", degraded);
    report.AddSample(fabric,
                     {{"nodes_up", 3},
                      {"load_seconds", degraded},
                      {"scan_reroutes",
                       fabric.tracer()->metrics().counter(
                           "ksafety.scan_reroutes")}});
  }
  std::printf("\ndegraded/healthy load time = %.2fx\n",
              degraded / healthy);
  return 0;
}
