// Projections: what an extra physical layout buys. A GROUP BY over a
// wide fact table is timed twice — once pinned to the super projection
// (full width, insertion order, hash aggregation) and once through the
// planner's pick, a narrow projection sorted on the grouping key (RLE
// region column, merge-style aggregation). The speedup is the headline
// number. A second experiment kills a node mid-ingest and verifies the
// recovery path converges every projection's buddy copies, fingerprint
// by fingerprint.

#include "bench/bench_common.h"

#include "storage/segment_store.h"

namespace {

using fabric::StrCat;
using fabric::bench::BenchReport;
using fabric::bench::Fabric;
using fabric::bench::FabricOptions;
using fabric::vertica::NodeState;

constexpr int kRealRows = 4000;
constexpr int kQueryReps = 8;

const char* kRegions[] = {"east", "west", "north", "south",
                          "centre", "apac", "emea", "latam"};

void LoadFact(Fabric& fabric) {
  fabric.RunTimed([&](fabric::sim::Process& driver) {
    auto session = fabric.db()->Connect(driver, 0, nullptr);
    FABRIC_CHECK_OK(session.status());
    FABRIC_CHECK_OK((*session)
                        ->Execute(driver,
                                  "CREATE TABLE fact (id INTEGER, "
                                  "region VARCHAR, amount FLOAT, "
                                  "aux1 FLOAT, aux2 FLOAT) "
                                  "SEGMENTED BY HASH(id) ALL NODES")
                        .status());
    fabric::Rng rng(7);
    for (int base = 0; base < kRealRows; base += 100) {
      std::string values;
      for (int i = base; i < base + 100; ++i) {
        values += StrCat(values.empty() ? "" : ", ", "(", i, ", '",
                         kRegions[rng.NextUint64(8)], "', ",
                         rng.NextUint64(97), ".5, ", rng.NextUint64(11),
                         ".25, ", rng.NextUint64(13), ".75)");
      }
      FABRIC_CHECK_OK(
          (*session)
              ->Execute(driver, StrCat("INSERT /*+ DIRECT */ INTO fact "
                                       "VALUES ",
                                       values))
              .status());
    }
    FABRIC_CHECK_OK((*session)->Close(driver));
  });
}

// Times kQueryReps runs of the aggregate with the planner pinned to
// `forced` ("" = super projection, "-" = automatic).
double TimeGroupBy(Fabric& fabric, const std::string& forced) {
  return fabric.RunTimed([&](fabric::sim::Process& driver) {
    auto session = fabric.db()->Connect(driver, 0, nullptr);
    FABRIC_CHECK_OK(session.status());
    if (forced != "-") (*session)->set_forced_projection("fact", forced);
    for (int rep = 0; rep < kQueryReps; ++rep) {
      auto result = (*session)->Execute(
          driver,
          "SELECT region, COUNT(*), SUM(amount) FROM fact "
          "GROUP BY region ORDER BY region");
      FABRIC_CHECK_OK(result.status());
      FABRIC_CHECK(result->rows.size() == 8)
          << "expected 8 groups, got " << result->rows.size();
    }
    FABRIC_CHECK_OK((*session)->Close(driver));
  });
}

// Primary/buddy fingerprint convergence for every copy of `name`'s
// projection storage.
bool ProjectionConverged(Fabric& fabric, const std::string& name) {
  auto set = fabric.db()->GetProjectionStorage(name);
  FABRIC_CHECK_OK(set.status());
  if ((*set)->buddy.empty()) return true;
  for (size_t s = 0; s < (*set)->per_node.size(); ++s) {
    if ((*set)->per_node[s]->ContentFingerprint() !=
        (*set)->buddy[s]->ContentFingerprint()) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  fabric::bench::PrintHeader(
      "projections: sorted narrow layouts vs the super projection",
      "Section 3.1 (projections as Vertica's physical design)");
  BenchReport report("projection");

  // --- GROUP BY: super projection vs sorted projection ----------------
  {
    FabricOptions options;
    options.tuple_mover.enabled = false;
    Fabric fabric(options);
    LoadFact(fabric);
    fabric.RunTimed([&](fabric::sim::Process& driver) {
      auto session = fabric.db()->Connect(driver, 0, nullptr);
      FABRIC_CHECK_OK(session.status());
      FABRIC_CHECK_OK(
          (*session)
              ->Execute(driver,
                        // Sorted on the grouping key, segmented on the
                        // high-cardinality id so the ring stays even (8
                        // regions would skew a HASH(region) ring).
                        "CREATE PROJECTION fact_by_region AS SELECT "
                        "region, amount, id FROM fact ORDER BY region "
                        "SEGMENTED BY HASH(id)")
              .status());
      FABRIC_CHECK_OK((*session)->Close(driver));
    });

    double super_s = TimeGroupBy(fabric, "");
    double proj_s = TimeGroupBy(fabric, "-");  // automatic: the planner
    double scans = fabric.tracer()->metrics().counter(
        "vertica.projection_scans{fact_by_region}");
    FABRIC_CHECK(scans >= kQueryReps)
        << "planner never chose the projection (scans=" << scans << ")";

    std::printf("%-28s %14s\n", "layout", "group-by (s)");
    std::printf("%-28s %14.4f\n", "super projection (hash)",
                super_s / kQueryReps);
    std::printf("%-28s %14.4f\n", "fact_by_region (merge)",
                proj_s / kQueryReps);
    std::printf("\nsorted-projection speedup = %.2fx\n\n",
                super_s / proj_s);
    report.AddSample(fabric,
                     {{"super_group_by_seconds", super_s / kQueryReps},
                      {"projection_group_by_seconds", proj_s / kQueryReps},
                      {"speedup", super_s / proj_s},
                      {"projection_scans", scans}});
  }

  // --- node kill / recovery convergence -------------------------------
  {
    FabricOptions options;
    options.tuple_mover.enabled = false;
    Fabric fabric(options);
    LoadFact(fabric);
    double recovered = fabric.RunTimed([&](fabric::sim::Process& driver) {
      auto session = fabric.db()->Connect(driver, 0, nullptr);
      FABRIC_CHECK_OK(session.status());
      FABRIC_CHECK_OK(
          (*session)
              ->Execute(driver,
                        // Sorted on the grouping key, segmented on the
                        // high-cardinality id so the ring stays even (8
                        // regions would skew a HASH(region) ring).
                        "CREATE PROJECTION fact_by_region AS SELECT "
                        "region, amount, id FROM fact ORDER BY region "
                        "SEGMENTED BY HASH(id)")
              .status());
      FABRIC_CHECK_OK(fabric.db()->KillNode(2));
      // Writes while the node is down: its copies fall behind on the
      // table and on every projection.
      for (int b = 0; b < 10; ++b) {
        std::string values;
        for (int i = 0; i < 50; ++i) {
          int id = 100000 + b * 50 + i;
          values += StrCat(values.empty() ? "" : ", ", "(", id, ", '",
                           kRegions[id % 8], "', 1.5, 2.25, 3.75)");
        }
        FABRIC_CHECK_OK(
            (*session)
                ->Execute(driver,
                          StrCat("INSERT INTO fact VALUES ", values))
                .status());
      }
      FABRIC_CHECK_OK(fabric.db()->RestartNode(2));
      FABRIC_CHECK_OK(
          fabric.db()->WaitForNodeState(driver, 2, NodeState::kUp));
      FABRIC_CHECK_OK((*session)->Close(driver));
    });
    bool converged = ProjectionConverged(fabric, "fact_by_region");
    FABRIC_CHECK(converged)
        << "projection buddy copies diverged after recovery";
    std::printf("node kill + recovery: projection copies converged in "
                "%.3f s (incl. downtime writes)\n",
                recovered);
    report.AddSample(
        fabric,
        {{"recovery_seconds", recovered},
         {"projection_converged", converged ? 1.0 : 0.0},
         {"recoveries",
          fabric.tracer()->metrics().counter("ksafety.recoveries")}});
  }
  return 0;
}
