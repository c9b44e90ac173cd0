// INNER JOIN execution tests: the planned merge join on co-sorted
// projections (strategy choice, co-location, counters, EXPLAIN), byte
// identity between every join strategy and layout combination, the
// per-table forced-projection hint and the forced-join-strategy hook
// (typed errors), virtual-time ordering (merge beats hash on the same
// layouts), workload capture into v_monitor.query_requests, and a
// seeded chaos suite (FABRIC_SEED) asserting byte-identical join answers
// across strategies through random DML and a node kill.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "seed_env.h"

#include "common/random.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "vertica/database.h"
#include "vertica/session.h"

namespace fabric::vertica {
namespace {

using storage::Row;
using storage::Value;

using fabric::testing::PropertySeeds;

std::vector<std::string> Lines(const QueryResult& result) {
  std::vector<std::string> out;
  for (const Row& row : result.rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.is_null() ? "<null>" : v.ToDisplayString();
      line += "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

std::string PlanText(const QueryResult& result) {
  std::string out;
  for (const Row& row : result.rows) {
    out += row[0].varchar_value();
    out += "\n";
  }
  return out;
}

// Session-tweaking hooks applied before a statement runs.
struct SessionHints {
  std::optional<std::string> join_strategy;
  // (table, projection) pairs for set_forced_projection.
  std::vector<std::pair<std::string, std::string>> table_projections;
};

class JoinTest : public ::testing::Test {
 protected:
  JoinTest() { Recreate(); }

  void Recreate() {
    db_.reset();
    network_.reset();
    engine_ = std::make_unique<sim::Engine>();
    network_ = std::make_unique<net::Network>(engine_.get());
    Database::Options vopts;
    vopts.num_nodes = 4;
    db_ = std::make_unique<Database>(engine_.get(), network_.get(), vopts);
  }

  void RunDriver(std::function<void(sim::Process&)> body) {
    engine_->Spawn("driver", std::move(body));
    Status status = engine_->Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  Result<QueryResult> Exec(sim::Process& driver, const std::string& sql,
                           const SessionHints& hints = {}) {
    auto session = db_->Connect(driver, 0, nullptr);
    if (!session.ok()) return session.status();
    (*session)->set_forced_join_strategy(hints.join_strategy);
    for (const auto& [table, projection] : hints.table_projections) {
      (*session)->set_forced_projection(table, projection);
    }
    auto result = (*session)->Execute(driver, sql);
    Status closed = (*session)->Close(driver);
    if (result.ok() && !closed.ok()) return closed;
    return result;
  }

  QueryResult ExecOk(sim::Process& driver, const std::string& sql,
                     const SessionHints& hints = {}) {
    auto result = Exec(driver, sql, hints);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  // fact(id, cust, amount) segmented by id; dim(cust_id, region)
  // segmented by cust_id. A few NULL join keys on each side exercise
  // the NULL-never-joins rule in every strategy.
  void LoadFixture(sim::Process& driver, int fact_rows, int dim_rows) {
    ExecOk(driver,
           "CREATE TABLE fact (id INTEGER, cust INTEGER, amount FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
    ExecOk(driver,
           "CREATE TABLE dim (cust_id INTEGER, region VARCHAR) "
           "SEGMENTED BY HASH(cust_id) ALL NODES");
    static const char* kRegions[] = {"east", "west", "north", "south"};
    std::string values;
    for (int i = 0; i < fact_rows; ++i) {
      if (i % 50 == 0 && !values.empty()) {
        ExecOk(driver, StrCat("INSERT INTO fact VALUES ", values));
        values.clear();
      }
      std::string cust =
          i % 37 == 5 ? "NULL" : StrCat((i * 7) % (dim_rows + 8));
      values += StrCat(values.empty() ? "" : ", ", "(", i, ", ", cust, ", ",
                       i % 13, ".5)");
    }
    if (!values.empty()) {
      ExecOk(driver, StrCat("INSERT INTO fact VALUES ", values));
    }
    values.clear();
    for (int i = 0; i < dim_rows; ++i) {
      // Duplicate keys every 9th row; one NULL key.
      std::string key = i == 3 ? "NULL" : StrCat(i % 9 == 0 ? i / 2 : i);
      values += StrCat(values.empty() ? "" : ", ", "(", key, ", '",
                       kRegions[i % 4], "')");
    }
    ExecOk(driver, StrCat("INSERT INTO dim VALUES ", values));
  }

  // Join-key-sorted layouts: both segmented by their key (co-located
  // merge) unless `colocate` is false, in which case the fact side keeps
  // its id segmentation (gathered merge).
  void CreateSortedProjections(sim::Process& driver, bool colocate) {
    ExecOk(driver, StrCat("CREATE PROJECTION fact_by_cust AS "
                          "SELECT cust, amount FROM fact ORDER BY cust ",
                          colocate ? "SEGMENTED BY HASH(cust)"
                                   : "UNSEGMENTED"));
    ExecOk(driver,
           "CREATE PROJECTION dim_by_cust AS SELECT cust_id, region "
           "FROM dim ORDER BY cust_id SEGMENTED BY HASH(cust_id)");
  }

  // Queries whose answers must not depend on the join strategy. All
  // carry a total ORDER BY so Lines() comparison is layout-stable.
  std::vector<std::string> JoinQueries() const {
    return {
        "SELECT region, SUM(amount) FROM fact JOIN dim "
        "ON cust = cust_id GROUP BY region ORDER BY region",
        "SELECT cust, region, amount FROM fact JOIN dim "
        "ON cust = cust_id WHERE amount > 3.0 "
        "ORDER BY cust, region, amount",
        "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
        "SELECT region, COUNT(*) FROM fact JOIN dim "
        "ON cust_id = cust GROUP BY region ORDER BY region",
    };
  }

  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Database> db_;
};

// ------------------------------------------------------ strategy choice

TEST_F(JoinTest, PlannerPicksMergeWheneverBothSidesAreSorted) {
  obs::Tracer tracer([this] { return engine_->now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 300, 40);

    // No sorted layouts yet: hash join.
    std::string plan = PlanText(ExecOk(
        driver, "EXPLAIN SELECT COUNT(*) FROM fact JOIN dim "
                "ON cust = cust_id"));
    EXPECT_NE(plan.find("join strategy: hash join"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(fact): super"), std::string::npos)
        << plan;
    ExecOk(driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id");
    EXPECT_GT(tracer.metrics().counter("vertica.hash_joins"), 0.0);
    EXPECT_EQ(tracer.metrics().counter("vertica.merge_joins"), 0.0);

    // Both sides sorted on the join key and segmented by it: the
    // unforced planner must choose the co-located merge join.
    CreateSortedProjections(driver, /*colocate=*/true);
    plan = PlanText(ExecOk(
        driver, "EXPLAIN SELECT COUNT(*) FROM fact JOIN dim "
                "ON cust = cust_id"));
    EXPECT_NE(plan.find("join strategy: merge join (co-located)"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(fact): fact_by_cust"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(dim): dim_by_cust"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("join key: fact.cust = dim.cust_id"),
              std::string::npos)
        << plan;

    double merges = tracer.metrics().counter("vertica.merge_joins");
    ExecOk(driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id");
    EXPECT_GT(tracer.metrics().counter("vertica.merge_joins"), merges);
  });
}

TEST_F(JoinTest, GatheredMergeWhenSortedButNotCoLocated) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 200, 30);
    // fact side sorted but replicated (not segmented by the key): merge
    // without co-location... except a replicated side co-locates with
    // any layout, so force the interesting case via the dim side.
    ExecOk(driver,
           "CREATE PROJECTION fact_by_cust AS SELECT id, cust, amount "
           "FROM fact ORDER BY cust SEGMENTED BY HASH(id)");
    ExecOk(driver,
           "CREATE PROJECTION dim_by_cust AS SELECT cust_id, region "
           "FROM dim ORDER BY cust_id SEGMENTED BY HASH(cust_id)");
    std::string plan = PlanText(ExecOk(
        driver, "EXPLAIN SELECT COUNT(*) FROM fact JOIN dim "
                "ON cust = cust_id"));
    EXPECT_NE(plan.find("join strategy: merge join"), std::string::npos)
        << plan;
    EXPECT_EQ(plan.find("(co-located)"), std::string::npos) << plan;
  });
}

// ------------------------------------------------------- byte identity

TEST_F(JoinTest, AllStrategiesReturnIdenticalBytes) {
  for (bool colocate : {false, true}) {
    SCOPED_TRACE(StrCat("colocate=", colocate));
    Recreate();
    RunDriver([&](sim::Process& driver) {
      LoadFixture(driver, 400, 50);

      // Baseline answers before any projections exist (legacy-planned
      // hash join over the super projections).
      std::vector<std::vector<std::string>> baseline;
      for (const std::string& q : JoinQueries()) {
        baseline.push_back(Lines(ExecOk(driver, q)));
      }

      CreateSortedProjections(driver, colocate);
      for (size_t i = 0; i < JoinQueries().size(); ++i) {
        const std::string q = JoinQueries()[i];
        SCOPED_TRACE(q);
        // Automatic (merge), forced hash, and forced merge must all
        // reproduce the pre-projection answer byte for byte.
        EXPECT_EQ(baseline[i], Lines(ExecOk(driver, q)));
        SessionHints hash;
        hash.join_strategy = "hash";
        EXPECT_EQ(baseline[i], Lines(ExecOk(driver, q, hash)));
        SessionHints merge;
        merge.join_strategy = "merge";
        EXPECT_EQ(baseline[i], Lines(ExecOk(driver, q, merge)));
        // Pinning both sides to the super projection (hash join) too.
        SessionHints supers;
        supers.table_projections = {{"fact", ""}, {"dim", ""}};
        EXPECT_EQ(baseline[i], Lines(ExecOk(driver, q, supers)));
      }
    });
  }
}

TEST_F(JoinTest, SelectStarJoinIsIdenticalAcrossStrategies) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 150, 25);
    const std::string q =
        "SELECT * FROM fact JOIN dim ON cust = cust_id "
        "ORDER BY id, cust_id, region";
    std::vector<std::string> baseline = Lines(ExecOk(driver, q));
    // SELECT * needs every column, so the narrow fact projection cannot
    // serve it — but the wide sorted pair still merges.
    ExecOk(driver,
           "CREATE PROJECTION fact_all AS SELECT id, cust, amount "
           "FROM fact ORDER BY cust SEGMENTED BY HASH(cust)");
    ExecOk(driver,
           "CREATE PROJECTION dim_all AS SELECT cust_id, region "
           "FROM dim ORDER BY cust_id SEGMENTED BY HASH(cust_id)");
    std::string plan = PlanText(
        ExecOk(driver, StrCat("EXPLAIN ", q)));
    EXPECT_NE(plan.find("merge join"), std::string::npos) << plan;
    EXPECT_EQ(baseline, Lines(ExecOk(driver, q)));
    SessionHints hash;
    hash.join_strategy = "hash";
    EXPECT_EQ(baseline, Lines(ExecOk(driver, q, hash)));
  });
}

// ------------------------------------------------- forced hints / errors

TEST_F(JoinTest, PerTableForcedProjectionHint) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 120, 20);
    CreateSortedProjections(driver, /*colocate=*/true);

    // A valid hint pins the side; EXPLAIN reflects it.
    SessionHints pin;
    pin.table_projections = {{"fact", "fact_by_cust"}};
    std::string plan = PlanText(
        ExecOk(driver,
               "EXPLAIN SELECT region, SUM(amount) FROM fact JOIN dim "
               "ON cust = cust_id GROUP BY region ORDER BY region",
               pin));
    EXPECT_NE(plan.find("projection(fact): fact_by_cust"),
              std::string::npos)
        << plan;

    // Single-table scans honor the hint too.
    SessionHints super_pin;
    super_pin.table_projections = {{"fact", ""}};
    obs::Tracer tracer([this] { return engine_->now(); });
    obs::ScopedTracer install(&tracer);
    ExecOk(driver, "SELECT cust, amount FROM fact WHERE amount > 4.0",
           super_pin);
    EXPECT_EQ(
        tracer.metrics().counter("vertica.projection_scans{fact_by_cust}"),
        0.0);

    // Unknown projection: typed FAILED_PRECONDITION, not a silent
    // fallback (the legacy session-wide hint's behavior).
    SessionHints unknown;
    unknown.table_projections = {{"fact", "nope"}};
    auto missing = Exec(
        driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
        unknown);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kFailedPrecondition)
        << missing.status();
    EXPECT_NE(missing.status().ToString().find(kForcedProjectionToken),
              std::string::npos)
        << missing.status();

    // Ineligible projection (missing the referenced amount column).
    ExecOk(driver,
           "CREATE PROJECTION fact_thin AS SELECT cust FROM fact "
           "ORDER BY cust");
    SessionHints thin;
    thin.table_projections = {{"fact", "fact_thin"}};
    auto ineligible = Exec(
        driver, "SELECT SUM(amount) FROM fact JOIN dim ON cust = cust_id",
        thin);
    ASSERT_FALSE(ineligible.ok());
    EXPECT_NE(ineligible.status().ToString().find(kForcedProjectionToken),
              std::string::npos)
        << ineligible.status();
  });
}

TEST_F(JoinTest, ForcedMergeFailsWithoutSortedLayouts) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 80, 10);
    SessionHints merge;
    merge.join_strategy = "merge";
    auto result = Exec(
        driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
        merge);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << result.status();
    EXPECT_NE(result.status().ToString().find(kForcedJoinStrategyToken),
              std::string::npos)
        << result.status();
    // EXPLAIN surfaces the same typed error.
    auto explain = Exec(
        driver,
        "EXPLAIN SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
        merge);
    ASSERT_FALSE(explain.ok());
    EXPECT_NE(explain.status().ToString().find(kForcedJoinStrategyToken),
              std::string::npos)
        << explain.status();
    // Forced hash always works.
    SessionHints hash;
    hash.join_strategy = "hash";
    ExecOk(driver, "SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id",
           hash);
  });
}

// --------------------------------------------------------- virtual time

TEST_F(JoinTest, MergeJoinIsFasterThanHashOnTheSameLayouts) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 1200, 160);
    CreateSortedProjections(driver, /*colocate=*/true);
    const std::string q =
        "SELECT region, SUM(amount) FROM fact JOIN dim ON cust = cust_id "
        "GROUP BY region ORDER BY region";
    // Same projection pair both times — only the join strategy differs.
    SessionHints hash;
    hash.join_strategy = "hash";
    hash.table_projections = {{"fact", "fact_by_cust"},
                              {"dim", "dim_by_cust"}};
    SessionHints merge = hash;
    merge.join_strategy = "merge";
    double start = engine_->now();
    QueryResult hash_result = ExecOk(driver, q, hash);
    double hash_elapsed = engine_->now() - start;
    start = engine_->now();
    QueryResult merge_result = ExecOk(driver, q, merge);
    double merge_elapsed = engine_->now() - start;
    EXPECT_EQ(Lines(hash_result), Lines(merge_result));
    EXPECT_LT(merge_elapsed, hash_elapsed)
        << "merge=" << merge_elapsed << " hash=" << hash_elapsed;
  });
}

// ----------------------------------------------------- workload capture

TEST_F(JoinTest, JoinsAreCapturedInQueryRequests) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 100, 15);
    CreateSortedProjections(driver, /*colocate=*/true);
    ExecOk(driver,
           "SELECT region, SUM(amount) FROM fact JOIN dim "
           "ON cust = cust_id GROUP BY region ORDER BY region");
    QueryResult captured = ExecOk(
        driver,
        "SELECT table_name, join_table, join_key_columns, strategy, "
        "duration_seconds FROM v_monitor.query_requests "
        "WHERE join_table <> '' ORDER BY table_name");
    ASSERT_EQ(captured.rows.size(), 2u);
    EXPECT_EQ(captured.rows[0][0].varchar_value(), "dim");
    EXPECT_EQ(captured.rows[0][1].varchar_value(), "fact");
    EXPECT_EQ(captured.rows[0][2].varchar_value(), "cust_id");
    EXPECT_EQ(captured.rows[0][3].varchar_value(), "merge");
    EXPECT_GT(captured.rows[0][4].float64_value(), 0.0);
    EXPECT_EQ(captured.rows[1][0].varchar_value(), "fact");
    EXPECT_EQ(captured.rows[1][2].varchar_value(), "cust");
    // Single-table scans land too (the INSERT-driven fixture plus the
    // join sides): the history keeps monotone ids.
    QueryResult ids = ExecOk(
        driver, "SELECT COUNT(*) FROM v_monitor.query_requests");
    EXPECT_GE(ids.rows[0][0].int64_value(), 2);
  });
}

// -------------------------------------------------------------- chaos

// Random DML between queries, a node kill and restart in the middle:
// automatic planning (merge when available), forced hash, and
// super-pinned hash must keep answering byte-identically.
TEST_F(JoinTest, ChaosKeepsStrategiesByteIdentical) {
  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    Recreate();
    RunDriver([&](sim::Process& driver) {
      LoadFixture(driver, 160, 24);
      CreateSortedProjections(driver, /*colocate=*/(seed % 2 == 0));
      Rng rng(seed);
      int victim = static_cast<int>(rng.NextUint64(3)) + 1;
      int next_id = 50000;
      for (int step = 0; step < 16; ++step) {
        if (step == 5) {
          ASSERT_TRUE(db_->KillNode(victim).ok());
        }
        if (step == 11) {
          ASSERT_TRUE(db_->RestartNode(victim).ok());
        }
        switch (rng.NextUint64(3)) {
          case 0: {
            std::string values;
            for (int i = 0; i < 4; ++i, ++next_id) {
              values += StrCat(i ? ", " : "", "(", next_id, ", ",
                               rng.NextUint64(30), ", ",
                               rng.NextUint64(9), ".5)");
            }
            ExecOk(driver, StrCat("INSERT INTO fact VALUES ", values));
            break;
          }
          case 1:
            ExecOk(driver,
                   StrCat("UPDATE fact SET amount = amount + 1.0 "
                          "WHERE id % 11 = ",
                          rng.NextUint64(11)));
            break;
          default:
            ExecOk(driver, StrCat("DELETE FROM fact WHERE id % 19 = ",
                                  rng.NextUint64(19)));
            break;
        }
        const std::string q = JoinQueries()[step % JoinQueries().size()];
        SCOPED_TRACE(StrCat("step ", step, ": ", q));
        std::vector<std::string> expected = Lines(ExecOk(driver, q));
        SessionHints hash;
        hash.join_strategy = "hash";
        EXPECT_EQ(expected, Lines(ExecOk(driver, q, hash)));
        SessionHints supers;
        supers.table_projections = {{"fact", ""}, {"dim", ""}};
        EXPECT_EQ(expected, Lines(ExecOk(driver, q, supers)));
        ASSERT_TRUE(driver.Sleep(0.05).ok());
      }
      ASSERT_TRUE(
          db_->WaitForNodeState(driver, victim, NodeState::kUp).ok());
    });
  }
}

}  // namespace
}  // namespace fabric::vertica
