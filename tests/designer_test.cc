// Database-designer tests: workload capture drives deterministic
// proposals (SELECT DESIGN_PROPOSALS + v_monitor.design_proposals), the
// storage budget bounds what gets proposed, proposed DDL is executable
// and flips the planner to the proposed layouts, and a seeded
// chaos/property suite (FABRIC_SEED) asserting (a) the designer is a
// pure function of the captured workload — two identically seeded runs
// propose identical DDL — and (b) adopting every proposal never changes
// any query's answer.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "seed_env.h"

#include "common/random.h"
#include "common/string_util.h"
#include "sim/engine.h"
#include "vertica/database.h"
#include "vertica/designer/designer.h"
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

class DesignerTest : public ::testing::Test {
 protected:
  DesignerTest() { Recreate(); }

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

  QueryResult ExecOk(sim::Process& driver, const std::string& sql) {
    auto session = db_->Connect(driver, 0, nullptr);
    EXPECT_TRUE(session.ok()) << session.status();
    if (!session.ok()) return QueryResult{};
    auto result = (*session)->Execute(driver, sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    Status closed = (*session)->Close(driver);
    EXPECT_TRUE(closed.ok()) << closed;
    return result.ok() ? std::move(*result) : QueryResult{};
  }

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
      values += StrCat(values.empty() ? "" : ", ", "(", i, ", ",
                       (i * 3) % dim_rows, ", ", i % 7, ".25)");
    }
    if (!values.empty()) {
      ExecOk(driver, StrCat("INSERT INTO fact VALUES ", values));
    }
    values.clear();
    for (int i = 0; i < dim_rows; ++i) {
      values += StrCat(values.empty() ? "" : ", ", "(", i, ", '",
                       kRegions[i % 4], "')");
    }
    ExecOk(driver, StrCat("INSERT INTO dim VALUES ", values));
  }

  // The workload the designer optimizes for: a repeated join plus a
  // single-table aggregate.
  std::vector<std::string> Workload() const {
    return {
        "SELECT region, SUM(amount) FROM fact JOIN dim "
        "ON cust = cust_id GROUP BY region ORDER BY region",
        "SELECT cust, SUM(amount) FROM fact GROUP BY cust ORDER BY cust",
    };
  }

  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Database> db_;
};

TEST_F(DesignerTest, ProposesAdoptableLayoutsThatFlipThePlanner) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 300, 30);
    for (int rep = 0; rep < 3; ++rep) {
      for (const std::string& q : Workload()) ExecOk(driver, q);
    }

    // The designer replays the captured history and proposes layouts.
    QueryResult summary = ExecOk(driver, "SELECT DESIGN_PROPOSALS(0.8, 4)");
    ASSERT_EQ(summary.rows.size(), 1u);
    EXPECT_NE(summary.rows[0][0].varchar_value().find("proposals"),
              std::string::npos);

    QueryResult proposals = ExecOk(
        driver,
        "SELECT proposal_name, anchor_table, sort_columns, ddl "
        "FROM v_monitor.design_proposals ORDER BY proposal_name");
    ASSERT_GE(proposals.rows.size(), 1u);
    bool fact_sorted_on_cust = false;
    for (const Row& row : proposals.rows) {
      if (row[1].varchar_value() == "fact" &&
          StartsWith(row[2].varchar_value(), "cust")) {
        fact_sorted_on_cust = true;
      }
    }
    EXPECT_TRUE(fact_sorted_on_cust)
        << "expected a fact layout sorted on the join/group key";

    // Snapshot answers, adopt every proposal, re-check: byte-identical,
    // and the join now plans as a merge join.
    std::vector<std::vector<std::string>> before;
    for (const std::string& q : Workload()) {
      before.push_back(Lines(ExecOk(driver, q)));
    }
    for (const Row& row : proposals.rows) {
      ExecOk(driver, row[3].varchar_value());
    }
    for (size_t i = 0; i < Workload().size(); ++i) {
      EXPECT_EQ(before[i], Lines(ExecOk(driver, Workload()[i])))
          << Workload()[i];
    }
    QueryResult plan = ExecOk(
        driver, StrCat("EXPLAIN ", Workload()[0]));
    std::string plan_text;
    for (const Row& row : plan.rows) plan_text += row[0].varchar_value();
    EXPECT_NE(plan_text.find("merge join"), std::string::npos) << plan_text;
  });
}

TEST_F(DesignerTest, RepeatedRunsAreDeterministic) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 200, 20);
    for (const std::string& q : Workload()) ExecOk(driver, q);
    ExecOk(driver, "SELECT DESIGN_PROPOSALS(0.8, 4)");
    QueryResult first = ExecOk(
        driver, "SELECT ddl FROM v_monitor.design_proposals");
    // Re-running over the same history (v_monitor reads and the
    // FROM-less designer call are not captured) proposes the same set.
    ExecOk(driver, "SELECT DESIGN_PROPOSALS(0.8, 4)");
    QueryResult second = ExecOk(
        driver, "SELECT ddl FROM v_monitor.design_proposals");
    EXPECT_EQ(Lines(first), Lines(second));
    ASSERT_GE(first.rows.size(), 1u);
  });
}

TEST_F(DesignerTest, StorageBudgetBoundsProposals) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 200, 20);
    for (const std::string& q : Workload()) ExecOk(driver, q);

    // A near-zero budget cannot afford any projection.
    ExecOk(driver, "SELECT DESIGN_PROPOSALS(0.000001, 4)");
    EXPECT_EQ(ExecOk(driver,
                     "SELECT proposal_name FROM v_monitor.design_proposals")
                  .rows.size(),
              0u);

    // A generous budget proposes within it: total estimated storage of
    // the proposals stays under budget_fraction x anchor raw bytes.
    ExecOk(driver, "SELECT DESIGN_PROPOSALS(0.8, 4)");
    QueryResult rows = ExecOk(
        driver,
        "SELECT SUM(storage_bytes) FROM v_monitor.design_proposals");
    ASSERT_EQ(rows.rows.size(), 1u);
    double proposed = rows.rows[0][0].is_null()
                          ? 0.0
                          : rows.rows[0][0].float64_value();
    double anchors = 0;
    for (const char* table : {"fact", "dim"}) {
      auto storage = db_->GetStorage(table);
      ASSERT_TRUE(storage.ok());
      for (const auto& store : (*storage)->per_node) {
        anchors += store->TotalRawBytes();
      }
    }
    EXPECT_GT(proposed, 0.0);
    EXPECT_LE(proposed, 0.8 * anchors);

    // Bad arguments are rejected.
    auto session = db_->Connect(driver, 0, nullptr);
    ASSERT_TRUE(session.ok());
    auto bad = (*session)->Execute(driver, "SELECT DESIGN_PROPOSALS(-1.0)");
    EXPECT_FALSE(bad.ok());
    ASSERT_TRUE((*session)->Close(driver).ok());
  });
}

// ------------------------------------------------------------- property

// For each seed: build a random workload, run the designer twice in two
// identically seeded universes (fresh engine each) — the proposal DDL
// must match exactly — then adopt every proposal and verify no query's
// answer changed.
TEST_F(DesignerTest, SeededWorkloadsAreDeterministicAndAnswerPreserving) {
  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    std::vector<std::string> ddl_runs[2];
    for (int run = 0; run < 2; ++run) {
      Recreate();
      RunDriver([&](sim::Process& driver) {
        Rng rng(seed);
        int fact_rows = 120 + static_cast<int>(rng.NextUint64(120));
        int dim_rows = 10 + static_cast<int>(rng.NextUint64(30));
        LoadFixture(driver, fact_rows, dim_rows);

        // Random query mix: joins, filters, aggregates.
        std::vector<std::string> queries;
        int count = 4 + static_cast<int>(rng.NextUint64(5));
        for (int i = 0; i < count; ++i) {
          switch (rng.NextUint64(3)) {
            case 0:
              queries.push_back(
                  "SELECT region, COUNT(*) FROM fact JOIN dim "
                  "ON cust = cust_id GROUP BY region ORDER BY region");
              break;
            case 1:
              queries.push_back(StrCat(
                  "SELECT cust, SUM(amount) FROM fact WHERE amount > ",
                  rng.NextUint64(5),
                  ".0 GROUP BY cust ORDER BY cust"));
              break;
            default:
              queries.push_back(StrCat(
                  "SELECT id, cust, amount FROM fact WHERE id % 9 = ",
                  rng.NextUint64(9), " ORDER BY id"));
              break;
          }
        }
        for (const std::string& q : queries) ExecOk(driver, q);

        ExecOk(driver, "SELECT DESIGN_PROPOSALS(0.7, 3)");
        QueryResult proposals = ExecOk(
            driver, "SELECT ddl FROM v_monitor.design_proposals");
        for (const Row& row : proposals.rows) {
          ddl_runs[run].push_back(row[0].varchar_value());
        }

        // Adoption never changes answers.
        std::vector<std::vector<std::string>> before;
        for (const std::string& q : queries) {
          before.push_back(Lines(ExecOk(driver, q)));
        }
        for (const std::string& ddl : ddl_runs[run]) ExecOk(driver, ddl);
        for (size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(before[i], Lines(ExecOk(driver, queries[i])))
              << queries[i];
        }
      });
    }
    EXPECT_EQ(ddl_runs[0], ddl_runs[1])
        << "designer proposals must be a pure function of the workload";
  }
}

}  // namespace
}  // namespace fabric::vertica
