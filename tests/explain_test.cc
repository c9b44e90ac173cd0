// EXPLAIN contract tests for join planning: the printed join strategy,
// projection pair and per-side candidate lists across the hash, merge,
// co-located and forced paths, plus the non-plannable fallbacks (views,
// system tables, complex ON) and AT EPOCH eligibility. Single-table
// EXPLAIN names the layout a per-table hint forces, or fails as the
// query does.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "sim/engine.h"
#include "vertica/database.h"
#include "vertica/session.h"

namespace fabric::vertica {
namespace {

using storage::Row;

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() {
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

  using ForcedProjections = std::vector<std::pair<std::string, std::string>>;

  // Executes `sql` on a session with the given per-table projection
  // hints.
  Result<QueryResult> ExecForced(sim::Process& driver, const std::string& sql,
                                 const ForcedProjections& forced) {
    auto session = db_->Connect(driver, 0, nullptr);
    if (!session.ok()) return session.status();
    for (const auto& [table, projection] : forced) {
      (*session)->set_forced_projection(table, projection);
    }
    auto result = (*session)->Execute(driver, sql);
    Status closed = (*session)->Close(driver);
    EXPECT_TRUE(closed.ok()) << closed;
    return result;
  }

  std::string Plan(sim::Process& driver, const std::string& select,
                   const ForcedProjections& forced_projections = {}) {
    auto result =
        ExecForced(driver, StrCat("EXPLAIN ", select), forced_projections);
    EXPECT_TRUE(result.ok()) << select << ": " << result.status();
    std::string out;
    if (result.ok()) {
      for (const Row& row : result->rows) {
        out += row[0].varchar_value();
        out += "\n";
      }
    }
    return out;
  }

  void LoadFixture(sim::Process& driver) {
    ExecOk(driver,
           "CREATE TABLE fact (id INTEGER, cust INTEGER, amount FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
    ExecOk(driver,
           "CREATE TABLE dim (cust_id INTEGER, region VARCHAR) "
           "SEGMENTED BY HASH(cust_id) ALL NODES");
    ExecOk(driver, "INSERT INTO fact VALUES (1, 1, 2.5), (2, 2, 3.5)");
    ExecOk(driver, "INSERT INTO dim VALUES (1, 'east'), (2, 'west')");
  }

  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Database> db_;
};

TEST_F(ExplainTest, JoinStrategyProjectionPairAndCandidates) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver);
    const std::string q =
        "SELECT region, SUM(amount) FROM fact JOIN dim ON cust = cust_id "
        "GROUP BY region";

    // Hash join over the super projections; both candidate lists print.
    std::string plan = Plan(driver, q);
    EXPECT_NE(plan.find("join strategy: hash join"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("join key: fact.cust = dim.cust_id"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(fact): super"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(dim): super"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("candidates(fact): super=1.0000"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("candidates(dim): super=1.0000"), std::string::npos)
        << plan;

    // Co-sorted, co-segmented projections flip the plan to a co-located
    // merge join and join the candidate lists.
    ExecOk(driver,
           "CREATE PROJECTION fact_by_cust AS SELECT cust, amount "
           "FROM fact ORDER BY cust SEGMENTED BY HASH(cust)");
    ExecOk(driver,
           "CREATE PROJECTION dim_by_cust AS SELECT cust_id, region "
           "FROM dim ORDER BY cust_id SEGMENTED BY HASH(cust_id)");
    plan = Plan(driver, q);
    EXPECT_NE(plan.find("join strategy: merge join (co-located)"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(fact): fact_by_cust"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(dim): dim_by_cust"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("candidates(fact): super=1.0000, fact_by_cust="),
              std::string::npos)
        << plan;

    // Forcing one side back to its super projection kills the merge.
    plan = Plan(driver, q, {{"dim", ""}});
    EXPECT_NE(plan.find("join strategy: hash join"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("projection(fact): "), std::string::npos) << plan;
    EXPECT_NE(plan.find("projection(dim): super"), std::string::npos)
        << plan;
  });
}

TEST_F(ExplainTest, NonPlannableJoinsFallBackToTheLegacyLine) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver);
    ExecOk(driver,
           "CREATE VIEW dim_view AS SELECT cust_id, region FROM dim");
    // View side: not plannable.
    std::string plan = Plan(
        driver,
        "SELECT COUNT(*) FROM fact JOIN dim_view ON cust = cust_id");
    EXPECT_NE(plan.find("join: n/a (not a plannable base-table join)"),
              std::string::npos)
        << plan;
    // Non-equality ON: not plannable.
    plan = Plan(driver,
                "SELECT COUNT(*) FROM fact JOIN dim ON cust < cust_id");
    EXPECT_NE(plan.find("join: n/a"), std::string::npos) << plan;
    // Self join: not plannable.
    plan = Plan(driver, "SELECT COUNT(*) FROM fact JOIN fact ON id = id");
    EXPECT_NE(plan.find("join: n/a"), std::string::npos) << plan;
  });
}

TEST_F(ExplainTest, AtEpochPredatingProjectionsPlansHash) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver);
    storage::Epoch before = db_->current_epoch();
    ExecOk(driver,
           "CREATE PROJECTION fact_by_cust AS SELECT cust, amount "
           "FROM fact ORDER BY cust SEGMENTED BY HASH(cust)");
    ExecOk(driver,
           "CREATE PROJECTION dim_by_cust AS SELECT cust_id, region "
           "FROM dim ORDER BY cust_id SEGMENTED BY HASH(cust_id)");
    // Current snapshot merges; a snapshot predating the projections
    // cannot use them and must plan a hash join over the supers.
    std::string now_plan = Plan(
        driver,
        "SELECT SUM(amount) FROM fact JOIN dim ON cust = cust_id");
    EXPECT_NE(now_plan.find("merge join"), std::string::npos) << now_plan;
    std::string hist_plan = Plan(
        driver,
        StrCat("SELECT SUM(amount) FROM fact JOIN dim ON cust = cust_id "
               "AT EPOCH ",
               static_cast<int64_t>(before)));
    EXPECT_NE(hist_plan.find("join strategy: hash join"), std::string::npos)
        << hist_plan;
    EXPECT_NE(hist_plan.find("projection(fact): super"), std::string::npos)
        << hist_plan;
  });
}

TEST_F(ExplainTest, SingleTableExplainObeysTheForcedProjection) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver);
    ExecOk(driver,
           "CREATE PROJECTION fact_by_cust AS SELECT cust, amount "
           "FROM fact ORDER BY cust SEGMENTED BY HASH(cust)");
    ExecOk(driver,
           "CREATE PROJECTION fact_wide AS SELECT id, cust, amount "
           "FROM fact ORDER BY id SEGMENTED BY HASH(id)");
    const std::string q =
        "SELECT cust, SUM(amount) FROM fact GROUP BY cust";

    // Unhinted, the planner picks the narrow sorted projection.
    std::string plan = Plan(driver, q);
    EXPECT_NE(plan.find("projection: fact_by_cust"), std::string::npos)
        << plan;

    // An eligible hint is what EXPLAIN names, as the query scans it; the
    // candidates stay the cost-based ones.
    plan = Plan(driver, q, {{"fact", "fact_wide"}});
    EXPECT_NE(plan.find("projection: fact_wide (cost="), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("reason: forced by per-table hint (fact_wide)"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("candidates: super=1.0000, fact_by_cust="),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find(", fact_wide="), std::string::npos) << plan;
    EXPECT_TRUE(ExecForced(driver, q, {{"fact", "fact_wide"}}).ok());

    // An ineligible hint (fact_by_cust stores no `id`) fails EXPLAIN the
    // same way it fails the query.
    const std::string by_id = "SELECT id, amount FROM fact";
    for (const std::string& sql : {StrCat("EXPLAIN ", by_id), by_id}) {
      auto failed = ExecForced(driver, sql, {{"fact", "fact_by_cust"}});
      ASSERT_FALSE(failed.ok()) << sql;
      EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition)
          << failed.status();
      EXPECT_TRUE(StartsWith(std::string(failed.status().message()),
                             kForcedProjectionToken))
          << failed.status();
    }
  });
}

}  // namespace
}  // namespace fabric::vertica
