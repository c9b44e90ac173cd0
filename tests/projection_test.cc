// Projection subsystem tests: CREATE/DROP PROJECTION DDL, population
// from existing data, planner choice (EXPLAIN + projection_scans
// counter), write-path maintenance across INSERT/UPDATE/DELETE/COPY,
// AT EPOCH eligibility, the ContentFingerprint invariance the buddy
// convergence checks rely on, and a seeded chaos suite asserting
// byte-identical query results across all projections through random
// DML, node kills, and Tuple Mover on/off.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scan_reference.h"
#include "seed_env.h"

#include "common/random.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "storage/segment_store.h"
#include "vertica/database.h"
#include "vertica/session.h"

namespace fabric::vertica {
namespace {

using storage::DataType;
using storage::Encoding;
using storage::PhysicalDesign;
using storage::Row;
using storage::Schema;
using storage::Value;

using fabric::testing::PropertySeeds;

// Renders a result set to ordered lines (ORDER BY queries) for exact
// comparison.
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

// ----------------------------------------------- fingerprint invariance

// Pins the property the per-projection convergence checks depend on:
// ContentFingerprint is a function of logical content only — insertion
// order, batch boundaries, sort order, and column encodings must not
// change it. (The fold over row hashes is commutative by construction;
// this is the regression test that keeps it so.)
TEST(ContentFingerprintTest, InvariantUnderRowOrderAndPhysicalDesign) {
  Schema schema({{"id", DataType::kInt64},
                 {"dim", DataType::kVarchar},
                 {"score", DataType::kFloat64}});
  std::vector<Row> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back({Value::Int64(i), Value::Varchar(i % 3 ? "a" : "b"),
                    Value::Float64(i * 0.5)});
  }
  std::vector<Row> reversed(rows.rbegin(), rows.rend());

  // Plain store, one batch, insertion order, auto encodings.
  storage::SegmentStore plain(schema);
  ASSERT_TRUE(InsertRowsDirect(plain, 1, rows).ok());
  plain.CommitTxn(1, 1);

  // Sorted store with forced encodings, reversed rows, two batches (one
  // ROS, one WOS), committed at the same epoch: the fingerprint hashes
  // each row with its commit epoch, so only the physical layout differs.
  PhysicalDesign design;
  design.sort_columns = {1, 0};  // dim, id
  design.encodings = {Encoding::kPlain, Encoding::kRle,
                      Encoding::kDictionary};
  storage::SegmentStore sorted(schema, design);
  std::vector<Row> first_half(reversed.begin(), reversed.begin() + 20);
  std::vector<Row> second_half(reversed.begin() + 20, reversed.end());
  ASSERT_TRUE(InsertRowsDirect(sorted, 1, first_half).ok());
  ASSERT_TRUE(InsertRows(sorted, 2, second_half).ok());
  sorted.CommitTxn(1, 1);
  sorted.CommitTxn(2, 1);

  EXPECT_EQ(plain.ContentFingerprint(), sorted.ContentFingerprint())
      << "fingerprint depends on physical layout, not logical content";

  // Sanity: different content gives a different fingerprint.
  storage::SegmentStore other(schema);
  std::vector<Row> fewer(rows.begin(), rows.end() - 1);
  ASSERT_TRUE(InsertRowsDirect(other, 1, fewer).ok());
  other.CommitTxn(1, 1);
  EXPECT_NE(plain.ContentFingerprint(), other.ContentFingerprint());
}

// ------------------------------------------------------------- fixture

class ProjectionTest : public ::testing::Test {
 protected:
  ProjectionTest() { Recreate(/*tm_enabled=*/false); }

  void Recreate(bool tm_enabled) {
    db_.reset();
    network_.reset();
    engine_ = std::make_unique<sim::Engine>();
    network_ = std::make_unique<net::Network>(engine_.get());
    Database::Options vopts;
    vopts.num_nodes = 4;
    vopts.tuple_mover.enabled = tm_enabled;
    db_ = std::make_unique<Database>(engine_.get(), network_.get(), vopts);
  }

  void RunDriver(std::function<void(sim::Process&)> body) {
    engine_->Spawn("driver", std::move(body));
    Status status = engine_->Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  Result<QueryResult> Exec(sim::Process& driver, int node,
                           const std::string& sql) {
    auto session = db_->Connect(driver, node, nullptr);
    if (!session.ok()) return session.status();
    auto result = (*session)->Execute(driver, sql);
    Status closed = (*session)->Close(driver);
    if (result.ok() && !closed.ok()) return closed;
    return result;
  }

  QueryResult ExecOk(sim::Process& driver, int node,
                     const std::string& sql) {
    auto result = Exec(driver, node, sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  // Executes `sql` with scans of `sales` pinned to `forced` ("" =
  // super).
  QueryResult ExecForced(sim::Process& driver, int node,
                         const std::string& forced,
                         const std::string& sql) {
    auto session = db_->Connect(driver, node, nullptr);
    EXPECT_TRUE(session.ok()) << session.status();
    if (!session.ok()) return QueryResult{};
    (*session)->set_forced_projection("sales", forced);
    auto result = (*session)->Execute(driver, sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    Status closed = (*session)->Close(driver);
    EXPECT_TRUE(closed.ok()) << closed;
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  void LoadFixture(sim::Process& driver, int rows) {
    ExecOk(driver, 0,
           "CREATE TABLE sales (id INTEGER, region VARCHAR, "
           "amount FLOAT) SEGMENTED BY HASH(id) ALL NODES");
    static const char* kRegions[] = {"east", "west", "north", "south"};
    std::string values;
    for (int i = 0; i < rows; ++i) {
      if (i % 50 == 0 && !values.empty()) {
        ExecOk(driver, 0, StrCat("INSERT INTO sales VALUES ", values));
        values.clear();
      }
      values += StrCat(values.empty() ? "" : ", ", "(", i, ", '",
                       kRegions[i % 4], "', ", i % 11, ".25)");
    }
    if (!values.empty()) {
      ExecOk(driver, 0, StrCat("INSERT INTO sales VALUES ", values));
    }
  }

  // Queries whose results must be identical through every layout.
  std::vector<std::string> EquivalenceQueries() const {
    return {
        "SELECT region, COUNT(*), SUM(amount) FROM sales "
        "GROUP BY region ORDER BY region",
        "SELECT region, amount FROM sales WHERE amount > 5.0 "
        "ORDER BY region, amount",
        "SELECT COUNT(*) FROM sales",
    };
  }

  // Asserts the named projection returns the same bytes as the super
  // projection for every query of `queries` (default: the equivalence
  // queries).
  void ExpectProjectionEquivalent(sim::Process& driver,
                                  const std::string& projection,
                                  std::vector<std::string> queries = {}) {
    if (queries.empty()) queries = EquivalenceQueries();
    for (const std::string& q : queries) {
      SCOPED_TRACE(StrCat(projection, ": ", q));
      QueryResult super = ExecForced(driver, 0, "", q);
      QueryResult via = ExecForced(driver, 0, projection, q);
      EXPECT_EQ(Lines(super), Lines(via));
    }
  }

  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Database> db_;
};

// ------------------------------------------------------- DDL + planning

TEST_F(ProjectionTest, CreateProjectionPopulatesAndPlannerUsesIt) {
  obs::Tracer tracer([this] { return engine_->now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 200);
    ExecOk(driver, 0,
           "CREATE PROJECTION sales_by_region AS SELECT region, amount "
           "FROM sales ORDER BY region SEGMENTED BY HASH(region)");

    // Catalog row: sort order and creation-chosen encodings (the sorted
    // low-cardinality region column must be RLE).
    QueryResult cat = ExecOk(
        driver, 0,
        "SELECT projection_name, anchor_table, sort_columns, encodings, "
        "is_segmented FROM v_catalog.projections");
    ASSERT_EQ(cat.rows.size(), 1u);
    EXPECT_EQ(cat.rows[0][0].varchar_value(), "sales_by_region");
    EXPECT_EQ(cat.rows[0][1].varchar_value(), "sales");
    EXPECT_EQ(cat.rows[0][2].varchar_value(), "region");
    // region sorts first and is low-cardinality: RLE. amount repeats
    // (i % 11 values): dictionary.
    EXPECT_EQ(cat.rows[0][3].varchar_value(), "RLE,DICTIONARY");
    EXPECT_TRUE(cat.rows[0][4].bool_value());

    // Populated from existing data: per-copy rows add up to the table.
    QueryResult stor = ExecOk(
        driver, 0,
        "SELECT copy, SUM(rows) FROM v_monitor.projection_storage "
        "GROUP BY copy ORDER BY copy");
    ASSERT_EQ(stor.rows.size(), 2u);
    EXPECT_EQ(stor.rows[0][0].varchar_value(), "buddy");
    EXPECT_DOUBLE_EQ(stor.rows[0][1].float64_value(), 200.0);
    EXPECT_EQ(stor.rows[1][0].varchar_value(), "primary");
    EXPECT_DOUBLE_EQ(stor.rows[1][1].float64_value(), 200.0);

    // The planner picks the narrow sorted projection for a GROUP BY on
    // its sort prefix and reports merge-style aggregation.
    std::string plan = PlanText(ExecOk(
        driver, 0,
        "EXPLAIN SELECT region, SUM(amount) FROM sales GROUP BY region"));
    EXPECT_NE(plan.find("projection: sales_by_region"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("group-by strategy: merge (sorted)"),
              std::string::npos)
        << plan;

    // A star query cannot be served by the narrow projection.
    std::string star_plan =
        PlanText(ExecOk(driver, 0, "EXPLAIN SELECT * FROM sales"));
    EXPECT_NE(star_plan.find("projection: super"), std::string::npos)
        << star_plan;

    // Executing the aggregate goes through the projection (counter) and
    // returns the same bytes as the super projection.
    double before =
        tracer.metrics().counter("vertica.projection_scans{sales_by_region}");
    ExpectProjectionEquivalent(driver, "sales_by_region");
    QueryResult agg = ExecOk(
        driver, 0,
        "SELECT region, SUM(amount) FROM sales GROUP BY region "
        "ORDER BY region");
    ASSERT_EQ(agg.rows.size(), 4u);
    double after =
        tracer.metrics().counter("vertica.projection_scans{sales_by_region}");
    EXPECT_GT(after, before);
  });
}

TEST_F(ProjectionTest, AtEpochOlderThanProjectionFallsBackToSuper) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 60);
    storage::Epoch before = db_->current_epoch();
    ExecOk(driver, 0,
           "CREATE PROJECTION p_hist AS SELECT region, amount FROM sales "
           "ORDER BY region");
    ExecOk(driver, 0, "INSERT INTO sales VALUES (1000, 'east', 9.25)");

    // Historical read predating the projection: population collapsed the
    // anchor's history, so the planner must not serve it.
    std::string hist = PlanText(ExecOk(
        driver, 0,
        StrCat("EXPLAIN SELECT region, SUM(amount) FROM sales "
               "GROUP BY region AT EPOCH ",
               static_cast<int64_t>(before))));
    EXPECT_NE(hist.find("projection: super"), std::string::npos) << hist;
    QueryResult hist_rows = ExecOk(
        driver, 0,
        StrCat("SELECT COUNT(*) FROM sales AT EPOCH ",
               static_cast<int64_t>(before)));
    EXPECT_EQ(hist_rows.rows[0][0].int64_value(), 60);

    // Current reads may use it — and see the post-create insert.
    std::string now = PlanText(ExecOk(
        driver, 0,
        "EXPLAIN SELECT region, SUM(amount) FROM sales GROUP BY region"));
    EXPECT_NE(now.find("projection: p_hist"), std::string::npos) << now;
    QueryResult count = ExecForced(driver, 0, "p_hist",
                                   "SELECT COUNT(*) FROM sales");
    EXPECT_EQ(count.rows[0][0].int64_value(), 61);
  });
}

TEST_F(ProjectionTest, DropProjectionRemovesItFromPlanning) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 40);
    ExecOk(driver, 0,
           "CREATE PROJECTION p_tmp AS SELECT region, amount FROM sales "
           "ORDER BY region");
    std::string plan = PlanText(ExecOk(
        driver, 0,
        "EXPLAIN SELECT region, SUM(amount) FROM sales GROUP BY region"));
    EXPECT_NE(plan.find("projection: p_tmp"), std::string::npos) << plan;

    ExecOk(driver, 0, "DROP PROJECTION p_tmp");
    plan = PlanText(ExecOk(
        driver, 0,
        "EXPLAIN SELECT region, SUM(amount) FROM sales GROUP BY region"));
    EXPECT_NE(plan.find("projection: super"), std::string::npos) << plan;
    EXPECT_EQ(
        ExecOk(driver, 0, "SELECT projection_name FROM "
                          "v_catalog.projections").rows.size(),
        0u);
    // Idempotent with IF EXISTS; an error without.
    ExecOk(driver, 0, "DROP PROJECTION IF EXISTS p_tmp");
    auto missing = Exec(driver, 0, "DROP PROJECTION p_tmp");
    EXPECT_FALSE(missing.ok());

    // DROP TABLE cascades to its projections.
    ExecOk(driver, 0,
           "CREATE PROJECTION p_casc AS SELECT region FROM sales");
    ExecOk(driver, 0, "DROP TABLE sales");
    EXPECT_FALSE(db_->catalog().HasProjection("p_casc"));
  });
}

// -------------------------------------------------- write-path lockstep

TEST_F(ProjectionTest, DmlMaintainsEveryProjectionInLockstep) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 120);
    // Two extra layouts: a narrow segmented one and an unsegmented
    // (replicated) one.
    ExecOk(driver, 0,
           "CREATE PROJECTION p_seg AS SELECT region, amount FROM sales "
           "ORDER BY region SEGMENTED BY HASH(region)");
    ExecOk(driver, 0,
           "CREATE PROJECTION p_rep AS SELECT id, region, amount "
           "FROM sales ORDER BY region, id UNSEGMENTED");
    // And a narrower one whose images collide: rows that differ only in
    // a dropped column share one image, of which the by-content delete
    // must mark exactly as many as the anchor deleted.
    ExecOk(driver, 0,
           "CREATE PROJECTION p_amount AS SELECT amount FROM sales "
           "ORDER BY amount SEGMENTED BY HASH(amount)");
    const std::vector<std::string> amount_queries = {
        "SELECT amount, COUNT(*) FROM sales GROUP BY amount ORDER BY amount",
        "SELECT COUNT(*) FROM sales",
    };

    ExecOk(driver, 0,
           "INSERT INTO sales VALUES (500, 'east', 3.5), "
           "(501, 'west', 4.5), (502, 'north', 5.5), (503, 'south', 7.75), "
           "(504, 'west', 7.75), (505, 'south', 7.75), (506, 'south', 7.75)");
    QueryResult updated = ExecOk(
        driver, 0,
        "UPDATE sales SET amount = amount + 1.0 WHERE region = 'east'");
    EXPECT_GT(updated.affected, 0);
    QueryResult deleted = ExecOk(
        driver, 0, "DELETE FROM sales WHERE id % 7 = 3");
    EXPECT_GT(deleted.affected, 0);
    // Colliding images in every projection: (503..506) share p_amount's,
    // and 503, 505 and 506 share p_seg's.
    EXPECT_EQ(ExecOk(driver, 0, "DELETE FROM sales WHERE id = 505").affected,
              1);
    EXPECT_EQ(ExecOk(driver, 0,
                     "UPDATE sales SET amount = 1.25 "
                     "WHERE id = 503 OR id = 504")
                  .affected,
              2);

    ExpectProjectionEquivalent(driver, "p_seg");
    ExpectProjectionEquivalent(driver, "p_rep");
    ExpectProjectionEquivalent(driver, "p_amount", amount_queries);

    // An explicit transaction that aborts leaves projections untouched.
    auto session = db_->Connect(driver, 1, nullptr);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->Execute(driver, "BEGIN").ok());
    ASSERT_TRUE(
        (*session)->Execute(driver, "DELETE FROM sales WHERE id < 50").ok());
    ASSERT_TRUE((*session)->Execute(driver, "ROLLBACK").ok());
    ASSERT_TRUE((*session)->Close(driver).ok());
    ExpectProjectionEquivalent(driver, "p_seg");
    ExpectProjectionEquivalent(driver, "p_rep");
    ExpectProjectionEquivalent(driver, "p_amount", amount_queries);

    // TRUNCATE empties every layout.
    ExecOk(driver, 0, "TRUNCATE TABLE sales");
    QueryResult empty = ExecForced(driver, 0, "p_seg",
                                   "SELECT COUNT(*) FROM sales");
    EXPECT_EQ(empty.rows[0][0].int64_value(), 0);
  });
}

// A projection copy that lost an image behind the catalog's back fails
// the DELETE that needs it with a typed error: the statement's
// transaction aborts, the anchor keeps every row, and the database goes
// on serving statements.
TEST_F(ProjectionTest, DeleteMissingProjectionImageFailsTheStatement) {
  RunDriver([&](sim::Process& driver) {
    LoadFixture(driver, 40);
    ExecOk(driver, 0,
           "CREATE PROJECTION p_seg AS SELECT region, amount FROM sales "
           "ORDER BY region SEGMENTED BY HASH(region)");
    auto set = db_->GetProjectionStorage("p_seg");
    ASSERT_TRUE(set.ok());
    const storage::Epoch epoch = db_->current_epoch();
    const storage::TxnId txn = 1000000;  // no statement's
    int64_t dropped = 0;
    for (auto& store : (*set)->per_node) {
      auto marked = storage::DeleteWhere(
          *store, txn, epoch, [](const Row& row) {
            return row[0].varchar_value() == "east";
          });
      ASSERT_TRUE(marked.ok()) << marked.status();
      dropped += *marked;
      store->CommitTxn(txn, epoch);
    }
    ASSERT_EQ(dropped, 10);
    const std::string count = "SELECT COUNT(*) FROM sales";
    ASSERT_EQ(ExecForced(driver, 0, "", count).rows[0][0].int64_value(), 40);

    auto failed = Exec(driver, 0, "DELETE FROM sales WHERE region = 'east'");
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal)
        << failed.status();
    EXPECT_NE(failed.status().message().find("p_seg"), std::string::npos)
        << failed.status();
    EXPECT_EQ(ExecForced(driver, 0, "", count).rows[0][0].int64_value(), 40);

    EXPECT_EQ(
        ExecOk(driver, 0, "DELETE FROM sales WHERE region = 'west'").affected,
        10);
    EXPECT_EQ(ExecForced(driver, 0, "", count).rows[0][0].int64_value(), 30);
  });
}

// ----------------------------------------------------- chaos property

// Random DML + a mid-stream node kill/restart + Tuple Mover on/off:
// after recovery, every projection must answer byte-identically to the
// super projection, and every projection's buddy copies must hold the
// primary's fingerprint.
TEST_F(ProjectionTest, ChaosKeepsProjectionsConvergedAndEquivalent) {
  for (bool tm_enabled : {false, true}) {
    for (uint64_t seed : PropertySeeds()) {
      SCOPED_TRACE(StrCat("tm=", tm_enabled, " seed=", seed));
      Recreate(tm_enabled);
      RunDriver([&](sim::Process& driver) {
        LoadFixture(driver, 80);
        ExecOk(driver, 0,
               "CREATE PROJECTION p_seg AS SELECT region, amount "
               "FROM sales ORDER BY region SEGMENTED BY HASH(region)");
        ExecOk(driver, 0,
               "CREATE PROJECTION p_rep AS SELECT id, region, amount "
               "FROM sales ORDER BY region, id UNSEGMENTED");

        Rng rng(seed);
        // The console driver sits on a node the kill never touches.
        int victim = static_cast<int>(rng.NextUint64(3)) + 1;
        int next_id = 10000;
        bool killed = false;
        bool restarted = false;
        for (int step = 0; step < 40; ++step) {
          if (step == 12) {
            ASSERT_TRUE(db_->KillNode(victim).ok());
            killed = true;
          }
          if (step == 28) {
            ASSERT_TRUE(db_->RestartNode(victim).ok());
            restarted = true;
          }
          switch (rng.NextUint64(4)) {
            case 0:
            case 1: {
              std::string values;
              for (int i = 0; i < 5; ++i, ++next_id) {
                static const char* kRegions[] = {"east", "west", "north",
                                                 "south"};
                values += StrCat(i ? ", " : "", "(", next_id, ", '",
                                 kRegions[rng.NextUint64(4)], "', ",
                                 rng.NextUint64(9), ".75)");
              }
              ExecOk(driver, 0,
                     StrCat("INSERT INTO sales VALUES ", values));
              break;
            }
            case 2:
              ExecOk(driver, 0,
                     StrCat("UPDATE sales SET amount = amount + 0.5 "
                            "WHERE id % 13 = ",
                            rng.NextUint64(13)));
              break;
            default:
              ExecOk(driver, 0,
                     StrCat("DELETE FROM sales WHERE id % 17 = ",
                            rng.NextUint64(17)));
              break;
          }
          ASSERT_TRUE(driver.Sleep(0.05).ok());
        }
        ASSERT_TRUE(killed && restarted);
        ASSERT_TRUE(
            db_->WaitForNodeState(driver, victim, NodeState::kUp).ok());

        ExpectProjectionEquivalent(driver, "p_seg");
        ExpectProjectionEquivalent(driver, "p_rep");

        // Per-projection copy convergence after recovery.
        auto table = db_->GetStorage("sales");
        ASSERT_TRUE(table.ok());
        for (size_t s = 0; s < (*table)->per_node.size(); ++s) {
          EXPECT_EQ((*table)->per_node[s]->ContentFingerprint(),
                    (*table)->buddy[s]->ContentFingerprint())
              << "sales segment " << s;
        }
        auto seg = db_->GetProjectionStorage("p_seg");
        ASSERT_TRUE(seg.ok());
        ASSERT_EQ((*seg)->buddy.size(), (*seg)->per_node.size());
        for (size_t s = 0; s < (*seg)->per_node.size(); ++s) {
          EXPECT_EQ((*seg)->per_node[s]->ContentFingerprint(),
                    (*seg)->buddy[s]->ContentFingerprint())
              << "p_seg segment " << s;
        }
        auto rep = db_->GetProjectionStorage("p_rep");
        ASSERT_TRUE(rep.ok());
        for (size_t s = 1; s < (*rep)->per_node.size(); ++s) {
          EXPECT_EQ((*rep)->per_node[s]->ContentFingerprint(),
                    (*rep)->per_node[0]->ContentFingerprint())
              << "p_rep replica " << s;
        }
      });
    }
  }
}

}  // namespace
}  // namespace fabric::vertica
