// Tuple Mover subsystem tests: WOS moveout and admission backpressure,
// strata-based mergeout, AHM advancement with delete purge and epoch GC,
// AT EPOCH semantics against the AHM, byte-identical results with the
// service on vs off under randomized DML/outage schedules, sustained-
// ingest boundedness, recovery convergence under divergent buddy
// compaction, and the v_monitor surfaces.

#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scan_reference.h"
#include "seed_env.h"

#include "common/random.h"
#include "common/string_util.h"
#include "connector/default_source.h"
#include "net/network.h"
#include "obs/trace.h"
#include "obs/trace_matcher.h"
#include "sim/engine.h"
#include "spark/dataframe.h"
#include "vertica/database.h"
#include "vertica/ksafety/ksafety.h"
#include "vertica/session.h"
#include "vertica/tm/tuple_mover.h"

namespace fabric::vertica {
namespace {

using connector::kVerticaSourceName;
using spark::DataFrame;
using spark::SaveMode;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64}, {"score", DataType::kFloat64}});
}

std::vector<Row> MakeRows(int begin, int count) {
  std::vector<Row> rows;
  for (int i = begin; i < begin + count; ++i) {
    rows.push_back({Value::Int64(i), Value::Float64(i * 1.5)});
  }
  return rows;
}

// Full-content multiset for byte-identical result comparisons.
std::multiset<std::string> ContentsOf(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.is_null() ? "<null>" : v.ToDisplayString();
      line += "|";
    }
    out.insert(std::move(line));
  }
  return out;
}

using fabric::testing::PropertySeeds;

// An aggressive Tuple Mover configuration so short test workloads see
// moveout, mergeout and AHM passes many times over.
TupleMoverConfig AggressiveTm() {
  TupleMoverConfig tm;
  tm.moveout_interval = 0.02;
  tm.mergeout_interval = 0.05;
  tm.strata_min_containers = 2;
  tm.strata_max_fanin = 8;
  tm.ahm_interval = 0.1;
  tm.retention_epochs = 4;
  return tm;
}

class TmTest : public ::testing::Test {
 protected:
  void Build(const TupleMoverConfig& tm, int num_nodes = 4) {
    Database::Options vopts;
    vopts.num_nodes = num_nodes;
    vopts.tuple_mover = tm;
    network_ = std::make_unique<net::Network>(&engine_);
    db_ = std::make_unique<Database>(&engine_, network_.get(), vopts);
    tracer_ = std::make_unique<obs::Tracer>(
        [this] { return engine_.now(); });
    install_ = std::make_unique<obs::ScopedTracer>(tracer_.get());
  }

  void RunDriver(std::function<void(sim::Process&)> body) {
    engine_.Spawn("driver", std::move(body));
    Status status = engine_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  QueryResult ExecOk(sim::Process& driver, int node,
                     const std::string& sql) {
    auto session = db_->Connect(driver, node, nullptr);
    FABRIC_CHECK(session.ok()) << session.status();
    auto result = (*session)->Execute(driver, sql);
    FABRIC_CHECK(result.ok()) << sql << ": " << result.status();
    FABRIC_CHECK((*session)->Close(driver).ok());
    return *std::move(result);
  }

  // Every store of `table` (primary and buddy copies alike).
  std::vector<storage::SegmentStore*> AllStores(const std::string& table) {
    auto storage = db_->GetStorage(table);
    FABRIC_CHECK(storage.ok()) << storage.status();
    std::vector<storage::SegmentStore*> out;
    for (auto& store : (*storage)->per_node) out.push_back(store.get());
    for (auto& store : (*storage)->buddy) {
      if (store != nullptr) out.push_back(store.get());
    }
    return out;
  }

  sim::Engine engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::ScopedTracer> install_;
};

// ------------------------------------------------------------- moveout

// A default-configured cluster drains its WOS without any opt-in: plain
// INSERTs land in the WOS and the background moveout empties it.
TEST_F(TmTest, DefaultClusterDrainsWosInBackground) {
  Build(TupleMoverConfig{});
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver, 0,
           "CREATE TABLE t (id INTEGER, score FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
    for (int batch = 0; batch < 3; ++batch) {
      std::string values;
      for (int i = 0; i < 10; ++i) {
        int id = batch * 10 + i;
        values += StrCat(i ? ", " : "", "(", id, ", ", id, ".5)");
      }
      ExecOk(driver, batch % 4, StrCat("INSERT INTO t VALUES ", values));
    }
    QueryResult count = ExecOk(driver, 1, "SELECT COUNT(*) FROM t");
    EXPECT_EQ(count.rows[0][0].int64_value(), 30);
  });
  for (storage::SegmentStore* store : AllStores("t")) {
    EXPECT_EQ(store->num_wos_batches(), 0);
  }
  EXPECT_GT(tracer_->metrics().counter("tm.moveout_runs"), 0.0);
  EXPECT_EQ(tracer_->metrics().gauge("vertica.wos_batches"), 0.0);
  obs::TraceMatcher trace(*tracer_);
  EXPECT_FALSE(trace.Category("tm").Name("moveout").empty());
}

// The WOS hard cap stalls INSERT admission instead of letting the WOS
// grow without bound; moveout relief unblocks the writer and every row
// still lands exactly once.
TEST_F(TmTest, WosBackpressureStallsWritersAtHardCap) {
  TupleMoverConfig tm;
  tm.wos_hard_cap_batches = 2;
  tm.moveout_interval = 0.3;  // slow drain: the writer must outrun it
  Build(tm, /*num_nodes=*/1);
  RunDriver([&](sim::Process& driver) {
    // One persistent session: back-to-back autocommit INSERTs outpace the
    // slow moveout and pile committed batches up against the cap.
    auto session = db_->Connect(driver, 0, nullptr);
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE(
        (*session)
            ->Execute(driver, "CREATE TABLE t (id INTEGER, score FLOAT)")
            .ok());
    for (int i = 0; i < 10; ++i) {
      auto inserted = (*session)->Execute(
          driver, StrCat("INSERT INTO t VALUES (", i, ", ", i, ".5)"));
      ASSERT_TRUE(inserted.ok()) << inserted.status();
    }
    auto count = (*session)->Execute(driver, "SELECT COUNT(*) FROM t");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->rows[0][0].int64_value(), 10);
    ASSERT_TRUE((*session)->Close(driver).ok());
  });
  EXPECT_GT(tracer_->metrics().counter("vertica.wos_stall_ms"), 0.0);
  obs::TraceMatcher trace(*tracer_);
  EXPECT_FALSE(trace.Category("tm").Name("wos.stall").empty());
  for (storage::SegmentStore* store : AllStores("t")) {
    EXPECT_EQ(store->num_wos_batches(), 0);
  }
}

// ------------------------------------------------------------ mergeout

// Repeated small loads pile up ROS containers; mergeout folds them back
// down and the data survives byte-identically.
TEST_F(TmTest, MergeoutBoundsContainerCountUnderRepeatedLoads) {
  Build(AggressiveTm());
  std::multiset<std::string> before;
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver, 0,
           "CREATE TABLE t (id INTEGER, score FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
    for (int batch = 0; batch < 12; ++batch) {
      std::string values;
      for (int i = 0; i < 8; ++i) {
        int id = batch * 8 + i;
        values += StrCat(i ? ", " : "", "(", id, ", ", id, ".5)");
      }
      ExecOk(driver, 0, StrCat("INSERT INTO t VALUES ", values));
    }
    before = ContentsOf(ExecOk(driver, 2, "SELECT * FROM t").rows);
    // Idle out so every armed mergeout pass completes.
    ASSERT_TRUE(driver.Sleep(2.0).ok());
    std::multiset<std::string> after =
        ContentsOf(ExecOk(driver, 1, "SELECT * FROM t").rows);
    EXPECT_EQ(before, after) << "mergeout changed query results";
  });
  EXPECT_EQ(before.size(), 96u);
  EXPECT_GT(tracer_->metrics().counter("tm.mergeout_runs"), 0.0);
  EXPECT_GT(tracer_->metrics().counter("tm.mergeout_bytes"), 0.0);
  for (storage::SegmentStore* store : AllStores("t")) {
    EXPECT_LE(store->num_ros_containers(), 4)
        << "mergeout left too many containers";
  }
}

// ------------------------------------------------- AHM, purge, AT EPOCH

// AT EPOCH below the AHM fails with a clean HISTORY_PURGED status; plain
// SELECT and AT EPOCH LATEST are provably unaffected by the purge.
TEST_F(TmTest, AtEpochBelowAhmFailsHistoryPurged) {
  Build(AggressiveTm());
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver, 0,
           "CREATE TABLE t (id INTEGER, score FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
    for (int i = 0; i < 12; ++i) {
      ExecOk(driver, 0,
             StrCat("INSERT INTO t VALUES (", i, ", ", i, ".5)"));
    }
    std::multiset<std::string> before =
        ContentsOf(ExecOk(driver, 1, "SELECT * FROM t").rows);
    ASSERT_TRUE(driver.Sleep(2.0).ok());  // let the AHM catch up
    EXPECT_GT(db_->ahm(), 1u);
    // Historical read below the AHM: clean, typed failure.
    auto session = db_->Connect(driver, 2, nullptr);
    ASSERT_TRUE(session.ok());
    auto ancient = (*session)->Execute(driver,
                                       "SELECT * FROM t AT EPOCH 1");
    ASSERT_FALSE(ancient.ok());
    EXPECT_EQ(ancient.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(ancient.status().ToString().find("HISTORY_PURGED"),
              std::string::npos)
        << ancient.status();
    ASSERT_TRUE((*session)->Close(driver).ok());
    // Reads at or above the AHM are untouched.
    std::multiset<std::string> after =
        ContentsOf(ExecOk(driver, 3, "SELECT * FROM t").rows);
    EXPECT_EQ(before, after);
    std::multiset<std::string> latest = ContentsOf(
        ExecOk(driver, 0, "SELECT * FROM t AT EPOCH LATEST").rows);
    EXPECT_EQ(before, latest);
    // v_catalog.epochs surfaces the mark.
    QueryResult epochs = ExecOk(driver, 0,
                                "SELECT ahm_epoch FROM v_catalog.epochs");
    EXPECT_EQ(epochs.rows[0][0].int64_value(),
              static_cast<int64_t>(db_->ahm()));
  });
  EXPECT_GT(tracer_->metrics().counter("tm.ahm_advances"), 0.0);
}

// The AT EPOCH rule holds on every read path: a future epoch is
// OUT_OF_RANGE and one below the AHM is HISTORY_PURGED, whether the
// query scans one table, joins co-located projections, gathers a join
// forced to hash, or joins through a view (the legacy join path); the
// AHM itself stays readable on all four.
TEST_F(TmTest, AtEpochRuleHoldsOnEveryReadPath) {
  Build(AggressiveTm());
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver, 0,
           "CREATE TABLE fact (id INTEGER, cust INTEGER) "
           "SEGMENTED BY HASH(id) ALL NODES");
    ExecOk(driver, 0,
           "CREATE TABLE dim (cust_id INTEGER, region VARCHAR) "
           "SEGMENTED BY HASH(cust_id) ALL NODES");
    ExecOk(driver, 0,
           "CREATE PROJECTION fact_by_cust AS SELECT cust, id FROM fact "
           "ORDER BY cust SEGMENTED BY HASH(cust)");
    ExecOk(driver, 0,
           "CREATE PROJECTION dim_by_cust AS SELECT cust_id, region "
           "FROM dim ORDER BY cust_id SEGMENTED BY HASH(cust_id)");
    ExecOk(driver, 0, "CREATE VIEW dim_v AS SELECT * FROM dim");
    const storage::Epoch created = db_->current_epoch();
    for (int i = 0; i < 12; ++i) {
      ExecOk(driver, 0,
             StrCat("INSERT INTO fact VALUES (", i, ", ", i % 4, ")"));
      ExecOk(driver, 0,
             StrCat("INSERT INTO dim VALUES (", i, ", 'r", i % 3, "')"));
    }
    ASSERT_TRUE(driver.Sleep(2.0).ok());  // let the AHM catch up
    // Below the AHM but not below the projections' create epoch, so the
    // planner still picks them for the co-located join.
    ASSERT_GT(db_->ahm(), created);
    const storage::Epoch purged = db_->ahm() - 1;
    const storage::Epoch future = db_->current_epoch() + 5;

    struct ReadPath {
      std::string sql;  // `%` stands for the epoch
      std::optional<std::string> join_strategy;
    };
    const std::vector<ReadPath> paths = {
        {"SELECT * FROM fact AT EPOCH %", std::nullopt},
        {"SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id AT EPOCH %",
         std::nullopt},
        {"SELECT COUNT(*) FROM fact JOIN dim ON cust = cust_id AT EPOCH %",
         "hash"},
        {"SELECT COUNT(*) FROM fact JOIN dim_v ON cust = cust_id "
         "AT EPOCH %",
         std::nullopt},
    };
    auto run = [&](const ReadPath& path, storage::Epoch epoch) {
      std::string sql = path.sql;
      sql.replace(sql.find('%'), 1, StrCat(epoch));
      auto session = db_->Connect(driver, 1, nullptr);
      FABRIC_CHECK(session.ok()) << session.status();
      (*session)->set_forced_join_strategy(path.join_strategy);
      Result<QueryResult> result = (*session)->Execute(driver, sql);
      FABRIC_CHECK((*session)->Close(driver).ok());
      return result;
    };
    // The unforced join of the two projections is the co-located one.
    std::string plan;
    for (const Row& row :
         ExecOk(driver, 0,
                StrCat("EXPLAIN SELECT COUNT(*) FROM fact JOIN dim "
                       "ON cust = cust_id AT EPOCH ",
                       purged))
             .rows) {
      plan += row[0].varchar_value() + "\n";
    }
    EXPECT_NE(plan.find("(co-located)"), std::string::npos) << plan;
    for (const ReadPath& path : paths) {
      Result<QueryResult> ahead = run(path, future);
      ASSERT_FALSE(ahead.ok()) << path.sql;
      EXPECT_EQ(ahead.status().code(), StatusCode::kOutOfRange);
      EXPECT_NE(ahead.status().ToString().find("is in the future"),
                std::string::npos)
          << path.sql << ": " << ahead.status();
      Result<QueryResult> ancient = run(path, purged);
      ASSERT_FALSE(ancient.ok()) << path.sql;
      EXPECT_EQ(ancient.status().code(), StatusCode::kOutOfRange);
      EXPECT_NE(ancient.status().ToString().find("HISTORY_PURGED"),
                std::string::npos)
          << path.sql << ": " << ancient.status();
      Result<QueryResult> at_ahm = run(path, db_->ahm());
      EXPECT_TRUE(at_ahm.ok()) << path.sql << ": " << at_ahm.status();
    }
  });
}

// Purge physically reclaims rows whose deletes are ancient — container
// stats drop to zero deleted rows — while visible results are unchanged.
TEST_F(TmTest, PurgeReclaimsAncientDeletesWithoutChangingResults) {
  Build(AggressiveTm());
  std::multiset<std::string> before;
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver, 0,
           "CREATE TABLE t (id INTEGER, score FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
    std::string values;
    for (int i = 0; i < 40; ++i) {
      values += StrCat(i ? ", " : "", "(", i, ", ", i, ".5)");
    }
    ExecOk(driver, 0, StrCat("INSERT INTO t VALUES ", values));
    QueryResult deleted =
        ExecOk(driver, 1, "DELETE FROM t WHERE id < 20");
    EXPECT_EQ(deleted.affected, 20);
    before = ContentsOf(ExecOk(driver, 2, "SELECT * FROM t").rows);
    EXPECT_EQ(before.size(), 20u);
    // Burn epochs past the retention window, then idle for the AHM tick.
    for (int i = 0; i < 8; ++i) {
      ExecOk(driver, 0,
             StrCat("INSERT INTO t VALUES (", 100 + i, ", 0.0)"));
    }
    ASSERT_TRUE(driver.Sleep(2.0).ok());
    std::multiset<std::string> after =
        ContentsOf(ExecOk(driver, 3, "SELECT * FROM t").rows);
    EXPECT_EQ(after.size(), 28u);
    for (const std::string& line : before) {
      EXPECT_EQ(after.count(line), 1u) << line;
    }
  });
  EXPECT_GE(tracer_->metrics().counter("tm.purged_rows"), 20.0);
  EXPECT_EQ(tracer_->metrics().counter("tm.failures"), 0.0);
  obs::TraceMatcher trace(*tracer_);
  EXPECT_FALSE(trace.Category("tm").Name("purge").empty());
  EXPECT_TRUE(trace.Category("tm").Name("failure").empty());
  // The deleted rows are physically gone from every copy.
  for (storage::SegmentStore* store : AllStores("t")) {
    for (const storage::ContainerStats& stats : store->RosStats()) {
      EXPECT_EQ(stats.deleted_rows, 0)
          << "purge left delete-marked rows behind";
    }
    EXPECT_EQ(store->num_wos_batches(), 0);
  }
}

// --------------------------------------- TM on/off equivalence property

struct WorkloadResult {
  std::multiset<std::string> contents;
  int64_t count = 0;
};

// One randomized DML + node-outage schedule, identical statement stream
// regardless of Tuple Mover settings (fixed iteration count, not a
// virtual-time-bounded loop, so background-service timing cannot change
// what gets written).
WorkloadResult RunOutageWorkload(uint64_t seed, const TupleMoverConfig& tm,
                                 bool check_convergence) {
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 4;
  vopts.tuple_mover = tm;
  Database db(&engine, &network, vopts);

  ksafety::RandomOutageOptions options;
  options.horizon = 5.0;
  options.max_outages = 2;
  options.min_downtime = 0.5;
  options.max_downtime = 2.0;
  ksafety::NodeFailureSchedule schedule =
      ksafety::RandomNodeOutages(seed, 4, options);
  schedule.Install(&db);

  WorkloadResult result;
  engine.Spawn("driver", [&](sim::Process& driver) {
    std::set<int> victims;
    for (const ksafety::Outage& outage : schedule.outages()) {
      victims.insert(outage.node);
    }
    int safe_node = 0;
    while (victims.count(safe_node) > 0) ++safe_node;
    auto session = db.Connect(driver, safe_node, nullptr);
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE((*session)
                    ->Execute(driver,
                              "CREATE TABLE t (id INTEGER, score FLOAT) "
                              "SEGMENTED BY HASH(id) ALL NODES")
                    .ok());
    int next_id = 0;
    for (int iter = 0; iter < 30; ++iter) {
      std::string values;
      for (int i = 0; i < 10; ++i, ++next_id) {
        values += StrCat(i ? ", " : "", "(", next_id, ", ",
                         next_id % 7, ".5)");
      }
      auto inserted = (*session)->Execute(
          driver, StrCat("INSERT INTO t VALUES ", values));
      ASSERT_TRUE(inserted.ok()) << inserted.status();
      if (iter % 4 == 3) {
        // Deterministic trailing-window delete over committed ids.
        int lo = (iter / 4) * 15;
        auto deleted = (*session)->Execute(
            driver, StrCat("DELETE FROM t WHERE id >= ", lo,
                           " AND id < ", lo + 5));
        ASSERT_TRUE(deleted.ok()) << deleted.status();
      }
      ASSERT_TRUE(driver.Sleep(0.2).ok());
    }
    // Idle past the outage horizon, then let every restart finish.
    while (driver.Now() < options.horizon + options.max_downtime) {
      ASSERT_TRUE(driver.Sleep(0.5).ok());
    }
    for (const ksafety::Outage& outage : schedule.outages()) {
      if (outage.restart_at >= 0) {
        ASSERT_TRUE(
            db.WaitForNodeState(driver, outage.node, NodeState::kUp).ok());
      }
    }
    ASSERT_TRUE((*session)->Close(driver).ok());
    EXPECT_FALSE(db.cluster_is_down());

    auto reader = db.Connect(driver, safe_node, nullptr);
    ASSERT_TRUE(reader.ok());
    auto all = (*reader)->Execute(driver, "SELECT * FROM t");
    ASSERT_TRUE(all.ok()) << all.status();
    result.contents = ContentsOf(all->rows);
    auto count = (*reader)->Execute(driver, "SELECT COUNT(*) FROM t");
    ASSERT_TRUE(count.ok());
    result.count = count->rows[0][0].int64_value();
    ASSERT_TRUE((*reader)->Close(driver).ok());

    if (check_convergence) {
      auto storage = db.GetStorage("t");
      ASSERT_TRUE(storage.ok());
      for (size_t s = 0; s < (*storage)->per_node.size(); ++s) {
        EXPECT_EQ((*storage)->per_node[s]->ContentFingerprint(),
                  (*storage)->buddy[s]->ContentFingerprint())
            << "segment " << s << " diverged (seed " << seed << ")";
      }
    }
  });
  Status status = engine.Run();
  EXPECT_TRUE(status.ok()) << status;
  return result;
}

// The Tuple Mover is pure storage management: the same randomized
// DML/outage schedule yields byte-identical query results whether the
// service runs aggressively or not at all — and with it on, buddy pairs
// still converge after recovery despite divergent compaction histories.
TEST(TmEquivalencePropertyTest, TmOnAndOffProduceByteIdenticalResults) {
  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    TupleMoverConfig off;
    off.enabled = false;
    WorkloadResult plain = RunOutageWorkload(seed, off,
                                             /*check_convergence=*/false);
    WorkloadResult managed = RunOutageWorkload(seed, AggressiveTm(),
                                               /*check_convergence=*/true);
    EXPECT_EQ(plain.count, managed.count);
    EXPECT_EQ(plain.contents, managed.contents)
        << "Tuple Mover changed visible data (seed " << seed << ")";
    EXPECT_EQ(plain.count, 300 - 7 * 5);
  }
}

// ------------------------------------------------- sustained-ingest soak

// Back-to-back S2V appends: with the Tuple Mover on, WOS batch counts and
// ROS container counts stay bounded no matter how long ingest runs.
TEST(TmSoakTest, SustainedS2VIngestKeepsStorageBounded) {
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 4;
  vopts.tuple_mover = AggressiveTm();
  Database db(&engine, &network, vopts);
  spark::SparkCluster::Options sopts;
  sopts.num_workers = 4;
  spark::SparkCluster cluster(&engine, &network, sopts);
  spark::SparkSession spark_session(&cluster);
  connector::RegisterVerticaSource(&spark_session, &db);
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);

  engine.Spawn("driver", [&](sim::Process& driver) {
    for (int save = 0; save < 6; ++save) {
      auto df = spark_session.CreateDataFrame(
          TestSchema(), MakeRows(save * 200, 200), 4);
      ASSERT_TRUE(df.ok());
      Status saved = df->Write()
                         .Format(kVerticaSourceName)
                         .Option("table", "t")
                         .Option("numpartitions", 4)
                         .Mode(SaveMode::kAppend)
                         .Save(driver);
      ASSERT_TRUE(saved.ok()) << saved;
    }
    ASSERT_TRUE(driver.Sleep(2.0).ok());  // drain every armed pass
    auto session = db.Connect(driver, 0, nullptr);
    ASSERT_TRUE(session.ok());
    auto count = (*session)->Execute(driver, "SELECT COUNT(*) FROM t");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->rows[0][0].int64_value(), 1200);
    ASSERT_TRUE((*session)->Close(driver).ok());
  });
  Status status = engine.Run();
  ASSERT_TRUE(status.ok()) << status;

  auto storage = db.GetStorage("t");
  ASSERT_TRUE(storage.ok());
  std::vector<storage::SegmentStore*> stores;
  for (auto& s : (*storage)->per_node) stores.push_back(s.get());
  for (auto& s : (*storage)->buddy) {
    if (s != nullptr) stores.push_back(s.get());
  }
  for (storage::SegmentStore* store : stores) {
    EXPECT_EQ(store->num_wos_batches(), 0);
    EXPECT_LE(store->num_ros_containers(), 4)
        << "container count unbounded under sustained ingest";
  }
  EXPECT_GT(tracer.metrics().counter("tm.moveout_runs"), 0.0);
  EXPECT_GT(tracer.metrics().counter("tm.mergeout_runs"), 0.0);
  EXPECT_EQ(tracer.metrics().gauge("vertica.wos_batches"), 0.0);
}

// ------------------------------------------------------ rejected runs

// A moveout or mergeout the store rejects — here because its content was
// replaced by a copy typed for another schema — bumps tm.failures and
// leaves the store untouched; the ticks keep re-arming, and once the
// store is repaired the service quiesces as usual.
TEST_F(TmTest, RejectedRunsCountFailuresAndLeaveStoreUntouched) {
  Build(AggressiveTm());
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver, 0,
           "CREATE TABLE t (id INTEGER, score FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
    ExecOk(driver, 0, "CREATE TABLE u (id INTEGER)");
    ExecOk(driver, 0, "INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)");
    ASSERT_TRUE(driver.Sleep(1.0).ok());
    storage::SegmentStore* store = AllStores("t")[0];
    storage::SegmentStore saved(store->schema());
    saved.CopyContentsFrom(*store);

    storage::SegmentStore alien(Schema(
        {{"id", DataType::kVarchar}, {"score", DataType::kFloat64}}));
    const Row row = {Value::Varchar("x"), Value::Float64(1.0)};
    for (storage::TxnId txn = 1; txn <= 3; ++txn) {
      ASSERT_TRUE(InsertRowsDirect(alien, txn, {row}).ok());
      alien.CommitTxn(txn, txn);
    }
    ASSERT_TRUE(InsertRows(alien, 4, {row}).ok());
    alien.CommitTxn(4, 4);
    store->CopyContentsFrom(alien);
    const uint64_t fingerprint = store->ContentFingerprint();
    const double encoded = store->TotalEncodedBytes();

    // A commit elsewhere arms the ticks; every pass over the store fails.
    ExecOk(driver, 0, "INSERT INTO u VALUES (1)");
    ASSERT_TRUE(driver.Sleep(0.5).ok());
    EXPECT_GT(tracer_->metrics().counter("tm.failures"), 0.0);
    EXPECT_EQ(store->ContentFingerprint(), fingerprint);
    EXPECT_EQ(store->num_ros_containers(), 3);
    EXPECT_EQ(store->num_wos_batches(), 1);
    EXPECT_EQ(store->TotalEncodedBytes(), encoded);
    store->CopyContentsFrom(saved);
  });
  obs::TraceMatcher trace(*tracer_);
  EXPECT_FALSE(trace.Category("tm").Name("failure").empty());
}

// The vertica.wos_batches gauge reads a WOS-unit count the stores keep
// up as units come and go. It must equal a walk over every hosted store
// after inserts, an abort, moveouts, purges, a recovery clone, a rename
// that replaces a table, a truncate and a drop.
TEST_F(TmTest, WosUnitCountMatchesAWalkOverEveryStore) {
  TupleMoverConfig tm = AggressiveTm();
  tm.moveout_interval = 1.0;  // the WOS holds units across several steps
  Build(tm);
  auto walk = [&] {
    int64_t total = 0;
    for (int n = 0; n < db_->num_nodes(); ++n) {
      db_->ForEachHostedStore(n, [&](const Database::HostedStore& hs) {
        total += hs.store->num_wos_batches();
      });
    }
    return total;
  };
  RunDriver([&](sim::Process& driver) {
    auto check = [&](const char* step) {
      EXPECT_EQ(db_->TotalWosBatches(), walk()) << step;
    };
    auto insert = [&](const char* table, int id) {
      ExecOk(driver, 2 * (id % 2),  // nodes 0 and 2 stay up
             StrCat("INSERT INTO ", table, " VALUES (", id, ", 1.5), (",
                    id + 100, ", 2.5)"));
    };
    for (const char* table : {"a", "b", "c"}) {
      ExecOk(driver, 0,
             StrCat("CREATE TABLE ", table, " (id INTEGER, score FLOAT) "
                    "SEGMENTED BY HASH(id) ALL NODES"));
    }
    for (int i = 0; i < 6; ++i) {
      for (const char* table : {"a", "b", "c"}) insert(table, i);
      check("insert");
    }
    EXPECT_GT(db_->TotalWosBatches(), 0);

    auto session = db_->Connect(driver, 0, nullptr);
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE((*session)->Execute(driver, "BEGIN").ok());
    ASSERT_TRUE(
        (*session)->Execute(driver, "INSERT INTO a VALUES (7, 0.5)").ok());
    check("pending insert");
    ASSERT_TRUE((*session)->Execute(driver, "ROLLBACK").ok());
    check("abort");
    ASSERT_TRUE((*session)->Close(driver).ok());

    ExecOk(driver, 0, "ALTER TABLE b RENAME TO c REPLACE");
    check("rename");
    ExecOk(driver, 0, "TRUNCATE TABLE c");
    check("truncate");
    insert("c", 50);
    ExecOk(driver, 0, "DROP TABLE c");
    check("drop");

    ExecOk(driver, 0, "DELETE FROM a WHERE id < 3");
    ASSERT_TRUE(db_->KillNode(1).ok());
    for (int i = 10; i < 14; ++i) insert("a", i);
    check("insert with a node down");
    ASSERT_TRUE(db_->RestartNode(1).ok());
    ASSERT_TRUE(db_->WaitForNodeState(driver, 1, NodeState::kUp).ok());
    check("recovery");
    for (int i = 0; i < 10; ++i) {
      ExecOk(driver, 0, StrCat("DELETE FROM a WHERE id = ", 100 + i));
    }
    ASSERT_TRUE(driver.Sleep(3.0).ok());
    check("moveout and purge");
    EXPECT_EQ(db_->TotalWosBatches(), 0);
  });
  EXPECT_GT(tracer_->metrics().counter("tm.moveout_runs"), 0.0);
  EXPECT_GT(tracer_->metrics().counter("tm.purged_rows"), 0.0);
  EXPECT_EQ(tracer_->metrics().gauge("vertica.wos_batches"), 0.0);
}

// --------------------------------------------------- monitoring surfaces

TEST_F(TmTest, SystemTablesExposeTupleMoverAndContainerState) {
  Build(AggressiveTm());
  RunDriver([&](sim::Process& driver) {
    ExecOk(driver, 0,
           "CREATE TABLE t (id INTEGER, score FLOAT) "
           "SEGMENTED BY HASH(id) ALL NODES");
    for (int i = 0; i < 6; ++i) {
      ExecOk(driver, 0,
             StrCat("INSERT INTO t VALUES (", i, ", ", i, ".5)"));
    }
    ASSERT_TRUE(driver.Sleep(1.0).ok());

    QueryResult tm = ExecOk(driver, 1,
                            "SELECT * FROM v_monitor.tuple_mover");
    // One moveout + one mergeout row per node, plus the cluster AHM row.
    EXPECT_EQ(tm.rows.size(),
              static_cast<size_t>(2 * db_->num_nodes() + 1));
    int64_t total_runs = 0;
    for (const Row& row : tm.rows) {
      total_runs += row[3].int64_value();  // runs column
    }
    EXPECT_GT(total_runs, 0);

    QueryResult containers = ExecOk(
        driver, 2, "SELECT * FROM v_monitor.storage_containers");
    EXPECT_GT(containers.rows.size(), 0u);
    EXPECT_EQ(containers.schema.num_columns(), 11);
    int64_t total_rows = 0;
    for (const Row& row : containers.rows) {
      if (row[0].varchar_value() == "t" &&
          row[2].varchar_value() == "primary") {
        total_rows += row[4].int64_value();  // rows column
      }
    }
    EXPECT_EQ(total_rows, 6);
  });
}

// ----------------------------------------------------------- determinism

// The background service is part of the deterministic simulation: the
// same seed reproduces the same trace, byte for byte, with the TM
// running aggressively throughout.
TEST(TmDeterminismTest, TupleMoverRunsAreReproducible) {
  auto run = [] {
    sim::Engine engine;
    net::Network network(&engine);
    Database::Options vopts;
    vopts.num_nodes = 4;
    vopts.tuple_mover = AggressiveTm();
    Database db(&engine, &network, vopts);
    obs::Tracer tracer([&engine] { return engine.now(); });
    obs::ScopedTracer install(&tracer);
    engine.Spawn("driver", [&](sim::Process& driver) {
      auto session = db.Connect(driver, 0, nullptr);
      ASSERT_TRUE(session.ok());
      ASSERT_TRUE((*session)
                      ->Execute(driver,
                                "CREATE TABLE t (id INTEGER, score "
                                "FLOAT) SEGMENTED BY HASH(id) ALL NODES")
                      .ok());
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE((*session)
                        ->Execute(driver,
                                  StrCat("INSERT INTO t VALUES (", i,
                                         ", ", i, ".5)"))
                        .ok());
      }
      ASSERT_TRUE(
          (*session)->Execute(driver, "DELETE FROM t WHERE id < 5").ok());
      ASSERT_TRUE((*session)->Close(driver).ok());
    });
    Status status = engine.Run();
    EXPECT_TRUE(status.ok()) << status;
    return StrCat(engine.now(), "|", engine.steps(), "|",
                  tracer.ToChromeTraceJson());
  };
  std::string first = run();
  std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"tm\""), std::string::npos)
      << "trace is missing tuple-mover events";
}

}  // namespace
}  // namespace fabric::vertica
