// Shuffle engine tests: hash repartitioning, distributed GroupBy/Agg and
// equi-joins through the shuffle service, exactly-once results under
// executor loss and flaky fetches (stage re-execution from lineage), and
// the V2S aggregate/LIMIT pushdown loop — the pushed and shuffled paths
// must return byte-identical rows.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "seed_env.h"

#include "common/hll.h"
#include "common/random.h"
#include "common/string_util.h"
#include "connector/default_source.h"
#include "net/network.h"
#include "obs/trace.h"
#include "obs/trace_matcher.h"
#include "sim/engine.h"
#include "spark/cluster.h"
#include "spark/dataframe.h"
#include "spark/shuffle/shuffle.h"
#include "vertica/database.h"
#include "vertica/session.h"

namespace fabric::spark {
namespace {

using connector::kVerticaSourceName;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

// Canonical rendering of a row set: every column of every row as text,
// order-free. "Byte-identical" assertions compare these.
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

Schema KvSchema() {
  return Schema({{"k", DataType::kVarchar}, {"v", DataType::kFloat64}});
}

// ------------------------------------------------ driver-local pipelines

class ShuffleTest : public ::testing::Test {
 protected:
  ShuffleTest() : network_(&engine_) {
    SparkCluster::Options options;
    options.num_workers = 4;
    options.cost.spark_slots_per_worker = 4;
    cluster_ = std::make_unique<SparkCluster>(&engine_, &network_, options);
    session_ = std::make_unique<SparkSession>(cluster_.get());
  }

  void RunDriver(std::function<void(sim::Process&)> body) {
    engine_.Spawn("driver", std::move(body));
    Status status = engine_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  sim::Engine engine_;
  net::Network network_;
  std::unique_ptr<SparkCluster> cluster_;
  std::unique_ptr<SparkSession> session_;
};

TEST_F(ShuffleTest, RepartitionWidensThroughShuffle) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back({Value::Varchar(StrCat("id", i)),
                      Value::Float64(i * 0.25)});
    }
    auto df = session_->CreateDataFrame(KvSchema(), rows, 2);
    ASSERT_TRUE(df.ok());
    // An identity Filter keeps the plan from being driver-local data,
    // which Repartition would reslice in place without any shuffle.
    auto piped =
        df->Filter([](const Row&) -> Result<bool> { return true; });
    auto wide = piped.Repartition(8);
    ASSERT_TRUE(wide.ok()) << wide.status();
    EXPECT_EQ(wide->NumPartitions(), 8);
    auto collected = wide->Collect(driver);
    ASSERT_TRUE(collected.ok()) << collected.status();
    EXPECT_EQ(ContentsOf(*collected), ContentsOf(rows));
  });
  EXPECT_GT(tracer.metrics().counter("spark.shuffle.bytes"), 0.0);
  // One map output per upstream partition.
  EXPECT_EQ(tracer.metrics().counter("spark.shuffle.map_outputs"), 2.0);
}

TEST_F(ShuffleTest, GroupByAggMatchesReference) {
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = {
        {Value::Varchar("a"), Value::Float64(1.0)},
        {Value::Varchar("a"), Value::Null()},
        {Value::Varchar("b"), Value::Float64(2.5)},
        {Value::Null(), Value::Float64(3.0)},
        {Value::Varchar("b"), Value::Null()},
        {Value::Varchar("a"), Value::Float64(4.0)},
    };
    auto df = session_->CreateDataFrame(KvSchema(), rows, 3);
    ASSERT_TRUE(df.ok());
    auto grouped = df->GroupBy({"k"});
    ASSERT_TRUE(grouped.ok()) << grouped.status();
    auto agg = grouped->Agg({AggCount(), AggCount("v"), AggSum("v"),
                             AggAvg("v"), AggMin("v"), AggMax("v")});
    ASSERT_TRUE(agg.ok()) << agg.status();
    EXPECT_EQ(agg->schema().column(0).name, "k");
    EXPECT_EQ(agg->schema().column(1).name, "count(*)");
    EXPECT_EQ(agg->schema().column(2).name, "count(v)");
    EXPECT_EQ(agg->schema().column(3).name, "sum(v)");
    EXPECT_EQ(agg->schema().column(1).type, DataType::kInt64);
    EXPECT_EQ(agg->schema().column(3).type, DataType::kFloat64);

    auto result = agg->Collect(driver);
    ASSERT_TRUE(result.ok()) << result.status();
    // NULL keys form their own group; NULL inputs are skipped by every
    // aggregate except COUNT(*).
    std::multiset<std::string> expected = {
        "<null>|1|1|3|3|3|3|",
        "a|3|2|5|2.5|1|4|",
        "b|2|1|2.5|2.5|2.5|2.5|",
    };
    EXPECT_EQ(ContentsOf(*result), expected);
  });
}

TEST_F(ShuffleTest, GlobalAggregateEmitsExactlyOneRow) {
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows;
    for (int i = 0; i < 40; ++i) {
      rows.push_back({Value::Varchar("x"), Value::Float64(i)});
    }
    auto df = session_->CreateDataFrame(KvSchema(), rows, 4);
    ASSERT_TRUE(df.ok());
    auto agg = df->GroupBy({})->Agg({AggCount(), AggSum("v")});
    ASSERT_TRUE(agg.ok()) << agg.status();
    auto result = agg->Collect(driver);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ((*result)[0][0].int64_value(), 40);
    EXPECT_DOUBLE_EQ((*result)[0][1].float64_value(), 780.0);

    // The SQL convention survives an empty input: COUNT 0, SUM NULL.
    auto empty = session_->CreateDataFrame(KvSchema(), {}, 2);
    ASSERT_TRUE(empty.ok());
    auto empty_agg = empty->GroupBy({})->Agg({AggCount(), AggSum("v")});
    ASSERT_TRUE(empty_agg.ok());
    auto empty_result = empty_agg->Collect(driver);
    ASSERT_TRUE(empty_result.ok()) << empty_result.status();
    ASSERT_EQ(empty_result->size(), 1u);
    EXPECT_EQ((*empty_result)[0][0].int64_value(), 0);
    EXPECT_TRUE((*empty_result)[0][1].is_null());
  });
}

TEST_F(ShuffleTest, JoinMatchesNestedLoopReference) {
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> left = {
        {Value::Varchar("a"), Value::Float64(1)},
        {Value::Varchar("a"), Value::Float64(2)},
        {Value::Varchar("b"), Value::Float64(3)},
        {Value::Null(), Value::Float64(4)},
        {Value::Varchar("d"), Value::Float64(5)},
    };
    std::vector<Row> right = {
        {Value::Varchar("a"), Value::Int64(10)},
        {Value::Varchar("b"), Value::Int64(20)},
        {Value::Varchar("b"), Value::Int64(21)},
        {Value::Null(), Value::Int64(30)},
        {Value::Varchar("e"), Value::Int64(40)},
    };
    Schema right_schema({{"k", DataType::kVarchar},
                         {"w", DataType::kInt64}});
    auto ldf = session_->CreateDataFrame(KvSchema(), left, 3);
    auto rdf = session_->CreateDataFrame(right_schema, right, 2);
    ASSERT_TRUE(ldf.ok() && rdf.ok());
    auto joined = ldf->Join(*rdf, {"k"}, {"k"});
    ASSERT_TRUE(joined.ok()) << joined.status();
    // Right-side key collides with the left's and is suffixed.
    EXPECT_EQ(joined->schema().column(2).name, "k_r");

    auto result = joined->Collect(driver);
    ASSERT_TRUE(result.ok()) << result.status();
    // Inner equi-join semantics: NULL keys never match (SQL equality).
    std::vector<Row> expected;
    for (const Row& l : left) {
      if (l[0].is_null()) continue;
      for (const Row& r : right) {
        if (r[0].is_null()) continue;
        if (l[0].varchar_value() != r[0].varchar_value()) continue;
        Row out = l;
        out.insert(out.end(), r.begin(), r.end());
        expected.push_back(std::move(out));
      }
    }
    EXPECT_EQ(expected.size(), 4u);
    EXPECT_EQ(ContentsOf(*result), ContentsOf(expected));
  });
}

TEST_F(ShuffleTest, LimitCapsCollectAndCount) {
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back({Value::Varchar(StrCat("r", i)), Value::Float64(i)});
    }
    auto df = session_->CreateDataFrame(KvSchema(), rows, 4);
    ASSERT_TRUE(df.ok());
    auto limited = df->Limit(7);
    ASSERT_TRUE(limited.ok());
    EXPECT_EQ(limited->Collect(driver)->size(), 7u);
    EXPECT_EQ(limited->Count(driver).value(), 7);
    EXPECT_EQ(df->Limit(0)->Count(driver).value(), 0);
    EXPECT_EQ(df->Limit(1000)->Count(driver).value(), 100);
    EXPECT_FALSE(df->Limit(-1).ok());
  });
}

TEST_F(ShuffleTest, LostMapOutputsAreRecomputedBeforeTheNextAction) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows;
    for (int i = 0; i < 120; ++i) {
      rows.push_back(
          {Value::Varchar(StrCat("g", i % 9)), Value::Float64(i)});
    }
    auto df = session_->CreateDataFrame(KvSchema(), rows, 6);
    ASSERT_TRUE(df.ok());
    auto agg = df->GroupBy({"k"})->Agg({AggCount(), AggSum("v")});
    ASSERT_TRUE(agg.ok());
    auto baseline = agg->Collect(driver);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    // Losing executors between actions drops their committed blocks; the
    // next action detects the missing maps up front and re-runs exactly
    // those from lineage — no fetch ever fails.
    cluster_->shuffle_manager()->KillExecutor(0);
    cluster_->shuffle_manager()->KillExecutor(1);
    EXPECT_GT(tracer.metrics().counter("spark.shuffle.map_outputs_lost"),
              0.0);
    auto again = agg->Collect(driver);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(ContentsOf(*again), ContentsOf(*baseline));
  });
  EXPECT_EQ(tracer.metrics().counter("spark.shuffle.fetch_failures"), 0.0);
  EXPECT_EQ(tracer.metrics().counter("spark.shuffle.stage_resubmits"), 0.0);
}

TEST_F(ShuffleTest, MidReduceExecutorLossResubmitsTheMapStage) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows;
    for (int i = 0; i < 4000; ++i) {
      rows.push_back(
          {Value::Varchar(StrCat("g", i % 31)), Value::Float64(i)});
    }
    auto df = session_->CreateDataFrame(KvSchema(), rows, 8);
    ASSERT_TRUE(df.ok());
    auto agg = df->GroupBy({"k"})->Agg({AggCount(), AggSum("v")});
    ASSERT_TRUE(agg.ok());
    auto baseline = agg->Collect(driver);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    // Rebuild the lineage so nothing is cached, then kill executors the
    // moment reduce-side fetches start moving bytes: blocks vanish under
    // the running reduce stage, fetch retries exhaust, and the executor
    // answers with a map-stage resubmission.
    auto fresh = session_->CreateDataFrame(KvSchema(), rows, 8);
    ASSERT_TRUE(fresh.ok());
    auto fresh_agg = fresh->GroupBy({"k"})->Agg({AggCount(), AggSum("v")});
    ASSERT_TRUE(fresh_agg.ok());
    // One clean run's worth of fetch traffic is on the counter already;
    // trigger a third of the way into the second run's fetches. The poll
    // quantum must undercut a single fetch transfer or the whole reduce
    // stage slips through between wakes.
    double baseline_bytes =
        tracer.metrics().counter("spark.shuffle.bytes");
    double threshold = baseline_bytes * (1.0 + 1.0 / 3.0);
    engine_.Spawn("executioner", [&, threshold](sim::Process& killer) {
      while (tracer.metrics().counter("spark.shuffle.bytes") < threshold) {
        if (!killer.Sleep(1e-7).ok()) return;
      }
      cluster_->shuffle_manager()->KillExecutor(0);
      cluster_->shuffle_manager()->KillExecutor(2);
    });
    auto disturbed = fresh_agg->Collect(driver);
    ASSERT_TRUE(disturbed.ok()) << disturbed.status();
    EXPECT_EQ(ContentsOf(*disturbed), ContentsOf(*baseline));
  });
  EXPECT_GT(tracer.metrics().counter("spark.shuffle.fetch_failures"), 0.0);
  EXPECT_GT(tracer.metrics().counter("spark.shuffle.stage_resubmits"), 0.0);
  obs::TraceMatcher resubmits =
      obs::TraceMatcher(tracer).Category("spark").Name("stage.resubmit");
  EXPECT_GT(resubmits.count(), 0u);
}

TEST_F(ShuffleTest, FlakyFetchesRetryAndRecover) {
  // A cluster whose every fetch attempt fails 20% of the time (seeded):
  // the per-fetch retry loop absorbs the transients without losing any
  // blocks or rows.
  sim::Engine engine;
  net::Network network(&engine);
  SparkCluster::Options options;
  options.num_workers = 4;
  options.cost.spark_slots_per_worker = 4;
  options.shuffle_flaky_fetch_rate = 0.2;
  options.shuffle_flaky_fetch_seed = 1234;
  options.shuffle_fetch_retries = 8;
  SparkCluster cluster(&engine, &network, options);
  SparkSession session(&cluster);
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);

  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back({Value::Varchar(StrCat("g", i % 13)),
                    Value::Float64(i * 0.5)});
  }
  engine.Spawn("driver", [&](sim::Process& driver) {
    auto df = session.CreateDataFrame(KvSchema(), rows, 6);
    ASSERT_TRUE(df.ok());
    auto agg = df->GroupBy({"k"})->Agg({AggCount(), AggSum("v")});
    ASSERT_TRUE(agg.ok());
    auto result = agg->Collect(driver);
    ASSERT_TRUE(result.ok()) << result.status();
    // Reference computed driver-side.
    std::map<std::string, std::pair<int64_t, double>> expected;
    for (const Row& row : rows) {
      auto& slot = expected[row[0].varchar_value()];
      slot.first += 1;
      slot.second += row[1].float64_value();
    }
    EXPECT_EQ(result->size(), expected.size());
    for (const Row& row : *result) {
      const auto& slot = expected.at(row[0].varchar_value());
      EXPECT_EQ(row[1].int64_value(), slot.first);
      EXPECT_DOUBLE_EQ(row[2].float64_value(), slot.second);
    }
  });
  Status status = engine.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_GT(tracer.metrics().counter("spark.shuffle.fetch_retries"), 0.0);
}

TEST_F(ShuffleTest, ShuffleTraceProtocolIsConsistent) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows;
    for (int i = 0; i < 60; ++i) {
      rows.push_back(
          {Value::Varchar(StrCat("g", i % 5)), Value::Float64(i)});
    }
    auto df = session_->CreateDataFrame(KvSchema(), rows, 4);
    ASSERT_TRUE(df.ok());
    auto agg = df->GroupBy({"k"})->Agg({AggSum("v")});
    ASSERT_TRUE(agg.ok());
    ASSERT_TRUE(agg->Collect(driver).ok());
  });
  // Exactly one map stage span (begin + end), one commit event per
  // upstream partition, and the commit counter agrees with the trace.
  obs::TraceMatcher stages = obs::TraceMatcher(tracer)
                                 .Category("spark")
                                 .Name("stage")
                                 .Phase(obs::Event::Phase::kBegin);
  EXPECT_EQ(stages.count(), 1u);
  obs::TraceMatcher commits =
      obs::TraceMatcher(tracer).Category("spark").Name("shuffle.commit");
  EXPECT_EQ(commits.count(), 4u);
  EXPECT_EQ(tracer.metrics().counter("spark.shuffle.map_outputs"),
            static_cast<double>(commits.count()));
  EXPECT_GT(tracer.metrics().counter("spark.shuffle.bytes"), 0.0);
}

TEST_F(ShuffleTest, SeededKillScheduleGridIsExactlyOnce) {
  // The exactly-once grid: for every seed, a run disturbed by random
  // task kills plus scheduled executor losses must return byte-identical
  // rows to the undisturbed run.
  auto run_pipeline = [](sim::Engine* engine, SparkCluster* cluster,
                         std::multiset<std::string>* out) {
    SparkSession session(cluster);
    engine->Spawn("driver", [&session, out](sim::Process& driver) {
      std::vector<Row> facts;
      for (int i = 0; i < 600; ++i) {
        facts.push_back({Value::Varchar(StrCat("k", i % 17)),
                         Value::Float64(i * 0.125)});
      }
      std::vector<Row> dims;
      for (int i = 0; i < 17; i += 2) {
        dims.push_back({Value::Varchar(StrCat("k", i)),
                        Value::Int64(i * 100)});
      }
      Schema dim_schema({{"k", DataType::kVarchar},
                         {"tag", DataType::kInt64}});
      auto facts_df = session.CreateDataFrame(KvSchema(), facts, 6);
      auto dims_df = session.CreateDataFrame(dim_schema, dims, 2);
      ASSERT_TRUE(facts_df.ok() && dims_df.ok());
      auto agg =
          facts_df->GroupBy({"k"})->Agg({AggCount(), AggSum("v")});
      ASSERT_TRUE(agg.ok());
      auto joined = agg->Join(*dims_df, {"k"}, {"k"});
      ASSERT_TRUE(joined.ok());
      auto rows = joined->Collect(driver);
      ASSERT_TRUE(rows.ok()) << rows.status();
      *out = ContentsOf(*rows);
    });
    Status status = engine->Run();
    ASSERT_TRUE(status.ok()) << status;
  };

  SparkCluster::Options options;
  options.num_workers = 4;
  options.cost.spark_slots_per_worker = 4;
  // Every injector kill could land on the same task, so the total kill
  // budget (below) stays under this failure cap: any seed exercises
  // recovery, never job abort.
  options.max_task_failures = 10;

  std::multiset<std::string> reference;
  {
    sim::Engine engine;
    net::Network network(&engine);
    SparkCluster cluster(&engine, &network, options);
    run_pipeline(&engine, &cluster, &reference);
  }
  ASSERT_FALSE(reference.empty());

  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    sim::Engine engine;
    net::Network network(&engine);
    SparkCluster cluster(&engine, &network, options);
    // Task-level adversary: randomly kills attempts mid-flight.
    RandomFailureInjector injector(seed, 0.2, 0.01, /*max_kills=*/6);
    cluster.set_failure_injector(&injector);
    // Executor-level adversary: drops whole block stores at seeded times
    // spread across the job's runtime.
    Rng rng(seed * 7919 + 1);
    for (int kill = 0; kill < 3; ++kill) {
      double when = 0.002 + rng.NextDouble() * 0.2;
      int worker =
          static_cast<int>(rng.NextInt64(0, options.num_workers - 1));
      engine.ScheduleAt(when, [&cluster, worker] {
        cluster.shuffle_manager()->KillExecutor(worker);
      });
    }
    std::multiset<std::string> disturbed;
    run_pipeline(&engine, &cluster, &disturbed);
    EXPECT_EQ(disturbed, reference)
        << "shuffle results diverged under seed " << seed;
  }
}

// ------------------------------------------------- V2S pushdown fixtures

class ShufflePushdownTest : public ::testing::Test {
 protected:
  ShufflePushdownTest() : network_(&engine_) {
    vertica::Database::Options vopts;
    vopts.num_nodes = 4;
    db_ = std::make_unique<vertica::Database>(&engine_, &network_, vopts);
    SparkCluster::Options sopts;
    sopts.num_workers = 4;
    sopts.cost.spark_slots_per_worker = 4;
    cluster_ = std::make_unique<SparkCluster>(&engine_, &network_, sopts);
    session_ = std::make_unique<SparkSession>(cluster_.get());
    connector::RegisterVerticaSource(session_.get(), db_.get());
  }

  void RunDriver(std::function<void(sim::Process&)> body) {
    engine_.Spawn("driver", std::move(body));
    Status status = engine_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  Result<vertica::QueryResult> Exec(sim::Process& driver,
                                    const std::string& sql) {
    auto session = db_->Connect(driver, 0, &cluster_->driver_host());
    if (!session.ok()) return session.status();
    auto result = (*session)->Execute(driver, sql);
    Status closed = (*session)->Close(driver);
    if (result.ok() && !closed.ok()) return closed;
    return result;
  }

  vertica::QueryResult ExecOk(sim::Process& driver,
                              const std::string& sql) {
    auto result = Exec(driver, sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? std::move(*result) : vertica::QueryResult{};
  }

  // Creates `table` segmented by `seg_column` and fills it with `rows`
  // of (k INTEGER, v FLOAT, tag INTEGER), NULLs where v < 0. DIRECT
  // inserts go straight to ROS: one container per batch per node.
  void FillTable(sim::Process& driver, const std::string& table,
                 const std::string& seg_column,
                 const std::vector<std::array<double, 3>>& rows,
                 int batch = 40, bool direct = false) {
    ExecOk(driver,
           StrCat("CREATE TABLE ", table,
                  " (k INTEGER, v FLOAT, tag INTEGER) SEGMENTED BY HASH(",
                  seg_column, ") ALL NODES"));
    for (size_t at = 0; at < rows.size(); at += batch) {
      std::string values;
      for (size_t i = at; i < std::min(rows.size(), at + batch); ++i) {
        values += StrCat(i > at ? ", " : "", "(",
                         static_cast<int64_t>(rows[i][0]), ", ");
        values += rows[i][1] < 0 ? "NULL" : StrCat(rows[i][1]);
        values += StrCat(", ", static_cast<int64_t>(rows[i][2]), ")");
      }
      ExecOk(driver, StrCat("INSERT ", direct ? "/*+ DIRECT */ " : "",
                            "INTO ", table, " VALUES ", values));
    }
  }

  Result<DataFrame> LoadV2S(sim::Process& driver, const std::string& table,
                            int partitions, bool aggregate_pushdown) {
    return session_->Read()
        .Format(kVerticaSourceName)
        .Option("table", table)
        .Option("host", db_->node_address(0))
        .Option("numpartitions", partitions)
        .Option("aggregate_pushdown", aggregate_pushdown ? "true" : "false")
        .Load(driver);
  }

  sim::Engine engine_;
  net::Network network_;
  std::unique_ptr<vertica::Database> db_;
  std::unique_ptr<SparkCluster> cluster_;
  std::unique_ptr<SparkSession> session_;
};

std::vector<std::array<double, 3>> SyntheticRows(int n, int key_domain,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<std::array<double, 3>> rows;
  for (int i = 0; i < n; ++i) {
    double k = static_cast<double>(rng.NextInt64(0, key_domain - 1));
    // ~1 in 6 NULL measures (encoded as negative).
    double v = rng.NextBool(1.0 / 6) ? -1.0
                                     : static_cast<double>(
                                           rng.NextInt64(0, 1000)) /
                                           4.0;
    double tag = static_cast<double>(i % 5);
    rows.push_back({k, v, tag});
  }
  return rows;
}

TEST_F(ShufflePushdownTest, AggregatePushdownMatchesShuffledExecution) {
  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    // Fresh fabric per seed: each round owns its engine, database and
    // cluster.
    sim::Engine engine;
    net::Network network(&engine);
    vertica::Database::Options vopts;
    vopts.num_nodes = 4;
    vertica::Database db(&engine, &network, vopts);
    SparkCluster::Options sopts;
    sopts.num_workers = 4;
    sopts.cost.spark_slots_per_worker = 4;
    SparkCluster cluster(&engine, &network, sopts);
    SparkSession session(&cluster);
    connector::RegisterVerticaSource(&session, &db);
    obs::Tracer tracer([&engine] { return engine.now(); });
    obs::ScopedTracer install(&tracer);

    auto exec_ok = [&](sim::Process& driver, const std::string& sql) {
      auto connected = db.Connect(driver, 0, &cluster.driver_host());
      EXPECT_TRUE(connected.ok()) << connected.status();
      auto result = (*connected)->Execute(driver, sql);
      EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
      EXPECT_TRUE((*connected)->Close(driver).ok());
      return result.ok() ? std::move(*result) : vertica::QueryResult{};
    };
    auto load = [&](sim::Process& driver, bool aggregate_pushdown) {
      return session.Read()
          .Format(kVerticaSourceName)
          .Option("table", "t")
          .Option("host", db.node_address(0))
          .Option("numpartitions", 8)
          .Option("aggregate_pushdown",
                  aggregate_pushdown ? "true" : "false")
          .Load(driver);
    };

    engine.Spawn("driver", [&](sim::Process& driver) {
      exec_ok(driver,
              "CREATE TABLE t (k INTEGER, v FLOAT, tag INTEGER) "
              "SEGMENTED BY HASH(k) ALL NODES");
      const auto data = SyntheticRows(240, 9, seed);
      for (size_t at = 0; at < data.size(); at += 40) {
        std::string values;
        for (size_t i = at; i < std::min(data.size(), at + 40); ++i) {
          values += StrCat(i > at ? ", " : "", "(",
                           static_cast<int64_t>(data[i][0]), ", ");
          values += data[i][1] < 0 ? "NULL" : StrCat(data[i][1]);
          values += StrCat(", ", static_cast<int64_t>(data[i][2]), ")");
        }
        exec_ok(driver, StrCat("INSERT INTO t VALUES ", values));
      }

      // Grouping on the segmentation column: every group lives wholly in
      // one ring slice, so Vertica runs the whole GROUP BY.
      auto pushed_df = load(driver, true);
      ASSERT_TRUE(pushed_df.ok()) << pushed_df.status();
      auto pushed = pushed_df->GroupBy({"k"})->Agg(
          {AggCount(), AggCount("v"), AggSum("v"), AggAvg("v"),
           AggMin("v"), AggMax("v")});
      ASSERT_TRUE(pushed.ok()) << pushed.status();
      double before = tracer.metrics().counter("spark.shuffle.bytes");
      auto pushed_rows = pushed->Collect(driver);
      ASSERT_TRUE(pushed_rows.ok()) << pushed_rows.status();
      EXPECT_GT(tracer.metrics().counter("v2s.agg_pushdowns"), 0.0);
      // The shuffle is elided entirely.
      EXPECT_EQ(tracer.metrics().counter("spark.shuffle.bytes"), before);

      // Same plan with pushdown disabled: aggregates via the shuffle.
      auto shuffled_df = load(driver, false);
      ASSERT_TRUE(shuffled_df.ok()) << shuffled_df.status();
      auto shuffled = shuffled_df->GroupBy({"k"})->Agg(
          {AggCount(), AggCount("v"), AggSum("v"), AggAvg("v"),
           AggMin("v"), AggMax("v")});
      ASSERT_TRUE(shuffled.ok()) << shuffled.status();
      auto shuffled_rows = shuffled->Collect(driver);
      ASSERT_TRUE(shuffled_rows.ok()) << shuffled_rows.status();
      EXPECT_GT(tracer.metrics().counter("spark.shuffle.bytes"), before);

      EXPECT_EQ(ContentsOf(*pushed_rows), ContentsOf(*shuffled_rows))
          << "pushed and shuffled aggregation disagree";
      // And both agree with the server's own GROUP BY.
      auto reference = exec_ok(
          driver,
          "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), "
          "MAX(v) FROM t GROUP BY k");
      EXPECT_EQ(ContentsOf(*pushed_rows), ContentsOf(reference.rows));
    });
    Status status = engine.Run();
    ASSERT_TRUE(status.ok()) << status;
  }
}

TEST_F(ShufflePushdownTest, NonCoveringGroupingFallsBackToShuffle) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    FillTable(driver, "t", "k", SyntheticRows(200, 7, 5));
    // Grouping on `tag` does not cover the segmentation column `k`:
    // groups straddle partitions, pushdown would be unsound, and the
    // planner falls back to the Spark-side shuffle.
    auto df = LoadV2S(driver, "t", 8, true);
    ASSERT_TRUE(df.ok()) << df.status();
    auto agg = df->GroupBy({"tag"})->Agg({AggCount(), AggSum("v")});
    ASSERT_TRUE(agg.ok());
    auto rows = agg->Collect(driver);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(tracer.metrics().counter("v2s.agg_pushdowns"), 0.0);
    EXPECT_GT(tracer.metrics().counter("spark.shuffle.bytes"), 0.0);

    auto reference = ExecOk(
        driver, "SELECT tag, COUNT(*), SUM(v) FROM t GROUP BY tag");
    EXPECT_EQ(ContentsOf(*rows), ContentsOf(reference.rows));
  });
}

TEST_F(ShufflePushdownTest, FilterFusesBelowThePushedAggregate) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    FillTable(driver, "t", "k", SyntheticRows(200, 7, 6));
    auto df = LoadV2S(driver, "t", 8, true);
    ASSERT_TRUE(df.ok()) << df.status();
    ColumnPredicate pred;
    pred.column = "tag";
    pred.op = ColumnPredicate::Op::kGe;
    pred.literal = Value::Int64(2);
    auto agg =
        df->Filter(pred).GroupBy({"k"})->Agg({AggCount(), AggSum("v")});
    ASSERT_TRUE(agg.ok());
    auto rows = agg->Collect(driver);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_GT(tracer.metrics().counter("v2s.agg_pushdowns"), 0.0);

    auto reference = ExecOk(
        driver,
        "SELECT k, COUNT(*), SUM(v) FROM t WHERE tag >= 2 GROUP BY k");
    EXPECT_EQ(ContentsOf(*rows), ContentsOf(reference.rows));
  });
}

TEST(ShuffleLimitPushdownTest, LimitPushdownScansFewerRows) {
  // Own fabric with the Tuple Mover off: mergeout would fold the small
  // DIRECT containers into one per node, and a container is the scan's
  // early-exit granularity — one big container hides the savings.
  sim::Engine engine;
  net::Network network(&engine);
  vertica::Database::Options vopts;
  vopts.num_nodes = 4;
  vopts.tuple_mover.enabled = false;
  vertica::Database db(&engine, &network, vopts);
  SparkCluster::Options sopts;
  sopts.num_workers = 4;
  sopts.cost.spark_slots_per_worker = 4;
  SparkCluster cluster(&engine, &network, sopts);
  SparkSession session(&cluster);
  connector::RegisterVerticaSource(&session, &db);

  engine.Spawn("driver", [&](sim::Process& driver) {
    auto exec_ok = [&](const std::string& sql) {
      auto connected = db.Connect(driver, 0, &cluster.driver_host());
      ASSERT_TRUE(connected.ok()) << connected.status();
      auto result = (*connected)->Execute(driver, sql);
      EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
      EXPECT_TRUE((*connected)->Close(driver).ok());
    };
    auto load = [&]() {
      return session.Read()
          .Format(kVerticaSourceName)
          .Option("table", "t")
          .Option("host", db.node_address(0))
          .Option("numpartitions", 4)
          .Load(driver);
    };
    // Many small DIRECT batches => many small ROS containers per node,
    // so a capped scan has containers to skip.
    exec_ok(
        "CREATE TABLE t (k INTEGER, v FLOAT, tag INTEGER) "
        "SEGMENTED BY HASH(k) ALL NODES");
    const auto data = SyntheticRows(400, 11, 7);
    for (size_t at = 0; at < data.size(); at += 20) {
      std::string values;
      for (size_t i = at; i < std::min(data.size(), at + 20); ++i) {
        values += StrCat(i > at ? ", " : "", "(",
                         static_cast<int64_t>(data[i][0]), ", ");
        values += data[i][1] < 0 ? "NULL" : StrCat(data[i][1]);
        values += StrCat(", ", static_cast<int64_t>(data[i][2]), ")");
      }
      exec_ok(StrCat("INSERT /*+ DIRECT */ INTO t VALUES ", values));
    }

    double full_scanned = 0;
    {
      obs::Tracer tracer([&engine] { return engine.now(); });
      obs::ScopedTracer install(&tracer);
      auto df = load();
      ASSERT_TRUE(df.ok()) << df.status();
      auto rows = df->Collect(driver);
      ASSERT_TRUE(rows.ok()) << rows.status();
      EXPECT_EQ(rows->size(), 400u);
      full_scanned = tracer.metrics().counter("vertica.rows_scanned");
      ASSERT_GT(full_scanned, 0.0);
    }
    {
      obs::Tracer tracer([&engine] { return engine.now(); });
      obs::ScopedTracer install(&tracer);
      auto df = load();
      ASSERT_TRUE(df.ok()) << df.status();
      auto limited = df->Limit(5);
      ASSERT_TRUE(limited.ok());
      auto rows = limited->Collect(driver);
      ASSERT_TRUE(rows.ok()) << rows.status();
      EXPECT_EQ(rows->size(), 5u);
      EXPECT_GT(tracer.metrics().counter("v2s.limit_pushdowns"), 0.0);
      // The per-partition cap reaches the storage layer: the capped run
      // visits a fraction of the rows the full scan did. (Measured
      // before Count(), whose count-only probe scans everything.)
      double limited_scanned =
          tracer.metrics().counter("vertica.rows_scanned");
      EXPECT_LT(limited_scanned, full_scanned / 2)
          << "pushed LIMIT did not curtail the scan";
      EXPECT_EQ(limited->Count(driver).value(), 5);
    }
  });
  Status status = engine.Run();
  ASSERT_TRUE(status.ok()) << status;
}

// --------------------------------------------- approximate aggregation

// The same GroupBy(k).Agg(APPROXIMATE_COUNT_DISTINCT(v, 12)) returns the
// byte-identical estimate through every execution path: (a) the V2S
// aggregate pushdown, where Vertica's UDx computes the whole call and no
// shuffle runs; (b) the Spark-side sketch shuffle; and (c) the sketch
// shuffle disturbed by random task kills plus a mid-reduce executor loss
// (lineage re-execution). Register-max merging is commutative,
// associative and idempotent, so every re-execution order lands on the
// same registers — and the estimate is a deterministic function of the
// registers, so all three paths must agree to the byte.
TEST_F(ShufflePushdownTest, ApproxCountDistinctIdenticalAcrossPaths) {
  vertica::Database::Options vopts;
  vopts.num_nodes = 4;
  SparkCluster::Options sopts;
  sopts.num_workers = 4;
  sopts.cost.spark_slots_per_worker = 4;
  // The kill leg's whole budget stays under the failure cap: every seed
  // exercises recovery, never job abort.
  sopts.max_task_failures = 10;

  const std::vector<AggregateRequest> aggs = {
      AggCount(), AggApproxCountDistinct("v", 12)};

  for (uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed=", seed));
    const auto data = SyntheticRows(240, 9, seed);

    auto fill = [&](sim::Process& driver, vertica::Database& db,
                    SparkCluster& cluster) {
      auto exec = [&](const std::string& sql) {
        auto connected = db.Connect(driver, 0, &cluster.driver_host());
        ASSERT_TRUE(connected.ok()) << connected.status();
        auto result = (*connected)->Execute(driver, sql);
        EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
        EXPECT_TRUE((*connected)->Close(driver).ok());
      };
      exec(
          "CREATE TABLE t (k INTEGER, v FLOAT, tag INTEGER) "
          "SEGMENTED BY HASH(k) ALL NODES");
      for (size_t at = 0; at < data.size(); at += 40) {
        std::string values;
        for (size_t i = at; i < std::min(data.size(), at + 40); ++i) {
          values += StrCat(i > at ? ", " : "", "(",
                           static_cast<int64_t>(data[i][0]), ", ");
          values += data[i][1] < 0 ? "NULL" : StrCat(data[i][1]);
          values += StrCat(", ", static_cast<int64_t>(data[i][2]), ")");
        }
        exec(StrCat("INSERT INTO t VALUES ", values));
      }
    };
    auto load = [&](sim::Process& driver, SparkSession& session,
                    vertica::Database& db, bool aggregate_pushdown) {
      return session.Read()
          .Format(kVerticaSourceName)
          .Option("table", "t")
          .Option("host", db.node_address(0))
          .Option("numpartitions", 8)
          .Option("aggregate_pushdown",
                  aggregate_pushdown ? "true" : "false")
          .Load(driver);
    };

    std::multiset<std::string> pushed, shuffled, server, disturbed;
    {
      // Clean fabric: pushdown leg, shuffle leg, server reference.
      sim::Engine engine;
      net::Network network(&engine);
      vertica::Database db(&engine, &network, vopts);
      SparkCluster cluster(&engine, &network, sopts);
      SparkSession session(&cluster);
      connector::RegisterVerticaSource(&session, &db);
      obs::Tracer tracer([&engine] { return engine.now(); });
      obs::ScopedTracer install(&tracer);
      engine.Spawn("driver", [&](sim::Process& driver) {
        fill(driver, db, cluster);

        // (a) Grouping on the segmentation column: Vertica runs the
        // whole GROUP BY, including the sketch UDx; the shuffle is
        // elided entirely.
        auto pushed_df = load(driver, session, db, true);
        ASSERT_TRUE(pushed_df.ok()) << pushed_df.status();
        auto pushed_agg = pushed_df->GroupBy({"k"})->Agg(aggs);
        ASSERT_TRUE(pushed_agg.ok()) << pushed_agg.status();
        double before = tracer.metrics().counter("spark.shuffle.bytes");
        auto pushed_rows = pushed_agg->Collect(driver);
        ASSERT_TRUE(pushed_rows.ok()) << pushed_rows.status();
        EXPECT_GT(tracer.metrics().counter("v2s.agg_pushdowns"), 0.0);
        EXPECT_EQ(tracer.metrics().counter("spark.shuffle.bytes"), before);
        pushed = ContentsOf(*pushed_rows);

        // (b) Pushdown off: partial sketches cross the shuffle and the
        // reduce side merges registers.
        auto shuffled_df = load(driver, session, db, false);
        ASSERT_TRUE(shuffled_df.ok()) << shuffled_df.status();
        auto shuffled_agg = shuffled_df->GroupBy({"k"})->Agg(aggs);
        ASSERT_TRUE(shuffled_agg.ok()) << shuffled_agg.status();
        auto shuffled_rows = shuffled_agg->Collect(driver);
        ASSERT_TRUE(shuffled_rows.ok()) << shuffled_rows.status();
        EXPECT_GT(tracer.metrics().counter("spark.shuffle.bytes"), before);
        shuffled = ContentsOf(*shuffled_rows);

        // The server's own GROUP BY, same aggregate, same precision.
        auto connected = db.Connect(driver, 0, &cluster.driver_host());
        ASSERT_TRUE(connected.ok()) << connected.status();
        auto reference = (*connected)->Execute(
            driver,
            "SELECT k, COUNT(*), APPROXIMATE_COUNT_DISTINCT(v, 12) "
            "FROM t GROUP BY k");
        ASSERT_TRUE(reference.ok()) << reference.status();
        EXPECT_TRUE((*connected)->Close(driver).ok());
        server = ContentsOf(reference->rows);
      });
      Status status = engine.Run();
      ASSERT_TRUE(status.ok()) << status;
    }
    ASSERT_FALSE(pushed.empty());
    EXPECT_EQ(pushed, shuffled)
        << "pushed and shuffled sketch estimates disagree";
    EXPECT_EQ(pushed, server)
        << "connector and server estimates disagree";

    {
      // (c) Disturbed fabric: task-level adversary plus two executors
      // dropped as soon as reduce fetches start moving bytes.
      sim::Engine engine;
      net::Network network(&engine);
      vertica::Database db(&engine, &network, vopts);
      SparkCluster cluster(&engine, &network, sopts);
      SparkSession session(&cluster);
      connector::RegisterVerticaSource(&session, &db);
      obs::Tracer tracer([&engine] { return engine.now(); });
      obs::ScopedTracer install(&tracer);
      RandomFailureInjector injector(seed, 0.2, 0.01, /*max_kills=*/4);
      cluster.set_failure_injector(&injector);
      engine.Spawn("driver", [&](sim::Process& driver) {
        fill(driver, db, cluster);
        auto df = load(driver, session, db, false);
        ASSERT_TRUE(df.ok()) << df.status();
        auto agg = df->GroupBy({"k"})->Agg(aggs);
        ASSERT_TRUE(agg.ok()) << agg.status();
        engine.Spawn("executioner", [&](sim::Process& killer) {
          // The reduce fetch phase spans milliseconds of virtual time,
          // so a 0.1ms poll wakes well inside it; anything much finer
          // floods the event queue during the long scan phase before.
          while (tracer.metrics().counter("spark.shuffle.bytes") <= 0) {
            if (!killer.Sleep(1e-4).ok()) return;
          }
          cluster.shuffle_manager()->KillExecutor(0);
          cluster.shuffle_manager()->KillExecutor(2);
        });
        auto rows = agg->Collect(driver);
        ASSERT_TRUE(rows.ok()) << rows.status();
        disturbed = ContentsOf(*rows);
      });
      Status status = engine.Run();
      ASSERT_TRUE(status.ok()) << status;
      EXPECT_GT(tracer.metrics().counter("spark.shuffle.fetch_failures"),
                0.0);
    }
    EXPECT_EQ(disturbed, pushed)
        << "estimate diverged under executor loss + task kills";
  }
}

// Regression for the partial-row layout: aggregate partials are not
// fixed-width. A sketch partial is a single VARCHAR field — 128KiB of
// hex registers at precision 16 — while scalar aggregates carry four
// fields each. MergePartials walks per-call widths; the old layout
// assumed four scalar fields per call and read a wide sketch's partial
// row at the wrong offsets. Mixing scalar/sketch/scalar calls and then
// forcing the finished rows through one more shuffle (Repartition) pins
// both the combiner layout and wide-VARCHAR block transport.
TEST_F(ShuffleTest, WideSketchPartialsSurviveRepartitionBoundary) {
  RunDriver([&](sim::Process& driver) {
    const int kGroups = 5;
    const int kDistinct = 311;
    std::vector<hll::Sketch> refs;
    for (int g = 0; g < kGroups; ++g) {
      auto sketch = hll::Sketch::Create(16);
      ASSERT_TRUE(sketch.ok()) << sketch.status();
      refs.push_back(std::move(*sketch));
    }
    std::vector<Row> rows;
    for (int i = 0; i < 2000; ++i) {
      const int g = i % kGroups;
      Value v = Value::Float64((i % kDistinct) * 0.25);
      refs[g].AddHash(v.DistinctHash());
      rows.push_back({Value::Varchar(StrCat("g", g)), std::move(v)});
    }

    auto df = session_->CreateDataFrame(KvSchema(), rows, 6);
    ASSERT_TRUE(df.ok());
    auto agg = df->GroupBy({"k"})->Agg(
        {AggCount(), AggHllSketch("v", 16), AggSum("v")});
    ASSERT_TRUE(agg.ok()) << agg.status();
    auto repartitioned = agg->Repartition(3);
    ASSERT_TRUE(repartitioned.ok()) << repartitioned.status();
    auto collected = repartitioned->Collect(driver);
    ASSERT_TRUE(collected.ok()) << collected.status();
    ASSERT_EQ(collected->size(), static_cast<size_t>(kGroups));

    for (const Row& row : *collected) {
      ASSERT_EQ(row.size(), 4u);  // k, count(*), hll_sketch(v), sum(v)
      ASSERT_EQ(row[0].varchar_value().size(), 2u);
      const int g = row[0].varchar_value()[1] - '0';
      ASSERT_GE(g, 0);
      ASSERT_LT(g, kGroups);
      EXPECT_EQ(row[1].int64_value(), 2000 / kGroups);
      // The sketch that crossed two shuffles is byte-identical to the
      // one built locally from the same stream.
      EXPECT_EQ(row[2].varchar_value(), refs[g].Serialize());
      auto decoded = hll::Sketch::Deserialize(row[2].varchar_value());
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(decoded->Estimate(), refs[g].Estimate());
    }
  });
}

}  // namespace
}  // namespace fabric::spark
