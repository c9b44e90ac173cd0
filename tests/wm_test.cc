// Workload manager tests: named hierarchical resource pools with
// priority admission queues, cascade borrowing, per-query memory grants
// and typed RESOURCE_EXHAUSTED errors; byte-identical results and (non-
// "wm") event traces with the manager on vs off; byte-identical GROUP
// BY / join results when tiny grants force grace-hash spilling on both
// engines; no admission deadlock under randomized pool topologies with
// node kills; bounded priority inversion; the MAX_CLIENT_SESSIONS typed
// error with connector backoff-retry; pool tagging through session
// options; and the v_monitor.resource_pool_status / resource_queues
// system tables.

#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "seed_env.h"

#include "common/random.h"
#include "common/string_util.h"
#include "connector/default_source.h"
#include "connector/failover.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "spark/dataframe.h"
#include "vertica/database.h"
#include "vertica/session.h"
#include "vertica/wm/resource_pool.h"

namespace fabric::vertica::wm {
namespace {

using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

using fabric::testing::PropertySeeds;

// Serialized result rows: the byte-identity witness for WM-on/off and
// spill/no-spill comparisons.
std::string RowsToString(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& value : row) out += value.ToSqlLiteral() + ",";
    out += "\n";
  }
  return out;
}

// Event fingerprint without "wm"-category events and without tracer
// sequence numbers (wm events consume seqs, shifting later events').
std::string NonWmEvents(const obs::Tracer& tracer) {
  std::string out;
  for (const obs::Event& event : tracer.events()) {
    if (event.category == "wm") continue;
    out += StrCat(event.time, "|", static_cast<int>(event.phase), "|",
                  event.category, "|", event.name);
    for (const obs::Attr& attr : event.attrs) {
      out += StrCat("|", attr.key, "=", attr.value.ToJson());
    }
    out += "\n";
  }
  return out;
}

int64_t WmEventCount(const obs::Tracer& tracer) {
  int64_t count = 0;
  for (const obs::Event& event : tracer.events()) {
    if (event.category == "wm") ++count;
  }
  return count;
}

// ------------------------------------------------- direct manager tests

PoolConfig MakePool(const std::string& name) {
  PoolConfig pool;
  pool.name = name;
  return pool;
}

TEST(WorkloadManagerTest, QueueTimeoutIsTypedAndBoundsTheWait) {
  sim::Engine engine;
  WorkloadConfig config;
  PoolConfig tight = MakePool("tight");
  tight.max_concurrency = 1;
  tight.queue_timeout = 0.5;
  config.pools.push_back(tight);
  WorkloadManager wm(&engine, config, /*num_nodes=*/1);

  Status second_status;
  double second_failed_at = -1;
  engine.Spawn("holder", [&](sim::Process& self) {
    auto grant = wm.Admit(self, 0, "tight", 0);
    ASSERT_TRUE(grant.ok()) << grant.status();
    ASSERT_TRUE(self.Sleep(10.0).ok());
    wm.Release(*grant);
  });
  engine.Spawn("waiter", [&](sim::Process& self) {
    ASSERT_TRUE(self.Sleep(0.1).ok());
    auto grant = wm.Admit(self, 0, "tight", 0);
    second_status = grant.status();
    second_failed_at = self.Now();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_FALSE(second_status.ok());
  EXPECT_TRUE(IsQueueTimeoutError(second_status)) << second_status;
  EXPECT_EQ(second_status.code(), StatusCode::kResourceExhausted);
  // Queued at 0.1 with a 0.5s timeout: fails at exactly 0.6 virtual s.
  EXPECT_DOUBLE_EQ(second_failed_at, 0.6);
}

TEST(WorkloadManagerTest, OversizedRequestFailsFastWithTypedError) {
  sim::Engine engine;
  WorkloadConfig config;
  PoolConfig small = MakePool("small");
  small.memory_budget = 100;
  config.pools.push_back(small);
  WorkloadManager wm(&engine, config, 1);

  engine.Spawn("asker", [&](sim::Process& self) {
    auto grant = wm.Admit(self, 0, "small", 1000);
    ASSERT_FALSE(grant.ok());
    EXPECT_EQ(grant.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(grant.status().message().find(kRequestExceedsPoolToken),
              std::string::npos)
        << grant.status();
    EXPECT_FALSE(IsQueueTimeoutError(grant.status()));
    // Rejected immediately, not after a queue wait.
    EXPECT_DOUBLE_EQ(self.Now(), 0.0);
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(wm.PoolStatusRows()[wm.PoolIndex("small").value()].rejected, 1);
}

TEST(WorkloadManagerTest, CascadeBorrowsFromParentWhenFull) {
  sim::Engine engine;
  WorkloadConfig config;
  PoolConfig general = MakePool("general");
  general.max_concurrency = 2;
  config.pools.push_back(general);
  PoolConfig etl = MakePool("etl");
  etl.cascade_to = "general";
  etl.max_concurrency = 1;
  config.pools.push_back(etl);
  WorkloadManager wm(&engine, config, 1);

  engine.Spawn("loads", [&](sim::Process& self) {
    auto first = wm.Admit(self, 0, "etl", 0);
    auto second = wm.Admit(self, 0, "etl", 0);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    // Both granted without queueing (zero virtual time)...
    EXPECT_DOUBLE_EQ(self.Now(), 0.0);
    // ...the first from etl itself, the second borrowed from general.
    int etl_index = wm.PoolIndex("etl").value();
    int general_index = wm.PoolIndex("general").value();
    EXPECT_EQ(first->pool, etl_index);
    EXPECT_EQ(second->origin, etl_index);
    EXPECT_EQ(second->pool, general_index);
    wm.Release(*first);
    wm.Release(*second);
  });
  ASSERT_TRUE(engine.Run().ok());
  int64_t borrowed = 0;
  for (const auto& row : wm.PoolStatusRows()) borrowed += row.borrowed;
  EXPECT_EQ(borrowed, 1);
  for (const auto& row : wm.PoolStatusRows()) {
    EXPECT_EQ(row.running, 0) << row.pool;
    EXPECT_DOUBLE_EQ(row.memory_inuse, 0) << row.pool;
  }
}

// A high-priority arrival overtakes earlier low-priority waiters at the
// next release: its inversion is bounded by one running grant, never by
// the queue depth ahead of it.
TEST(WorkloadManagerTest, PriorityInversionBoundedByOneRunningGrant) {
  sim::Engine engine;
  WorkloadConfig config;
  PoolConfig shared = MakePool("shared");
  shared.memory_budget = 150;  // one 100-byte grant at a time
  config.pools.push_back(shared);
  PoolConfig high = MakePool("high");
  high.priority = 10;
  high.memory_budget = 1;  // never fits locally: always borrows
  high.cascade_to = "shared";
  config.pools.push_back(high);
  PoolConfig low = MakePool("low");
  low.priority = 0;
  low.memory_budget = 1;
  low.cascade_to = "shared";
  config.pools.push_back(low);
  WorkloadManager wm(&engine, config, 1);

  std::vector<std::string> grant_order;
  auto spawn = [&](const char* name, const char* pool, double start,
                   double hold) {
    engine.Spawn(name, [&wm, &grant_order, name, pool, start,
                        hold](sim::Process& self) {
      ASSERT_TRUE(self.Sleep(start).ok());
      auto grant = wm.Admit(self, 0, pool, 100);
      ASSERT_TRUE(grant.ok()) << grant.status();
      grant_order.push_back(StrCat(name, "@", self.Now()));
      ASSERT_TRUE(self.Sleep(hold).ok());
      wm.Release(*grant);
    });
  };
  spawn("low0", "low", 0.0, 0.3);    // granted at 0, releases at 0.3
  spawn("low1", "low", 0.1, 0.2);    // queues first...
  spawn("low2", "low", 0.15, 0.2);   // ...and second...
  spawn("high0", "high", 0.2, 0.2);  // ...but high overtakes both
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_EQ(grant_order.size(), 4u);
  EXPECT_EQ(grant_order[0], "low0@0");
  // high0 waited 0.1s (one running grant), not behind low1/low2.
  EXPECT_EQ(grant_order[1], "high0@0.3");
  EXPECT_EQ(grant_order[2], "low1@0.5");
  EXPECT_EQ(grant_order[3], "low2@0.7");
}

TEST(WorkloadManagerTest, NodeDownFailsQueuedWaitersUnavailable) {
  sim::Engine engine;
  WorkloadConfig config;
  PoolConfig tight = MakePool("tight");
  tight.max_concurrency = 1;
  config.pools.push_back(tight);
  WorkloadManager wm(&engine, config, 2);

  Status queued_status;
  engine.Spawn("holder", [&](sim::Process& self) {
    auto grant = wm.Admit(self, 0, "tight", 0);
    ASSERT_TRUE(grant.ok());
    ASSERT_TRUE(self.Sleep(1.0).ok());
    wm.Release(*grant);
  });
  engine.Spawn("waiter", [&](sim::Process& self) {
    ASSERT_TRUE(self.Sleep(0.1).ok());
    queued_status = wm.Admit(self, 0, "tight", 0).status();
  });
  engine.Spawn("killer", [&](sim::Process& self) {
    ASSERT_TRUE(self.Sleep(0.2).ok());
    wm.OnNodeDown(0);
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(queued_status.code(), StatusCode::kUnavailable)
      << queued_status;
}

// Random pool topologies (random cascade chains, budgets, concurrency
// caps, timeouts) under a random admit/hold/release workload with a
// mid-run node kill: every request must reach a terminal outcome — no
// admission deadlock — and all accounting must return to zero.
TEST(WorkloadManagerTest, RandomTopologyNoDeadlockUnderNodeKills) {
  for (uint64_t seed : PropertySeeds()) {
    Rng rng(seed);
    sim::Engine engine;
    WorkloadConfig config;
    const int num_pools = 2 + static_cast<int>(rng.NextUint64() % 4);
    for (int i = 0; i < num_pools; ++i) {
      PoolConfig pool = MakePool(StrCat("p", i));
      if (i > 0 && rng.NextUint64() % 2 == 0) {
        pool.cascade_to =
            StrCat("p", static_cast<int>(rng.NextUint64() %
                                         static_cast<uint64_t>(i)));
      }
      pool.priority = static_cast<int>(rng.NextUint64() % 3) * 5;
      pool.max_concurrency = static_cast<int>(rng.NextUint64() % 3);
      if (rng.NextUint64() % 2 == 0) {
        pool.memory_budget = 200 + static_cast<double>(rng.NextUint64() % 800);
      }
      if (rng.NextUint64() % 2 == 0) {
        pool.queue_timeout = 0.5 + static_cast<double>(rng.NextUint64() % 4);
      }
      config.pools.push_back(pool);
    }
    const int num_nodes = 3;
    WorkloadManager wm(&engine, config, num_nodes);

    const int num_workers = 40;
    int completed = 0;
    for (int w = 0; w < num_workers; ++w) {
      const uint64_t worker_seed = seed * 1000 + static_cast<uint64_t>(w);
      engine.Spawn(StrCat("worker", w), [&, worker_seed](sim::Process& self) {
        Rng wrng(worker_seed);
        for (int round = 0; round < 3; ++round) {
          ASSERT_TRUE(
              self.Sleep(static_cast<double>(wrng.NextUint64() % 100) / 100)
                  .ok());
          int node = static_cast<int>(wrng.NextUint64() %
                                      static_cast<uint64_t>(num_nodes));
          // Occasionally an unknown pool: must fail typed, not hang.
          std::string pool =
              wrng.NextUint64() % 10 == 0
                  ? "nosuchpool"
                  : StrCat("p", static_cast<int>(
                                    wrng.NextUint64() %
                                    static_cast<uint64_t>(num_pools)));
          double memory = static_cast<double>(wrng.NextUint64() % 300);
          auto grant = wm.Admit(self, node, pool, memory);
          if (grant.ok()) {
            ASSERT_TRUE(
                self.Sleep(0.01 + static_cast<double>(
                                      wrng.NextUint64() % 20) /
                                      100)
                    .ok());
            wm.Release(*grant);
          }
        }
        ++completed;
      });
    }
    engine.Spawn("killer", [&](sim::Process& self) {
      ASSERT_TRUE(self.Sleep(0.5).ok());
      wm.OnNodeDown(1);
    });
    Status run = engine.Run();
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": " << run;
    EXPECT_EQ(completed, num_workers) << "seed " << seed;
    for (const auto& row : wm.PoolStatusRows()) {
      EXPECT_EQ(row.running, 0) << "seed " << seed << " " << row.pool;
      EXPECT_EQ(row.queued, 0) << "seed " << seed << " " << row.pool;
      EXPECT_DOUBLE_EQ(row.memory_inuse, 0)
          << "seed " << seed << " " << row.pool;
    }
    EXPECT_TRUE(wm.QueueRows().empty()) << "seed " << seed;
  }
}

// --------------------------------------------- end-to-end trace identity

struct WorkloadOutcome {
  std::string non_wm_events;
  int64_t wm_events = 0;
  std::string sql_rows;
  std::string spark_rows;
  double end_time = 0;
};

// One mixed workload — SQL GROUP BY, V2S read, S2V overwrite — driven
// sequentially so neither the legacy semaphore nor the WM ever queues.
WorkloadOutcome RunMixedWorkload(const WorkloadConfig& workload) {
  sim::Engine engine;
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 2;
  vopts.workload = workload;
  Database db(&engine, &network, vopts);
  spark::SparkCluster::Options sopts;
  sopts.num_workers = 2;
  spark::SparkCluster cluster(&engine, &network, sopts);
  spark::SparkSession spark(&cluster);
  connector::RegisterVerticaSource(&spark, &db);

  WorkloadOutcome outcome;
  engine.Spawn("driver", [&](sim::Process& driver) {
    auto session = db.Connect(driver, 0, nullptr);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)
                    ->Execute(driver,
                              "CREATE TABLE facts (region INTEGER, "
                              "sales INTEGER) SEGMENTED BY HASH(region) "
                              "ALL NODES")
                    .ok());
    std::string values;
    for (int i = 0; i < 60; ++i) {
      values += StrCat(i ? ", " : "", "(", i % 7, ", ", i * 13 % 100, ")");
    }
    ASSERT_TRUE(
        (*session)
            ->Execute(driver, StrCat("INSERT INTO facts VALUES ", values))
            .ok());
    auto grouped = (*session)->Execute(
        driver,
        "SELECT region, COUNT(*), SUM(sales) FROM facts GROUP BY region "
        "ORDER BY region");
    ASSERT_TRUE(grouped.ok()) << grouped.status();
    outcome.sql_rows = RowsToString(grouped->rows);
    ASSERT_TRUE((*session)->Close(driver).ok());

    auto df = spark.Read()
                  .Format(connector::kVerticaSourceName)
                  .Option("table", "facts")
                  .Option("numpartitions", 2)
                  .Load(driver);
    ASSERT_TRUE(df.ok()) << df.status();
    auto rows = df->Collect(driver);
    ASSERT_TRUE(rows.ok()) << rows.status();
    outcome.spark_rows = RowsToString(*rows);
    Status saved = df->Write()
                       .Format(connector::kVerticaSourceName)
                       .Option("table", "copy_out")
                       .Option("numpartitions", 2)
                       .Mode(spark::SaveMode::kOverwrite)
                       .Save(driver);
    ASSERT_TRUE(saved.ok()) << saved;
  });
  EXPECT_TRUE(engine.Run().ok());
  outcome.non_wm_events = NonWmEvents(tracer);
  outcome.wm_events = WmEventCount(tracer);
  outcome.end_time = engine.now();
  return outcome;
}

TEST(WorkloadTraceIdentityTest, UncontendedWmMatchesWmOffByteForByte) {
  WorkloadOutcome off = RunMixedWorkload(WorkloadConfig{});
  WorkloadConfig pools;
  pools.pools.push_back(MakePool("general"));
  pools.pools.push_back(MakePool("etl"));
  WorkloadOutcome on = RunMixedWorkload(pools);

  // Same results, same virtual end time, and — aside from "wm" events —
  // the same event trace, byte for byte.
  EXPECT_EQ(on.sql_rows, off.sql_rows);
  EXPECT_EQ(on.spark_rows, off.spark_rows);
  EXPECT_DOUBLE_EQ(on.end_time, off.end_time);
  EXPECT_EQ(on.non_wm_events, off.non_wm_events);
  EXPECT_GT(on.non_wm_events.size(), 1000u) << "trace suspiciously empty";
  // The WM-on run did route statements through admission...
  EXPECT_GT(on.wm_events, 0);
  // ...and the WM-off run has no workload manager at all.
  EXPECT_EQ(off.wm_events, 0);
}

// ----------------------------------------------------- spill identity

// Per-query memory budgets for the spill sweeps: from one byte (every
// new group spills at once) up by 4x through the "spills once, merges
// back" regime to 4 MiB, which no table here reaches.
std::vector<double> SpillBudgets() {
  std::vector<double> budgets;
  for (double b = 1; b <= 4 << 20; b *= 4) budgets.push_back(b);
  return budgets;
}

// Checks one engine's sweep: every budget returns the unbudgeted rows,
// the 1-byte budget spills, the intermediate regime (spilling, but less
// often than at 1 byte) is reached, and the largest budget never
// spills.
void ExpectSweepIdentical(
    uint64_t seed,
    const std::function<std::string(double budget, double* spills)>& run) {
  double spills = 0;
  const std::string unbudgeted = run(0, &spills);
  ASSERT_NE(unbudgeted, "");
  EXPECT_EQ(spills, 0);
  double tiny_spills = -1;
  bool intermediate = false;
  const std::vector<double> budgets = SpillBudgets();
  for (double budget : budgets) {
    SCOPED_TRACE(StrCat("seed ", seed, ", budget ", budget));
    EXPECT_EQ(run(budget, &spills), unbudgeted);
    if (budget == budgets.front()) {
      tiny_spills = spills;
      EXPECT_GT(spills, 0) << "1-byte budget did not force spilling";
    } else if (spills > 0 && spills < tiny_spills) {
      intermediate = true;
    }
    if (budget == budgets.back()) {
      EXPECT_EQ(spills, 0);
    }
  }
  EXPECT_TRUE(intermediate)
      << "no budget between spill-everything and no-spill (seed " << seed
      << ")";
}

// GROUP BY through the SQL executor under per-query grants swept from
// one byte to unbounded: the aggregate completes by spilling partitions
// to simulated local disk, byte-identical to the in-memory run (which
// takes the compiled pipeline). Covers NULL-leading groups, VARCHAR
// MIN/MAX, AVG, the HLL UDx and a no-GROUP-BY aggregate over empty
// input.
TEST(SpillIdentityTest, SqlGroupBySpillsByteIdentically) {
  for (uint64_t seed : PropertySeeds()) {
    auto run = [seed](double budget, double* spills_out) {
      sim::Engine engine;
      obs::Tracer tracer([&engine] { return engine.now(); });
      obs::ScopedTracer install(&tracer);
      net::Network network(&engine);
      Database::Options vopts;
      vopts.num_nodes = 2;
      if (budget > 0) {
        PoolConfig tiny = MakePool("tiny");
        tiny.query_memory = budget;
        vopts.workload.pools.push_back(tiny);
      }
      Database db(&engine, &network, vopts);
      std::string rows;
      engine.Spawn("driver", [&](sim::Process& driver) {
        auto session = db.Connect(driver, 0, nullptr);
        ASSERT_TRUE(session.ok());
        if (budget > 0) (*session)->set_resource_pool("tiny");
        ASSERT_TRUE((*session)
                        ->Execute(driver,
                                  "CREATE TABLE facts (region INTEGER, "
                                  "name VARCHAR, item INTEGER, sales "
                                  "INTEGER) SEGMENTED BY HASH(item) ALL "
                                  "NODES")
                        .ok());
        Rng rng(seed);
        std::string values;
        for (int i = 0; i < 240; ++i) {
          std::string region = rng.NextBool(0.1)
                                   ? "NULL"
                                   : StrCat(rng.NextInt64(0, 23));
          values += StrCat(i ? ", " : "", "(", region, ", 'n",
                           rng.NextUint64(50), "', ", i, ", ",
                           rng.NextInt64(0, 999), ")");
        }
        ASSERT_TRUE(
            (*session)
                ->Execute(driver, StrCat("INSERT INTO facts VALUES ", values))
                .ok());
        for (const char* query : {
                 "SELECT region, COUNT(*), COUNT(name), SUM(sales), "
                 "AVG(sales), MIN(name), MAX(name), MIN(item), MAX(item), "
                 "APPROXIMATE_COUNT_DISTINCT(item), HLL_SKETCH(name, 10) "
                 "FROM facts GROUP BY region",
                 "SELECT region, name, COUNT(*), SUM(item) FROM facts "
                 "GROUP BY region, name",
                 "SELECT COUNT(*), SUM(sales), AVG(sales), MIN(name), "
                 "MAX(item), APPROXIMATE_COUNT_DISTINCT(item), "
                 "HLL_SKETCH(item) FROM facts WHERE sales < 0",
             }) {
          auto result = (*session)->Execute(driver, query);
          ASSERT_TRUE(result.ok()) << query << ": " << result.status();
          if (StartsWith(query, "SELECT COUNT")) {
            EXPECT_EQ(result->rows.size(), 1u) << "no-GROUP-BY aggregate";
          }
          rows += RowsToString(result->rows) + "----\n";
        }
      });
      EXPECT_TRUE(engine.Run().ok());
      *spills_out = tracer.metrics().counter("wm.spills");
      return rows;
    };
    ExpectSweepIdentical(seed, run);
  }
}

// The shuffle engine's hash aggregate (map-side combine and reduce-side
// merge) and hash join under task memory budgets swept from one byte to
// unbounded: both spill partitioned runs to the worker's local disk and
// return rows byte-identical to the unbudgeted run.
TEST(SpillIdentityTest, SparkAggregateAndJoinSpillByteIdentically) {
  for (uint64_t seed : PropertySeeds()) {
    auto run = [seed](double task_memory, double* spills_out) {
      sim::Engine engine;
      obs::Tracer tracer([&engine] { return engine.now(); });
      obs::ScopedTracer install(&tracer);
      net::Network network(&engine);
      spark::SparkCluster::Options sopts;
      sopts.num_workers = 2;
      sopts.task_memory_bytes = task_memory;
      spark::SparkCluster cluster(&engine, &network, sopts);
      spark::SparkSession spark(&cluster);
      Schema schema({{"k", DataType::kInt64},
                     {"v", DataType::kInt64},
                     {"s", DataType::kVarchar}});
      std::string out;
      engine.Spawn("driver", [&](sim::Process& driver) {
        Rng rng(seed);
        auto key = [&rng] {
          return rng.NextBool(0.1) ? Value::Null()
                                   : Value::Int64(rng.NextInt64(0, 36));
        };
        std::vector<Row> left, right;
        for (int i = 0; i < 400; ++i) {
          left.push_back({key(), Value::Int64(i),
                          Value::Varchar(StrCat("s", rng.NextUint64(40)))});
        }
        for (int i = 0; i < 60; ++i) {
          right.push_back({key(), Value::Int64(i * 11),
                           Value::Varchar(StrCat("r", i))});
        }
        auto ldf = spark.CreateDataFrame(schema, std::move(left), 4);
        auto rdf = spark.CreateDataFrame(schema, std::move(right), 4);
        ASSERT_TRUE(ldf.ok());
        ASSERT_TRUE(rdf.ok());
        auto collect = [&](const Result<spark::DataFrame>& df,
                           size_t want_rows = 0) {
          ASSERT_TRUE(df.ok()) << df.status();
          auto rows = df->Collect(driver);
          ASSERT_TRUE(rows.ok()) << rows.status();
          if (want_rows > 0) {
            EXPECT_EQ(rows->size(), want_rows);
          }
          out += RowsToString(*rows) + "----\n";
        };
        collect(ldf->GroupBy({"k"})->Agg(
            {spark::AggCount(), spark::AggCount("s"), spark::AggSum("v"),
             spark::AggAvg("v"), spark::AggMin("s"), spark::AggMax("s"),
             spark::AggApproxCountDistinct("v"),
             spark::AggHllSketch("s", 10)}));
        // No GROUP BY over empty input: still exactly one row.
        spark::ColumnPredicate none{
            "v", spark::ColumnPredicate::Op::kLt, Value::Int64(-1)};
        collect(ldf->Filter(none).GroupBy({})->Agg(
            {spark::AggCount(), spark::AggSum("v"), spark::AggMin("s"),
             spark::AggApproxCountDistinct("v"), spark::AggHllSketch("s")}),
            /*want_rows=*/1);
        collect(ldf->Join(*rdf, {"k"}, {"k"}));
      });
      EXPECT_TRUE(engine.Run().ok());
      *spills_out = tracer.metrics().counter("spark.spills");
      return out;
    };
    ExpectSweepIdentical(seed, run);
  }
}

// ------------------------------------- sessions, tagging, system tables

TEST(WmSessionTest, MaxClientSessionsIsTypedAndFailoverBacksOff) {
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 1;
  vopts.max_client_sessions = 1;
  Database db(&engine, &network, vopts);

  engine.Spawn("first", [&](sim::Process& self) {
    auto held = db.Connect(self, 0, nullptr);
    ASSERT_TRUE(held.ok());
    // While the node is full, a direct connect fails with the typed
    // MAX_CLIENT_SESSIONS error...
    auto refused = db.Connect(self, 0, nullptr);
    ASSERT_FALSE(refused.ok());
    EXPECT_TRUE(IsMaxClientSessionsError(refused.status()))
        << refused.status();
    ASSERT_TRUE(self.Sleep(0.25).ok());
    ASSERT_TRUE((*held)->Close(self).ok());
  });
  engine.Spawn("second", [&](sim::Process& self) {
    ASSERT_TRUE(self.Sleep(0.01).ok());
    // ...while ConnectWithFailover retries the same node with
    // exponential backoff until the slot frees.
    auto session = connector::ConnectWithFailover(self, &db, 0, nullptr);
    ASSERT_TRUE(session.ok()) << session.status();
    EXPECT_GE(self.Now(), 0.26);
    ASSERT_TRUE((*session)->Close(self).ok());
  });
  ASSERT_TRUE(engine.Run().ok());
}

TEST(WmSessionTest, PoolTaggingAndSystemTables) {
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 2;
  vopts.workload.pools.push_back(MakePool("general"));
  PoolConfig etl = MakePool("etl");
  etl.cascade_to = "general";
  vopts.workload.pools.push_back(etl);
  PoolConfig dashboard = MakePool("dashboard");
  dashboard.priority = 10;
  vopts.workload.pools.push_back(dashboard);
  Database db(&engine, &network, vopts);
  spark::SparkCluster::Options sopts;
  sopts.num_workers = 2;
  spark::SparkCluster cluster(&engine, &network, sopts);
  spark::SparkSession spark(&cluster);
  connector::RegisterVerticaSource(&spark, &db);

  engine.Spawn("driver", [&](sim::Process& driver) {
    auto session = db.Connect(driver, 0, nullptr);
    ASSERT_TRUE(session.ok());
    (*session)->set_resource_pool("etl");
    ASSERT_TRUE((*session)
                    ->Execute(driver,
                              "CREATE TABLE t (a INTEGER, b INTEGER)")
                    .ok());
    ASSERT_TRUE(
        (*session)
            ->Execute(driver, "INSERT INTO t VALUES (1, 2), (3, 4)")
            .ok());

    // A V2S scan tagged to the dashboard pool admits there.
    auto df = spark.Read()
                  .Format(connector::kVerticaSourceName)
                  .Option("table", "t")
                  .Option("numpartitions", 2)
                  .Option("resource_pool", "dashboard")
                  .Load(driver);
    ASSERT_TRUE(df.ok()) << df.status();
    auto count = df->Count(driver);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 2);

    WorkloadManager* wm = db.workload_manager();
    ASSERT_NE(wm, nullptr);
    int64_t etl_admitted = 0, dashboard_admitted = 0;
    for (const auto& row : wm->PoolStatusRows()) {
      if (row.pool == "etl") etl_admitted += row.admitted;
      if (row.pool == "dashboard") dashboard_admitted += row.admitted;
    }
    EXPECT_GT(etl_admitted, 0);
    EXPECT_GT(dashboard_admitted, 0);

    // Both system tables answer through plain SQL.
    auto status_rows = (*session)->Execute(
        driver,
        "SELECT pool_name FROM v_monitor.resource_pool_status "
        "ORDER BY pool_name");
    ASSERT_TRUE(status_rows.ok()) << status_rows.status();
    std::set<std::string> pools;
    for (const Row& row : status_rows->rows) {
      pools.insert(row[0].varchar_value());
    }
    EXPECT_EQ(pools,
              (std::set<std::string>{"general", "etl", "dashboard"}));
    // 3 pools x 2 nodes.
    EXPECT_EQ(status_rows->rows.size(), 6u);
    auto queue_rows = (*session)->Execute(
        driver, "SELECT pool_name FROM v_monitor.resource_queues");
    ASSERT_TRUE(queue_rows.ok()) << queue_rows.status();
    EXPECT_TRUE(queue_rows->rows.empty());
    ASSERT_TRUE((*session)->Close(driver).ok());
  });
  ASSERT_TRUE(engine.Run().ok());
}

}  // namespace
}  // namespace fabric::vertica::wm
