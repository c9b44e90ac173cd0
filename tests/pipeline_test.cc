// Pipeline-compilation equivalence suite. The compiled vectorized path
// (src/exec, wired into the Vertica executor and the Spark shuffle map
// stage) must be a pure performance substitution: for every workload —
// random schemas, predicates, expressions and aggregates, with the Tuple
// Mover on or off, under node and executor kills — the compiled and
// interpreted fabrics return byte-identical results AND byte-identical
// event traces (same virtual-time charges, same event order). The
// randomized suites take an extra seed from PIPELINE_SEED (the CI matrix
// knob) on top of the fixed seeds.

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "seed_env.h"

#include "common/random.h"
#include "common/string_util.h"
#include "connector/default_source.h"
#include "net/host.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "spark/cluster.h"
#include "spark/dataframe.h"
#include "vertica/database.h"
#include "vertica/session.h"

namespace fabric {
namespace {

using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;
using vertica::Database;
using vertica::QueryResult;
using vertica::Session;

std::vector<uint64_t> PropertySeeds() {
  return fabric::testing::PropertySeeds("PIPELINE_SEED");
}

// The event stream of a trace, without the appended metrics snapshot:
// the pipeline counters (sql.compiled_pipelines etc.) intentionally
// differ between the two fabrics, but the virtual-time event log — every
// charge, flow and process step — must not.
std::string EventsOnly(const std::string& trace) {
  size_t cut = trace.find("],\"metrics\":");
  return cut == std::string::npos ? trace : trace.substr(0, cut);
}

// Canonical rendering of a statement outcome: the full error string, or
// the result schema plus every value with its exact runtime type — a
// representation two byte-identical results (and only those) share.
std::string Canon(const Result<QueryResult>& result) {
  if (!result.ok()) return StrCat("ERROR ", result.status().ToString());
  std::string out = "SCHEMA";
  for (const storage::ColumnDef& col : result->schema.columns()) {
    out += StrCat(" ", col.name, ":", storage::DataTypeName(col.type));
  }
  for (const Row& row : result->rows) {
    out += "\nROW";
    for (const Value& v : row) {
      if (v.is_null()) {
        out += " NULL";
      } else {
        out += StrCat(" ", storage::DataTypeName(v.type()), ":",
                      v.ToDisplayString());
      }
    }
  }
  return out;
}

// ----------------------------------------------------- Vertica SQL side

// The seeded query mix: every compilable shape (comparisons, Kleene
// AND/OR, IS NULL, arithmetic with / and %, string functions and ||,
// GROUP BY with builtin and UDx aggregates), plus shapes that must fall
// back (HASH) and shapes that must error identically on both paths
// (division by zero).
std::vector<std::string> MakeQueries(Rng& rng) {
  const int64_t k = rng.NextInt64(2, 5);
  const int64_t r = rng.NextInt64(0, k - 1);
  const double cut = rng.NextDouble();
  const int64_t mid = rng.NextInt64(10, 90);
  return {
      "SELECT * FROM t",
      StrCat("SELECT * FROM t WHERE score > ", cut),
      StrCat("SELECT id, score FROM t WHERE id % ", k, " = ", r,
             " AND score <= ", 1.0 - cut / 2),
      StrCat("SELECT id * 2 + 1 AS d, score / 2.5 AS h, UPPER(name) AS up,"
             " name || '_x' AS nx FROM t WHERE NOT (id < ", mid, ")"),
      StrCat("SELECT ABS(id - ", mid, ") AS a, FLOOR(score * 10) AS f,"
             " CEIL(score) AS c, LENGTH(name) AS l FROM t"
             " WHERE score >= ", cut / 4, " OR name IS NULL"),
      "SELECT name, COUNT(*) AS c, SUM(score) AS s, MIN(id) AS mn,"
      " MAX(score) AS mx, AVG(score) AS av FROM t GROUP BY name",
      StrCat("SELECT name, APPROXIMATE_COUNT_DISTINCT(id, 10) AS d FROM t"
             " WHERE id >= ", rng.NextInt64(0, 40), " GROUP BY name"),
      "SELECT COUNT(*) AS c FROM t WHERE name IS NOT NULL OR score < 0.5",
      StrCat("SELECT id FROM t WHERE name = '", rng.NextString(3),
             "' OR name IS NULL ORDER BY id DESC LIMIT 5"),
      StrCat("SELECT ", rng.NextInt64(1, 9), " + ", rng.NextInt64(1, 9),
             " * 3 AS x"),
      // Interpreter-only shape: HASH never compiles, so this query must
      // bump sql.interpreted_fallbacks on the compiled fabric.
      StrCat("SELECT HASH(id) AS h FROM t WHERE id > ", mid, " LIMIT 3"),
      // Error shapes: the compiled path bails mid-block and the rerun
      // interpreter must produce the identical error.
      "SELECT 10 / (id - id) AS boom FROM t",
      StrCat("SELECT id % (id - id) AS boom FROM t WHERE id = ", mid),
  };
}

struct SqlRun {
  std::vector<std::string> outcomes;
  std::string trace;
  double compiled = 0;
  double fallbacks = 0;
};

SqlRun RunSqlWorkload(uint64_t seed, bool compile_pipelines, bool tm_on,
                      bool kill_node) {
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 4;
  vopts.compile_pipelines = compile_pipelines;
  vopts.tuple_mover.enabled = tm_on;
  if (tm_on) {
    // Aggressive so moveout/mergeout interleave with the queries.
    vopts.tuple_mover.moveout_interval = 0.02;
    vopts.tuple_mover.mergeout_interval = 0.05;
    vopts.tuple_mover.strata_min_containers = 2;
  }
  Database db(&engine, &network, vopts);
  net::Host client = net::AddHost(&network, "client", 125e6, 0, 0);
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);

  SqlRun run;
  engine.Spawn("client", [&](sim::Process& self) {
    auto connected = db.Connect(self, 0, &client);
    ASSERT_TRUE(connected.ok()) << connected.status();
    Session& s = **connected;
    auto exec = [&](const std::string& sql) {
      run.outcomes.push_back(Canon(s.Execute(self, sql)));
    };
    exec("CREATE TABLE t (id INTEGER, score FLOAT, name VARCHAR(40)) "
         "SEGMENTED BY HASH(id) ALL NODES");
    Rng rng(seed);
    std::string values;
    const int rows = 120;
    for (int i = 0; i < rows; ++i) {
      std::string score = rng.NextBool(0.15)
                              ? "NULL"
                              : StrCat(rng.NextDouble());
      std::string name =
          rng.NextBool(0.15)
              ? "NULL"
              : StrCat("'", rng.NextString(static_cast<int>(
                                rng.NextInt64(1, 4))), "'");
      values += StrCat(i % 24 == 0 ? "" : ", ", "(", i, ", ", score, ", ",
                       name, ")");
      if (i % 24 == 23 || i == rows - 1) {
        exec(StrCat("INSERT INTO t VALUES ", values));
        values.clear();
      }
    }
    if (kill_node) {
      ASSERT_TRUE(db.KillNode(2).ok());
    }
    for (const std::string& sql : MakeQueries(rng)) exec(sql);
    // Re-run a compilable query verbatim: the compiled fabric must serve
    // it from the fingerprint cache with the same bytes.
    exec("SELECT name, COUNT(*) AS c, SUM(score) AS s, MIN(id) AS mn,"
         " MAX(score) AS mx, AVG(score) AS av FROM t GROUP BY name");
    ASSERT_TRUE(s.Close(self).ok());
  });
  Status status = engine.Run();
  EXPECT_TRUE(status.ok()) << status;
  run.trace = tracer.ToChromeTraceJson();
  run.compiled = tracer.metrics().counter("sql.compiled_pipelines");
  run.fallbacks = tracer.metrics().counter("sql.interpreted_fallbacks");
  return run;
}

// INTEGER overflow is defined the same way on both paths (see
// common/wrapping_arith.h): -x, + - * and ABS wrap, x % -1 is 0. The
// edge rows run every operator on INT64_MIN/INT64_MAX pairs.
std::vector<std::string> RunOverflowWorkload(bool compile_pipelines,
                                             double* compiled) {
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 2;
  vopts.compile_pipelines = compile_pipelines;
  Database db(&engine, &network, vopts);
  net::Host client = net::AddHost(&network, "client", 125e6, 0, 0);
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);

  std::vector<std::string> outcomes;
  engine.Spawn("client", [&](sim::Process& self) {
    auto connected = db.Connect(self, 0, &client);
    ASSERT_TRUE(connected.ok()) << connected.status();
    Session& s = **connected;
    auto exec = [&](const std::string& sql) {
      outcomes.push_back(Canon(s.Execute(self, sql)));
    };
    exec("CREATE TABLE e (a INTEGER, b INTEGER) "
         "SEGMENTED BY HASH(a) ALL NODES");
    const std::string kMin = "(-9223372036854775807 - 1)";
    const std::string kMax = "9223372036854775807";
    exec(StrCat("INSERT INTO e VALUES (", kMin, ", -1), (", kMin, ", 1), (",
                kMin, ", ", kMin, "), (", kMin, ", ", kMax, "), (", kMax,
                ", -1), (", kMax, ", 1), (", kMax, ", ", kMax, "), (", kMax,
                ", ", kMin, "), (0, -1), (-7, 2), (7, -2)"));
    exec("SELECT a, b, -a AS na, -b AS nb, a + b AS s, a - b AS d,"
         " a * b AS p, a % b AS m, ABS(a) AS aa FROM e ORDER BY a, b");
    exec("SELECT a, b FROM e WHERE -a = a OR a + 1 < a ORDER BY a, b");
    exec("SELECT b, COUNT(*) AS c, SUM(a % b) AS sm FROM e GROUP BY b");
    ASSERT_TRUE(s.Close(self).ok());
  });
  Status status = engine.Run();
  EXPECT_TRUE(status.ok()) << status;
  *compiled = tracer.metrics().counter("sql.compiled_pipelines");
  return outcomes;
}

TEST(PipelineOverflowTest, Int64EdgesMatchInterpreter) {
  double compiled_on = 0;
  double compiled_off = 0;
  const std::vector<std::string> on = RunOverflowWorkload(true, &compiled_on);
  const std::vector<std::string> off =
      RunOverflowWorkload(false, &compiled_off);
  EXPECT_GT(compiled_on, 0) << "compiled fabric never took the fast path";
  EXPECT_EQ(compiled_off, 0);
  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i], off[i]) << "statement #" << i;
  }
  // The defined results, row (INT64_MIN, -1) and row (INT64_MAX, 1):
  // -MIN = MIN, MIN + -1 = MAX, MIN - -1 = MIN + 1, MIN * -1 = MIN,
  // MIN % -1 = 0, ABS(MIN) = MIN; MAX + 1 = MIN, MAX * 1 = MAX.
  ASSERT_EQ(off.size(), 5u);
  const std::string& edges = off[2];
  EXPECT_NE(edges.find("\nROW INTEGER:-9223372036854775808 INTEGER:-1"
                       " INTEGER:-9223372036854775808 INTEGER:1"
                       " INTEGER:9223372036854775807"
                       " INTEGER:-9223372036854775807"
                       " INTEGER:-9223372036854775808 INTEGER:0"
                       " INTEGER:-9223372036854775808\n"),
            std::string::npos)
      << edges;
  EXPECT_NE(edges.find("\nROW INTEGER:9223372036854775807 INTEGER:1"
                       " INTEGER:-9223372036854775807 INTEGER:-1"
                       " INTEGER:-9223372036854775808"
                       " INTEGER:9223372036854775806"
                       " INTEGER:9223372036854775807 INTEGER:0"
                       " INTEGER:9223372036854775807"),
            std::string::npos)
      << edges;
}

class PipelineSqlPropertyTest : public ::testing::TestWithParam<uint64_t> {};

void ExpectEquivalent(const SqlRun& on, const SqlRun& off) {
  ASSERT_EQ(on.outcomes.size(), off.outcomes.size());
  for (size_t i = 0; i < on.outcomes.size(); ++i) {
    EXPECT_EQ(on.outcomes[i], off.outcomes[i]) << "statement #" << i;
  }
  // Byte-identical traces: the compiled path must add no events and no
  // virtual-time charges of its own.
  EXPECT_EQ(EventsOnly(on.trace), EventsOnly(off.trace));
  EXPECT_GT(on.compiled, 0) << "compiled fabric never took the fast path";
  EXPECT_GT(on.fallbacks, 0) << "fallback shapes never fell back";
  EXPECT_EQ(off.compiled, 0);
  EXPECT_EQ(off.fallbacks, 0);
}

TEST_P(PipelineSqlPropertyTest, CompiledMatchesInterpreted) {
  ExpectEquivalent(RunSqlWorkload(GetParam(), true, false, false),
                   RunSqlWorkload(GetParam(), false, false, false));
}

TEST_P(PipelineSqlPropertyTest, CompiledMatchesInterpretedWithTupleMover) {
  ExpectEquivalent(RunSqlWorkload(GetParam(), true, true, false),
                   RunSqlWorkload(GetParam(), false, true, false));
}

TEST_P(PipelineSqlPropertyTest, CompiledMatchesInterpretedUnderNodeKill) {
  ExpectEquivalent(RunSqlWorkload(GetParam(), true, true, true),
                   RunSqlWorkload(GetParam(), false, true, true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSqlPropertyTest,
                         ::testing::ValuesIn(PropertySeeds()));

// ------------------------------------------------- Spark fused map side

struct SparkRun {
  std::string rows;
  std::string trace;
  double fused = 0;
};

// A parallelize → filter → select → filter → GROUP BY chain: the shape
// the fused map stage collapses (kParallelize leaves never fold their
// filters into a source, so the whole chain reaches the map stage).
SparkRun RunSparkWorkload(uint64_t seed, bool fuse, bool kills) {
  sim::Engine engine;
  net::Network network(&engine);
  spark::SparkCluster::Options sopts;
  sopts.num_workers = 4;
  sopts.fuse_map_stages = fuse;
  spark::SparkCluster cluster(&engine, &network, sopts);
  spark::SparkSession session(&cluster);
  spark::RandomFailureInjector injector(seed, 0.3, 3.0, 3);
  if (kills) cluster.set_failure_injector(&injector);
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);

  SparkRun run;
  engine.Spawn("driver", [&](sim::Process& driver) {
    Schema schema({{"g", DataType::kVarchar},
                   {"v", DataType::kInt64},
                   {"w", DataType::kFloat64}});
    Rng rng(seed);
    std::vector<Row> rows;
    for (int i = 0; i < 400; ++i) {
      Value g = rng.NextBool(0.1) ? Value::Null()
                                  : Value::Varchar(StrCat(
                                        "g", rng.NextInt64(0, 6)));
      Value v = rng.NextBool(0.1) ? Value::Null()
                                  : Value::Int64(rng.NextInt64(0, 200));
      Value w = rng.NextBool(0.1) ? Value::Null()
                                  : Value::Float64(rng.NextDouble());
      rows.push_back({std::move(g), std::move(v), std::move(w)});
    }
    auto df = session.CreateDataFrame(schema, std::move(rows), 6);
    ASSERT_TRUE(df.ok()) << df.status();
    spark::ColumnPredicate keep_w{
        "w", spark::ColumnPredicate::Op::kGe,
        Value::Float64(rng.NextDouble() / 4)};
    spark::ColumnPredicate keep_v{
        "v", spark::ColumnPredicate::Op::kLt,
        Value::Int64(rng.NextInt64(120, 200))};
    auto selected = df->Filter(keep_w).Select({"g", "v"});
    ASSERT_TRUE(selected.ok()) << selected.status();
    auto grouped = selected->Filter(keep_v).GroupBy({"g"});
    ASSERT_TRUE(grouped.ok()) << grouped.status();
    auto agged = grouped->Agg({spark::AggCount(), spark::AggSum("v"),
                               spark::AggMin("v"), spark::AggMax("v"),
                               spark::AggApproxCountDistinct("v", 10)});
    ASSERT_TRUE(agged.ok()) << agged.status();
    auto collected = agged->Collect(driver);
    ASSERT_TRUE(collected.ok()) << collected.status();
    QueryResult rendered;
    rendered.schema = agged->schema();
    rendered.rows = *collected;
    run.rows = Canon(rendered);
  });
  Status status = engine.Run();
  EXPECT_TRUE(status.ok()) << status;
  run.trace = tracer.ToChromeTraceJson();
  run.fused = tracer.metrics().counter("spark.fused_map_stages");
  return run;
}

class PipelineSparkPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineSparkPropertyTest, FusedMatchesUnfused) {
  SparkRun on = RunSparkWorkload(GetParam(), true, false);
  SparkRun off = RunSparkWorkload(GetParam(), false, false);
  EXPECT_EQ(on.rows, off.rows);
  EXPECT_EQ(EventsOnly(on.trace), EventsOnly(off.trace));
  EXPECT_GT(on.fused, 0);
  EXPECT_EQ(off.fused, 0);
}

TEST_P(PipelineSparkPropertyTest, FusedMatchesUnfusedUnderExecutorKills) {
  SparkRun on = RunSparkWorkload(GetParam(), true, true);
  SparkRun off = RunSparkWorkload(GetParam(), false, true);
  EXPECT_EQ(on.rows, off.rows);
  EXPECT_EQ(EventsOnly(on.trace), EventsOnly(off.trace));
  EXPECT_GT(on.fused, 0);
  EXPECT_EQ(off.fused, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSparkPropertyTest,
                         ::testing::ValuesIn(PropertySeeds()));

// A V2S chain whose filter survives pushdown (the pushed LIMIT blocks
// folding it into the scan's WHERE), so the fused map stage runs over a
// real Vertica scan leaf: V2S-scan → filter → map-side combine.
SparkRun RunV2SWorkload(uint64_t seed, bool fuse) {
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 4;
  Database db(&engine, &network, vopts);
  spark::SparkCluster::Options sopts;
  sopts.num_workers = 4;
  sopts.fuse_map_stages = fuse;
  spark::SparkCluster cluster(&engine, &network, sopts);
  spark::SparkSession session(&cluster);
  connector::RegisterVerticaSource(&session, &db);
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);

  SparkRun run;
  engine.Spawn("driver", [&](sim::Process& driver) {
    Schema schema({{"id", DataType::kInt64},
                   {"score", DataType::kFloat64},
                   {"name", DataType::kVarchar}});
    Rng rng(seed);
    std::vector<Row> rows;
    for (int i = 0; i < 300; ++i) {
      rows.push_back({Value::Int64(i), Value::Float64(rng.NextDouble()),
                      rng.NextBool(0.1)
                          ? Value::Null()
                          : Value::Varchar(StrCat("n", i % 7))});
    }
    auto df = session.CreateDataFrame(schema, std::move(rows), 4);
    ASSERT_TRUE(df.ok()) << df.status();
    Status saved = df->Write()
                       .Format(connector::kVerticaSourceName)
                       .Option("table", "t")
                       .Option("numpartitions", 4)
                       .Mode(spark::SaveMode::kOverwrite)
                       .Save(driver);
    ASSERT_TRUE(saved.ok()) << saved;
    auto loaded = session.Read()
                      .Format(connector::kVerticaSourceName)
                      .Option("table", "t")
                      .Option("numpartitions", 4)
                      .Load(driver);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto limited = loaded->Limit(250);
    ASSERT_TRUE(limited.ok()) << limited.status();
    spark::ColumnPredicate pred{"score", spark::ColumnPredicate::Op::kLe,
                                Value::Float64(0.8)};
    auto grouped = limited->Filter(pred).GroupBy({"name"});
    ASSERT_TRUE(grouped.ok()) << grouped.status();
    auto agged = grouped->Agg(
        {spark::AggCount(), spark::AggAvg("score"), spark::AggMax("id")});
    ASSERT_TRUE(agged.ok()) << agged.status();
    auto collected = agged->Collect(driver);
    ASSERT_TRUE(collected.ok()) << collected.status();
    QueryResult rendered;
    rendered.schema = agged->schema();
    rendered.rows = *collected;
    run.rows = Canon(rendered);
  });
  Status status = engine.Run();
  EXPECT_TRUE(status.ok()) << status;
  run.trace = tracer.ToChromeTraceJson();
  run.fused = tracer.metrics().counter("spark.fused_map_stages");
  return run;
}

TEST(PipelineV2STest, FusedScanFilterCombineMatchesUnfused) {
  SparkRun on = RunV2SWorkload(5, true);
  SparkRun off = RunV2SWorkload(5, false);
  EXPECT_EQ(on.rows, off.rows);
  EXPECT_EQ(EventsOnly(on.trace), EventsOnly(off.trace));
  EXPECT_GT(on.fused, 0);
  EXPECT_EQ(off.fused, 0);
}

// ------------------------------------------------------------- counters

// The observability contract: each counter fires exactly on the plans it
// names — compilable SELECTs, interpreter-residual fallbacks, fusable
// map stages — and the compiler's fingerprint cache serves repeats.
TEST(PipelineCounterTest, CountersFireOnExpectedPlans) {
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options vopts;
  vopts.num_nodes = 2;
  Database db(&engine, &network, vopts);
  net::Host client = net::AddHost(&network, "client", 125e6, 0, 0);
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);

  engine.Spawn("client", [&](sim::Process& self) {
    auto connected = db.Connect(self, 0, &client);
    ASSERT_TRUE(connected.ok()) << connected.status();
    Session& s = **connected;
    auto compiled = [&] {
      return tracer.metrics().counter("sql.compiled_pipelines");
    };
    auto fallbacks = [&] {
      return tracer.metrics().counter("sql.interpreted_fallbacks");
    };
    ASSERT_TRUE(s.Execute(self, "CREATE TABLE t (id INTEGER, v FLOAT)")
                    .ok());
    ASSERT_TRUE(
        s.Execute(self, "INSERT INTO t VALUES (1, 0.5), (2, NULL)").ok());
    EXPECT_EQ(compiled(), 0);

    // A compilable SELECT takes the fast path...
    ASSERT_TRUE(s.Execute(self, "SELECT id + 1 FROM t WHERE v > 0").ok());
    EXPECT_EQ(compiled(), 1);
    EXPECT_EQ(fallbacks(), 0);
    const int64_t misses = db.pipeline_compiler()->cache_misses();
    EXPECT_GT(misses, 0);

    // ...and its repeat is served from the fingerprint cache.
    ASSERT_TRUE(s.Execute(self, "SELECT id + 1 FROM t WHERE v > 0").ok());
    EXPECT_EQ(compiled(), 2);
    EXPECT_EQ(db.pipeline_compiler()->cache_misses(), misses);
    EXPECT_GT(db.pipeline_compiler()->cache_hits(), 0);

    // HASH is interpreter-only: the same statement must count a fallback
    // every time, never a compile.
    ASSERT_TRUE(s.Execute(self, "SELECT HASH(id) FROM t").ok());
    EXPECT_EQ(compiled(), 2);
    EXPECT_EQ(fallbacks(), 1);
    ASSERT_TRUE(s.Close(self).ok());
  });
  ASSERT_TRUE(engine.Run().ok());
}

}  // namespace
}  // namespace fabric
