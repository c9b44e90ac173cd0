#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/jdbc_source.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "connector/avro.h"
#include "connector/default_source.h"
#include "connector/s2v.h"
#include "connector/v2s.h"
#include "hdfs/hdfs.h"
#include "net/network.h"
#include "obs/trace.h"
#include "obs/trace_matcher.h"
#include "sim/engine.h"
#include "vertica/copy_stream.h"
#include "spark/dataframe.h"
#include "vertica/database.h"
#include "vertica/session.h"

namespace fabric::connector {
namespace {

using spark::ColumnPredicate;
using spark::DataFrame;
using spark::SaveMode;
using spark::SourceOptions;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64}, {"score", DataType::kFloat64}});
}

std::vector<Row> MakeRows(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(i), Value::Float64(i * 1.5)});
  }
  return rows;
}

// Multiset of ids, for exactly-once comparisons.
std::multiset<int64_t> IdsOf(const std::vector<Row>& rows) {
  std::multiset<int64_t> ids;
  for (const Row& row : rows) ids.insert(row[0].int64_value());
  return ids;
}

// The five-phase invariants every S2V save must leave in its trace, no
// matter where kills landed. Phase events are emitted at the durability
// point (not the client ack), so these hold even when an acknowledgement
// was lost mid-flight:
//  - success: exactly one durable COPY commit per partition (phase 1),
//    exactly one leader election winner (phase 3, the one-shot
//    `WHERE task = -1` update), every winner check resolved to the same
//    elected partition (phase 4 may repeat after a lost ack), and exactly
//    one durable promotion (phase 5) sequenced after all data commits;
//  - failure: zero promotions — a rejected save must never publish.
void ExpectS2VTraceConformance(const obs::Tracer& tracer, int partitions,
                               bool save_ok) {
  obs::TraceMatcher s2v = obs::TraceMatcher(tracer).Category("s2v");
  obs::TraceMatcher commits = s2v.Name("phase1.commit");
  obs::TraceMatcher promotes = s2v.Name("phase5.promote");
  if (!save_ok) {
    EXPECT_TRUE(promotes.empty())
        << "failed save published data:\n" << promotes.Describe();
    return;
  }
  for (int p = 0; p < partitions; ++p) {
    EXPECT_EQ(commits.WithAttr("partition", p).count(), 1u)
        << "partition " << p << " committed != once:\n"
        << commits.Describe();
  }
  EXPECT_EQ(commits.count(), static_cast<size_t>(partitions));
  obs::TraceMatcher elected = s2v.Name("phase3.elected");
  EXPECT_EQ(elected.count(), 1u) << elected.Describe();
  obs::TraceMatcher winners = s2v.Name("phase4.winner");
  ASSERT_GE(winners.count(), 1u);
  EXPECT_EQ(winners.DistinctIntAttr("partition"),
            std::vector<int64_t>{elected.only().IntAttr("partition")})
      << winners.Describe();
  EXPECT_EQ(promotes.count(), 1u) << promotes.Describe();
  EXPECT_TRUE(commits.StrictlyBefore(promotes))
      << "a COPY commit was sequenced after the promotion";
}

class ConnectorTest : public ::testing::Test {
 protected:
  ConnectorTest() : network_(&engine_) {
    vertica::Database::Options vopts;
    vopts.num_nodes = 4;
    db_ = std::make_unique<vertica::Database>(&engine_, &network_, vopts);
    spark::SparkCluster::Options sopts;
    sopts.num_workers = 8;
    sopts.cost.spark_slots_per_worker = 8;
    cluster_ = std::make_unique<spark::SparkCluster>(&engine_, &network_,
                                                     sopts);
    session_ = std::make_unique<spark::SparkSession>(cluster_.get());
    RegisterVerticaSource(session_.get(), db_.get());
    baselines::RegisterJdbcSource(session_.get(), db_.get());
  }

  void RunDriver(std::function<void(sim::Process&)> body) {
    engine_.Spawn("driver", std::move(body));
    Status status = engine_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  // Saves `rows` through S2V and returns the save status.
  Status SaveRows(sim::Process& driver, const std::vector<Row>& rows,
                  const std::string& table, int partitions,
                  SaveMode mode = SaveMode::kOverwrite,
                  double tolerance = 0.0) {
    auto df = session_->CreateDataFrame(TestSchema(), rows, partitions);
    if (!df.ok()) return df.status();
    return df->Write()
        .Format(kVerticaSourceName)
        .Option("table", table)
        .Option("host", db_->node_address(0))
        .Option("numpartitions", partitions)
        .Option("failedrowstolerance", StrCat(tolerance))
        .Mode(mode)
        .Save(driver);
  }

  // Counts rows of `table` via SQL.
  int64_t TableCount(sim::Process& driver, const std::string& table) {
    auto session = db_->Connect(driver, 0, &cluster_->driver_host());
    EXPECT_TRUE(session.ok());
    auto result = (*session)->Execute(
        driver, StrCat("SELECT COUNT(*) FROM ", table));
    EXPECT_TRUE(result.ok()) << result.status();
    int64_t count = result.ok() ? result->rows[0][0].int64_value() : -1;
    EXPECT_TRUE((*session)->Close(driver).ok());
    return count;
  }

  std::vector<Row> TableRows(sim::Process& driver,
                             const std::string& table) {
    auto session = db_->Connect(driver, 0, &cluster_->driver_host());
    EXPECT_TRUE(session.ok());
    auto result =
        (*session)->Execute(driver, StrCat("SELECT * FROM ", table));
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE((*session)->Close(driver).ok());
    return result.ok() ? std::move(result->rows) : std::vector<Row>{};
  }

  sim::Engine engine_;
  net::Network network_;
  std::unique_ptr<vertica::Database> db_;
  std::unique_ptr<spark::SparkCluster> cluster_;
  std::unique_ptr<spark::SparkSession> session_;
};

// A batch covering every type, NULLs, NaN, -0.0, infinities, the int64
// extremes, '' and a string longer than SSO, an int widened into a FLOAT
// column, and two corrupt records (wrong arity, wrong type).
Schema GoldenSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"v", DataType::kFloat64},
                 {"s", DataType::kVarchar},
                 {"b", DataType::kBool}});
}

std::vector<Row> GoldenRows() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  return {
      {Value::Int64(1), Value::Float64(2.5), Value::Varchar("x"),
       Value::Bool(true)},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {Value::Int64(-7), Value::Int64(3), Value::Varchar(""),
       Value::Bool(false)},
      {Value::Int64(std::numeric_limits<int64_t>::min()), Value::Float64(nan),
       Value::Varchar(std::string(40, 'L')), Value::Bool(true)},
      {Value::Int64(9)},
      {Value::Int64(0), Value::Float64(-0.0), Value::Varchar("tail"),
       Value::Null()},
      {Value::Varchar("oops"), Value::Float64(1), Value::Varchar("s"),
       Value::Bool(true)},
      {Value::Int64(std::numeric_limits<int64_t>::max()), Value::Float64(-inf),
       Value::Null(), Value::Bool(false)},
  };
}

// The wire bytes are pinned: the decoder may change, the format may not.
TEST(AvroTest, EncodedBytesMatchGoldenDigest) {
  std::string encoded = AvroEncodeBatch(GoldenSchema(), GoldenRows());
  EXPECT_EQ(encoded.size(), 185u);
  EXPECT_EQ(HashBytes(encoded), 6276938811730126315ull);
}

// The lane decoder reads back what the row encoder wrote: same types
// and bits (NaN, -0.0, the int64 extremes, '' and long strings), NULLs
// as null flags, ints widened into FLOAT, corrupt records as empty
// rejects in order; varchar slots view the encoded buffer.
TEST(AvroTest, LaneDecodeRoundTripsBatches) {
  const Schema schema = GoldenSchema();
  const std::vector<Row> rows = GoldenRows();
  const std::string encoded = AvroEncodeBatch(schema, rows);
  auto decoded = AvroDecodeBatch(schema, encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->lanes.columns.size(), 4u);
  ASSERT_EQ(decoded->lanes.num_rows, 6u);
  ASSERT_EQ(decoded->rejects.size(), 2u);
  for (const Row& reject : decoded->rejects) EXPECT_TRUE(reject.empty());
  size_t k = 0;
  for (const Row& row : rows) {
    if (!storage::ValidateRow(schema, row).ok()) continue;
    for (int c = 0; c < schema.num_columns(); ++c) {
      const storage::LaneViews& lane = decoded->lanes.columns[c];
      ASSERT_EQ(lane.type, schema.column(c).type);
      Value got = lane.Box(k);
      Value want = row[c];
      if (!want.is_null() && want.type() == DataType::kInt64 &&
          schema.column(c).type == DataType::kFloat64) {
        want = Value::Float64(static_cast<double>(want.int64_value()));
      }
      ASSERT_EQ(got.is_null(), want.is_null()) << k << "," << c;
      if (want.is_null()) continue;
      ASSERT_EQ(got.type(), want.type()) << k << "," << c;
      if (want.type() == DataType::kFloat64) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got.float64_value()),
                  std::bit_cast<uint64_t>(want.float64_value()))
            << k << "," << c;
      } else {
        EXPECT_TRUE(got.Equals(want)) << k << "," << c;
      }
    }
    ++k;
  }
  const storage::LaneViews& strings = decoded->lanes.columns[2];
  for (size_t i = 0; i < strings.size(); ++i) {
    std::string_view s = strings.values.strings[i];
    if (s.empty()) continue;
    EXPECT_GE(s.data(), encoded.data());
    EXPECT_LE(s.data() + s.size(), encoded.data() + encoded.size());
  }
  // Truncated data and a bad row flag fail cleanly.
  EXPECT_FALSE(
      AvroDecodeBatch(schema, encoded.substr(0, encoded.size() - 3)).ok());
  std::string bad = encoded;
  bad[8] = 0x02;  // the first record's flag
  EXPECT_FALSE(AvroDecodeBatch(schema, bad).ok());
}

// A row range encodes exactly as the same rows copied out.
TEST(AvroTest, EncodesRowRanges) {
  const std::vector<Row> rows = GoldenRows();
  std::vector<Row> middle(rows.begin() + 2, rows.begin() + 6);
  EXPECT_EQ(AvroEncodeBatch(GoldenSchema(),
                            std::span<const Row>(rows).subspan(2, 4)),
            AvroEncodeBatch(GoldenSchema(), middle));
}

// What one COPY load left behind: its counts and reject sample, and the
// fingerprint of every store (primary and buddy copies, replicas and
// projections) of the tables it loaded.
struct CopyOutcome {
  std::vector<int64_t> counts;
  std::vector<Row> rejected_sample;
  std::vector<uint64_t> fingerprints;
};

// Loads `rows` through COPY into a segmented table (FLOAT segmentation
// column, with a projection on another segmentation) and an unsegmented
// one, on a fresh database, feeding each stream the Avro-decoded lanes
// or the same batch converted by storage::FromRows.
CopyOutcome LoadThroughCopy(const std::vector<Row>& rows, bool avro) {
  sim::Engine engine;
  net::Network network(&engine);
  vertica::Database::Options options;
  options.num_nodes = 4;
  vertica::Database db(&engine, &network, options);
  const Schema schema = GoldenSchema();
  const std::vector<std::string> tables = {"seg", "rep"};
  CopyOutcome out;
  engine.Spawn("client", [&](sim::Process& self) {
    auto session = db.Connect(self, 0, nullptr);
    ASSERT_TRUE(session.ok());
    for (const char* sql :
         {"CREATE TABLE seg (id INTEGER, v FLOAT, s VARCHAR, b BOOLEAN) "
          "SEGMENTED BY HASH(v) ALL NODES",
          "CREATE PROJECTION seg_by_s AS SELECT s, id FROM seg ORDER BY s "
          "SEGMENTED BY HASH(s)",
          "CREATE TABLE rep (id INTEGER, v FLOAT, s VARCHAR, b BOOLEAN) "
          "UNSEGMENTED ALL NODES"}) {
      ASSERT_TRUE((*session)->Execute(self, sql).ok()) << sql;
    }
    for (const std::string& table : tables) {
      auto stream = vertica::CopyStream::Open(self, session->get(), table,
                                              vertica::CopyStream::Options{});
      ASSERT_TRUE(stream.ok()) << stream.status();
      const std::string encoded = AvroEncodeBatch(schema, rows);
      Status written;
      if (avro) {
        auto decoded = AvroDecodeBatch(schema, encoded);
        ASSERT_TRUE(decoded.ok()) << decoded.status();
        written = (*stream)->WriteBatch(self, std::move(decoded->lanes),
                                        std::move(decoded->rejects));
      } else {
        // The decoder's view of the batch as rows: a corrupt record is an
        // empty row.
        std::vector<Row> boxed;
        for (const Row& row : rows) {
          boxed.push_back(storage::ValidateRow(schema, row).ok() ? row
                                                                 : Row{});
        }
        std::vector<Row> rejects;
        auto columns = storage::FromRows(schema, boxed, &rejects);
        ASSERT_TRUE(columns.ok()) << columns.status();
        written = (*stream)->WriteBatch(self, std::move(*columns),
                                        std::move(rejects));
      }
      ASSERT_TRUE(written.ok()) << written;
      auto load = (*stream)->Finish(self);
      ASSERT_TRUE(load.ok()) << load.status();
      out.counts.push_back(load->loaded);
      out.counts.push_back(load->rejected);
      out.rejected_sample.insert(out.rejected_sample.end(),
                                 load->rejected_sample.begin(),
                                 load->rejected_sample.end());
    }
    ASSERT_TRUE((*session)->Close(self).ok());
  });
  Status run = engine.Run();
  EXPECT_TRUE(run.ok()) << run;
  auto fingerprint = [&](const vertica::Database::SegmentSet& set) {
    for (const auto* copies : {&set.per_node, &set.buddy}) {
      for (const auto& store : *copies) {
        out.fingerprints.push_back(store->ContentFingerprint());
      }
    }
  };
  for (const std::string& table : tables) {
    auto storage = db.GetStorage(table);
    EXPECT_TRUE(storage.ok());
    if (!storage.ok()) continue;
    fingerprint(**storage);
    for (const auto& [name, set] : (*storage)->projections) fingerprint(set);
  }
  return out;
}

// The Avro lanes and FromRows agree on everything a COPY batch leaves:
// loaded and rejected counts, the reject sample, and the content of
// every primary, buddy, replica and projection store.
TEST(CopyLanesTest, AvroLanesLoadLikeFromRows) {
  std::vector<Row> rows = GoldenRows();
  for (int i = 0; i < 60; ++i) {  // enough rows to reach every node
    rows.push_back({Value::Int64(i), Value::Int64(i % 7),
                    Value::Varchar(std::string(i % 23, 'a' + i % 5)),
                    i % 4 == 0 ? Value::Null() : Value::Bool(i % 3 == 0)});
  }
  const CopyOutcome avro = LoadThroughCopy(rows, /*avro=*/true);
  const CopyOutcome boxed = LoadThroughCopy(rows, /*avro=*/false);
  EXPECT_EQ(avro.counts, (std::vector<int64_t>{66, 2, 66, 2}));
  EXPECT_EQ(avro.counts, boxed.counts);
  ASSERT_EQ(avro.rejected_sample.size(), 4u);
  ASSERT_EQ(avro.rejected_sample.size(), boxed.rejected_sample.size());
  for (size_t i = 0; i < avro.rejected_sample.size(); ++i) {
    EXPECT_TRUE(
        storage::RowsEqual(avro.rejected_sample[i], boxed.rejected_sample[i]));
  }
  // seg: 4 primaries + 4 buddies, its projection the same, rep: 4 replicas.
  ASSERT_EQ(avro.fingerprints.size(), 20u);
  EXPECT_EQ(avro.fingerprints, boxed.fingerprints);
  // Buddy copies hold what their primaries hold.
  for (size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(avro.fingerprints[n], avro.fingerprints[4 + n]) << n;
    EXPECT_EQ(avro.fingerprints[8 + n], avro.fingerprints[12 + n]) << n;
  }
}

TEST_F(ConnectorTest, S2VOverwriteRoundTrip) {
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(500);
    ASSERT_TRUE(SaveRows(driver, rows, "t", 16).ok());
    EXPECT_EQ(TableCount(driver, "t"), 500);
    EXPECT_EQ(IdsOf(TableRows(driver, "t")), IdsOf(rows));
    // Temp tables cleaned up; the permanent job record remains.
    EXPECT_FALSE(db_->catalog().HasTable("t_stage_job1"));
    EXPECT_FALSE(db_->catalog().HasTable("s2v_task_status_job1"));
    EXPECT_TRUE(db_->catalog().HasTable(S2VRelation::kFinalStatusTable));
    EXPECT_EQ(TableCount(driver, S2VRelation::kFinalStatusTable), 1);
  });
}

TEST_F(ConnectorTest, S2VAppendAddsToExisting) {
  RunDriver([&](sim::Process& driver) {
    ASSERT_TRUE(SaveRows(driver, MakeRows(100), "t", 8).ok());
    ASSERT_TRUE(
        SaveRows(driver, MakeRows(50), "t", 8, SaveMode::kAppend).ok());
    EXPECT_EQ(TableCount(driver, "t"), 150);
  });
}

TEST_F(ConnectorTest, S2VErrorIfExists) {
  RunDriver([&](sim::Process& driver) {
    ASSERT_TRUE(SaveRows(driver, MakeRows(10), "t", 2).ok());
    Status again = SaveRows(driver, MakeRows(10), "t", 2,
                            SaveMode::kErrorIfExists);
    EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  });
}

TEST_F(ConnectorTest, S2VOverwriteReplacesAtomically) {
  RunDriver([&](sim::Process& driver) {
    ASSERT_TRUE(SaveRows(driver, MakeRows(100), "t", 8).ok());
    ASSERT_TRUE(SaveRows(driver, MakeRows(30), "t", 8).ok());
    EXPECT_EQ(TableCount(driver, "t"), 30);
  });
}

TEST_F(ConnectorTest, S2VRejectedRowsWithinTolerance) {
  RunDriver([&](sim::Process& driver) {
    // A Map stage corrupts every 20th record (wrong arity), like bad raw
    // input in an ETL flow; the COPY path rejects those rows.
    auto df = session_->CreateDataFrame(TestSchema(), MakeRows(100), 4);
    ASSERT_TRUE(df.ok());
    DataFrame mapped = df->Map(
        [](const Row& row) -> Result<Row> {
          if (row[0].int64_value() % 20 == 7) return Row{row[0]};
          return row;
        },
        TestSchema());
    auto save = [&](const std::string& table, double tolerance) {
      return mapped.Write()
          .Format(kVerticaSourceName)
          .Option("table", table)
          .Option("numpartitions", 4)
          .Option("failedrowstolerance", StrCat(tolerance))
          .Mode(SaveMode::kOverwrite)
          .Save(driver);
    };
    // 5% rejected; tolerance 10% => success with 95 rows.
    ASSERT_TRUE(save("t", 0.10).ok());
    EXPECT_EQ(TableCount(driver, "t"), 95);
    // Tolerance 1% => the save fails and the target is untouched.
    Status failed = save("t2", 0.01);
    EXPECT_FALSE(failed.ok());
    EXPECT_FALSE(db_->catalog().HasTable("t2"));
  });
}

TEST_F(ConnectorTest, S2VExactlyOnceUnderScriptedKills) {
  // Kill several attempts at points chosen to land before, during and
  // after their COPY and commit. Retries must still produce exactly one
  // copy of the data.
  spark::ScriptedFailureInjector injector;
  injector.KillAttempt(0, 0, 0.05)   // before much happens
      .KillAttempt(1, 0, 1.0)        // mid-copy
      .KillAttempt(2, 0, 3.0)        // around commit time
      .KillAttempt(2, 1, 0.5)        // second attempt too
      .KillAttempt(5, 0, 2.0);
  cluster_->set_failure_injector(&injector);
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(400);
    ASSERT_TRUE(SaveRows(driver, rows, "t", 8).ok());
    EXPECT_EQ(IdsOf(TableRows(driver, "t")), IdsOf(rows));
  });
  ExpectS2VTraceConformance(tracer, /*partitions=*/8, /*save_ok=*/true);
  // The scripted kills are visible in the trace: every planned kill that
  // fired left a spark task.kill_planned record and a retried attempt.
  obs::TraceMatcher trace(tracer);
  EXPECT_GE(trace.Category("spark").Name("task.kill_planned").count(), 1u);
  EXPECT_GE(trace.Category("s2v").Name("phase1.duplicate").count() +
                tracer.metrics().counter("spark.attempts_failed"),
            1u);
}

// The central property: under randomized kills (any attempt, any time),
// a successful S2V save contains each source row exactly once, and a
// failed save leaves the target absent/untouched. Sweep seeds.
class S2VExactlyOncePropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(S2VExactlyOncePropertyTest, KillsNeverDuplicateOrDrop) {
  sim::Engine engine;
  net::Network network(&engine);
  vertica::Database::Options vopts;
  vopts.num_nodes = 4;
  vertica::Database db(&engine, &network, vopts);
  spark::SparkCluster::Options sopts;
  sopts.num_workers = 4;
  sopts.cost.spark_slots_per_worker = 4;
  spark::SparkCluster cluster(&engine, &network, sopts);
  spark::SparkSession session(&cluster);
  RegisterVerticaSource(&session, &db);
  spark::RandomFailureInjector injector(GetParam(),
                                        /*kill_probability=*/0.5,
                                        /*typical_duration=*/4.0,
                                        /*max_kills=*/6);
  cluster.set_failure_injector(&injector);
  obs::Tracer tracer([&engine] { return engine.now(); });
  obs::ScopedTracer install(&tracer);

  Status save_status;
  engine.Spawn("driver", [&](sim::Process& driver) {
    std::vector<Row> rows;
    for (int i = 0; i < 300; ++i) {
      rows.push_back({Value::Int64(i), Value::Float64(i * 0.25)});
    }
    auto df = session.CreateDataFrame(TestSchema(), rows, 8);
    ASSERT_TRUE(df.ok());
    Status saved = df->Write()
                       .Format(kVerticaSourceName)
                       .Option("table", "t")
                       .Option("numpartitions", 8)
                       .Mode(SaveMode::kOverwrite)
                       .Save(driver);
    save_status = saved;
    auto vsession = db.Connect(driver, 0, &cluster.driver_host());
    ASSERT_TRUE(vsession.ok());
    if (saved.ok()) {
      auto result = (*vsession)->Execute(driver, "SELECT * FROM t");
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(IdsOf(result->rows), IdsOf(rows)) << "data corrupted";
    } else {
      // Failed saves must leave no target table at all (overwrite mode
      // on a fresh name).
      EXPECT_FALSE(db.catalog().HasTable("t"));
    }
    ASSERT_TRUE((*vsession)->Close(driver).ok());
  });
  Status status = engine.Run();
  ASSERT_TRUE(status.ok()) << status;
  // Whatever this seed's kills did, the trace must show the five-phase
  // protocol was honored (and a failed save must promote nothing).
  ExpectS2VTraceConformance(tracer, /*partitions=*/8, save_status.ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, S2VExactlyOncePropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808, 909, 1010));

TEST_F(ConnectorTest, V2SLoadRoundTrip) {
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(300);
    ASSERT_TRUE(SaveRows(driver, rows, "t", 8).ok());
    auto df = session_->Read()
                  .Format(kVerticaSourceName)
                  .Option("table", "t")
                  .Option("numpartitions", 8)
                  .Load(driver);
    ASSERT_TRUE(df.ok()) << df.status();
    EXPECT_EQ(df->NumPartitions(), 8);
    auto loaded = df->Collect(driver);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(IdsOf(*loaded), IdsOf(rows));
  });
}

// Integer literals stored into a FLOAT segmentation column are routed by
// the stored (widened) value, so every copy sits in the ring range that
// V2S's per-node hash-range queries and point lookups read: by INSERT,
// and by an UPDATE that sets the column to an integer.
TEST_F(ConnectorTest, IntegersIntoFloatSegmentationStayReadable) {
  RunDriver([&](sim::Process& driver) {
    auto session = db_->Connect(driver, 0, &cluster_->driver_host());
    ASSERT_TRUE(session.ok());
    auto exec = [&](const std::string& sql) {
      auto result = (*session)->Execute(driver, sql);
      EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
      return result.ok() ? std::move(*result) : vertica::QueryResult{};
    };
    exec("CREATE TABLE f (x FLOAT, y INTEGER) SEGMENTED BY HASH(x) "
         "ALL NODES");
    std::string values;
    for (int i = 1; i <= 40; ++i) {
      values += StrCat(i == 1 ? "" : ", ", "(", i, ", ", i, ")");
    }
    exec(StrCat("INSERT INTO f VALUES ", values));
    auto expect_readable = [&](const std::vector<int>& keys) {
      const int64_t count =
          exec("SELECT COUNT(*) FROM f").rows[0][0].int64_value();
      EXPECT_EQ(count, 40);
      int64_t looked_up = 0;
      for (int key : keys) {
        looked_up += exec(StrCat("SELECT COUNT(*) FROM f WHERE x = ", key))
                         .rows[0][0]
                         .int64_value();
      }
      EXPECT_EQ(looked_up, count);
      auto df = session_->Read()
                    .Format(kVerticaSourceName)
                    .Option("table", "f")
                    .Option("numpartitions", 8)
                    .Load(driver);
      ASSERT_TRUE(df.ok()) << df.status();
      auto loaded = df->Collect(driver);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(static_cast<int64_t>(loaded->size()), count);
    };
    std::vector<int> keys;
    for (int i = 1; i <= 40; ++i) keys.push_back(i);
    expect_readable(keys);
    exec("UPDATE f SET x = 100 + y WHERE y <= 10");
    for (int i = 1; i <= 10; ++i) keys[i - 1] = 100 + i;
    expect_readable(keys);
    EXPECT_TRUE((*session)->Close(driver).ok());
  });
}

TEST_F(ConnectorTest, V2SPartitionQueriesAreLocalAndDisjoint) {
  RunDriver([&](sim::Process& driver) {
    ASSERT_TRUE(SaveRows(driver, MakeRows(200), "t", 8).ok());
    SourceOptions options;
    options.Set("table", "t").Set("numpartitions", 8);
    auto relation =
        V2SRelation::Create(driver, db_.get(), cluster_.get(), options);
    ASSERT_TRUE(relation.ok()) << relation.status();
    // 8 partitions over 4 nodes: two partitions per node, each wholly
    // local.
    std::map<int, int> per_node;
    for (int p = 0; p < 8; ++p) {
      ++per_node[(*relation)->PartitionTargetNode(p)];
    }
    EXPECT_EQ(per_node.size(), 4u);
    for (const auto& [node, count] : per_node) EXPECT_EQ(count, 2);
    // The queries carry hash ranges and the snapshot epoch.
    spark::PushDown push;
    std::string q0 = (*relation)->PartitionQuery(0, push);
    EXPECT_NE(q0.find("HASH(id, score) >= "), std::string::npos);
    EXPECT_NE(q0.find("AT EPOCH"), std::string::npos);

    // Zero internal shuffle during a full partitioned load.
    double before = 0;
    for (int n = 0; n < 4; ++n) {
      before += network_.LinkBytesCarried(db_->node_host(n).int_egress);
    }
    auto df = session_->Read()
                  .Format(kVerticaSourceName)
                  .Option("table", "t")
                  .Option("numpartitions", 8)
                  .Load(driver);
    ASSERT_TRUE(df.ok());
    ASSERT_TRUE(df->Collect(driver).ok());
    double after = 0;
    for (int n = 0; n < 4; ++n) {
      after += network_.LinkBytesCarried(db_->node_host(n).int_egress);
    }
    EXPECT_DOUBLE_EQ(after, before) << "V2S caused internal shuffling";
  });
}

TEST_F(ConnectorTest, V2SPushdownReducesTransfer) {
  RunDriver([&](sim::Process& driver) {
    ASSERT_TRUE(SaveRows(driver, MakeRows(1000), "t", 8).ok());
    auto df = session_->Read()
                  .Format(kVerticaSourceName)
                  .Option("table", "t")
                  .Option("numpartitions", 8)
                  .Load(driver);
    ASSERT_TRUE(df.ok());

    double before_filter = network_.LinkBytesCarried(
        cluster_->driver_host().ext_ingress);
    ColumnPredicate pred{"id", ColumnPredicate::Op::kLt, Value::Int64(50)};
    auto few = df->Filter(pred).Collect(driver);
    ASSERT_TRUE(few.ok());
    EXPECT_EQ(few->size(), 50u);
    double filtered_bytes = network_.LinkBytesCarried(
                                cluster_->driver_host().ext_ingress) -
                            before_filter;

    double before_full = network_.LinkBytesCarried(
        cluster_->driver_host().ext_ingress);
    ASSERT_TRUE(df->Collect(driver).ok());
    double full_bytes = network_.LinkBytesCarried(
                            cluster_->driver_host().ext_ingress) -
                        before_full;
    // 5% selectivity ⇒ far less driver ingress for the filtered load.
    EXPECT_LT(filtered_bytes, full_bytes * 0.2);

    // COUNT pushdown: no data rows move at all.
    double before_count = network_.LinkBytesCarried(
        cluster_->driver_host().ext_ingress);
    EXPECT_EQ(df->Count(driver).value(), 1000);
    double count_bytes = network_.LinkBytesCarried(
                             cluster_->driver_host().ext_ingress) -
                         before_count;
    EXPECT_LT(count_bytes, full_bytes * 0.01);
  });
}

// Same pushdown story as above, but asserted through the metrics layer:
// rows scanned inside Vertica, rows handed back to Spark, and result
// bytes on the wire, instead of inferring from link counters.
TEST_F(ConnectorTest, V2SPushdownReducesWorkInMetrics) {
  obs::Tracer tracer([this] { return engine_.now(); });
  obs::ScopedTracer install(&tracer);
  RunDriver([&](sim::Process& driver) {
    ASSERT_TRUE(SaveRows(driver, MakeRows(1000), "t", 8).ok());
    auto df = session_->Read()
                  .Format(kVerticaSourceName)
                  .Option("table", "t")
                  .Option("numpartitions", 8)
                  .Load(driver);
    ASSERT_TRUE(df.ok());

    struct Work {
      double rows_scanned, rows_returned, wire_bytes;
    };
    auto measure = [&](auto&& action) {
      const obs::Metrics& m = tracer.metrics();
      Work before{m.counter("vertica.rows_scanned"),
                  m.counter("v2s.rows_returned"),
                  m.counter("vertica.result_wire_bytes")};
      action();
      return Work{m.counter("vertica.rows_scanned") - before.rows_scanned,
                  m.counter("v2s.rows_returned") - before.rows_returned,
                  m.counter("vertica.result_wire_bytes") -
                      before.wire_bytes};
    };

    Work full = measure(
        [&] { ASSERT_TRUE(df->Collect(driver).ok()); });
    // A full load returns every row; each of the 8 partition queries
    // scans its node's whole segment (2 partitions per node).
    EXPECT_DOUBLE_EQ(full.rows_returned, 1000);
    EXPECT_DOUBLE_EQ(full.rows_scanned, 2000);
    EXPECT_GT(full.wire_bytes, 0);

    // Filter pushdown: the predicate runs inside the scan, so the same
    // rows are scanned but only matches are returned and shipped.
    ColumnPredicate pred{"id", ColumnPredicate::Op::kLt, Value::Int64(50)};
    Work filtered = measure(
        [&] { ASSERT_TRUE(df->Filter(pred).Collect(driver).ok()); });
    EXPECT_DOUBLE_EQ(filtered.rows_scanned, full.rows_scanned);
    EXPECT_DOUBLE_EQ(filtered.rows_returned, 50);
    EXPECT_LT(filtered.wire_bytes, full.wire_bytes * 0.2);

    // Projection pushdown: the cost model keeps every referenced column
    // on the wire and the segmentation hash references both columns of
    // this table, so the pruning shows in the pushed query itself — each
    // partition scan advertises a one-column required set instead of `*`.
    auto projected = df->Select({"id"});
    ASSERT_TRUE(projected.ok());
    Work narrow = measure(
        [&] { ASSERT_TRUE(projected->Collect(driver).ok()); });
    EXPECT_DOUBLE_EQ(narrow.rows_returned, 1000);
    EXPECT_LE(narrow.wire_bytes, full.wire_bytes);
    obs::TraceMatcher scans = obs::TraceMatcher(tracer)
                                  .Category("v2s")
                                  .Name("scan")
                                  .Phase(obs::Event::Phase::kBegin);
    EXPECT_EQ(scans.WithAttr("columns", 1).count(), 8u)
        << scans.Describe();
    EXPECT_GE(scans.WithAttr("filters", 1).count(), 8u)
        << "filter pushdown never reached the partition queries";

    // Count pushdown: one aggregate row per partition, near-zero wire.
    Work counted = measure(
        [&] { EXPECT_EQ(df->Count(driver).value(), 1000); });
    EXPECT_DOUBLE_EQ(counted.rows_returned, 8);
    EXPECT_LT(counted.wire_bytes, full.wire_bytes * 0.01);
    // Rebuilt: matchers are views into the event vector, which may have
    // reallocated while the count ran.
    EXPECT_EQ(obs::TraceMatcher(tracer)
                  .Category("v2s")
                  .Name("scan")
                  .Phase(obs::Event::Phase::kBegin)
                  .WithAttr("count_only", true)
                  .count(),
              8u);
  });
}

TEST_F(ConnectorTest, V2SSnapshotIsImmuneToConcurrentWrites) {
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(200);
    ASSERT_TRUE(SaveRows(driver, rows, "t", 8).ok());
    auto df = session_->Read()
                  .Format(kVerticaSourceName)
                  .Option("table", "t")
                  .Option("numpartitions", 8)
                  .Load(driver);
    ASSERT_TRUE(df.ok());
    // Mutate the table after load() resolved its epoch but before the
    // actual read jobs run.
    auto vsession = db_->Connect(driver, 1, &cluster_->driver_host());
    ASSERT_TRUE(vsession.ok());
    ASSERT_TRUE((*vsession)
                    ->Execute(driver,
                              "INSERT INTO t VALUES (9999, 1.0)")
                    .ok());
    ASSERT_TRUE(
        (*vsession)->Execute(driver, "DELETE FROM t WHERE id < 100").ok());
    ASSERT_TRUE((*vsession)->Close(driver).ok());
    // The load still sees the epoch-consistent snapshot.
    auto loaded = df->Collect(driver);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(IdsOf(*loaded), IdsOf(rows));
  });
}

TEST_F(ConnectorTest, V2SLoadsViewsViaSyntheticRanges) {
  RunDriver([&](sim::Process& driver) {
    ASSERT_TRUE(SaveRows(driver, MakeRows(100), "t", 4).ok());
    auto vsession = db_->Connect(driver, 0, &cluster_->driver_host());
    ASSERT_TRUE(vsession.ok());
    ASSERT_TRUE((*vsession)
                    ->Execute(driver,
                              "CREATE VIEW big AS SELECT id FROM t WHERE "
                              "id >= 50")
                    .ok());
    ASSERT_TRUE((*vsession)->Close(driver).ok());
    auto df = session_->Read()
                  .Format(kVerticaSourceName)
                  .Option("table", "big")
                  .Option("numpartitions", 6)
                  .Load(driver);
    ASSERT_TRUE(df.ok()) << df.status();
    auto loaded = df->Collect(driver);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->size(), 50u);
    std::set<int64_t> ids;
    for (const Row& row : *loaded) ids.insert(row[0].int64_value());
    EXPECT_EQ(ids.size(), 50u);  // disjoint synthetic ranges
  });
}

TEST_F(ConnectorTest, V2STasksSurviveKillsViaRetry) {
  spark::ScriptedFailureInjector injector;
  injector.KillAttempt(1, 0, 0.3).KillAttempt(4, 0, 0.2);
  cluster_->set_failure_injector(&injector);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(300);
    ASSERT_TRUE(SaveRows(driver, rows, "t", 8).ok());
    auto df = session_->Read()
                  .Format(kVerticaSourceName)
                  .Option("table", "t")
                  .Option("numpartitions", 8)
                  .Load(driver);
    ASSERT_TRUE(df.ok());
    auto loaded = df->Collect(driver);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(IdsOf(*loaded), IdsOf(rows));
  });
}

TEST_F(ConnectorTest, JdbcLoadMatchesButShuffles) {
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(200);
    ASSERT_TRUE(SaveRows(driver, rows, "t", 8).ok());
    double before = 0;
    for (int n = 0; n < 4; ++n) {
      before += network_.LinkBytesCarried(db_->node_host(n).int_egress);
    }
    auto df = session_->Read()
                  .Format(baselines::kJdbcSourceName)
                  .Option("dbtable", "t")
                  .Option("partitioncolumn", "id")
                  .Option("lowerbound", 0)
                  .Option("upperbound", 200)
                  .Option("numpartitions", 8)
                  .Load(driver);
    ASSERT_TRUE(df.ok()) << df.status();
    auto loaded = df->Collect(driver);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(IdsOf(*loaded), IdsOf(rows));
    double after = 0;
    for (int n = 0; n < 4; ++n) {
      after += network_.LinkBytesCarried(db_->node_host(n).int_egress);
    }
    // Unlike V2S, the JDBC source's integer-range queries shuffle data
    // between Vertica nodes.
    EXPECT_GT(after, before);
  });
}

TEST_F(ConnectorTest, JdbcWithoutPartitionColumnIsSinglePartition) {
  RunDriver([&](sim::Process& driver) {
    ASSERT_TRUE(SaveRows(driver, MakeRows(50), "t", 4).ok());
    auto df = session_->Read()
                  .Format(baselines::kJdbcSourceName)
                  .Option("dbtable", "t")
                  .Load(driver);
    ASSERT_TRUE(df.ok());
    EXPECT_EQ(df->NumPartitions(), 1);
    EXPECT_EQ(df->Count(driver).value(), 50);
  });
}

TEST_F(ConnectorTest, JdbcSaveWritesRows) {
  RunDriver([&](sim::Process& driver) {
    auto df = session_->CreateDataFrame(TestSchema(), MakeRows(120), 4);
    ASSERT_TRUE(df.ok());
    Status saved = df->Write()
                       .Format(baselines::kJdbcSourceName)
                       .Option("dbtable", "jt")
                       .Mode(SaveMode::kOverwrite)
                       .Save(driver);
    ASSERT_TRUE(saved.ok()) << saved;
    EXPECT_EQ(TableCount(driver, "jt"), 120);
  });
}

TEST_F(ConnectorTest, HdfsRoundTripAndScan) {
  hdfs::HdfsCluster hdfs_cluster(
      &engine_, &network_,
      hdfs::HdfsCluster::Options{4, cluster_->cost()});
  hdfs::RegisterHdfsSource(session_.get(), &hdfs_cluster);
  RunDriver([&](sim::Process& driver) {
    std::vector<Row> rows = MakeRows(250);
    ASSERT_TRUE(
        hdfs_cluster.PutFileForTest("/data/d1.csv", TestSchema(), rows)
            .ok());
    auto df = session_->Read()
                  .Format("parquet")
                  .Option("path", "/data/d1.csv")
                  .Load(driver);
    ASSERT_TRUE(df.ok()) << df.status();
    auto loaded = df->Collect(driver);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(IdsOf(*loaded), IdsOf(rows));
    // Write back to HDFS.
    Status written = df->Write()
                         .Format("parquet")
                         .Option("path", "/out/copy")
                         .Mode(SaveMode::kOverwrite)
                         .Save(driver);
    ASSERT_TRUE(written.ok()) << written;
    // And on into Vertica: the full HDFS -> Spark -> Vertica pipeline.
    Status saved = df->Write()
                       .Format(kVerticaSourceName)
                       .Option("table", "from_hdfs")
                       .Option("numpartitions", 8)
                       .Mode(SaveMode::kOverwrite)
                       .Save(driver);
    ASSERT_TRUE(saved.ok()) << saved;
    EXPECT_EQ(TableCount(driver, "from_hdfs"), 250);
  });
}

}  // namespace
}  // namespace fabric::connector
