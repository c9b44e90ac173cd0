#include <cctype>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "net/network.h"
#include "sim/engine.h"
#include "storage/schema.h"
#include "vertica/copy_stream.h"
#include "vertica/database.h"
#include "vertica/session.h"
#include "vertica/sql_eval.h"
#include "vertica/system_tables.h"

namespace fabric::vertica {
namespace {

using storage::DataType;
using storage::Row;
using storage::Value;

// Harness: one Database on a fresh engine; test bodies run inside a
// spawned "client" process.
class VerticaTest : public ::testing::Test {
 protected:
  VerticaTest() : network_(&engine_) {
    Database::Options options;
    options.num_nodes = 4;
    db_ = std::make_unique<Database>(&engine_, &network_, options);
    client_ = net::AddHost(&network_, "client", 125e6, 0, 0);
  }

  // Runs `body` as a client process and drives the sim to completion.
  void RunClient(std::function<void(sim::Process&, Session&)> body,
                 int node = 0) {
    engine_.Spawn("client", [this, body, node](sim::Process& self) {
      auto session = db_->Connect(self, node, &client_);
      ASSERT_TRUE(session.ok()) << session.status();
      body(self, **session);
      ASSERT_TRUE((*session)->Close(self).ok());
    });
    Status status = engine_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  // Must-succeed Execute.
  static QueryResult Exec(sim::Process& self, Session& session,
                          const std::string& sql) {
    auto result = session.Execute(self, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    if (!result.ok()) return QueryResult{};
    return std::move(*result);
  }

  sim::Engine engine_;
  net::Network network_;
  std::unique_ptr<Database> db_;
  net::Host client_;
};

TEST_F(VerticaTest, CreateInsertSelectRoundTrip) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER, score FLOAT, name VARCHAR) "
         "SEGMENTED BY HASH(id) ALL NODES");
    QueryResult inserted = Exec(
        self, s,
        "INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, NULL, 'c')");
    EXPECT_EQ(inserted.affected, 3);
    QueryResult all = Exec(self, s, "SELECT * FROM t ORDER BY id");
    ASSERT_EQ(all.rows.size(), 3u);
    EXPECT_EQ(all.rows[0][0].int64_value(), 1);
    EXPECT_EQ(all.rows[2][2].varchar_value(), "c");
    EXPECT_TRUE(all.rows[2][1].is_null());
  });
}

TEST_F(VerticaTest, RowsAreSpreadAcrossNodes) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    std::string values;
    for (int i = 0; i < 200; ++i) {
      if (i > 0) values += ", ";
      values += StrCat("(", i, ")");
    }
    Exec(self, s, StrCat("INSERT INTO t VALUES ", values));
    // Every node should hold a nontrivial share.
    auto storage = db_->GetStorage("t");
    ASSERT_TRUE(storage.ok());
    for (int n = 0; n < db_->num_nodes(); ++n) {
      auto count =
          (*storage)->per_node[n]->CountVisible(db_->current_epoch());
      ASSERT_TRUE(count.ok());
      EXPECT_GT(*count, 20) << "node " << n;
    }
  });
}

TEST_F(VerticaTest, ProjectionFilterAndCount) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER, score FLOAT) "
         "SEGMENTED BY HASH(id) ALL NODES");
    std::string values;
    for (int i = 0; i < 50; ++i) {
      if (i > 0) values += ", ";
      values += StrCat("(", i, ", ", i * 0.5, ")");
    }
    Exec(self, s, StrCat("INSERT INTO t VALUES ", values));
    QueryResult filtered =
        Exec(self, s, "SELECT id FROM t WHERE score >= 20 ORDER BY id");
    ASSERT_EQ(filtered.rows.size(), 10u);
    EXPECT_EQ(filtered.rows[0][0].int64_value(), 40);
    EXPECT_EQ(filtered.schema.num_columns(), 1);
    QueryResult count = Exec(self, s, "SELECT COUNT(*) FROM t");
    ASSERT_EQ(count.rows.size(), 1u);
    EXPECT_EQ(count.rows[0][0].int64_value(), 50);
  });
}

TEST_F(VerticaTest, GroupByAggregates) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE sales (region VARCHAR, amount FLOAT) "
         "SEGMENTED BY HASH(region, amount) ALL NODES");
    Exec(self, s,
         "INSERT INTO sales VALUES ('east', 10), ('east', 20), "
         "('west', 5), ('west', 7), ('west', 9)");
    QueryResult grouped = Exec(
        self, s,
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total, "
        "AVG(amount) AS mean, MIN(amount) AS lo, MAX(amount) AS hi "
        "FROM sales GROUP BY region ORDER BY region");
    ASSERT_EQ(grouped.rows.size(), 2u);
    EXPECT_EQ(grouped.rows[0][0].varchar_value(), "east");
    EXPECT_EQ(grouped.rows[0][1].int64_value(), 2);
    EXPECT_EQ(grouped.rows[0][2].float64_value(), 30.0);
    EXPECT_EQ(grouped.rows[1][3].float64_value(), 7.0);
    EXPECT_EQ(grouped.rows[1][4].float64_value(), 5.0);
    EXPECT_EQ(grouped.rows[1][5].float64_value(), 9.0);
  });
}

TEST_F(VerticaTest, HashRangeQueriesCoverTableDisjointly) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER, v FLOAT) "
         "SEGMENTED BY HASH(id) ALL NODES");
    std::string values;
    for (int i = 0; i < 120; ++i) {
      if (i > 0) values += ", ";
      values += StrCat("(", i, ", ", i, ")");
    }
    Exec(self, s, StrCat("INSERT INTO t VALUES ", values));
    // Partition the ring into 8 and issue one range query per part, like
    // V2S does. The union must be exactly the table.
    auto ranges = EvenRingPartition(8);
    std::set<int64_t> seen;
    for (int p = 0; p < 8; ++p) {
      std::string where =
          StrCat("HASH(id) >= ", sql::RingHashToSigned(ranges[p].lower));
      if (ranges[p].upper != 0) {
        where += StrCat(" AND HASH(id) < ",
                        sql::RingHashToSigned(ranges[p].upper));
      }
      QueryResult part =
          Exec(self, s, StrCat("SELECT id FROM t WHERE ", where));
      for (const Row& row : part.rows) {
        auto [it, inserted] = seen.insert(row[0].int64_value());
        EXPECT_TRUE(inserted) << "row in two partitions";
      }
    }
    EXPECT_EQ(seen.size(), 120u);
  });
}

TEST_F(VerticaTest, LocalityQueryTouchesOneNodeOnly) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    std::string values;
    for (int i = 0; i < 100; ++i) {
      if (i > 0) values += ", ";
      values += StrCat("(", i, ")");
    }
    Exec(self, s, StrCat("INSERT INTO t VALUES ", values));
    double before[4];
    for (int n = 0; n < 4; ++n) {
      before[n] = network_.LinkBytesCarried(db_->node_host(n).int_egress);
    }
    // Query node 2's segment from node 2: no internal traffic at all.
    auto ranges = db_->node_ranges();
    std::string where =
        StrCat("HASH(id) >= ", sql::RingHashToSigned(ranges[2].lower),
               " AND HASH(id) < ",
               sql::RingHashToSigned(ranges[2].upper));
    auto session2 = db_->Connect(self, 2, &client_);
    ASSERT_TRUE(session2.ok());
    QueryResult part =
        Exec(self, **session2, StrCat("SELECT id FROM t WHERE ", where));
    EXPECT_GT(part.rows.size(), 0u);
    for (int n = 0; n < 4; ++n) {
      EXPECT_DOUBLE_EQ(
          network_.LinkBytesCarried(db_->node_host(n).int_egress),
          before[n])
          << "internal shuffle from node " << n;
    }
    ASSERT_TRUE((*session2)->Close(self).ok());
  });
}

TEST_F(VerticaTest, NonLocalQueryShufflesInternally) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    std::string values;
    for (int i = 0; i < 100; ++i) {
      if (i > 0) values += ", ";
      values += StrCat("(", i, ")");
    }
    Exec(self, s, StrCat("INSERT INTO t VALUES ", values));
    // Full scan from node 0 pulls the other nodes' segments across the
    // internal fabric.
    Exec(self, s, "SELECT id FROM t");
    double shuffled = 0;
    for (int n = 1; n < 4; ++n) {
      shuffled += network_.LinkBytesCarried(db_->node_host(n).int_egress);
    }
    EXPECT_GT(shuffled, 0);
  });
}

TEST_F(VerticaTest, EpochSnapshotsGiveConsistentReads) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    Exec(self, s, "INSERT INTO t VALUES (1), (2), (3)");
    int64_t epoch = static_cast<int64_t>(db_->current_epoch());
    Exec(self, s, "INSERT INTO t VALUES (4), (5)");
    Exec(self, s, "DELETE FROM t WHERE id = 1");
    // The old epoch still sees exactly the first three rows.
    QueryResult old_snapshot =
        Exec(self, s, StrCat("SELECT COUNT(*) FROM t AT EPOCH ", epoch));
    EXPECT_EQ(old_snapshot.rows[0][0].int64_value(), 3);
    QueryResult latest = Exec(self, s, "SELECT COUNT(*) FROM t");
    EXPECT_EQ(latest.rows[0][0].int64_value(), 4);
    // Future epochs are rejected.
    auto bad = s.Execute(self, "SELECT * FROM t AT EPOCH 999999");
    EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  });
}

TEST_F(VerticaTest, UpdateIsConditionalAndTransactional) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE status (id INTEGER, done BOOLEAN) "
         "UNSEGMENTED ALL NODES");
    Exec(self, s, "INSERT INTO status VALUES (7, FALSE)");
    // First conditional update wins...
    QueryResult first = Exec(
        self, s, "UPDATE status SET done = TRUE WHERE id = 7 AND done = FALSE");
    EXPECT_EQ(first.affected, 1);
    // ...the second (a duplicate task) matches nothing.
    QueryResult second = Exec(
        self, s, "UPDATE status SET done = TRUE WHERE id = 7 AND done = FALSE");
    EXPECT_EQ(second.affected, 0);
  });
}

TEST_F(VerticaTest, ExplicitTxnCommitAndRollback) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    Exec(self, s, "BEGIN");
    Exec(self, s, "INSERT INTO t VALUES (1)");
    // Uncommitted data is visible to the writer...
    EXPECT_EQ(Exec(self, s, "SELECT COUNT(*) FROM t").rows[0][0]
                  .int64_value(),
              1);
    Exec(self, s, "ROLLBACK");
    EXPECT_EQ(Exec(self, s, "SELECT COUNT(*) FROM t").rows[0][0]
                  .int64_value(),
              0);
    Exec(self, s, "BEGIN");
    Exec(self, s, "INSERT INTO t VALUES (2)");
    Exec(self, s, "COMMIT");
    EXPECT_EQ(Exec(self, s, "SELECT COUNT(*) FROM t").rows[0][0]
                  .int64_value(),
              1);
  });
}

TEST_F(VerticaTest, UncommittedRowsInvisibleToOtherSessions) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    Exec(self, s, "BEGIN");
    Exec(self, s, "INSERT INTO t VALUES (1)");
    auto other = db_->Connect(self, 1, &client_);
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(Exec(self, **other, "SELECT COUNT(*) FROM t").rows[0][0]
                  .int64_value(),
              0);
    Exec(self, s, "COMMIT");
    EXPECT_EQ(Exec(self, **other, "SELECT COUNT(*) FROM t").rows[0][0]
                  .int64_value(),
              1);
    ASSERT_TRUE((*other)->Close(self).ok());
  });
}

TEST_F(VerticaTest, WriteLocksSerializeConflictingTxns) {
  // Two concurrent clients race conditional updates on one row: exactly
  // one must win (the S2V leader-election primitive, Sec. 3.2.1).
  engine_.Spawn("setup", [this](sim::Process& self) {
    auto session = db_->Connect(self, 0, &client_);
    ASSERT_TRUE(session.ok());
    Exec(self, **session,
         "CREATE TABLE leader (task INTEGER) UNSEGMENTED ALL NODES");
    Exec(self, **session, "INSERT INTO leader VALUES (-1)");
    ASSERT_TRUE((*session)->Close(self).ok());
    int winners = 0;
    sim::Latch done(&engine_, 4);
    for (int task = 0; task < 4; ++task) {
      engine_.Spawn(StrCat("task", task), [this, task, &winners,
                                           &done](sim::Process& racer) {
        auto session = db_->Connect(racer, task % 4, &client_);
        ASSERT_TRUE(session.ok());
        auto result = (*session)->Execute(
            racer, StrCat("UPDATE leader SET task = ", task,
                          " WHERE task = -1"));
        ASSERT_TRUE(result.ok()) << result.status();
        if (result->affected == 1) ++winners;
        ASSERT_TRUE((*session)->Close(racer).ok());
        done.CountDown();
      });
    }
    ASSERT_TRUE(done.Await(self).ok());
    EXPECT_EQ(winners, 1);
  });
  ASSERT_TRUE(engine_.Run().ok());
}

TEST_F(VerticaTest, ViewsComputeAggregatesInsideVertica) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE sales (region VARCHAR, amount FLOAT) "
         "SEGMENTED BY HASH(region, amount) ALL NODES");
    Exec(self, s,
         "INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5)");
    Exec(self, s,
         "CREATE VIEW totals AS SELECT region, SUM(amount) AS total "
         "FROM sales GROUP BY region");
    QueryResult from_view = Exec(
        self, s, "SELECT region, total FROM totals WHERE total > 6 "
                 "ORDER BY region");
    ASSERT_EQ(from_view.rows.size(), 1u);
    EXPECT_EQ(from_view.rows[0][0].varchar_value(), "east");
    EXPECT_EQ(from_view.rows[0][1].float64_value(), 30.0);
  });
}

TEST_F(VerticaTest, InnerJoinHashAndNestedLoop) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE users (id INTEGER, name VARCHAR) "
         "SEGMENTED BY HASH(id) ALL NODES");
    Exec(self, s,
         "CREATE TABLE orders (user_id INTEGER, amount FLOAT) "
         "SEGMENTED BY HASH(user_id) ALL NODES");
    Exec(self, s,
         "INSERT INTO users VALUES (1, 'ann'), (2, 'bo'), (3, 'cy')");
    Exec(self, s,
         "INSERT INTO orders VALUES (1, 10), (1, 20), (3, 5), (9, 99)");
    // Equality join uses the hash-join path.
    QueryResult joined = Exec(
        self, s,
        "SELECT name, amount FROM users JOIN orders ON id = user_id "
        "ORDER BY name, amount");
    ASSERT_EQ(joined.rows.size(), 3u);
    EXPECT_EQ(joined.rows[0][0].varchar_value(), "ann");
    EXPECT_EQ(joined.rows[0][1].float64_value(), 10.0);
    EXPECT_EQ(joined.rows[2][0].varchar_value(), "cy");
    // Aggregation over a join.
    QueryResult totals = Exec(
        self, s,
        "SELECT name, SUM(amount) AS total FROM users JOIN orders ON "
        "id = user_id GROUP BY name ORDER BY name");
    ASSERT_EQ(totals.rows.size(), 2u);
    EXPECT_EQ(totals.rows[0][1].float64_value(), 30.0);
    // Non-equi join takes the nested-loop path.
    QueryResult theta = Exec(
        self, s,
        "SELECT name, amount FROM users JOIN orders ON id < user_id");
    EXPECT_EQ(theta.rows.size(), 5u);  // pairs with id < user_id
  });
}

TEST_F(VerticaTest, JoinColumnCollisionIsQualified) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s, "CREATE TABLE a (id INTEGER, v FLOAT)");
    Exec(self, s, "CREATE TABLE b (id INTEGER, w FLOAT)");
    Exec(self, s, "INSERT INTO a VALUES (1, 1.5)");
    Exec(self, s, "INSERT INTO b VALUES (1, 2.5)");
    QueryResult joined =
        Exec(self, s, "SELECT * FROM a JOIN b ON v < w");
    ASSERT_EQ(joined.rows.size(), 1u);
    ASSERT_EQ(joined.schema.num_columns(), 4);
    EXPECT_EQ(joined.schema.column(2).name, "b_id");
  });
}

TEST_F(VerticaTest, ViewOverJoinServesAggregates) {
  // The Section 3.1.1 story: a pre-defined view pushes a join (and here
  // an outer aggregation) into Vertica.
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s, "CREATE TABLE users (id INTEGER, region VARCHAR)");
    Exec(self, s, "CREATE TABLE orders (user_id INTEGER, amount FLOAT)");
    Exec(self, s,
         "INSERT INTO users VALUES (1, 'east'), (2, 'west'), (3, 'east')");
    Exec(self, s,
         "INSERT INTO orders VALUES (1, 10), (2, 20), (3, 30), (1, 40)");
    Exec(self, s,
         "CREATE VIEW user_orders AS SELECT region, amount FROM users "
         "JOIN orders ON id = user_id");
    QueryResult by_region = Exec(
        self, s,
        "SELECT region, SUM(amount) AS total FROM user_orders GROUP BY "
        "region ORDER BY region");
    ASSERT_EQ(by_region.rows.size(), 2u);
    EXPECT_EQ(by_region.rows[0][1].float64_value(), 80.0);  // east
    EXPECT_EQ(by_region.rows[1][1].float64_value(), 20.0);  // west
  });
}

TEST_F(VerticaTest, SystemCatalogExposesSegments) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    QueryResult nodes = Exec(self, s, "SELECT * FROM v_catalog.nodes");
    EXPECT_EQ(nodes.rows.size(), 4u);
    // Every node reports its k-safety state.
    QueryResult states =
        Exec(self, s, "SELECT state FROM v_catalog.nodes");
    for (const Row& row : states.rows) {
      EXPECT_EQ(row[0].varchar_value(), "UP");
    }
    QueryResult segments = Exec(
        self, s,
        "SELECT node_id, segment_lower, segment_upper, buddy_node_id "
        "FROM v_catalog.segments WHERE table_name = 't' ORDER BY node_id");
    ASSERT_EQ(segments.rows.size(), 4u);
    // k=1 buddy placement: the second copy lives on the ring successor.
    for (const Row& row : segments.rows) {
      EXPECT_EQ(row[3].int64_value(), (row[0].int64_value() + 1) % 4);
    }
    // Bounds chain: each segment's lower is the previous one's upper; the
    // final upper is NULL (wrap).
    for (int n = 1; n < 4; ++n) {
      EXPECT_EQ(segments.rows[n][1].int64_value(),
                segments.rows[n - 1][2].int64_value());
    }
    EXPECT_TRUE(segments.rows[3][2].is_null());
    QueryResult epochs = Exec(self, s, "SELECT * FROM v_catalog.epochs");
    EXPECT_EQ(epochs.rows[0][0].int64_value(),
              static_cast<int64_t>(db_->current_epoch()));
  });
}

// Upper-cases the first letter of each `_`/`.`-separated word
// ("v_catalog.nodes" -> "V_Catalog.Nodes").
std::string MixedCase(const std::string& name) {
  std::string out = name;
  for (size_t i = 0; i < out.size(); ++i) {
    if (i == 0 || out[i - 1] == '_' || out[i - 1] == '.') {
      out[i] = static_cast<char>(std::toupper(out[i]));
    }
  }
  return out;
}

TEST_F(VerticaTest, EverySystemTableAnswersWithItsRegisteredSchema) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    Exec(self, s, "CREATE TABLE r (id INTEGER) UNSEGMENTED ALL NODES");
    Exec(self, s, "CREATE VIEW tv AS SELECT id FROM t");
    EXPECT_EQ(SystemTables().size(), 12u);
    for (const SystemTableDef& table : SystemTables()) {
      for (const std::string& name : {std::string(table.name),
                                      MixedCase(table.name)}) {
        QueryResult result = Exec(self, s, StrCat("SELECT * FROM ", name));
        EXPECT_EQ(result.schema, table.schema) << name;
      }
    }

    QueryResult tables = Exec(
        self, s,
        "SELECT table_name, is_view, is_segmented FROM v_catalog.tables "
        "ORDER BY table_name");
    ASSERT_EQ(tables.rows.size(), 3u);
    EXPECT_EQ(tables.rows[0][0].varchar_value(), "r");
    EXPECT_FALSE(tables.rows[0][1].bool_value());
    EXPECT_FALSE(tables.rows[0][2].bool_value());
    EXPECT_EQ(tables.rows[1][0].varchar_value(), "t");
    EXPECT_FALSE(tables.rows[1][1].bool_value());
    EXPECT_TRUE(tables.rows[1][2].bool_value());
    EXPECT_EQ(tables.rows[2][0].varchar_value(), "tv");
    EXPECT_TRUE(tables.rows[2][1].bool_value());
    EXPECT_FALSE(tables.rows[2][2].bool_value());

    // A system-schema name that is not registered fails, alone or as a
    // join side.
    for (const char* sql :
         {"SELECT * FROM v_monitor.nope",
          "SELECT COUNT(*) FROM t JOIN v_monitor.nope ON id = node_id"}) {
      auto failed = s.Execute(self, sql);
      ASSERT_FALSE(failed.ok()) << sql;
      EXPECT_EQ(failed.status().code(), StatusCode::kNotFound) << sql;
      EXPECT_NE(std::string(failed.status().message())
                    .find("unknown system table 'v_monitor.nope'"),
                std::string::npos)
          << failed.status();
    }
  });
}

TEST_F(VerticaTest, RenameSwapsTablesAtomically) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE staging (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    Exec(self, s, "INSERT INTO staging VALUES (1), (2)");
    Exec(self, s, "ALTER TABLE staging RENAME TO target");
    EXPECT_EQ(Exec(self, s, "SELECT COUNT(*) FROM target").rows[0][0]
                  .int64_value(),
              2);
    auto gone = s.Execute(self, "SELECT * FROM staging");
    EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  });
}

TEST_F(VerticaTest, DropAndIfExists) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s, "CREATE TABLE t (id INTEGER)");
    Exec(self, s, "DROP TABLE t");
    EXPECT_FALSE(s.Execute(self, "DROP TABLE t").ok());
    Exec(self, s, "DROP TABLE IF EXISTS t");
    EXPECT_FALSE(s.Execute(self, "SELECT * FROM t").ok());
  });
}

TEST_F(VerticaTest, UnsegmentedTablesReplicateEverywhere) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s, "CREATE TABLE r (id INTEGER) UNSEGMENTED ALL NODES");
    Exec(self, s, "INSERT INTO r VALUES (1), (2)");
    auto storage = db_->GetStorage("r");
    ASSERT_TRUE(storage.ok());
    for (int n = 0; n < 4; ++n) {
      EXPECT_EQ(
          (*storage)->per_node[n]->CountVisible(db_->current_epoch())
              .value(),
          2);
    }
    // Reads are served locally: no internal traffic.
    double before = 0;
    for (int n = 0; n < 4; ++n) {
      before += network_.LinkBytesCarried(db_->node_host(n).int_egress);
    }
    Exec(self, s, "SELECT * FROM r");
    double after = 0;
    for (int n = 0; n < 4; ++n) {
      after += network_.LinkBytesCarried(db_->node_host(n).int_egress);
    }
    EXPECT_DOUBLE_EQ(after, before);
  });
}

TEST_F(VerticaTest, CopyStreamBulkLoadsAndRejects) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER, v FLOAT) "
         "SEGMENTED BY HASH(id) ALL NODES");
    auto stream = CopyStream::Open(self, &s, "t", CopyStream::Options{});
    ASSERT_TRUE(stream.ok()) << stream.status();
    std::vector<Row> batch;
    for (int i = 0; i < 40; ++i) {
      batch.push_back({Value::Int64(i), Value::Float64(i * 0.5)});
    }
    // Two malformed rows: wrong arity and wrong type.
    batch.push_back({Value::Int64(99)});
    batch.push_back({Value::Varchar("oops"), Value::Float64(1)});
    ASSERT_TRUE((*stream)->WriteBatch(self, batch).ok());
    auto result = (*stream)->Finish(self);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->loaded, 40);
    EXPECT_EQ(result->rejected, 2);
    EXPECT_EQ(result->rejected_sample.size(), 2u);
    EXPECT_EQ(Exec(self, s, "SELECT COUNT(*) FROM t").rows[0][0]
                  .int64_value(),
              40);
    // Bulk loads land in ROS (DIRECT), not WOS.
    auto storage = db_->GetStorage("t");
    int ros = 0;
    for (int n = 0; n < 4; ++n) {
      ros += (*storage)->per_node[n]->num_ros_containers();
    }
    EXPECT_GT(ros, 0);
  });
}

TEST_F(VerticaTest, CopyStreamUnderExplicitTxnRollsBack) {
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    Exec(self, s, "BEGIN");
    auto stream = CopyStream::Open(self, &s, "t", CopyStream::Options{});
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE((*stream)->WriteBatch(self, {{Value::Int64(1)}}).ok());
    auto result = (*stream)->Finish(self);
    ASSERT_TRUE(result.ok());
    Exec(self, s, "ROLLBACK");
    EXPECT_EQ(Exec(self, s, "SELECT COUNT(*) FROM t").rows[0][0]
                  .int64_value(),
              0);
  });
}

TEST_F(VerticaTest, AbandonedSessionRollsBackOpenTxn) {
  RunClient([this](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) ALL NODES");
    {
      auto doomed = db_->Connect(self, 1, &client_);
      ASSERT_TRUE(doomed.ok());
      Exec(self, **doomed, "BEGIN");
      Exec(self, **doomed, "INSERT INTO t VALUES (1)");
      // Session destroyed without COMMIT: server rolls back.
    }
    EXPECT_EQ(Exec(self, s, "SELECT COUNT(*) FROM t").rows[0][0]
                  .int64_value(),
              0);
  });
}

TEST_F(VerticaTest, SessionLimitEnforced) {
  Database::Options options;
  options.num_nodes = 1;
  options.max_client_sessions = 2;
  sim::Engine engine;
  net::Network network(&engine);
  Database db(&engine, &network, options);
  net::Host client = net::AddHost(&network, "client", 125e6, 0, 0);
  engine.Spawn("client", [&](sim::Process& self) {
    auto s1 = db.Connect(self, 0, &client);
    auto s2 = db.Connect(self, 0, &client);
    ASSERT_TRUE(s1.ok());
    ASSERT_TRUE(s2.ok());
    auto s3 = db.Connect(self, 0, &client);
    EXPECT_EQ(s3.status().code(), StatusCode::kResourceExhausted);
    (*s1)->Abandon();
    auto s4 = db.Connect(self, 0, &client);
    EXPECT_TRUE(s4.ok());
    (*s2)->Abandon();
    (*s4)->Abandon();
  });
  ASSERT_TRUE(engine.Run().ok());
}

TEST_F(VerticaTest, ScalarUdxCallableFromSql) {
  db_->RegisterScalarFunction(
      "PLUS_PARAM",
      [](const std::vector<Value>& args,
         const std::map<std::string, Value>& params) -> Result<Value> {
        double sum = 0;
        for (const Value& v : args) {
          FABRIC_ASSIGN_OR_RETURN(double d, v.AsDouble());
          sum += d;
        }
        auto it = params.find("offset");
        if (it != params.end()) {
          FABRIC_ASSIGN_OR_RETURN(double d, it->second.AsDouble());
          sum += d;
        }
        return Value::Float64(sum);
      });
  RunClient([](sim::Process& self, Session& s) {
    Exec(self, s,
         "CREATE TABLE t (a FLOAT, b FLOAT) SEGMENTED BY HASH(a) ALL NODES");
    Exec(self, s, "INSERT INTO t VALUES (1, 2), (3, 4)");
    QueryResult scored = Exec(
        self, s,
        "SELECT PLUS_PARAM(a, b USING PARAMETERS offset=10) AS v FROM t "
        "ORDER BY v");
    ASSERT_EQ(scored.rows.size(), 2u);
    EXPECT_EQ(scored.rows[0][0].float64_value(), 13.0);
    EXPECT_EQ(scored.rows[1][0].float64_value(), 17.0);
  });
}

TEST_F(VerticaTest, DfsStoresBlobs) {
  ASSERT_TRUE(db_->dfs().Put("/models/m1.pmml", "<PMML/>").ok());
  EXPECT_TRUE(db_->dfs().Exists("/models/m1.pmml"));
  EXPECT_EQ(db_->dfs().Get("/models/m1.pmml").value(), "<PMML/>");
  EXPECT_EQ(db_->dfs().List("/models/").size(), 1u);
  ASSERT_TRUE(db_->dfs().Delete("/models/m1.pmml").ok());
  EXPECT_FALSE(db_->dfs().Exists("/models/m1.pmml"));
}

// Property sweep: with any number of partition range-queries, V2S-style
// partitioned reads return each row exactly once, at any epoch, while
// concurrent inserts land in later epochs.
class PartitionedReadPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionedReadPropertyTest, ExactlyOnceCoverage) {
  const int partitions = GetParam();
  sim::Engine engine;
  net::Network network(&engine);
  Database::Options options;
  options.num_nodes = 4;
  Database db(&engine, &network, options);
  net::Host client = net::AddHost(&network, "client", 125e6, 0, 0);
  engine.Spawn("client", [&](sim::Process& self) {
    auto session = db.Connect(self, 0, &client);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        (*session)
            ->Execute(self,
                      "CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) "
                      "ALL NODES")
            .ok());
    std::string values;
    for (int i = 0; i < 333; ++i) {
      if (i > 0) values += ", ";
      values += StrCat("(", i, ")");
    }
    ASSERT_TRUE(
        (*session)->Execute(self, StrCat("INSERT INTO t VALUES ", values))
            .ok());
    int64_t epoch = static_cast<int64_t>(db.current_epoch());
    // Concurrent mutation after the snapshot.
    ASSERT_TRUE((*session)->Execute(self, "INSERT INTO t VALUES (1000)")
                    .ok());
    auto ranges = EvenRingPartition(partitions);
    std::multiset<int64_t> seen;
    for (int p = 0; p < partitions; ++p) {
      std::string where =
          StrCat("HASH(id) >= ", sql::RingHashToSigned(ranges[p].lower));
      if (ranges[p].upper != 0) {
        where += StrCat(" AND HASH(id) < ",
                        sql::RingHashToSigned(ranges[p].upper));
      }
      auto part = (*session)->Execute(
          self, StrCat("SELECT id FROM t WHERE ", where, " AT EPOCH ",
                       epoch));
      ASSERT_TRUE(part.ok()) << part.status();
      for (const Row& row : part->rows) {
        seen.insert(row[0].int64_value());
      }
    }
    ASSERT_EQ(seen.size(), 333u);
    for (int i = 0; i < 333; ++i) EXPECT_EQ(seen.count(i), 1u);
    EXPECT_EQ(seen.count(1000), 0u);
    ASSERT_TRUE((*session)->Close(self).ok());
  });
  ASSERT_TRUE(engine.Run().ok());
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionedReadPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

}  // namespace
}  // namespace fabric::vertica
