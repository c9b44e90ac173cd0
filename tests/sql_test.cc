#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "vertica/catalog.h"
#include "vertica/sql_analyzer.h"
#include "vertica/sql_ast.h"
#include "vertica/sql_eval.h"
#include "vertica/sql_parser.h"

namespace fabric::vertica::sql {
namespace {

using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

// ------------------------------------------------------------------ lexer

TEST(ParserTest, SelectBasics) {
  auto statement = Parse("SELECT a, b AS bee, 42 FROM t WHERE a > 1");
  ASSERT_TRUE(statement.ok()) << statement.status();
  auto& select = std::get<SelectStmt>(*statement);
  ASSERT_EQ(select.items.size(), 3u);
  EXPECT_EQ(select.items[0].expr->column, "a");
  EXPECT_EQ(select.items[1].alias, "bee");
  EXPECT_EQ(select.from, "t");
  ASSERT_NE(select.where, nullptr);
  EXPECT_EQ(select.where->op, ">");
}

TEST(ParserTest, SelectStarAndClauses) {
  auto statement = Parse(
      "SELECT * FROM t WHERE x = 'it''s' GROUP BY g ORDER BY g DESC "
      "LIMIT 10 AT EPOCH 7");
  ASSERT_TRUE(statement.ok()) << statement.status();
  auto& select = std::get<SelectStmt>(*statement);
  EXPECT_TRUE(select.items[0].star);
  EXPECT_EQ(select.group_by, std::vector<std::string>{"g"});
  EXPECT_TRUE(select.order_by[0].descending);
  EXPECT_EQ(select.limit, 10);
  EXPECT_EQ(select.at_epoch, 7);
}

TEST(ParserTest, QualifiedSystemTableName) {
  auto statement = Parse("SELECT node_name FROM v_catalog.nodes");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(std::get<SelectStmt>(*statement).from, "v_catalog.nodes");
}

TEST(ParserTest, KSafetyCatalogColumns) {
  // The k-safety columns (nodes.state, segments.buddy_node_id/_name)
  // are ordinary projections to the parser.
  auto nodes = Parse("SELECT node_name, state FROM v_catalog.nodes");
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(std::get<SelectStmt>(*nodes).items.size(), 2u);
  auto segments = Parse(
      "SELECT buddy_node_id, buddy_node_name FROM v_catalog.segments "
      "WHERE table_name = 't' ORDER BY node_id");
  ASSERT_TRUE(segments.ok()) << segments.status();
  EXPECT_EQ(std::get<SelectStmt>(*segments).from, "v_catalog.segments");
}

TEST(ParserTest, HashRangePredicate) {
  auto statement = Parse(
      "SELECT * FROM t WHERE HASH(a, b) >= -100 AND HASH(a, b) < 200");
  ASSERT_TRUE(statement.ok()) << statement.status();
  auto& select = std::get<SelectStmt>(*statement);
  EXPECT_EQ(select.where->op, "AND");
}

TEST(ParserTest, CreateTableSegmented) {
  auto statement = Parse(
      "CREATE TABLE t (id INTEGER, score FLOAT, name VARCHAR(80)) "
      "SEGMENTED BY HASH(id) ALL NODES");
  ASSERT_TRUE(statement.ok()) << statement.status();
  auto& create = std::get<CreateTableStmt>(*statement);
  EXPECT_EQ(create.name, "t");
  ASSERT_EQ(create.columns.size(), 3u);
  EXPECT_EQ(create.columns[1].second, DataType::kFloat64);
  EXPECT_EQ(create.segmentation_columns,
            std::vector<std::string>{"id"});
}

TEST(ParserTest, CreateTableUnsegmentedAndIfNotExists) {
  auto statement = Parse(
      "CREATE TABLE IF NOT EXISTS t (id INTEGER) UNSEGMENTED ALL NODES");
  ASSERT_TRUE(statement.ok()) << statement.status();
  auto& create = std::get<CreateTableStmt>(*statement);
  EXPECT_TRUE(create.if_not_exists);
  EXPECT_TRUE(create.unsegmented);
}

TEST(ParserTest, InnerJoin) {
  auto statement = Parse(
      "SELECT name, amount FROM users JOIN orders ON id = user_id "
      "WHERE amount > 10");
  ASSERT_TRUE(statement.ok()) << statement.status();
  auto& select = std::get<SelectStmt>(*statement);
  EXPECT_EQ(select.from, "users");
  EXPECT_EQ(select.join, "orders");
  ASSERT_NE(select.join_on, nullptr);
  EXPECT_EQ(select.join_on->op, "=");
  // INNER JOIN spelling and round-tripping.
  auto inner = Parse("SELECT * FROM a INNER JOIN b ON x = y");
  ASSERT_TRUE(inner.ok()) << inner.status();
  EXPECT_EQ(std::get<SelectStmt>(*inner).join, "b");
  EXPECT_NE(std::get<SelectStmt>(*inner).ToSql().find("JOIN b ON"),
            std::string::npos);
}

TEST(ParserTest, JoinRequiresOn) {
  EXPECT_FALSE(Parse("SELECT * FROM a JOIN b").ok());
  EXPECT_FALSE(Parse("SELECT * FROM a JOIN b WHERE x = 1").ok());
}

TEST(ParserTest, CreateView) {
  auto statement =
      Parse("CREATE VIEW v AS SELECT g, COUNT(*) AS n FROM t GROUP BY g");
  ASSERT_TRUE(statement.ok()) << statement.status();
  auto& view = std::get<CreateViewStmt>(*statement);
  EXPECT_EQ(view.name, "v");
  EXPECT_EQ(view.select->group_by, std::vector<std::string>{"g"});
}

TEST(ParserTest, InsertValuesAndDirectHint) {
  auto statement = Parse(
      "INSERT /*+ DIRECT */ INTO t (a, b) VALUES (1, 'x'), (2, NULL)");
  ASSERT_TRUE(statement.ok()) << statement.status();
  auto& insert = std::get<InsertStmt>(*statement);
  EXPECT_TRUE(insert.direct);
  EXPECT_EQ(insert.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(insert.rows.size(), 2u);
  EXPECT_TRUE(insert.rows[1][1]->literal.is_null());
}

TEST(ParserTest, InsertSelect) {
  auto statement = Parse("INSERT INTO target SELECT * FROM staging");
  ASSERT_TRUE(statement.ok()) << statement.status();
  auto& insert = std::get<InsertStmt>(*statement);
  ASSERT_NE(insert.select, nullptr);
  EXPECT_EQ(insert.select->from, "staging");
}

TEST(ParserTest, UpdateDeleteTruncateRename) {
  auto update = Parse("UPDATE t SET done = TRUE WHERE id = 3 AND done = FALSE");
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(std::get<UpdateStmt>(*update).assignments.size(), 1u);

  auto del = Parse("DELETE FROM t WHERE id = 3");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(std::get<DeleteStmt>(*del).table, "t");

  auto truncate = Parse("TRUNCATE TABLE t");
  ASSERT_TRUE(truncate.ok());

  auto rename = Parse("ALTER TABLE s RENAME TO t");
  ASSERT_TRUE(rename.ok());
  EXPECT_EQ(std::get<RenameTableStmt>(*rename).to, "t");
}

TEST(ParserTest, TxnStatements) {
  EXPECT_EQ(std::get<TxnStmt>(*Parse("BEGIN")).kind, TxnStmt::Kind::kBegin);
  EXPECT_EQ(std::get<TxnStmt>(*Parse("COMMIT")).kind,
            TxnStmt::Kind::kCommit);
  EXPECT_EQ(std::get<TxnStmt>(*Parse("ROLLBACK")).kind,
            TxnStmt::Kind::kRollback);
}

TEST(ParserTest, UsingParameters) {
  auto expr = ParseExpression(
      "PMMLPredict(a, b USING PARAMETERS model_name='m1', k=3)");
  ASSERT_TRUE(expr.ok()) << expr.status();
  EXPECT_EQ((*expr)->function, "PMMLPREDICT");
  EXPECT_EQ((*expr)->args.size(), 2u);
  EXPECT_EQ((*expr)->parameters.at("model_name").varchar_value(), "m1");
  EXPECT_EQ((*expr)->parameters.at("k").int64_value(), 3);
}

TEST(ParserTest, RejectsMalformed) {
  EXPECT_FALSE(Parse("SELECT FROM").ok());
  EXPECT_FALSE(Parse("SELEC 1").ok());
  EXPECT_FALSE(Parse("SELECT 1 extra garbage ,").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES (1").ok());
  EXPECT_FALSE(Parse("SELECT 'unterminated").ok());
}

TEST(ParserTest, ExpressionPrecedence) {
  auto expr = ParseExpression("a + b * 2 < 10 OR NOT c = 1 AND d IS NULL");
  ASSERT_TRUE(expr.ok()) << expr.status();
  // Rendered SQL shows the tree shape.
  EXPECT_EQ((*expr)->ToSql(),
            "(((a + (b * 2)) < 10) OR ((NOT (c = 1)) AND (d IS NULL)))");
}

TEST(ParserTest, ToSqlRoundTrips) {
  const char* exprs[] = {
      "((a + 1) * 2)", "(HASH(a, b) >= -5)", "(x || 'suffix')",
      "((a IS NOT NULL) AND (b <> 3))"};
  for (const char* text : exprs) {
    auto parsed = ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto reparsed = ParseExpression((*parsed)->ToSql());
    ASSERT_TRUE(reparsed.ok()) << (*parsed)->ToSql();
    EXPECT_EQ((*parsed)->ToSql(), (*reparsed)->ToSql());
  }
}

// ------------------------------------------------------------------ eval

class EvalTest : public ::testing::Test {
 protected:
  EvalTest()
      : schema_({{"a", DataType::kInt64},
                 {"b", DataType::kFloat64},
                 {"s", DataType::kVarchar},
                 {"flag", DataType::kBool}}),
        row_({Value::Int64(6), Value::Float64(2.5), Value::Varchar("hi"),
              Value::Bool(true)}) {
    context_.schema = &schema_;
    context_.row = &row_;
  }

  Value EvalText(const std::string& text) {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    auto v = Eval(**expr, context_);
    EXPECT_TRUE(v.ok()) << v.status();
    return *v;
  }

  Schema schema_;
  Row row_;
  EvalContext context_;
};

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(EvalText("a + 2").int64_value(), 8);
  EXPECT_EQ(EvalText("a - 10").int64_value(), -4);
  EXPECT_EQ(EvalText("a * a").int64_value(), 36);
  EXPECT_EQ(EvalText("a / 4").float64_value(), 1.5);
  EXPECT_EQ(EvalText("a % 4").int64_value(), 2);
  EXPECT_EQ(EvalText("a + b").float64_value(), 8.5);
  EXPECT_EQ(EvalText("-a").int64_value(), -6);
}

// INTEGER overflow is defined: -x, + - * and ABS wrap (two's
// complement), and x % -1 is 0. The compiled pipeline agrees
// (pipeline_test PipelineOverflowTest).
TEST_F(EvalTest, Int64OverflowWraps) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(EvalText("-9223372036854775808").int64_value(), kMin);
  EXPECT_EQ(EvalText("-(-9223372036854775807 - 1)").int64_value(), kMin);
  EXPECT_EQ(EvalText("9223372036854775807 + 1").int64_value(), kMin);
  EXPECT_EQ(EvalText("(-9223372036854775807 - 1) - 1").int64_value(), kMax);
  EXPECT_EQ(EvalText("9223372036854775807 * 2").int64_value(), -2);
  EXPECT_EQ(EvalText("(-9223372036854775807 - 1) * -1").int64_value(),
            kMin);
  EXPECT_EQ(EvalText("(-9223372036854775807 - 1) % -1").int64_value(), 0);
  EXPECT_EQ(EvalText("a % -1").int64_value(), 0);
  EXPECT_EQ(EvalText("(-9223372036854775807 - 1) % 10").int64_value(), -8);
  EXPECT_EQ(EvalText("ABS(-9223372036854775807 - 1)").int64_value(), kMin);
}

TEST_F(EvalTest, Comparisons) {
  EXPECT_TRUE(EvalText("a = 6").bool_value());
  EXPECT_TRUE(EvalText("a <> 5").bool_value());
  EXPECT_TRUE(EvalText("b >= 2.5").bool_value());
  EXPECT_TRUE(EvalText("s = 'hi'").bool_value());
  EXPECT_FALSE(EvalText("s < 'aa'").bool_value());
  EXPECT_TRUE(EvalText("a > b").bool_value());
}

TEST_F(EvalTest, ThreeValuedLogic) {
  EXPECT_TRUE(EvalText("NULL IS NULL").bool_value());
  EXPECT_TRUE(EvalText("a IS NOT NULL").bool_value());
  EXPECT_TRUE(EvalText("NULL = 1").is_null());
  EXPECT_TRUE(EvalText("NULL AND TRUE").is_null());
  EXPECT_FALSE(EvalText("NULL AND FALSE").bool_value());
  EXPECT_TRUE(EvalText("NULL OR TRUE").bool_value());
  EXPECT_TRUE(EvalText("NULL OR FALSE").is_null());
  EXPECT_TRUE(EvalText("NOT NULL").is_null());
  EXPECT_TRUE(EvalText("NULL + 1").is_null());
}

TEST_F(EvalTest, StringFunctions) {
  EXPECT_EQ(EvalText("LENGTH(s)").int64_value(), 2);
  EXPECT_EQ(EvalText("UPPER(s)").varchar_value(), "HI");
  EXPECT_EQ(EvalText("s || '!'").varchar_value(), "hi!");
}

TEST_F(EvalTest, HashMatchesRowSegmentationHash) {
  uint64_t expected = storage::RowSegmentationHash(row_, {0, 2});
  EXPECT_EQ(EvalText("HASH(a, s)").int64_value(),
            RingHashToSigned(expected));
}

TEST_F(EvalTest, PredicateSemantics) {
  auto expr = ParseExpression("a > 100");
  EXPECT_FALSE(*EvalPredicate(**expr, context_));
  expr = ParseExpression("NULL = 1");  // NULL predicate filters out
  EXPECT_FALSE(*EvalPredicate(**expr, context_));
  expr = ParseExpression("a = 6");
  EXPECT_TRUE(*EvalPredicate(**expr, context_));
}

TEST_F(EvalTest, ErrorsSurface) {
  auto expr = ParseExpression("a / 0");
  EXPECT_FALSE(Eval(**expr, context_).ok());
  expr = ParseExpression("LENGTH(a)");
  EXPECT_FALSE(Eval(**expr, context_).ok());
  expr = ParseExpression("COUNT(a)");
  EXPECT_FALSE(Eval(**expr, context_).ok());
  expr = ParseExpression("nosuchcolumn");
  EXPECT_FALSE(Eval(**expr, context_).ok());
  expr = ParseExpression("NOSUCHFUNCTION(1)");
  EXPECT_FALSE(Eval(**expr, context_).ok());
}

TEST(SignedRingTest, MappingIsMonotoneAndInvertible) {
  std::vector<uint64_t> points = {0, 1, (1ULL << 63) - 1, 1ULL << 63,
                                  UINT64_MAX};
  int64_t prev = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    int64_t s = RingHashToSigned(points[i]);
    EXPECT_EQ(SignedToRingHash(s), points[i]);
    if (i > 0) {
      EXPECT_GT(s, prev);
    }
    prev = s;
  }
}

// -------------------------------------------------------------- analyzer

std::vector<std::string> SegCols() { return {"a", "b"}; }

RingRangeSet RangesOf(const std::string& where) {
  auto expr = ParseExpression(where);
  EXPECT_TRUE(expr.ok()) << expr.status();
  return ExtractHashRanges(**expr, SegCols());
}

TEST(AnalyzerTest, SimpleRange) {
  RingRangeSet ranges =
      RangesOf("HASH(a, b) >= 0 AND HASH(a, b) < 1000");
  EXPECT_FALSE(ranges.IsFull());
  EXPECT_TRUE(ranges.Contains(SignedToRingHash(500)));
  EXPECT_FALSE(ranges.Contains(SignedToRingHash(1000)));
  EXPECT_FALSE(ranges.Contains(SignedToRingHash(-1)));
}

TEST(AnalyzerTest, UnionOfRanges) {
  RingRangeSet ranges = RangesOf(
      "(HASH(a, b) >= 0 AND HASH(a, b) < 10) OR "
      "(HASH(a, b) >= 100 AND HASH(a, b) < 110)");
  EXPECT_EQ(ranges.num_ranges(), 2);
  EXPECT_TRUE(ranges.Contains(SignedToRingHash(5)));
  EXPECT_FALSE(ranges.Contains(SignedToRingHash(50)));
  EXPECT_TRUE(ranges.Contains(SignedToRingHash(105)));
}

TEST(AnalyzerTest, MixedPredicateKeepsRangeViaAnd) {
  RingRangeSet ranges =
      RangesOf("HASH(a, b) >= 0 AND HASH(a, b) < 10 AND x > 3");
  EXPECT_FALSE(ranges.IsFull());
  EXPECT_TRUE(ranges.Contains(SignedToRingHash(5)));
}

TEST(AnalyzerTest, OrWithNonRangeIsFull) {
  EXPECT_TRUE(RangesOf("HASH(a, b) < 10 OR x > 3").IsFull());
}

TEST(AnalyzerTest, WrongColumnsIgnored) {
  EXPECT_TRUE(RangesOf("HASH(b, a) < 10").IsFull());   // wrong order
  EXPECT_TRUE(RangesOf("HASH(a) < 10").IsFull());      // wrong arity
  EXPECT_TRUE(RangesOf("x < 10").IsFull());            // unrelated
}

TEST(AnalyzerTest, ReversedComparison) {
  RingRangeSet ranges = RangesOf("0 <= HASH(a, b) AND 10 > HASH(a, b)");
  EXPECT_TRUE(ranges.Contains(SignedToRingHash(5)));
  EXPECT_FALSE(ranges.Contains(SignedToRingHash(10)));
}

TEST(AnalyzerTest, NodeRangeIntersection) {
  auto node_ranges = EvenRingPartition(4);
  // A range inside segment 2 intersects only node 2.
  uint64_t mid = node_ranges[2].lower + 1000;
  int64_t lo = RingHashToSigned(mid);
  int64_t hi = RingHashToSigned(mid + 10);
  RingRangeSet ranges = RangesOf(
      StrCat("HASH(a, b) >= ", lo, " AND HASH(a, b) < ", hi));
  int hits = 0;
  for (int n = 0; n < 4; ++n) {
    if (ranges.Intersects(node_ranges[n])) {
      ++hits;
      EXPECT_EQ(n, 2);
    }
  }
  EXPECT_EQ(hits, 1);
}

// Property sweep: for any node count and partition count, the partition
// queries V2S would generate form a disjoint cover of the ring, and every
// hashed key lands in exactly one partition.
class RingCoverPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RingCoverPropertyTest, PartitionsCoverRingExactlyOnce) {
  auto [num_nodes, num_partitions] = GetParam();
  auto partition_ranges = EvenRingPartition(num_partitions);
  // Disjoint cover by construction: verify with sampled keys.
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    uint64_t h = rng.NextUint64();
    int owner = -1;
    for (int p = 0; p < num_partitions; ++p) {
      if (partition_ranges[p].Contains(h)) {
        ASSERT_EQ(owner, -1) << "hash in two partitions";
        owner = p;
      }
    }
    ASSERT_NE(owner, -1) << "hash in no partition";
    EXPECT_EQ(owner, RingSegmentOf(h, num_partitions));
  }
  // And each partition range maps to exactly one node segment when
  // partitions >= nodes and nodes divide partitions evenly.
  if (num_partitions % num_nodes == 0) {
    for (int p = 0; p < num_partitions; ++p) {
      int node_lo = RingSegmentOf(partition_ranges[p].lower, num_nodes);
      uint64_t last = partition_ranges[p].upper == 0
                          ? UINT64_MAX
                          : partition_ranges[p].upper - 1;
      EXPECT_EQ(node_lo, RingSegmentOf(last, num_nodes));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RingCoverPropertyTest,
    ::testing::Values(std::make_pair(4, 4), std::make_pair(4, 8),
                      std::make_pair(4, 2), std::make_pair(3, 7),
                      std::make_pair(8, 256), std::make_pair(2, 64),
                      std::make_pair(1, 1)));

}  // namespace
}  // namespace fabric::vertica::sql
