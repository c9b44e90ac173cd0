// Property tests for the vectorized scan engine: SegmentStore::Scan
// (min/max pruning, predicate kernels on encoded columns, selection
// vectors, late materialization) must agree exactly — rows, counters and
// cost profiles — with the row-at-a-time reference (ScanVisible + the
// SQL interpreter) across randomized schemas, encodings, null
// densities, delete-mark states and predicate shapes, with Tuple Mover
// steps, deletes and store copies between the queries.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "storage/scan_kernels.h"
#include "storage/segment_store.h"
#include "scan_reference.h"
#include "vertica/sql_analyzer.h"
#include "vertica/sql_eval.h"
#include "vertica/sql_parser.h"

namespace fabric::vertica {
namespace {

using storage::DataProfile;
using storage::DataType;
using storage::Epoch;
using storage::Row;
using storage::Schema;
using storage::TxnId;
using storage::Value;

// ----------------------------------------------------- random tables

// Per-column data shape, chosen to exercise all three encodings via the
// size-based auto-chooser: long runs (RLE), shuffled low cardinality
// (dictionary), full-range random (plain).
enum class Shape { kRuns, kLowCard, kRandom };

Value RandomValue(Rng& rng, DataType type, Shape shape, double null_p,
                  int row) {
  if (rng.NextBool(null_p)) return Value::Null();
  switch (type) {
    case DataType::kInt64:
      switch (shape) {
        case Shape::kRuns:
          return Value::Int64((row / 17) % 7);
        case Shape::kLowCard:
          return Value::Int64(rng.NextInt64(0, 7));
        case Shape::kRandom:
          return Value::Int64(rng.NextInt64(-1000000, 1000000));
      }
      break;
    case DataType::kFloat64:
      switch (shape) {
        case Shape::kRuns:
          return Value::Float64(((row / 13) % 5) * 0.5);
        case Shape::kLowCard:
          return Value::Float64(rng.NextInt64(0, 7) * 0.25);
        case Shape::kRandom:
          return Value::Float64(rng.NextDouble());
      }
      break;
    case DataType::kVarchar:
      switch (shape) {
        case Shape::kRuns:
          return Value::Varchar(StrCat("run", (row / 11) % 6));
        case Shape::kLowCard:
          return Value::Varchar(StrCat("s", rng.NextInt64(0, 9)));
        case Shape::kRandom:
          return Value::Varchar(
              rng.NextString(1 + static_cast<int>(rng.NextUint64(12))));
      }
      break;
    case DataType::kBool:
      return Value::Bool(rng.NextBool(0.5));
  }
  return Value::Null();
}

struct RandomTable {
  Schema schema{std::vector<storage::ColumnDef>{}};
  std::vector<Shape> shapes;
  std::vector<double> null_p;
  std::unique_ptr<storage::SegmentStore> store;
  Epoch last_epoch = 0;
  std::vector<TxnId> open_txns;  // still pending at build end
  TxnId next_txn = 100;
  int row_counter = 0;
};

// `n` random rows in the table's column shapes.
std::vector<Row> RandomRows(Rng& rng, RandomTable& t, int n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i, ++t.row_counter) {
    Row row;
    for (int c = 0; c < t.schema.num_columns(); ++c) {
      row.push_back(RandomValue(rng, t.schema.column(c).type, t.shapes[c],
                                t.null_p[c], t.row_counter));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// ASSERT-compatible (void) builder; on failure `t->store` stays null.
void BuildRandomTable(Rng& rng, RandomTable* out) {
  RandomTable& t = *out;
  // c0 is always a never-null int64 (hash/compare anchor); 2-4 more
  // columns of random type, shape and null density follow.
  std::vector<storage::ColumnDef> defs{{"c0", DataType::kInt64}};
  t.shapes.push_back(static_cast<Shape>(rng.NextUint64(3)));
  t.null_p.push_back(0);
  int extra = 2 + static_cast<int>(rng.NextUint64(3));
  const DataType kTypes[] = {DataType::kInt64, DataType::kFloat64,
                             DataType::kVarchar, DataType::kBool};
  const double kNullP[] = {0, 0.1, 0.5};
  for (int c = 1; c <= extra; ++c) {
    defs.push_back({StrCat("c", c), kTypes[rng.NextUint64(4)]});
    t.shapes.push_back(static_cast<Shape>(rng.NextUint64(3)));
    t.null_p.push_back(kNullP[rng.NextUint64(3)]);
  }
  t.schema = Schema(std::move(defs));
  t.store = std::make_unique<storage::SegmentStore>(t.schema);

  int batches = 2 + static_cast<int>(rng.NextUint64(3));
  for (int b = 0; b < batches; ++b) {
    TxnId txn = t.next_txn++;
    int n = 30 + static_cast<int>(rng.NextUint64(90));
    std::vector<Row> rows = RandomRows(rng, t, n);
    if (rng.NextBool(0.6)) {
      ASSERT_TRUE(InsertRowsDirect(*t.store, txn, rows).ok())
          << "direct insert";
    } else {
      ASSERT_TRUE(InsertRows(*t.store, txn, rows).ok())
          << "wos insert";
    }
    double fate = rng.NextDouble();
    if (fate < 0.7) {
      t.store->CommitTxn(txn, ++t.last_epoch);
    } else if (fate < 0.85) {
      t.store->AbortTxn(txn);
    } else {
      t.open_txns.push_back(txn);
    }
    if (rng.NextBool(0.25)) {
      ASSERT_TRUE(t.store->Moveout().ok());
    }
  }

  // 0-2 delete rounds by row predicate, leaving a mix of committed and
  // pending delete marks behind.
  int deletes = static_cast<int>(rng.NextUint64(3));
  for (int d = 0; d < deletes; ++d) {
    TxnId txn = t.next_txn++;
    int64_t cut = rng.NextInt64(-5, 7);
    auto pred = [cut](const Row& row) {
      const Value& v = row[0];
      return !v.is_null() && v.int64_value() % 5 == cut % 5;
    };
    auto deleted = DeleteWhere(*t.store, txn, t.last_epoch, pred);
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    if (rng.NextBool(0.6)) {
      t.store->CommitTxn(txn, ++t.last_epoch);
    } else if (rng.NextBool(0.5)) {
      t.store->AbortTxn(txn);
    } else {
      t.open_txns.push_back(txn);
    }
  }
}

// One random storage change between queries: a Tuple Mover step
// (moveout, mergeout, purge), a committed delete through the kernel
// path or the row path, a committed load, or a copy of the whole store.
// Later queries then mix containers whose decoded columns are cached
// with containers that are new, rebuilt, moved or copied.
void MutateStore(Rng& rng, RandomTable* out) {
  RandomTable& t = *out;
  storage::SegmentStore& store = *t.store;
  switch (rng.NextUint64(7)) {
    case 0:
      ASSERT_TRUE(store.Moveout().ok());
      break;
    case 1: {  // mergeout of a random subset of committed containers
      std::vector<int> picked;
      for (int i = 0; i < store.num_ros_containers(); ++i) {
        if (store.ros_containers()[i].committed() && rng.NextBool(0.6)) {
          picked.push_back(i);
        }
      }
      ASSERT_TRUE(store.MergeRosContainers(picked).ok());
      break;
    }
    case 2:
      ASSERT_TRUE(store.PurgeDeletedRows(rng.NextUint64(t.last_epoch + 1))
                      .ok());
      break;
    case 3: {  // DELETE/UPDATE row selection: the scan kernels
      TxnId txn = t.next_txn++;
      storage::ScanPredicate pred;
      pred.compares.push_back({0, storage::CompareOp::kEq, false,
                               static_cast<double>(rng.NextInt64(0, 7)),
                               ""});
      storage::ScanSpec spec;
      spec.as_of = t.last_epoch;
      spec.txn = txn;
      spec.predicate = &pred;
      ASSERT_TRUE(store.MarkDeletedPending(spec).ok());
      store.CommitTxn(txn, ++t.last_epoch);
      break;
    }
    case 4: {  // a delete by row predicate
      TxnId txn = t.next_txn++;
      int64_t cut = rng.NextInt64(0, 4);
      ASSERT_TRUE(DeleteWhere(store, txn, t.last_epoch, [cut](const Row& row) {
                    return row[0].int64_value() % 5 == cut;
                  }).ok());
      store.CommitTxn(txn, ++t.last_epoch);
      break;
    }
    case 5: {  // a committed load, DIRECT or through the WOS
      TxnId txn = t.next_txn++;
      std::vector<Row> rows =
          RandomRows(rng, t, 10 + static_cast<int>(rng.NextUint64(60)));
      Status loaded = rng.NextBool(0.5)
                          ? InsertRowsDirect(store, txn, rows)
                          : InsertRows(store, txn, rows);
      ASSERT_TRUE(loaded.ok()) << loaded.ToString();
      store.CommitTxn(txn, ++t.last_epoch);
      break;
    }
    default:  // a copy replaces the store, which is destroyed
      t.store = std::make_unique<storage::SegmentStore>(store);
      break;
  }
}

// ------------------------------------------------ predicate generation

// One random conjunct. Mixes kernel-compilable shapes (comparisons,
// IS [NOT] NULL, HASH ranges) with interpreter-only residual shapes
// (OR trees, arithmetic); all are error-free under strict evaluation.
std::string RandomConjunct(Rng& rng, const Schema& schema) {
  auto pick_column = [&](std::initializer_list<DataType> allowed) {
    for (int tries = 0; tries < 16; ++tries) {
      int c = static_cast<int>(rng.NextUint64(schema.num_columns()));
      for (DataType t : allowed) {
        if (schema.column(c).type == t) return c;
      }
    }
    return 0;  // c0 is int64
  };
  auto literal_for = [&](int c) -> std::string {
    switch (schema.column(c).type) {
      case DataType::kInt64:
        return StrCat(rng.NextInt64(-10, 10));
      case DataType::kFloat64:
        return StrCat(rng.NextInt64(0, 4), ".", rng.NextInt64(0, 9));
      default:
        return StrCat("'s", rng.NextInt64(0, 9), "'");
    }
  };
  const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  switch (rng.NextUint64(6)) {
    case 0: {  // column <op> literal (compilable)
      int c = pick_column(
          {DataType::kInt64, DataType::kFloat64, DataType::kVarchar});
      return StrCat(schema.column(c).name, " ", kOps[rng.NextUint64(6)],
                    " ", literal_for(c));
    }
    case 1: {  // literal <op> column (compilable, flipped)
      int c = pick_column({DataType::kInt64, DataType::kFloat64});
      return StrCat(literal_for(c), " ", kOps[rng.NextUint64(6)], " ",
                    schema.column(c).name);
    }
    case 2: {  // IS [NOT] NULL (compilable)
      int c = static_cast<int>(rng.NextUint64(schema.num_columns()));
      return StrCat(schema.column(c).name,
                    rng.NextBool(0.5) ? " IS NULL" : " IS NOT NULL");
    }
    case 3: {  // HASH range (compilable, the V2S pushdown shape)
      std::string cols = "c0";
      if (rng.NextBool(0.4)) {
        int c = static_cast<int>(rng.NextUint64(schema.num_columns()));
        cols = StrCat(cols, ", ", schema.column(c).name);
      }
      const char* kRangeOps[] = {"=", "<", "<=", ">", ">="};
      return StrCat("HASH(", cols, ") ", kRangeOps[rng.NextUint64(5)], " ",
                    rng.NextInt64(int64_t{-4} << 60, int64_t{4} << 60));
    }
    case 4: {  // OR tree (residual)
      int a = pick_column({DataType::kInt64, DataType::kFloat64});
      int b = static_cast<int>(rng.NextUint64(schema.num_columns()));
      return StrCat("(", schema.column(a).name, " > ", literal_for(a),
                    " OR ", schema.column(b).name, " IS NULL)");
    }
    default: {  // arithmetic (residual)
      int c = pick_column({DataType::kInt64, DataType::kFloat64});
      return StrCat(schema.column(c).name, " + 1 > ", literal_for(c));
    }
  }
}

void CollectColumnRefs(const sql::Expr& expr, const Schema& schema,
                       std::set<int>* out) {
  if (expr.kind == sql::Expr::Kind::kColumnRef) {
    auto idx = schema.IndexOf(expr.column);
    ASSERT_TRUE(idx.ok()) << expr.column;
    out->insert(*idx);
    return;
  }
  for (const sql::ExprPtr& arg : expr.args) {
    CollectColumnRefs(*arg, schema, out);
  }
}

// Reference-side cost accounting: the per-row column composition the
// old scan loop charged (fields always count; bytes split by type).
void MeasureRowRef(const Row& row, const std::vector<int>& columns,
                   DataProfile* p) {
  for (int c : columns) {
    const Value& v = row[c];
    p->fields += 1;
    double size = v.RawSize();
    p->raw_bytes += size;
    if (!v.is_null() && v.type() == DataType::kVarchar) {
      p->string_bytes += size;
    } else {
      p->numeric_bytes += size;
    }
  }
}

// --------------------------------------------------------- the property

class ScanEngineProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScanEngineProperty, VectorizedScanMatchesReference) {
  Rng rng(0xabc0 + GetParam());
  RandomTable t;
  BuildRandomTable(rng, &t);
  ASSERT_NE(t.store, nullptr);

  Rng mutate_rng(0x7e0 + GetParam());
  for (int query = 0; query < 8; ++query) {
    // Tuple Mover steps, deletes, loads and copies between queries.
    if (query > 0 && mutate_rng.NextBool(0.6)) {
      MutateStore(mutate_rng, &t);
      ASSERT_FALSE(HasFatalFailure());
    }
    // Random snapshot: any epoch, sometimes through an open txn's eyes.
    Epoch as_of = rng.NextUint64(t.last_epoch + 1);
    TxnId txn = 0;
    if (!t.open_txns.empty() && rng.NextBool(0.4)) {
      txn = t.open_txns[rng.NextUint64(t.open_txns.size())];
    }

    // Random WHERE (sometimes absent) and projection.
    sql::ExprPtr where;
    int conjuncts = static_cast<int>(rng.NextUint64(4));  // 0 => no WHERE
    if (conjuncts > 0) {
      std::string text = RandomConjunct(rng, t.schema);
      for (int i = 1; i < conjuncts; ++i) {
        text = StrCat(text, " AND ", RandomConjunct(rng, t.schema));
      }
      auto parsed = sql::ParseExpression(text);
      ASSERT_TRUE(parsed.ok()) << text;
      where = std::move(parsed).value();
    }
    std::vector<int> projection;
    for (int c = 0; c < t.schema.num_columns(); ++c) {
      if (rng.NextBool(0.7)) projection.push_back(c);
    }
    bool all_columns = projection.empty() || rng.NextBool(0.3);
    std::vector<int> cost_columns;
    for (int c = 0; c < t.schema.num_columns(); ++c) {
      if (rng.NextBool(0.5)) cost_columns.push_back(c);
    }

    // Reference: row-at-a-time visibility + interpreter.
    std::vector<Row> ref_visible;
    Status walked = ScanVisible(
        *t.store, as_of, txn, [&](const Row& row) -> Status {
          ref_visible.push_back(row);
          return Status::OK();
        });
    ASSERT_TRUE(walked.ok()) << walked.ToString();
    DataProfile ref_visible_profile;
    std::vector<Row> ref_rows;
    for (const Row& row : ref_visible) {
      MeasureRowRef(row, cost_columns, &ref_visible_profile);
      if (where != nullptr) {
        sql::EvalContext context;
        context.schema = &t.schema;
        context.row = &row;
        auto keep = sql::EvalPredicate(*where, context);
        ASSERT_TRUE(keep.ok()) << keep.status().ToString();
        if (!*keep) continue;
      }
      if (all_columns) {
        ref_rows.push_back(row);
      } else {
        Row masked(t.schema.num_columns());
        for (int c : projection) masked[c] = row[c];
        ref_rows.push_back(std::move(masked));
      }
    }
    ref_visible_profile.rows = static_cast<double>(ref_visible.size());

    // Vectorized: compile, scan, compare.
    sql::CompiledScan compiled;
    if (where != nullptr) {
      compiled = sql::CompileScanPredicate(*where, t.schema);
    }
    std::vector<int> residual_columns;
    if (compiled.residual != nullptr) {
      std::set<int> cols;
      CollectColumnRefs(*compiled.residual, t.schema, &cols);
      residual_columns.assign(cols.begin(), cols.end());
    }
    storage::ScanSpec spec;
    spec.as_of = as_of;
    spec.txn = txn;
    spec.predicate = &compiled.predicate;
    if (compiled.residual != nullptr) {
      spec.residual = [&](const Row& row) -> Result<bool> {
        sql::EvalContext context;
        context.schema = &t.schema;
        context.row = &row;
        return sql::EvalPredicate(*compiled.residual, context);
      };
      spec.residual_columns = &residual_columns;
    }
    spec.cost_columns = &cost_columns;
    if (!all_columns) spec.projection = &projection;
    storage::ScanStats stats;
    auto scanned = t.store->Scan(spec, &stats);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    const std::vector<Row> got = scanned->BoxRows();

    ASSERT_EQ(got.size(), ref_rows.size()) << "query " << query;
    for (size_t i = 0; i < ref_rows.size(); ++i) {
      for (int c = 0; c < t.schema.num_columns(); ++c) {
        EXPECT_TRUE(got[i][c].Equals(ref_rows[i][c]))
            << "row " << i << " col " << c << ": "
            << got[i][c].ToSqlLiteral() << " vs "
            << ref_rows[i][c].ToSqlLiteral();
      }
    }
    EXPECT_EQ(stats.rows_visible,
              static_cast<int64_t>(ref_visible.size()));
    EXPECT_EQ(stats.rows_emitted, static_cast<int64_t>(ref_rows.size()));
    // Cost parity: the vectorized path must charge exactly what the
    // row-at-a-time loop charged, pruning or not (the sizes are
    // integer-valued doubles, so sums are exact in either order).
    EXPECT_EQ(stats.visible_profile.rows, ref_visible_profile.rows);
    EXPECT_EQ(stats.visible_profile.fields, ref_visible_profile.fields);
    EXPECT_EQ(stats.visible_profile.raw_bytes,
              ref_visible_profile.raw_bytes);
    EXPECT_EQ(stats.visible_profile.numeric_bytes,
              ref_visible_profile.numeric_bytes);
    EXPECT_EQ(stats.visible_profile.string_bytes,
              ref_visible_profile.string_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanEngineProperty,
                         ::testing::Range(0, 24));

// ScanPredicate::Matches (the WOS/row fallback) must agree with the
// kernels; equivalently with the interpreter on compilable shapes.
class MatchesProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatchesProperty, RowMatchesAgreesWithInterpreter) {
  Rng rng(0x5ca1 + GetParam());
  Schema schema({{"c0", DataType::kInt64},
                 {"c1", DataType::kFloat64},
                 {"c2", DataType::kVarchar},
                 {"c3", DataType::kBool}});
  std::vector<Shape> shapes{Shape::kLowCard, Shape::kRandom, Shape::kLowCard,
                            Shape::kRandom};
  for (int iter = 0; iter < 50; ++iter) {
    std::string text = RandomConjunct(rng, schema);
    if (rng.NextBool(0.5)) {
      text = StrCat(text, " AND ", RandomConjunct(rng, schema));
    }
    auto parsed = sql::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    sql::CompiledScan compiled =
        sql::CompileScanPredicate(**parsed, schema);
    for (int r = 0; r < 20; ++r) {
      Row row;
      for (int c = 0; c < schema.num_columns(); ++c) {
        row.push_back(RandomValue(rng, schema.column(c).type, shapes[c],
                                  c == 0 ? 0.0 : 0.2, r));
      }
      sql::EvalContext context;
      context.schema = &schema;
      context.row = &row;
      bool interp = sql::EvalPredicateLenient(**parsed, context);
      bool compiled_pass =
          !compiled.predicate.always_false && compiled.predicate.Matches(row);
      if (compiled_pass && compiled.residual != nullptr) {
        compiled_pass =
            sql::EvalPredicateLenient(*compiled.residual, context);
      }
      EXPECT_EQ(compiled_pass, interp) << text << " on row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchesProperty, ::testing::Range(0, 8));

// ---------------------------------------------------------- AT EPOCH

TEST(ScanEngineTest, AtEpochSnapshotIsolation) {
  Schema schema({{"c0", DataType::kInt64}, {"c1", DataType::kVarchar}});
  storage::SegmentStore store(schema);
  std::vector<Row> first;
  for (int i = 0; i < 40; ++i) {
    first.push_back({Value::Int64(i), Value::Varchar(StrCat("v", i % 4))});
  }
  ASSERT_TRUE(InsertRowsDirect(store, 1, first).ok());
  store.CommitTxn(1, 1);

  storage::ScanSpec spec;
  spec.as_of = 1;
  storage::ScanStats before;
  auto scanned = store.Scan(spec, &before);
  ASSERT_TRUE(scanned.ok());
  const std::vector<Row> snapshot = scanned->BoxRows();
  ASSERT_EQ(snapshot.size(), 40u);

  // Later commits — an insert at epoch 2, a delete at epoch 3 — must not
  // change what the epoch-1 snapshot sees.
  std::vector<Row> second;
  for (int i = 100; i < 120; ++i) {
    second.push_back({Value::Int64(i), Value::Varchar("late")});
  }
  ASSERT_TRUE(InsertRows(store, 2, second).ok());
  store.CommitTxn(2, 2);
  auto deleted = DeleteWhere(store, 3, 2, [](const Row& row) {
    return row[0].int64_value() % 2 == 0;
  });
  ASSERT_TRUE(deleted.ok());
  store.CommitTxn(3, 3);

  storage::ScanStats after;
  auto rescanned = store.Scan(spec, &after);
  ASSERT_TRUE(rescanned.ok());
  const std::vector<Row> again = rescanned->BoxRows();
  ASSERT_EQ(again.size(), snapshot.size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      EXPECT_TRUE(again[i][c].Equals(snapshot[i][c]));
    }
  }
  EXPECT_EQ(after.rows_visible, before.rows_visible);
}

// The V2S partition query shape must compile with no residual: that is
// what lets connector pushdown scans run entirely in the kernels.
TEST(ScanEngineTest, V2SPartitionShapeFullyCompiles) {
  Schema schema({{"c0", DataType::kInt64}, {"c1", DataType::kFloat64}});
  auto parsed = sql::ParseExpression(
      "HASH(c0) >= -9223372036854775807 AND HASH(c0) < 42 AND c1 > 0.5");
  ASSERT_TRUE(parsed.ok());
  sql::CompiledScan compiled = sql::CompileScanPredicate(**parsed, schema);
  EXPECT_EQ(compiled.residual, nullptr);
  EXPECT_FALSE(compiled.predicate.always_false);
  ASSERT_EQ(compiled.predicate.hash_ranges.size(), 1u);
  EXPECT_EQ(compiled.predicate.compares.size(), 1u);
}

}  // namespace
}  // namespace fabric::vertica
