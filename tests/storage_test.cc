#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "seed_env.h"

#include "common/bytes.h"
#include "common/random.h"
#include "common/string_util.h"
#include "storage/column_cursor.h"
#include "storage/encoding.h"
#include "storage/schema.h"
#include "storage/segment_store.h"
#include "scan_reference.h"
#include "storage/value.h"

namespace fabric::storage {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"score", DataType::kFloat64},
                 {"name", DataType::kVarchar},
                 {"flag", DataType::kBool}});
}

Row MakeRow(int64_t id, double score, const std::string& name, bool flag) {
  return {Value::Int64(id), Value::Float64(score), Value::Varchar(name),
          Value::Bool(flag)};
}

TEST(ValueTest, NullSemantics) {
  Value null = Value::Null();
  EXPECT_TRUE(null.is_null());
  EXPECT_TRUE(null.Equals(Value::Null()));
  EXPECT_FALSE(null.Equals(Value::Int64(0)));
  EXPECT_EQ(null.RawSize(), 0);
  EXPECT_EQ(null.ToSqlLiteral(), "NULL");
}

TEST(ValueTest, TypedAccessorsAndSizes) {
  EXPECT_EQ(Value::Int64(7).int64_value(), 7);
  EXPECT_EQ(Value::Float64(2.5).float64_value(), 2.5);
  EXPECT_EQ(Value::Varchar("abc").varchar_value(), "abc");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int64(7).RawSize(), 8);
  EXPECT_EQ(Value::Float64(1.0).RawSize(), 8);
  EXPECT_EQ(Value::Varchar("abcd").RawSize(), 4);
  EXPECT_EQ(Value::Bool(false).RawSize(), 1);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_TRUE(Value::Int64(1).Equals(Value::Float64(1.0)));
  EXPECT_EQ(Value::Int64(1).Compare(Value::Float64(1.5)).value(), -1);
  EXPECT_EQ(Value::Float64(2.0).Compare(Value::Int64(2)).value(), 0);
}

TEST(ValueTest, VarcharComparison) {
  EXPECT_EQ(Value::Varchar("a").Compare(Value::Varchar("b")).value(), -1);
  EXPECT_FALSE(Value::Varchar("1").Compare(Value::Int64(1)).ok());
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_EQ(Value::Null().Compare(Value::Int64(-100)).value(), -1);
  EXPECT_EQ(Value::Int64(-100).Compare(Value::Null()).value(), 1);
  EXPECT_EQ(Value::Null().Compare(Value::Null()).value(), 0);
}

TEST(ValueTest, SqlLiteralQuoting) {
  EXPECT_EQ(Value::Varchar("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Int64(-3).ToSqlLiteral(), "-3");
  EXPECT_EQ(Value::Bool(true).ToSqlLiteral(), "TRUE");
}

TEST(ValueTest, ParseAsRoundTrip) {
  EXPECT_EQ(Value::ParseAs(DataType::kInt64, "42")->int64_value(), 42);
  EXPECT_EQ(Value::ParseAs(DataType::kFloat64, "2.5")->float64_value(), 2.5);
  EXPECT_EQ(Value::ParseAs(DataType::kVarchar, "hi")->varchar_value(), "hi");
  EXPECT_TRUE(Value::ParseAs(DataType::kBool, "TRUE")->bool_value());
  EXPECT_FALSE(Value::ParseAs(DataType::kInt64, "4x").ok());
}

TEST(ValueTest, ParseDataTypeNames) {
  EXPECT_EQ(*ParseDataType("INTEGER"), DataType::kInt64);
  EXPECT_EQ(*ParseDataType("varchar(80)"), DataType::kVarchar);
  EXPECT_EQ(*ParseDataType("Double"), DataType::kFloat64);
  EXPECT_EQ(*ParseDataType("BOOLEAN"), DataType::kBool);
  EXPECT_FALSE(ParseDataType("blob").ok());
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema schema = TestSchema();
  EXPECT_EQ(*schema.IndexOf("ID"), 0);
  EXPECT_EQ(*schema.IndexOf("Name"), 2);
  EXPECT_FALSE(schema.IndexOf("missing").ok());
  EXPECT_TRUE(schema.Contains("flag"));
}

TEST(SchemaTest, ProjectionPreservesOrder) {
  Schema projected = TestSchema().Project({2, 0});
  ASSERT_EQ(projected.num_columns(), 2);
  EXPECT_EQ(projected.column(0).name, "name");
  EXPECT_EQ(projected.column(1).name, "id");
}

TEST(SchemaTest, DdlBody) {
  EXPECT_EQ(TestSchema().ToDdlBody(),
            "id INTEGER, score FLOAT, name VARCHAR, flag BOOLEAN");
}

TEST(SchemaTest, ValidateRow) {
  Schema schema = TestSchema();
  EXPECT_TRUE(ValidateRow(schema, MakeRow(1, 2.0, "x", true)).ok());
  // Int into float column widens.
  Row widened = {Value::Int64(1), Value::Int64(2), Value::Varchar("x"),
                 Value::Bool(true)};
  EXPECT_TRUE(ValidateRow(schema, widened).ok());
  // Nulls pass.
  Row nulls = {Value::Null(), Value::Null(), Value::Null(), Value::Null()};
  EXPECT_TRUE(ValidateRow(schema, nulls).ok());
  // Type mismatch fails.
  Row bad = {Value::Varchar("1"), Value::Float64(2), Value::Varchar("x"),
             Value::Bool(true)};
  EXPECT_FALSE(ValidateRow(schema, bad).ok());
  // Arity mismatch fails.
  EXPECT_FALSE(ValidateRow(schema, {Value::Int64(1)}).ok());
}

TEST(SchemaTest, SegmentationHashIsOrderSensitive) {
  Row row = MakeRow(1, 2.0, "x", true);
  EXPECT_NE(RowSegmentationHash(row, {0, 1}), RowSegmentationHash(row, {1, 0}));
  EXPECT_EQ(RowSegmentationHash(row, {0, 1}), RowSegmentationHash(row, {0, 1}));
}

TEST(EncodingTest, PlainRoundTripAllTypes) {
  for (DataType type : {DataType::kBool, DataType::kInt64,
                        DataType::kFloat64, DataType::kVarchar}) {
    std::vector<Value> values;
    for (int i = 0; i < 10; ++i) {
      switch (type) {
        case DataType::kBool:
          values.push_back(Value::Bool(i % 2 == 0));
          break;
        case DataType::kInt64:
          values.push_back(Value::Int64(i * 1000 - 5));
          break;
        case DataType::kFloat64:
          values.push_back(Value::Float64(i * 0.125));
          break;
        case DataType::kVarchar:
          values.push_back(Value::Varchar(std::string(i, 'x')));
          break;
      }
    }
    values.push_back(Value::Null());
    auto chunk = EncodeColumnAs(type, Encoding::kPlain, values);
    ASSERT_TRUE(chunk.ok());
    auto decoded = DecodeColumn(*chunk);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_TRUE((*decoded)[i].Equals(values[i]));
    }
  }
}

TEST(EncodingTest, RleCompressesRuns) {
  std::vector<Value> values;
  for (int run = 0; run < 5; ++run) {
    for (int i = 0; i < 100; ++i) values.push_back(Value::Int64(run));
  }
  auto plain = EncodeColumnAs(DataType::kInt64, Encoding::kPlain, values);
  auto rle = EncodeColumnAs(DataType::kInt64, Encoding::kRle, values);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(rle.ok());
  EXPECT_LT(rle->data.size() * 10, plain->data.size());
  auto decoded = DecodeColumn(*rle);
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE((*decoded)[i].Equals(values[i]));
  }
}

// A run continues only across equal values of equal sign: -0.0 must
// not fold into an adjacent 0.0 run, and NaN never continues a run.
TEST(EncodingTest, RleKeepsTheSignOfZero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> values = {Value::Float64(0.0), Value::Float64(-0.0),
                                     Value::Float64(-0.0), Value::Float64(0.0),
                                     Value::Float64(nan)};
  auto rle = EncodeColumnAs(DataType::kFloat64, Encoding::kRle, values);
  ASSERT_TRUE(rle.ok()) << rle.status();
  auto decoded = DecodeColumn(*rle);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const double want = values[i].float64_value();
    const double got = (*decoded)[i].float64_value();
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << "row " << i;
    EXPECT_EQ(std::isnan(got), std::isnan(want)) << "row " << i;
    EXPECT_EQ((*decoded)[i].ToDisplayString(), values[i].ToDisplayString())
        << "row " << i;
  }
}

TEST(EncodingTest, DictionaryCompressesLowCardinalityStrings) {
  std::vector<Value> values;
  const std::vector<std::string> words = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 300; ++i) {
    values.push_back(Value::Varchar(words[i % words.size()]));
  }
  auto plain = EncodeColumnAs(DataType::kVarchar, Encoding::kPlain, values);
  auto dict =
      EncodeColumnAs(DataType::kVarchar, Encoding::kDictionary, values);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(dict.ok());
  EXPECT_LT(dict->data.size(), plain->data.size());
  auto decoded = DecodeColumn(*dict);
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE((*decoded)[i].Equals(values[i]));
  }
}

TEST(EncodingTest, AutoPickerNeverWorseThanPlain) {
  Rng rng(42);
  std::vector<Value> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(Value::Int64(static_cast<int64_t>(rng.NextUint64(4))));
  }
  auto chosen = EncodeColumn(DataType::kInt64, values);
  auto plain = EncodeColumnAs(DataType::kInt64, Encoding::kPlain, values);
  ASSERT_TRUE(chosen.ok());
  EXPECT_LE(chosen->data.size(), plain->data.size());
}

TEST(EncodingTest, RejectsMixedTypes) {
  std::vector<Value> values = {Value::Int64(1), Value::Varchar("x")};
  EXPECT_FALSE(EncodeColumn(DataType::kInt64, values).ok());
}

TEST(EncodingTest, NullRunsRoundTrip) {
  std::vector<Value> values;
  for (int i = 0; i < 20; ++i) values.push_back(Value::Null());
  values.push_back(Value::Int64(1));
  for (Encoding e :
       {Encoding::kPlain, Encoding::kRle, Encoding::kDictionary}) {
    auto chunk = EncodeColumnAs(DataType::kInt64, e, values);
    ASSERT_TRUE(chunk.ok()) << EncodingName(e);
    auto decoded = DecodeColumn(*chunk);
    ASSERT_TRUE(decoded.ok()) << EncodingName(e);
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_TRUE((*decoded)[i].Equals(values[i])) << EncodingName(e);
    }
  }
}

// Property sweep: random typed columns round-trip through every encoding.
class EncodingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodingPropertyTest, RandomColumnsRoundTrip) {
  Rng rng(GetParam());
  for (DataType type : {DataType::kBool, DataType::kInt64,
                        DataType::kFloat64, DataType::kVarchar}) {
    std::vector<Value> values;
    int n = 1 + static_cast<int>(rng.NextUint64(300));
    for (int i = 0; i < n; ++i) {
      if (rng.NextBool(0.1)) {
        values.push_back(Value::Null());
        continue;
      }
      switch (type) {
        case DataType::kBool:
          values.push_back(Value::Bool(rng.NextBool(0.5)));
          break;
        case DataType::kInt64:
          values.push_back(Value::Int64(rng.NextInt64(-5, 5)));
          break;
        case DataType::kFloat64:
          values.push_back(Value::Float64(rng.NextDouble()));
          break;
        case DataType::kVarchar:
          values.push_back(
              Value::Varchar(rng.NextString(static_cast<int>(rng.NextUint64(12)))));
          break;
      }
    }
    for (Encoding e :
         {Encoding::kPlain, Encoding::kRle, Encoding::kDictionary}) {
      auto chunk = EncodeColumnAs(type, e, values);
      ASSERT_TRUE(chunk.ok());
      auto decoded = DecodeColumn(*chunk);
      ASSERT_TRUE(decoded.ok());
      ASSERT_EQ(decoded->size(), values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        ASSERT_TRUE((*decoded)[i].Equals(values[i]))
            << EncodingName(e) << " row " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingPropertyTest,
                         ::testing::Values(7, 17, 27, 37, 47));

// Reference encoder: writes all three encodings separately (dictionary
// entries keyed by display string) and keeps the smallest, PLAIN first.
// The one-pass encoder must reproduce its bytes exactly.
namespace reference {

void WriteNullBitmap(const std::vector<Value>& values, ByteWriter* writer) {
  uint8_t current = 0;
  int bit = 0;
  for (const Value& v : values) {
    if (v.is_null()) current |= static_cast<uint8_t>(1u << bit);
    if (++bit == 8) {
      writer->PutU8(current);
      current = 0;
      bit = 0;
    }
  }
  if (bit != 0) writer->PutU8(current);
}

void WriteScalar(DataType type, const Value& value, ByteWriter* writer) {
  switch (type) {
    case DataType::kBool:
      writer->PutU8(value.bool_value() ? 1 : 0);
      return;
    case DataType::kInt64:
      writer->PutI64(value.int64_value());
      return;
    case DataType::kFloat64:
      writer->PutDouble(value.float64_value());
      return;
    case DataType::kVarchar:
      writer->PutString(value.varchar_value());
      return;
  }
}

// An RLE run continues across equal values (NaN never continues one)
// of equal sign: -0.0 does not join a 0.0 run.
bool SameRun(const Value& a, const Value& b) {
  if (!a.Equals(b)) return false;
  return a.is_null() || a.type() != DataType::kFloat64 ||
         std::signbit(a.float64_value()) == std::signbit(b.float64_value());
}

std::string Encode(DataType type, Encoding encoding,
                   const std::vector<Value>& values) {
  ByteWriter writer;
  WriteNullBitmap(values, &writer);
  switch (encoding) {
    case Encoding::kPlain:
      for (const Value& v : values) {
        if (!v.is_null()) WriteScalar(type, v, &writer);
      }
      break;
    case Encoding::kRle: {
      ByteWriter runs;
      uint32_t num_runs = 0;
      for (size_t i = 0; i < values.size();) {
        size_t j = i + 1;
        while (j < values.size() && SameRun(values[j], values[i])) ++j;
        runs.PutU32(static_cast<uint32_t>(j - i));
        if (!values[i].is_null()) WriteScalar(type, values[i], &runs);
        ++num_runs;
        i = j;
      }
      writer.PutU32(num_runs);
      writer.PutRaw(runs.buffer().data(), runs.size());
      break;
    }
    case Encoding::kDictionary: {
      std::map<std::string, uint32_t> ids;
      std::vector<const Value*> dictionary;
      std::vector<uint32_t> indices;
      for (const Value& v : values) {
        if (v.is_null()) continue;
        auto [it, inserted] = ids.emplace(
            v.ToDisplayString(), static_cast<uint32_t>(dictionary.size()));
        if (inserted) dictionary.push_back(&v);
        indices.push_back(it->second);
      }
      writer.PutU32(static_cast<uint32_t>(dictionary.size()));
      for (const Value* v : dictionary) WriteScalar(type, *v, &writer);
      for (uint32_t idx : indices) writer.PutU32(idx);
      break;
    }
  }
  return writer.Take();
}

std::pair<Encoding, std::string> EncodeSmallest(
    DataType type, const std::vector<Value>& values) {
  std::pair<Encoding, std::string> best{Encoding::kPlain,
                                        Encode(type, Encoding::kPlain, values)};
  for (Encoding e : {Encoding::kRle, Encoding::kDictionary}) {
    std::string data = Encode(type, e, values);
    if (data.size() < best.second.size()) best = {e, std::move(data)};
  }
  return best;
}

}  // namespace reference

// Columns that stress the encoder's choice: every type, null density,
// run structure and cardinality, plus the values whose equality and
// display string disagree with their bits (NaNs, signed zeros).
std::vector<Value> RandomEncodingColumn(Rng& rng, DataType type) {
  static const double kTricky[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(uint64_t{0x7ff8000000000123ULL}),
      std::numeric_limits<double>::infinity(), 1e-310};
  int n = static_cast<int>(rng.NextUint64(400));
  double null_p = rng.NextBool(0.5) ? 0.0 : rng.NextDouble();
  int64_t cardinality = 1 + static_cast<int64_t>(rng.NextUint64(
      rng.NextBool(0.5) ? 8 : 1000));
  int run = 1 + static_cast<int>(rng.NextUint64(rng.NextBool(0.5) ? 2 : 40));
  std::vector<Value> values;
  Value current;
  for (int i = 0; i < n; ++i) {
    if (i % run == 0) {
      int64_t k = rng.NextInt64(0, cardinality - 1);
      switch (type) {
        case DataType::kBool:
          current = Value::Bool(k % 2 == 0);
          break;
        case DataType::kInt64:
          current = Value::Int64(k * 7919 - 5000);
          break;
        case DataType::kFloat64:
          current = Value::Float64(rng.NextBool(0.2) ? kTricky[k % 7]
                                                     : k * 0.25);
          break;
        case DataType::kVarchar:
          current = Value::Varchar(std::string(static_cast<size_t>(k % 13),
                                               static_cast<char>('a' + k % 26)));
          break;
      }
    }
    values.push_back(rng.NextBool(null_p) ? Value::Null() : current);
  }
  return values;
}

TEST_P(EncodingPropertyTest, OnePassChoiceMatchesReference) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    for (DataType type : {DataType::kBool, DataType::kInt64,
                          DataType::kFloat64, DataType::kVarchar}) {
      std::vector<Value> values = RandomEncodingColumn(rng, type);
      auto [encoding, data] = reference::EncodeSmallest(type, values);
      auto chunk = EncodeColumn(type, values);
      ASSERT_TRUE(chunk.ok());
      EXPECT_EQ(chunk->encoding, encoding) << DataTypeName(type);
      ASSERT_EQ(chunk->data, data) << DataTypeName(type);

      for (Encoding e :
           {Encoding::kPlain, Encoding::kRle, Encoding::kDictionary}) {
        auto forced = EncodeColumnAs(type, e, values);
        ASSERT_TRUE(forced.ok());
        ASSERT_EQ(forced->data, reference::Encode(type, e, values))
            << EncodingName(e);
      }
    }
  }
}

TEST(EncodingTest, DictionaryKeepsDisplayIdentityOfFloats) {
  // Signed zeros print differently and stay two entries; NaNs of one sign
  // print alike and share one, whatever their payload bits.
  std::vector<Value> values = {
      Value::Float64(0.0), Value::Float64(-0.0),
      Value::Float64(std::numeric_limits<double>::quiet_NaN()),
      Value::Float64(std::bit_cast<double>(uint64_t{0x7ff8000000000123ULL})),
      Value::Float64(-std::numeric_limits<double>::quiet_NaN())};
  auto chunk = EncodeColumnAs(DataType::kFloat64, Encoding::kDictionary,
                              values);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->data,
            reference::Encode(DataType::kFloat64, Encoding::kDictionary,
                              values));
  // Four entries (0, -0, NaN, -NaN), five codes.
  EXPECT_EQ(chunk->data.size(), NullBitmapBytes(5) + 4 + 4 * 8 + 5 * 4);
}

TEST(EncodingTest, RowLanesEncodeLikeExtractedColumn) {
  Rng rng(99);
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(MakeRow(i / 50, rng.NextDouble(),
                           i % 3 == 0 ? "x" : "yy", rng.NextBool(0.5)));
  }
  Schema schema = TestSchema();
  auto lanes = FromRows(schema, rows);
  ASSERT_TRUE(lanes.ok()) << lanes.status();
  for (int c = 0; c < schema.num_columns(); ++c) {
    std::vector<Value> column;
    for (const Row& row : rows) column.push_back(row[c]);
    DataType type = schema.column(c).type;
    auto in_place = EncodeLanes(lanes->columns[c]);
    auto extracted = EncodeColumn(type, column);
    ASSERT_TRUE(in_place.ok());
    ASSERT_TRUE(extracted.ok());
    EXPECT_EQ(in_place->encoding, extracted->encoding);
    EXPECT_EQ(in_place->data, extracted->data);
    Encoding rle = Encoding::kRle;
    auto forced = EncodeLanes(lanes->columns[c], &rle);
    ASSERT_TRUE(forced.ok());
    EXPECT_EQ(forced->data, EncodeColumnAs(type, rle, column)->data);
  }
}

// Write routing hashes lanes: every slot, NULL included, must hash as
// the Value it holds, or rows land outside the ring range scans read.
TEST(EncodingTest, LaneHashMatchesValueSegmentationHash) {
  std::vector<Row> rows = {
      MakeRow(1, 2.5, "x", true),
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {Value::Int64(-7), Value::Int64(3), Value::Varchar(""),
       Value::Bool(false)},
      {Value::Int64(0), Value::Float64(-0.0),
       Value::Varchar(std::string(40, 'L')), Value::Bool(true)},
      {Value::Int64(std::numeric_limits<int64_t>::min()),
       Value::Float64(std::numeric_limits<double>::quiet_NaN()),
       Value::Varchar("tail"), Value::Null()}};
  auto lanes = FromRows(TestSchema(), rows);
  ASSERT_TRUE(lanes.ok()) << lanes.status();
  for (size_t c = 0; c < lanes->columns.size(); ++c) {
    for (size_t i = 0; i < rows.size(); ++i) {
      Value want = rows[i][c];
      if (!want.is_null() && want.type() == DataType::kInt64 &&
          lanes->columns[c].type == DataType::kFloat64) {
        want = Value::Float64(static_cast<double>(want.int64_value()));
      }
      EXPECT_EQ(lanes->columns[c].Hash(i), want.SegmentationHash())
          << c << "," << i;
    }
  }
}

TEST(EncodingTest, EmptyColumnIsPlain) {
  auto chunk = EncodeColumn(DataType::kVarchar, {});
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->encoding, Encoding::kPlain);
  EXPECT_TRUE(chunk->data.empty());
}

TEST(RosContainerTest, CreateComputesStats) {
  Schema schema = TestSchema();
  std::vector<Row> rows = {MakeRow(3, 1.0, "abc", true),
                           MakeRow(1, 2.0, "zz", false),
                           MakeRow(2, -1.0, "m", true)};
  auto ros = ContainerOf(schema, rows, /*txn=*/1);
  ASSERT_TRUE(ros.ok());
  EXPECT_EQ(ros->num_rows(), 3u);
  EXPECT_FALSE(ros->committed());
  EXPECT_EQ(ros->min_value(0).int64_value(), 1);
  EXPECT_EQ(ros->max_value(0).int64_value(), 3);
  EXPECT_EQ(ros->min_value(1).float64_value(), -1.0);
  EXPECT_EQ(ros->min_value(2).varchar_value(), "abc");
  // raw: 3 rows * (8 + 8 + len + 1)
  EXPECT_DOUBLE_EQ(ros->raw_bytes(), (17 + 3) + (17 + 2) + (17 + 1));
  auto decoded = DecodeRows(*ros, schema.num_columns());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(RowsEqual((*decoded)[1], rows[1]));
}

class SegmentStoreTest : public ::testing::Test {
 protected:
  SegmentStoreTest() : store_(TestSchema()) {}
  SegmentStore store_;
};

TEST_F(SegmentStoreTest, PendingRowsInvisibleToOthers) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "a", true)}).ok());
  EXPECT_EQ(store_.CountVisible(100, /*txn=*/0).value(), 0);
  EXPECT_EQ(store_.CountVisible(100, /*txn=*/10).value(), 1);
  EXPECT_EQ(store_.CountVisible(100, /*txn=*/11).value(), 0);
}

TEST_F(SegmentStoreTest, CommitMakesRowsVisibleAtEpoch) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, /*epoch=*/5);
  EXPECT_EQ(store_.CountVisible(4).value(), 0);   // before commit epoch
  EXPECT_EQ(store_.CountVisible(5).value(), 1);   // at commit epoch
  EXPECT_EQ(store_.CountVisible(99).value(), 1);  // after
}

TEST_F(SegmentStoreTest, AbortDiscardsPendingRows) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "a", true)}).ok());
  ASSERT_TRUE(InsertRowsDirect(store_, 10, {MakeRow(2, 2.0, "b", false)})
                  .ok());
  store_.AbortTxn(10);
  EXPECT_EQ(store_.CountVisible(100, 10).value(), 0);
  EXPECT_EQ(store_.num_wos_batches(), 0);
  EXPECT_EQ(store_.num_ros_containers(), 0);
}

// A WOS unit keeps the WOS cost rules: it never counts as a scanned
// container, its bytes count as raw bytes in the encoded total, and the
// batch counts the Tuple Mover reads see one unit per insert.
TEST_F(SegmentStoreTest, WosUnitsKeepTheWosCostRules) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "abc", true),
                                        MakeRow(2, 2.0, "de", false)})
                  .ok());
  EXPECT_EQ(store_.num_wos_batches(), 1);
  EXPECT_EQ(store_.num_committed_wos_batches(), 0);
  EXPECT_EQ(store_.CommittedWosRawBytes(), 0);
  store_.CommitTxn(10, 5);
  const double raw = (8 + 8 + 3 + 1) + (8 + 8 + 2 + 1);
  EXPECT_EQ(store_.num_committed_wos_batches(), 1);
  EXPECT_EQ(store_.CommittedWosRawBytes(), raw);
  EXPECT_EQ(store_.TotalRawBytes(), raw);
  EXPECT_EQ(store_.TotalEncodedBytes(), raw);
  ScanSpec spec;
  spec.as_of = 5;
  ScanStats wos_stats;
  ASSERT_TRUE(store_.Scan(spec, &wos_stats).ok());
  EXPECT_EQ(wos_stats.containers_scanned, 0);
  EXPECT_EQ(wos_stats.rows_emitted, 2);
  ASSERT_TRUE(store_.Moveout().ok());
  EXPECT_EQ(store_.num_wos_batches(), 0);
  EXPECT_EQ(store_.CommittedWosRawBytes(), 0);
  EXPECT_EQ(store_.TotalRawBytes(), raw);
  ScanStats ros_stats;
  ASSERT_TRUE(store_.Scan(spec, &ros_stats).ok());
  EXPECT_EQ(ros_stats.containers_scanned, 1);
  EXPECT_EQ(ros_stats.rows_emitted, 2);
}

TEST_F(SegmentStoreTest, DeleteRespectsEpochSnapshots) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "a", true),
                                        MakeRow(2, 2.0, "b", false)})
                  .ok());
  store_.CommitTxn(10, 5);
  // Delete id=1 in txn 11, committed at epoch 7.
  auto deleted = DeleteWhere(store_, 11, 6, [](const Row& row) {
    return row[0].int64_value() == 1;
  });
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1);
  // Before txn 11 commits, other readers still see both rows.
  EXPECT_EQ(store_.CountVisible(6).value(), 2);
  // The deleting txn no longer sees the row.
  EXPECT_EQ(store_.CountVisible(6, 11).value(), 1);
  store_.CommitTxn(11, 7);
  EXPECT_EQ(store_.CountVisible(6).value(), 2);  // old epoch: still there
  EXPECT_EQ(store_.CountVisible(7).value(), 1);  // new epoch: gone
}

TEST_F(SegmentStoreTest, DeleteAbortRestoresRow) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(
      DeleteWhere(store_, 11, 5, [](const Row&) { return true; }).ok());
  store_.AbortTxn(11);
  EXPECT_EQ(store_.CountVisible(5).value(), 1);
}

TEST_F(SegmentStoreTest, MoveoutPreservesEpochVisibility) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(InsertRows(store_, 11, {MakeRow(2, 2.0, "b", false)}).ok());
  store_.CommitTxn(11, 8);
  ASSERT_TRUE(InsertRows(store_, 12, {MakeRow(3, 3.0, "c", true)}).ok());
  // txn 12 still pending through moveout.
  ASSERT_TRUE(store_.Moveout().ok());
  EXPECT_EQ(store_.num_wos_batches(), 1);      // the pending batch stays
  // Both committed batches fold into one container; per-row epochs keep
  // AT EPOCH visibility exact.
  EXPECT_EQ(store_.num_ros_containers(), 1);
  EXPECT_EQ(store_.CountVisible(5).value(), 1);
  EXPECT_EQ(store_.CountVisible(8).value(), 2);
  EXPECT_EQ(store_.CountVisible(8, 12).value(), 3);
  store_.CommitTxn(12, 9);
  EXPECT_EQ(store_.CountVisible(9).value(), 3);
}

TEST_F(SegmentStoreTest, MoveoutKeepsDeleteMarks) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "a", true),
                                        MakeRow(2, 2.0, "b", false)})
                  .ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(DeleteWhere(store_, 11, 5, [](const Row& row) {
                return row[0].int64_value() == 2;
              }).ok());
  store_.CommitTxn(11, 6);
  ASSERT_TRUE(store_.Moveout().ok());
  EXPECT_EQ(store_.CountVisible(5).value(), 2);
  EXPECT_EQ(store_.CountVisible(6).value(), 1);
}

TEST_F(SegmentStoreTest, MergeRosContainersPreservesEpochVisibility) {
  // Two DIRECT loads committed at different epochs, one later delete.
  ASSERT_TRUE(
      InsertRowsDirect(store_, 10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(
      InsertRowsDirect(store_, 11, {MakeRow(2, 2.0, "b", false)}).ok());
  store_.CommitTxn(11, 8);
  ASSERT_TRUE(DeleteWhere(store_, 12, 8, [](const Row& row) {
                return row[0].int64_value() == 1;
              }).ok());
  store_.CommitTxn(12, 9);
  uint64_t fingerprint = store_.ContentFingerprint();
  auto merged = store_.MergeRosContainers({0, 1});
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(*merged, 0.0);
  EXPECT_EQ(store_.num_ros_containers(), 1);
  // Mergeout is content-preserving: the layout-blind fingerprint and all
  // AT EPOCH reads are unchanged.
  EXPECT_EQ(store_.ContentFingerprint(), fingerprint);
  EXPECT_EQ(store_.CountVisible(5).value(), 1);
  EXPECT_EQ(store_.CountVisible(8).value(), 2);
  EXPECT_EQ(store_.CountVisible(9).value(), 1);
}

TEST_F(SegmentStoreTest, MergeRejectsUncommittedContainers) {
  ASSERT_TRUE(
      InsertRowsDirect(store_, 10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(
      InsertRowsDirect(store_, 11, {MakeRow(2, 2.0, "b", false)}).ok());
  EXPECT_FALSE(store_.MergeRosContainers({0, 1}).ok());
}

TEST_F(SegmentStoreTest, PurgeDropsOnlyAncientDeletes) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "a", true),
                                        MakeRow(2, 2.0, "b", false)})
                  .ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(store_.Moveout().ok());
  ASSERT_TRUE(DeleteWhere(store_, 11, 5, [](const Row& row) {
                return row[0].int64_value() == 1;
              }).ok());
  store_.CommitTxn(11, 6);
  EXPECT_EQ(store_.committed_deletes(), 1);
  ASSERT_TRUE(DeleteWhere(store_, 12, 8, [](const Row& row) {
                return row[0].int64_value() == 2;
              }).ok());
  store_.CommitTxn(12, 9);
  EXPECT_EQ(store_.committed_deletes(), 2);
  // AHM = 7: only the delete committed at epoch 6 is ancient history.
  auto purged = store_.PurgeDeletedRows(7);
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(*purged, 1);
  EXPECT_EQ(store_.committed_deletes(), 1);
  // Every read at or above the AHM is unchanged by the purge.
  EXPECT_EQ(store_.CountVisible(7).value(), 1);
  EXPECT_EQ(store_.CountVisible(8).value(), 1);
  EXPECT_EQ(store_.CountVisible(9).value(), 0);
  // Raising the AHM past the second delete reclaims the last row; the
  // empty container is dropped.
  purged = store_.PurgeDeletedRows(9);
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(*purged, 1);
  EXPECT_EQ(store_.num_ros_containers(), 0);
  EXPECT_EQ(store_.committed_deletes(), 0);
}

// Bit-level identity of two bounds (Equals would call NaN != NaN and
// 0.0 == -0.0).
bool SameBound(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kFloat64) {
    return std::bit_cast<uint64_t>(a.float64_value()) ==
           std::bit_cast<uint64_t>(b.float64_value());
  }
  return a.Equals(b);
}

// Mergeout and purge rebuild containers column by column; the result
// must be the container RosContainer::Create builds from the same rows
// (sorted by the design), byte for byte.
void ExpectSameContainer(const RosContainer& got, const RosContainer& want,
                         int num_columns) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  EXPECT_EQ(std::bit_cast<uint64_t>(got.raw_bytes()),
            std::bit_cast<uint64_t>(want.raw_bytes()));
  for (int c = 0; c < num_columns; ++c) {
    EXPECT_EQ(got.column(c).encoding, want.column(c).encoding) << c;
    EXPECT_EQ(got.column(c).data, want.column(c).data) << c;
    EXPECT_TRUE(SameBound(got.min_value(c), want.min_value(c))) << c;
    EXPECT_TRUE(SameBound(got.max_value(c), want.max_value(c))) << c;
  }
}

TEST(ColumnRebuildTest, MergeAndPurgeMatchRowBuiltContainers) {
  Schema schema = TestSchema();
  for (bool sorted : {false, true}) {
    PhysicalDesign design;
    if (sorted) design.sort_columns = {2, 0};
    SegmentStore store(schema, design);
    Rng rng(sorted ? 5 : 6);
    std::vector<Row> all;
    for (TxnId txn = 10; txn < 14; ++txn) {
      std::vector<Row> rows;
      for (int i = 0; i < 60; ++i) {
        Row row = MakeRow(rng.NextInt64(0, 9), rng.NextDouble(),
                          rng.NextBool(0.5) ? "x" : "yy", rng.NextBool(0.5));
        if (rng.NextBool(0.1)) row[1] = Value::Null();
        rows.push_back(row);
      }
      all.insert(all.end(), rows.begin(), rows.end());
      ASSERT_TRUE(InsertRowsDirect(store, txn, rows).ok());
      store.CommitTxn(txn, txn);
    }
    ASSERT_TRUE(store.MergeRosContainers({0, 1, 2, 3}).ok());
    ASSERT_EQ(store.num_ros_containers(), 1);
    if (sorted) {
      std::stable_sort(all.begin(), all.end(), [](const Row& a, const Row& b) {
        int c = a[2].Compare(b[2]).value();
        if (c != 0) return c < 0;
        return a[0].Compare(b[0]).value() < 0;
      });
    }
    auto want = ContainerOf(schema, all, /*txn=*/1);
    ASSERT_TRUE(want.ok());
    ExpectSameContainer(store.ros_containers()[0], *want, 4);

    // Purge every row with id < 3 (deleted at epoch 20, AHM 20).
    ASSERT_TRUE(DeleteWhere(store, 30, 20, [](const Row& row) {
                  return row[0].int64_value() < 3;
                }).ok());
    store.CommitTxn(30, 20);
    ASSERT_TRUE(store.PurgeDeletedRows(20).ok());
    std::vector<Row> kept;
    for (const Row& row : all) {
      if (row[0].int64_value() >= 3) kept.push_back(row);
    }
    want = ContainerOf(schema, kept, /*txn=*/1);
    ASSERT_TRUE(want.ok());
    ExpectSameContainer(store.ros_containers()[0], *want, 4);
  }
}

// ---------------------------------------------- rebuild property sweep

// One reference row with the commit epoch and delete mark the store
// should hold for it.
struct RefRow {
  Row row;
  Epoch epoch = 0;
  DeleteMark mark;
};

// Rows that stress the typed-lane rebuild: INT64s above 2^53 that are
// equal as doubles (and sit in sort columns), NaNs of both signs and
// signed zeros, '' next to NULL, and an all-NULL column. Low-cardinality
// values keep RLE and DICTIONARY in play.
Schema RebuildSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"score", DataType::kFloat64},
                 {"name", DataType::kVarchar},
                 {"flag", DataType::kBool},
                 {"empty", DataType::kFloat64}});
}

Row RandomRebuildRow(Rng& rng) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Row row(5);
  if (rng.NextBool(0.25)) {
    row[0] = Value::Int64(kTwo53 + rng.NextInt64(0, 1));
  } else if (!rng.NextBool(0.05)) {
    row[0] = Value::Int64(rng.NextInt64(-3, 12));
  }
  switch (rng.NextUint64(8)) {
    case 0:
      row[1] = Value::Float64(nan);
      break;
    case 1:
      row[1] = Value::Float64(-nan);
      break;
    case 2:
      row[1] = Value::Float64(0.0);
      break;
    case 3:
      row[1] = Value::Float64(-0.0);
      break;
    case 4:
      break;  // NULL
    default:
      row[1] = Value::Float64(static_cast<double>(rng.NextInt64(-2, 2)) / 4);
  }
  switch (rng.NextUint64(5)) {
    case 0:
      break;  // NULL
    case 1:
      row[2] = Value::Varchar("");
      break;
    default:
      row[2] = Value::Varchar(std::string(1 + rng.NextUint64(3), 'k'));
  }
  if (!rng.NextBool(0.1)) row[3] = Value::Bool(rng.NextBool(0.5));
  return row;
}

// The old row-at-a-time sort: stable, nulls first, Value::Compare with
// its error path (mixed types) collapsing to "equal".
void SortRefRows(const std::vector<int>& sort_columns,
                 std::vector<RefRow>* rows) {
  if (sort_columns.empty()) return;
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const RefRow& a, const RefRow& b) {
                     for (int c : sort_columns) {
                       Result<int> cmp = a.row[c].Compare(b.row[c]);
                       int v = cmp.ok() ? cmp.value() : 0;
                       if (v != 0) return v < 0;
                     }
                     return false;
                   });
}

// `got` must be the container RosContainer::Create builds from `want`'s
// rows, with `want`'s per-row epochs and delete marks.
void ExpectMatchesReference(const RosContainer& got,
                            const std::vector<RefRow>& want,
                            const PhysicalDesign& design) {
  std::vector<Row> rows;
  for (const RefRow& r : want) rows.push_back(r.row);
  auto ref = ContainerOf(
      RebuildSchema(), rows, /*txn=*/1,
      design.encodings.empty() ? nullptr : &design.encodings);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ExpectSameContainer(got, *ref, 5);
  ASSERT_EQ(got.num_rows(), want.size());
  for (uint32_t i = 0; i < got.num_rows(); ++i) {
    ASSERT_EQ(got.row_epoch(i), want[i].epoch) << i;
    const DeleteMark& mark = got.delete_marks()[i];
    ASSERT_EQ(mark.state, want[i].mark.state) << i;
    ASSERT_EQ(mark.epoch, want[i].mark.epoch) << i;
    ASSERT_EQ(mark.txn, want[i].mark.txn) << i;
  }
}

// Every container the store writes — DIRECT loads, moveout, mergeout and
// purge — is the container RosContainer::Create builds from the same
// rows in the design's order, with the rows' epochs and delete marks:
// same chunk bytes, encodings, bounds and raw size. Covers unsorted and
// sorted designs, forced encodings, and containers past one scan batch.
TEST(ColumnRebuildTest, EveryStoreWriteMatchesRowBuiltContainerProperty) {
  std::vector<PhysicalDesign> designs(4);
  designs[1].sort_columns = {2, 0};
  designs[2].sort_columns = {1, 0, 3};
  designs[2].encodings = {Encoding::kRle, Encoding::kDictionary,
                          Encoding::kRle, Encoding::kPlain,
                          Encoding::kDictionary};
  designs[3].encodings = {Encoding::kDictionary, Encoding::kPlain,
                          Encoding::kDictionary, Encoding::kRle,
                          Encoding::kPlain};
  for (uint64_t seed : fabric::testing::PropertySeeds()) {
    for (size_t d = 0; d < designs.size(); ++d) {
      SCOPED_TRACE(StrCat("seed ", seed, " design ", d));
      const PhysicalDesign& design = designs[d];
      SegmentStore store(RebuildSchema(), design);
      Rng rng(seed * 31 + d);
      auto random_rows = [&](size_t n) {
        std::vector<Row> rows;
        for (size_t i = 0; i < n; ++i) rows.push_back(RandomRebuildRow(rng));
        return rows;
      };
      // One reference row list per ROS container, in storage order.
      std::vector<std::vector<RefRow>> containers;

      // Three DIRECT loads, one longer than a scan batch.
      for (TxnId txn = 10; txn < 13; ++txn) {
        size_t n = txn == 11 ? 1100 + rng.NextUint64(200)
                             : 1 + rng.NextUint64(500);
        std::vector<Row> rows = random_rows(n);
        std::vector<RefRow> ref;
        for (const Row& row : rows) ref.push_back({row, txn, {}});
        SortRefRows(design.sort_columns, &ref);
        ASSERT_TRUE(InsertRowsDirect(store, txn, rows).ok());
        store.CommitTxn(txn, txn);
        ASSERT_EQ(store.num_ros_containers(), static_cast<int>(txn) - 9);
        ExpectMatchesReference(store.ros_containers().back(), ref, design);
        containers.push_back(std::move(ref));
      }
      // Two WOS batches at different epochs, folded by one moveout.
      std::vector<RefRow> moved;
      for (TxnId txn = 13; txn < 15; ++txn) {
        std::vector<Row> rows = random_rows(1 + rng.NextUint64(400));
        for (const Row& row : rows) moved.push_back({row, txn, {}});
        ASSERT_TRUE(InsertRows(store, txn, rows).ok());
        store.CommitTxn(txn, txn);
      }
      SortRefRows(design.sort_columns, &moved);
      ASSERT_TRUE(store.Moveout().ok());
      ASSERT_EQ(store.num_ros_containers(), 4);
      ExpectMatchesReference(store.ros_containers().back(), moved, design);
      containers.push_back(std::move(moved));

      // Two deletes: one the purge will reclaim (epoch 20) and one it
      // must keep (epoch 30), each by content.
      auto first = [](const Row& row) {
        return !row[3].is_null() && row[3].bool_value();
      };
      auto second = [](const Row& row) { return row[2].is_null(); };
      ASSERT_TRUE(DeleteWhere(store, 40, 19, first).ok());
      store.CommitTxn(40, 20);
      ASSERT_TRUE(DeleteWhere(store, 41, 29, second).ok());
      store.CommitTxn(41, 30);
      for (std::vector<RefRow>& container : containers) {
        for (RefRow& r : container) {
          if (first(r.row)) {
            r.mark = {DeleteMark::State::kCommitted, 20, 0};
          } else if (second(r.row)) {
            r.mark = {DeleteMark::State::kCommitted, 30, 0};
          }
        }
      }

      // Merge the four containers.
      ASSERT_TRUE(store.MergeRosContainers({0, 1, 2, 3}).ok());
      ASSERT_EQ(store.num_ros_containers(), 1);
      std::vector<RefRow> merged;
      for (const std::vector<RefRow>& container : containers) {
        merged.insert(merged.end(), container.begin(), container.end());
      }
      SortRefRows(design.sort_columns, &merged);
      ExpectMatchesReference(store.ros_containers()[0], merged, design);

      // Purge at AHM 25: the epoch-20 deletes go, the epoch-30 ones stay.
      auto purged = store.PurgeDeletedRows(25);
      ASSERT_TRUE(purged.ok());
      std::vector<RefRow> kept;
      for (const RefRow& r : merged) {
        if (r.mark.epoch != 20) kept.push_back(r);
      }
      EXPECT_EQ(*purged, static_cast<int64_t>(merged.size() - kept.size()));
      ASSERT_EQ(store.num_ros_containers(), 1);
      ExpectMatchesReference(store.ros_containers()[0], kept, design);
    }
  }
}

// A store's observable state: what a rejected Tuple Mover rewrite must
// leave exactly as it was.
struct StoreState {
  uint64_t fingerprint = 0;
  int containers = 0;
  int wos_batches = 0;
  double encoded_bytes = 0;
  std::vector<std::string> chunks;

  explicit StoreState(const SegmentStore& store)
      : fingerprint(store.ContentFingerprint()),
        containers(store.num_ros_containers()),
        wos_batches(store.num_wos_batches()),
        encoded_bytes(store.TotalEncodedBytes()) {
    for (const RosContainer& c : store.ros_containers()) {
      for (int col = 0; col < store.schema().num_columns(); ++col) {
        chunks.push_back(c.column(col).data);
      }
    }
  }

  bool operator==(const StoreState&) const = default;
};

TEST(TupleMoverErrorsTest, RejectedRewritesLeaveStoreUntouched) {
  SegmentStore store(TestSchema());
  for (TxnId txn = 10; txn < 13; ++txn) {
    ASSERT_TRUE(InsertRowsDirect(store, txn, {MakeRow(txn, 1.0, "a", true),
                              MakeRow(txn + 1, 2.0, "b", false)})
                    .ok());
    store.CommitTxn(txn, txn);
  }
  ASSERT_TRUE(
      InsertRowsDirect(store, 13, {MakeRow(7, 3.0, "c", true)}).ok());
  ASSERT_TRUE(DeleteWhere(store, 14, 12, [](const Row& row) {
                return row[0].int64_value() == 10;
              }).ok());
  store.CommitTxn(14, 14);
  const StoreState before(store);
  EXPECT_FALSE(store.MergeRosContainers({0, 1, 3}).ok());  // uncommitted
  EXPECT_FALSE(store.MergeRosContainers({0, 9}).ok());     // out of range
  EXPECT_FALSE(store.MergeRosContainers({1, 1}).ok());     // duplicate
  EXPECT_TRUE(StoreState(store) == before);

  // Content typed for another schema (as a corrupt copy would be): every
  // rewrite fails while decoding or unboxing it, before touching the
  // store.
  SegmentStore alien(Schema({{"id", DataType::kVarchar},
                             {"score", DataType::kFloat64},
                             {"name", DataType::kVarchar},
                             {"flag", DataType::kBool}}));
  auto alien_row = [](const char* id) {
    return Row{Value::Varchar(id), Value::Float64(1.0), Value::Varchar("x"),
               Value::Bool(true)};
  };
  for (TxnId txn = 20; txn < 22; ++txn) {
    ASSERT_TRUE(
        InsertRowsDirect(alien, txn, {alien_row("p"), alien_row("q")})
            .ok());
    alien.CommitTxn(txn, txn);
  }
  ASSERT_TRUE(DeleteWhere(alien, 22, 21, [](const Row& row) {
                return row[0].varchar_value() == "p";
              }).ok());
  alien.CommitTxn(22, 22);
  ASSERT_TRUE(InsertRows(alien, 23, {alien_row("w")}).ok());
  alien.CommitTxn(23, 23);
  store.CopyContentsFrom(alien);
  const StoreState corrupt(store);
  EXPECT_FALSE(store.Moveout().ok());
  EXPECT_TRUE(StoreState(store) == corrupt);
  EXPECT_FALSE(store.MergeRosContainers({0, 1}).ok());
  EXPECT_TRUE(StoreState(store) == corrupt);
  EXPECT_FALSE(store.PurgeDeletedRows(30).ok());
  EXPECT_TRUE(StoreState(store) == corrupt);
  EXPECT_EQ(store.committed_deletes(), 2);
}

// A scan's lanes own their strings: the Tuple Mover may merge or purge
// the containers a result was read from while the result is still in
// flight (a scan runs before its node's sim yields; the initiator reads
// the rows after). Under the sanitizers, a lane aliasing container or
// decoded-column memory would be a heap-use-after-free here.
TEST_F(SegmentStoreTest, ScanLanesOutliveMergeoutAndPurge) {
  TxnId txn = 10;
  for (int load = 0; load < 3; ++load, ++txn) {
    std::vector<Row> rows;
    for (int i = 0; i < 40; ++i) {
      // Past the small-string buffer, and repeated so the chunks pick
      // dictionary or RLE as well as plain encodings.
      std::string name = StrCat("a string long enough for the heap ",
                                load == 1 ? i / 10 : i % 7);
      rows.push_back(MakeRow(load * 100 + i, i * 0.5, name, i % 2 == 0));
    }
    ASSERT_TRUE(InsertRowsDirect(store_, txn, rows).ok());
    store_.CommitTxn(txn, 5 + load);
  }
  ASSERT_EQ(store_.num_ros_containers(), 3);
  auto want = SnapshotRows(store_, 7);
  ASSERT_TRUE(want.ok());

  ScanSpec spec;
  spec.as_of = 7;
  ScanStats stats;
  auto scanned = store_.Scan(spec, &stats);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  ASSERT_EQ(scanned->num_rows, want->size());

  // Delete a third of the rows, merge every container into one and
  // purge the deletes: each container the scan read is destroyed, along
  // with its decoded columns.
  ASSERT_TRUE(DeleteWhere(store_, txn, 7, [](const Row& row) {
                return row[0].int64_value() % 3 == 0;
              }).ok());
  store_.CommitTxn(txn, 8);
  ASSERT_TRUE(store_.MergeRosContainers({0, 1, 2}).ok());
  auto purged = store_.PurgeDeletedRows(9);
  ASSERT_TRUE(purged.ok());
  EXPECT_GT(*purged, 0);
  ASSERT_EQ(store_.num_ros_containers(), 1);

  const Lanes& names = scanned->columns[2];
  ASSERT_EQ(names.type, DataType::kVarchar);
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ(names.values.strings[i], (*want)[i][2].varchar_value()) << i;
    EXPECT_TRUE(RowsEqual(scanned->BoxRow(i), (*want)[i])) << i;
  }
}

TEST_F(SegmentStoreTest, SnapshotRowsMaterializesVisibleRows) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  auto rows = SnapshotRows(store_, 5);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_TRUE(RowsEqual((*rows)[0], MakeRow(1, 1.0, "a", true)));
}

TEST_F(SegmentStoreTest, StatsTrackBytes) {
  ASSERT_TRUE(InsertRows(store_, 10, {MakeRow(1, 1.0, "abc", true)}).ok());
  store_.CommitTxn(10, 1);
  EXPECT_DOUBLE_EQ(store_.TotalRawBytes(), 8 + 8 + 3 + 1);
  EXPECT_GT(store_.TotalEncodedBytes(), 0);
}

// ------------------------------------------- decoded-column cache

// Display form of a row, bit-exact for doubles (NaN equals NaN, -0
// differs from 0) and with NULL distinct from ''.
std::vector<std::string> RowKeys(const std::vector<Row>& rows) {
  std::vector<std::string> keys;
  for (const Row& row : rows) {
    std::string key;
    for (const Value& v : row) {
      key += v.is_null() ? "\x01" : v.ToDisplayString();
      key += '\x02';
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

// Scans `store` at `as_of` (through `txn`'s eyes) with `pred` (null =
// match all), measuring and emitting every column, twice: the first
// pass may decode columns, the second reads what the first cached. Both
// must agree with the row-at-a-time reference (ScanVisible plus
// ScanPredicate::Matches) on rows (bit-exact: NaN matches NaN, -0 is not
// 0), counters and the visible profile.
void ExpectScanMatchesReference(const SegmentStore& store, Epoch as_of,
                                TxnId txn = 0,
                                const ScanPredicate* pred = nullptr) {
  std::vector<Row> visible;
  ASSERT_TRUE(ScanVisible(store, as_of, txn,
                               [&](const Row& row) {
                                 visible.push_back(row);
                                 return Status::OK();
                               })
                  .ok());
  std::vector<Row> want;
  for (const Row& row : visible) {
    if (pred == nullptr || pred->Matches(row)) want.push_back(row);
  }
  DataProfile want_visible = ProfileRows(visible);
  std::vector<int> all(static_cast<size_t>(store.schema().num_columns()));
  for (size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  ScanSpec spec;
  spec.as_of = as_of;
  spec.txn = txn;
  spec.predicate = pred;
  spec.cost_columns = &all;
  for (int pass = 0; pass < 2; ++pass) {
    ScanStats stats;
    auto scanned = store.Scan(spec, &stats);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_EQ(RowKeys(scanned->BoxRows()), RowKeys(want)) << "pass " << pass;
    EXPECT_EQ(stats.rows_visible, static_cast<int64_t>(visible.size()));
    EXPECT_EQ(stats.visible_profile.fields, want_visible.fields);
    EXPECT_EQ(stats.visible_profile.raw_bytes, want_visible.raw_bytes);
    EXPECT_EQ(stats.visible_profile.string_bytes,
              want_visible.string_bytes);
  }
}

// The predicates the cache tests scan with: all rows, a compare term
// on each column type, a null test, and a V2S-style hash range.
std::vector<ScanPredicate> CachePredicates() {
  std::vector<ScanPredicate> preds(6);
  preds[1].compares.push_back({0, CompareOp::kGe, false, 3, ""});
  preds[2].compares.push_back({1, CompareOp::kLt, false, 0.5, ""});
  preds[3].compares.push_back({2, CompareOp::kNe, true, 0, "b"});
  preds[4].null_tests.push_back({1, /*negated=*/true});
  preds[5].hash_ranges.push_back({{0, 2}, 0, ~0ull / 3});
  return preds;
}

void ExpectAllScansMatch(const SegmentStore& store, Epoch as_of,
                         TxnId txn = 0) {
  for (const ScanPredicate& pred : CachePredicates()) {
    ExpectScanMatchesReference(store, as_of, txn, &pred);
  }
}

TEST(DecodedColumnTest, CacheIsSharedAndCopiesStartEmpty) {
  auto ros = ContainerOf(TestSchema(), {MakeRow(1, 1.0, "a", true)},
                                  /*txn=*/1);
  ASSERT_TRUE(ros.ok());
  auto first = ros->decoded_column(2);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(ros->decoded_column(2).value(), *first);  // built once
  ASSERT_EQ((*first)->batches.size(), 1u);
  EXPECT_EQ((*first)->batches[0].values.StringAt(0), "a");
  // A copy decodes from its own payload: a one-row chunk is a short
  // string, whose bytes a copy or move relocates.
  RosContainer copy = *ros;
  auto copied = copy.decoded_column(2);
  ASSERT_TRUE(copied.ok());
  EXPECT_NE(*copied, *first);
  const std::string& payload = copy.column(2).data;
  const char* view = (*copied)->batches[0].values.StringAt(0).data();
  EXPECT_TRUE(view >= payload.data() &&
              view < payload.data() + payload.size());
  RosContainer moved = std::move(copy);
  auto after_move = moved.decoded_column(2);
  ASSERT_TRUE(after_move.ok());
  EXPECT_EQ((*after_move)->batches[0].values.StringAt(0), "a");
}

TEST(DecodedColumnTest, BatchesSplitRunsAtBoundaries) {
  // One RLE run of 1500 rows straddles the first batch boundary, a null
  // run straddles the second.
  std::vector<Value> values(1500, Value::Int64(7));
  values.resize(2100, Value::Null());
  values.resize(2200, Value::Int64(9));
  auto chunk = EncodeColumnAs(DataType::kInt64, Encoding::kRle, values);
  ASSERT_TRUE(chunk.ok());
  auto column = DecodeColumnBatches(*chunk);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  ASSERT_EQ((*column)->batches.size(), 3u);
  for (size_t b = 0; b < 3; ++b) {
    const ColumnBatch& batch = (*column)->batches[b];
    EXPECT_EQ(batch.base, b * kScanBatchSize);
    uint32_t row = batch.base;
    for (const RunSpan& span : batch.runs) {
      EXPECT_EQ(span.start, row);
      for (uint32_t i = span.start; i < span.start + span.length; ++i) {
        ASSERT_EQ(span.is_null, values[i].is_null()) << i;
        if (!span.is_null) {
          EXPECT_EQ(batch.values.ints[span.slot], values[i].int64_value());
        }
      }
      row += span.length;
    }
    EXPECT_EQ(row, batch.base + batch.length) << "batch " << b;
  }
  EXPECT_EQ((*column)->batches[2].length, 2200 - 2 * kScanBatchSize);
}

// Rows of the four-column test schema shaped to hit batch edges: `id`
// runs of 300 (runs cross every 1024-row boundary), `score` with nulls,
// `name` from a small dictionary with nulls, and `flag` all null.
std::vector<Row> BoundaryRows(int n) {
  std::vector<Row> rows;
  const char* kNames[] = {"a", "b", "ccc"};
  for (int i = 0; i < n; ++i) {
    Row row = MakeRow(i / 300, (i % 7) / 7.0, kNames[i % 3], false);
    if (i % 11 == 4) row[1] = Value::Float64(-0.0);
    if (i % 13 == 6) {
      row[1] = Value::Float64(std::numeric_limits<double>::quiet_NaN());
    }
    if (i % 5 == 0) row[1] = Value::Null();
    if (i % 4 == 1) row[2] = Value::Null();
    row[3] = Value::Null();
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(DecodedColumnTest, ScansMatchReferenceAtBatchBoundaries) {
  for (int n : {1, 1023, 1024, 1025, 2049}) {
    for (Encoding encoding :
         {Encoding::kPlain, Encoding::kRle, Encoding::kDictionary}) {
      SCOPED_TRACE(StrCat("rows ", n, " encoding ", EncodingName(encoding)));
      PhysicalDesign design;
      design.encodings.assign(4, encoding);
      SegmentStore store(TestSchema(), design);
      ASSERT_TRUE(InsertRowsDirect(store, 10, BoundaryRows(n)).ok());
      store.CommitTxn(10, 1);
      ExpectAllScansMatch(store, 1);
      // Delete marks change between scans; the cached columns must not.
      ScanPredicate later_ids;
      later_ids.compares.push_back({0, CompareOp::kGe, false, 2, ""});
      ScanSpec spec;
      spec.as_of = 1;
      spec.txn = 11;
      spec.predicate = &later_ids;
      ASSERT_TRUE(store.MarkDeletedPending(spec).ok());
      ExpectAllScansMatch(store, 1, /*txn=*/11);
      store.CommitTxn(11, 2);
      ExpectAllScansMatch(store, 1);
      ExpectAllScansMatch(store, 2);
    }
  }
}

TEST(DecodedColumnTest, ScansSurviveStoreMutations) {
  auto store = std::make_unique<SegmentStore>(TestSchema());
  TxnId txn = 10;
  Epoch epoch = 0;
  auto load = [&](std::vector<Row> rows) {
    ASSERT_TRUE(InsertRowsDirect(*store, txn, rows).ok());
    store->CommitTxn(txn++, ++epoch);
  };
  // One-row containers: every chunk payload is a short string.
  load({MakeRow(0, 0.25, "a", true)});
  ExpectAllScansMatch(*store, epoch);

  // Grow ros_ through three reallocations, scanning between loads so
  // every container moves with a warm cache.
  int reallocations = 0;
  for (int i = 1; reallocations < 3; ++i) {
    ASSERT_LT(i, 64);
    size_t capacity = store->ros_containers().capacity();
    const double score = i % 4 == 2   ? -0.0
                         : i % 4 == 3 ? std::numeric_limits<double>::quiet_NaN()
                                      : i / 8.0;
    load({MakeRow(i, score, i % 2 ? "b" : "cc", i % 3 == 0)});
    if (store->ros_containers().capacity() != capacity) ++reallocations;
    ExpectAllScansMatch(*store, epoch);
  }
  load(BoundaryRows(1500));
  ExpectAllScansMatch(*store, epoch);

  // Moveout appends a container built from committed WOS rows.
  ASSERT_TRUE(InsertRows(*store, txn, BoundaryRows(40)).ok());
  store->CommitTxn(txn++, ++epoch);
  ExpectAllScansMatch(*store, epoch);
  ASSERT_TRUE(store->Moveout().ok());
  ExpectAllScansMatch(*store, epoch);
  ExpectAllScansMatch(*store, epoch - 1);

  // Mergeout erases containers, shifting every later one.
  ASSERT_TRUE(store->MergeRosContainers({0, 2, 3}).ok());
  ExpectAllScansMatch(*store, epoch);

  // DELETE and UPDATE-style marks: the kernel path and the legacy path.
  ScanPredicate low_ids;
  low_ids.compares.push_back({0, CompareOp::kLt, false, 3, ""});
  ScanSpec spec;
  spec.as_of = epoch;
  spec.txn = txn;
  spec.predicate = &low_ids;
  LaneRows victims(store->schema());
  ASSERT_TRUE(store->MarkDeletedPending(spec, &victims).ok());
  EXPECT_GT(victims.num_rows, 0u);
  ExpectAllScansMatch(*store, epoch, txn);
  store->CommitTxn(txn++, ++epoch);
  ASSERT_TRUE(DeleteWhere(*store, txn, epoch, [](const Row& row) {
                return row[0].int64_value() % 2 == 1;
              }).ok());
  store->CommitTxn(txn++, ++epoch);
  ExpectAllScansMatch(*store, epoch);
  ExpectAllScansMatch(*store, epoch - 2);

  // Purge rebuilds the containers that held deleted rows in place.
  ASSERT_TRUE(store->PurgeDeletedRows(epoch).ok());
  ExpectAllScansMatch(*store, epoch);

  // Copies (k-safety recovery clones whole stores) decode from their
  // own payloads, and keep working after the original is gone.
  SegmentStore copy = *store;
  SegmentStore clone(TestSchema());
  clone.CopyContentsFrom(*store);
  ExpectAllScansMatch(*store, epoch);
  store.reset();
  ExpectAllScansMatch(copy, epoch);
  ExpectAllScansMatch(clone, epoch);
}

Row RandomStoreRow(Rng& rng) {
  static const char* const kNames[] = {"", "a", "bb", "ccc"};
  static const double kScores[] = {-1.5, -0.0, 0.0, 0.25, 2.0,
                                   std::numeric_limits<double>::quiet_NaN()};
  Row row = MakeRow(rng.NextInt64(0, 9), kScores[rng.NextUint64(6)],
                    kNames[rng.NextUint64(4)], rng.NextBool(0.5));
  for (Value& v : row) {
    if (rng.NextBool(0.15)) v = Value::Null();
  }
  return row;
}

void ExpectSameProfile(const DataProfile& got, const DataProfile& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.fields, want.fields);
  EXPECT_EQ(got.raw_bytes, want.raw_bytes);
  EXPECT_EQ(got.numeric_bytes, want.numeric_bytes);
  EXPECT_EQ(got.string_bytes, want.string_bytes);
}

// Both stores scan to the same rows and stats, except containers_scanned:
// a WOS unit adds nothing to it, a moved-out container one.
void ExpectSameScan(const SegmentStore& wos, const SegmentStore& ros,
                    const ScanSpec& spec) {
  ScanStats wos_stats;
  ScanStats ros_stats;
  auto from_wos = wos.Scan(spec, &wos_stats);
  auto from_ros = ros.Scan(spec, &ros_stats);
  ASSERT_TRUE(from_wos.ok()) << from_wos.status().ToString();
  ASSERT_TRUE(from_ros.ok()) << from_ros.status().ToString();
  EXPECT_EQ(RowKeys(from_wos->BoxRows()), RowKeys(from_ros->BoxRows()));
  EXPECT_EQ(wos_stats.rows_visible, ros_stats.rows_visible);
  EXPECT_EQ(wos_stats.rows_emitted, ros_stats.rows_emitted);
  ExpectSameProfile(wos_stats.visible_profile, ros_stats.visible_profile);
  ExpectSameProfile(wos_stats.output_profile, ros_stats.output_profile);
}

// Even-length names pass; reads only column 2.
Result<bool> EvenName(const Row& row) {
  return !row[2].is_null() && row[2].varchar_value().size() % 2 == 0;
}

// A store reads the same whether its rows sit in the WOS or were moved
// out: scans, counts, delete victims, fingerprints and purges. A LIMIT
// that fills inside a WOS unit stops the read at the row that fills it.
TEST(WosRosPropertyTest, StoreReadsAlikeInWosAndAfterMoveout) {
  const std::vector<int> all = {0, 1, 2, 3};
  const std::vector<int> some = {0, 3};
  const std::vector<int> name_only = {2};
  const std::vector<ScanPredicate> preds = CachePredicates();
  for (uint64_t seed : fabric::testing::PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    SegmentStore wos(TestSchema());
    SegmentStore ros(TestSchema());
    TxnId txn = 10;
    Epoch epoch = 0;
    auto commit_both = [&] {
      ++epoch;
      wos.CommitTxn(txn, epoch);
      ros.CommitTxn(txn, epoch);
      ++txn;
    };
    auto insert_both = [&](TxnId owner) {
      std::vector<Row> rows;
      int n = 1 + static_cast<int>(rng.NextUint64(40));
      for (int i = 0; i < n; ++i) rows.push_back(RandomStoreRow(rng));
      ASSERT_TRUE(InsertRows(wos, owner, rows).ok());
      ASSERT_TRUE(InsertRows(ros, owner, rows).ok());
    };
    auto delete_both = [&](TxnId owner) {
      int64_t cut = rng.NextInt64(0, 3);
      auto pred = [cut](const Row& row) {
        return !row[0].is_null() && row[0].int64_value() % 4 == cut;
      };
      auto from_wos = DeleteWhere(wos, owner, epoch, pred);
      auto from_ros = DeleteWhere(ros, owner, epoch, pred);
      ASSERT_TRUE(from_wos.ok() && from_ros.ok());
      EXPECT_EQ(*from_wos, *from_ros);
    };
    int loads = 2 + static_cast<int>(rng.NextUint64(5));
    for (int l = 0; l < loads; ++l) {
      insert_both(txn);
      commit_both();
      if (rng.NextBool(0.5)) {
        delete_both(txn);
        commit_both();
      }
    }
    // One open transaction: its insert and its delete marks stay pending
    // through the moveout.
    const TxnId open = txn++;
    insert_both(open);
    delete_both(open);
    ASSERT_TRUE(ros.Moveout().ok());
    ASSERT_EQ(wos.num_ros_containers(), 0);
    ASSERT_EQ(ros.num_ros_containers(), 1);
    ASSERT_EQ(ros.num_wos_batches(), 1);

    EXPECT_EQ(wos.ContentFingerprint(), ros.ContentFingerprint());
    for (Epoch as_of = 0; as_of <= epoch; ++as_of) {
      for (TxnId reader : {TxnId{0}, open}) {
        EXPECT_EQ(wos.CountVisible(as_of, reader).value(),
                  ros.CountVisible(as_of, reader).value());
      }
    }
    for (const ScanPredicate& pred : preds) {
      for (bool residual : {false, true}) {
        ScanSpec spec;
        spec.as_of = rng.NextUint64(epoch + 1);
        spec.txn = rng.NextBool(0.5) ? open : 0;
        spec.predicate = &pred;
        spec.cost_columns = rng.NextBool(0.5) ? &all : &some;
        spec.projection = rng.NextBool(0.5) ? &all : &some;
        if (residual) {
          spec.residual = EvenName;
          spec.residual_columns = &name_only;
        }
        ExpectSameScan(wos, ros, spec);
      }
    }

    // LIMIT inside a WOS unit: rows, visible-row stats and residual calls
    // end at the row that fills the cap (every row of `wos` is WOS).
    const std::vector<Row> visible = SnapshotRows(wos, epoch, open).value();
    for (const ScanPredicate& pred : preds) {
      std::vector<size_t> matched;
      for (size_t i = 0; i < visible.size(); ++i) {
        if (pred.Matches(visible[i]) && EvenName(visible[i]).value()) {
          matched.push_back(i);
        }
      }
      if (matched.empty()) continue;
      const int64_t limit =
          1 + static_cast<int64_t>(rng.NextUint64(matched.size()));
      const size_t cap_row = matched[limit - 1];
      DataProfile want_visible;
      int64_t want_calls = 0;
      for (size_t i = 0; i <= cap_row; ++i) {
        want_visible.Add(ProfileRow(visible[i]));
        if (pred.Matches(visible[i])) ++want_calls;
      }
      std::vector<Row> want_rows;
      for (int64_t k = 0; k < limit; ++k) {
        want_rows.push_back(visible[matched[k]]);
      }
      int64_t calls = 0;
      ScanSpec spec;
      spec.as_of = epoch;
      spec.txn = open;
      spec.predicate = &pred;
      spec.cost_columns = &all;
      spec.residual = [&calls](const Row& row) {
        ++calls;
        return EvenName(row);
      };
      spec.residual_columns = &name_only;
      spec.limit = limit;
      ScanStats stats;
      auto got = wos.Scan(spec, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(RowKeys(got->BoxRows()), RowKeys(want_rows));
      EXPECT_EQ(stats.rows_visible, static_cast<int64_t>(cap_row + 1));
      EXPECT_EQ(stats.rows_emitted, limit);
      ExpectSameProfile(stats.visible_profile, want_visible);
      ExpectSameProfile(stats.output_profile, ProfileRows(want_rows));
      EXPECT_EQ(calls, want_calls);
    }

    // The same rows become victims of the same delete, and a purge drops
    // the same rows, wherever they sit.
    ScanSpec del;
    del.as_of = epoch;
    del.txn = open;
    del.predicate = &preds[rng.NextUint64(preds.size())];
    del.residual = EvenName;
    del.residual_columns = &name_only;
    LaneRows wos_victims(wos.schema());
    LaneRows ros_victims(ros.schema());
    auto from_wos = wos.MarkDeletedPending(del, &wos_victims);
    auto from_ros = ros.MarkDeletedPending(del, &ros_victims);
    ASSERT_TRUE(from_wos.ok() && from_ros.ok());
    EXPECT_EQ(*from_wos, *from_ros);
    EXPECT_EQ(RowKeys(wos_victims.BoxRows()), RowKeys(ros_victims.BoxRows()));
    EXPECT_EQ(wos.ContentFingerprint(), ros.ContentFingerprint());
    txn = open;
    commit_both();
    auto purged_wos = wos.PurgeDeletedRows(epoch);
    auto purged_ros = ros.PurgeDeletedRows(epoch);
    ASSERT_TRUE(purged_wos.ok() && purged_ros.ok());
    EXPECT_EQ(*purged_wos, *purged_ros);
    EXPECT_EQ(wos.committed_deletes(), ros.committed_deletes());
    EXPECT_EQ(wos.ContentFingerprint(), ros.ContentFingerprint());
    EXPECT_EQ(wos.TotalRawBytes(), ros.TotalRawBytes());
    EXPECT_EQ(RowKeys(SnapshotRows(wos, epoch).value()),
              RowKeys(SnapshotRows(ros, epoch).value()));
  }
}

// A NaN compares equal to every number, so it passes `=`, `<=` and `>=`
// terms on any literal: min/max pruning must not skip a container or
// WOS unit holding one, wherever in it the NaN sits.
TEST(ScanPruningTest, NanRowsAreNeverPrunedAway) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> columns = {
      {nan, 0.25}, {0.25, nan}, {nan}};
  for (bool direct : {false, true}) {
    for (const std::vector<double>& scores : columns) {
      SegmentStore store(TestSchema());
      std::vector<Row> rows;
      for (double score : scores) rows.push_back(MakeRow(1, score, "a", true));
      ASSERT_TRUE((direct ? InsertRowsDirect(store, 10, rows)
                          : InsertRows(store, 10, rows))
                      .ok());
      store.CommitTxn(10, 1);
      for (CompareOp op : {CompareOp::kEq, CompareOp::kLe, CompareOp::kGe,
                           CompareOp::kLt, CompareOp::kNe}) {
        ScanPredicate pred;
        pred.compares.push_back({1, op, false, 7.0, ""});
        std::vector<Row> want;
        for (const Row& row : rows) {
          if (pred.Matches(row)) want.push_back(row);
        }
        ScanSpec spec;
        spec.as_of = 1;
        spec.predicate = &pred;
        ScanStats stats;
        auto got = store.Scan(spec, &stats);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(RowKeys(got->BoxRows()), RowKeys(want))
            << (direct ? "ROS " : "WOS ") << scores.size() << " rows, op "
            << static_cast<int>(op);
      }
    }
  }
}

// ------------------------------------------------ pending delete marks

// Every unit's delete marks, ROS then WOS, with the unit's owner.
struct UnitMarks {
  TxnId pending_txn;
  std::vector<DeleteMark> marks;
};
std::vector<UnitMarks> AllMarks(const SegmentStore& store) {
  std::vector<UnitMarks> out;
  for (const auto* units : {&store.ros_containers(), &store.wos_batches()}) {
    for (const RosContainer& unit : *units) {
      out.push_back({unit.pending_txn(), unit.delete_marks()});
    }
  }
  return out;
}

// CommitTxn and AbortTxn walk only the units holding pending delete
// marks. Random mixes of inserts, deletes, commits, aborts, moveouts and
// mergeouts over ROS and WOS must leave the marks and the committed-
// delete tally that resolving every mark of every unit leaves (the
// marks are what ContentFingerprint folds besides the rows).
TEST(PendingDeleteTest, ResolveMatchesFullWalk) {
  for (uint64_t seed : fabric::testing::PropertySeeds()) {
    Rng rng(seed);
    SegmentStore store(TestSchema());
    TxnId next_txn = 10;
    Epoch epoch = 1;
    std::vector<TxnId> open;
    int64_t committed_deletes = 0;
    for (int step = 0; step < 300; ++step) {
      const int64_t op = rng.NextInt64(0, 6);
      if (op <= 1 || open.empty()) {  // insert under a new transaction
        std::vector<Row> rows;
        for (int i = 0; i < 1 + rng.NextInt64(0, 6); ++i) {
          rows.push_back(MakeRow(rng.NextInt64(0, 20), rng.NextDouble(),
                                 rng.NextBool(0.5) ? "a" : "bb", true));
        }
        const TxnId txn = next_txn++;
        ASSERT_TRUE((rng.NextBool(0.5) ? InsertRowsDirect(store, txn, rows)
                                       : InsertRows(store, txn, rows))
                        .ok());
        open.push_back(txn);
        continue;
      }
      const size_t pick = static_cast<size_t>(
          rng.NextInt64(0, static_cast<int64_t>(open.size()) - 1));
      const TxnId txn = open[pick];
      if (op == 2) {  // delete some rows visible to an open transaction
        const int64_t mod = 1 + rng.NextInt64(0, 3);
        const int64_t rem = rng.NextInt64(0, mod - 1);
        ASSERT_TRUE(DeleteWhere(store, txn, epoch, [&](const Row& row) {
                      return row[0].int64_value() % mod == rem;
                    }).ok());
      } else if (op == 3) {  // commit or abort it, against a full walk
        const bool abort = rng.NextBool(0.3);
        if (!abort) ++epoch;
        std::vector<UnitMarks> want;
        for (UnitMarks unit : AllMarks(store)) {
          if (abort && unit.pending_txn == txn) continue;
          for (DeleteMark& mark : unit.marks) {
            if (mark.state != DeleteMark::State::kPending ||
                mark.txn != txn) {
              continue;
            }
            if (abort) {
              mark = DeleteMark{};
            } else {
              mark = DeleteMark{DeleteMark::State::kCommitted, epoch, 0};
              ++committed_deletes;
            }
          }
          want.push_back(std::move(unit));
        }
        if (abort) {
          store.AbortTxn(txn);
        } else {
          store.CommitTxn(txn, epoch);
        }
        open.erase(open.begin() + static_cast<long>(pick));
        std::vector<UnitMarks> got = AllMarks(store);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (size_t u = 0; u < got.size(); ++u) {
          ASSERT_EQ(got[u].marks.size(), want[u].marks.size());
          for (size_t i = 0; i < got[u].marks.size(); ++i) {
            const DeleteMark& g = got[u].marks[i];
            const DeleteMark& w = want[u].marks[i];
            ASSERT_TRUE(g.state == w.state && g.epoch == w.epoch &&
                        g.txn == w.txn)
                << "seed " << seed << " step " << step << " unit " << u
                << " row " << i;
          }
        }
        ASSERT_EQ(store.committed_deletes(), committed_deletes);
      } else if (op == 4) {
        ASSERT_TRUE(store.Moveout().ok());
      } else {  // merge the committed ROS containers
        std::vector<int> committed;
        for (int i = 0; i < store.num_ros_containers(); ++i) {
          if (store.ros_containers()[i].committed()) committed.push_back(i);
        }
        ASSERT_TRUE(store.MergeRosContainers(committed).ok());
      }
    }
    // The marks carried through moveout and mergeout still resolve: with
    // every transaction committed no mark is pending, and a purge drops
    // exactly the tallied deletes.
    for (TxnId txn : open) store.CommitTxn(txn, ++epoch);
    for (const UnitMarks& unit : AllMarks(store)) {
      for (const DeleteMark& mark : unit.marks) {
        EXPECT_NE(mark.state, DeleteMark::State::kPending);
      }
    }
    const int64_t deleted = store.committed_deletes();
    auto purged = store.PurgeDeletedRows(epoch);
    ASSERT_TRUE(purged.ok()) << purged.status();
    EXPECT_EQ(*purged, deleted) << "seed " << seed;
  }
}

// ------------------------------------------------ encode on first read

// Every column of `rows` as typed lanes (varchar slots alias `rows`).
LaneViewRows LanesOf(const Schema& schema, const std::vector<Row>& rows) {
  Result<LaneViewRows> lanes = FromRows(schema, rows);
  FABRIC_CHECK(lanes.ok()) << lanes.status();
  return std::move(*lanes);
}

// A container holds its lanes until the first read, then encodes them:
// chunk bytes, encodings, bounds and encoded size are EncodeLanes' on
// the same lanes whichever accessor reads first. Bounds alone are
// measured without encoding. The lanes own their strings: the rows they
// were unboxed from are gone before the first read.
TEST(LazyEncodingTest, FirstReadEncodesLikeEncodeLanesProperty) {
  const Schema schema = RebuildSchema();
  const int num_columns = schema.num_columns();
  for (uint64_t seed : fabric::testing::PropertySeeds()) {
    Rng rng(seed);
    for (int mode = 0; mode < 3; ++mode) {  // auto, forced, all PLAIN
      for (int first = 0; first < 3; ++first) {
        SCOPED_TRACE(StrCat("seed ", seed, " mode ", mode, " first ", first));
        std::vector<Row> rows(rng.NextUint64(1300));
        double raw_bytes = 0;
        for (Row& row : rows) {
          row = RandomRebuildRow(rng);
          if (rng.NextBool(0.2)) row[2] = Value::Varchar(std::string(24, 'v'));
          raw_bytes += ProfileRow(row).raw_bytes;
        }
        std::vector<Encoding> encodings;
        for (int c = 0; mode > 0 && c < num_columns; ++c) {
          encodings.push_back(mode == 2 ? Encoding::kPlain
                                        : static_cast<Encoding>(
                                              rng.NextUint64(3)));
        }
        const std::vector<Encoding>* forced =
            mode > 0 ? &encodings : nullptr;
        LaneViewRows lanes = LanesOf(schema, rows);
        std::vector<ColumnChunk> want;
        std::vector<ColumnBounds> want_bounds(num_columns);
        double want_bytes = 0;
        for (int c = 0; c < num_columns; ++c) {
          auto chunk =
              EncodeLanes(lanes.columns[c], mode > 0 ? &encodings[c] : nullptr,
                          &want_bounds[c]);
          ASSERT_TRUE(chunk.ok());
          want_bytes += chunk->encoded_bytes();
          want.push_back(*std::move(chunk));
        }
        auto container = RosContainer::CreateFromColumns(
            schema, std::move(lanes), raw_bytes, /*pending_txn=*/1, forced);
        ASSERT_TRUE(container.ok());
        rows = {};
        ASSERT_FALSE(container->encoded());
        ASSERT_NE(container->lanes(), nullptr);
        if (first == 0) {
          for (int c = 0; c < num_columns; ++c) {
            EXPECT_TRUE(SameBound(container->min_value(c), want_bounds[c].min));
            EXPECT_TRUE(SameBound(container->max_value(c), want_bounds[c].max));
          }
          EXPECT_FALSE(container->encoded());
        } else if (first == 2) {
          EXPECT_EQ(container->encoded_bytes(), want_bytes);
          EXPECT_TRUE(container->encoded());
        }
        for (int c = 0; c < num_columns; ++c) {
          EXPECT_EQ(container->column(c).encoding, want[c].encoding) << c;
          EXPECT_EQ(container->column(c).data, want[c].data) << c;
          EXPECT_TRUE(SameBound(container->min_value(c), want_bounds[c].min));
          EXPECT_TRUE(SameBound(container->max_value(c), want_bounds[c].max));
        }
        EXPECT_TRUE(container->encoded());
        EXPECT_EQ(container->lanes(), nullptr);
        EXPECT_EQ(container->encoded_bytes(), want_bytes);
      }
    }
  }
}

// Emits every column of every visible row of `store`, which encodes each
// of its containers and WOS units.
void ReadEverything(const SegmentStore& store, Epoch as_of) {
  std::vector<int> all(static_cast<size_t>(store.schema().num_columns()));
  std::iota(all.begin(), all.end(), 0);
  ScanSpec spec;
  spec.as_of = as_of;
  spec.cost_columns = &all;
  ScanStats stats;
  ASSERT_TRUE(store.Scan(spec, &stats).ok());
}

// Both stores hold the same containers, byte for byte, with the same
// epochs and marks. Compares copies, which encode on their own and leave
// the stores' containers as they were.
void ExpectSameStores(const SegmentStore& got, const SegmentStore& want) {
  ASSERT_EQ(got.num_ros_containers(), want.num_ros_containers());
  ASSERT_EQ(got.num_wos_batches(), want.num_wos_batches());
  for (int k = 0; k < got.num_ros_containers(); ++k) {
    SCOPED_TRACE(StrCat("container ", k));
    const RosContainer got_copy = got.ros_containers()[k];
    const RosContainer want_copy = want.ros_containers()[k];
    ExpectSameContainer(got_copy, want_copy, got.schema().num_columns());
    for (uint32_t i = 0; i < got_copy.num_rows(); ++i) {
      ASSERT_EQ(got_copy.row_epoch(i), want_copy.row_epoch(i)) << i;
      ASSERT_EQ(got_copy.delete_marks()[i].state,
                want_copy.delete_marks()[i].state)
          << i;
      ASSERT_EQ(got_copy.delete_marks()[i].epoch,
                want_copy.delete_marks()[i].epoch)
          << i;
    }
  }
  EXPECT_EQ(got.ContentFingerprint(), want.ContentFingerprint());
  EXPECT_EQ(got.committed_deletes(), want.committed_deletes());
}

bool AllUnencoded(const SegmentStore& store) {
  for (const auto* units : {&store.ros_containers(), &store.wos_batches()}) {
    for (const RosContainer& unit : *units) {
      if (unit.encoded()) return false;
    }
  }
  return true;
}

// Moveout, mergeout and purge gather a never-read unit's own lanes and
// an encoded one's decoded chunks; either way they build the same
// containers. Their outputs stay unencoded until something reads them.
TEST(LazyEncodingTest, TupleMoverOutputIgnoresWhetherInputsWereRead) {
  std::vector<PhysicalDesign> designs(3);
  designs[1].sort_columns = {2, 0};
  designs[2].sort_columns = {1, 0, 3};
  designs[2].encodings = {Encoding::kRle, Encoding::kDictionary,
                          Encoding::kRle, Encoding::kPlain,
                          Encoding::kDictionary};
  for (uint64_t seed : fabric::testing::PropertySeeds()) {
    for (size_t d = 0; d < designs.size(); ++d) {
      SCOPED_TRACE(StrCat("seed ", seed, " design ", d));
      SegmentStore lazy(RebuildSchema(), designs[d]);
      SegmentStore read(RebuildSchema(), designs[d]);
      Rng rng(seed * 17 + d);
      std::vector<Row> victims;
      Epoch epoch = 0;
      auto load = [&](TxnId txn, bool direct) {
        std::vector<Row> rows(1 + rng.NextUint64(direct ? 1200 : 300));
        for (Row& row : rows) {
          row = RandomRebuildRow(rng);
          if (rng.NextBool(0.1)) victims.push_back(row);
        }
        ++epoch;
        for (SegmentStore* store : {&lazy, &read}) {
          ASSERT_TRUE((direct ? InsertRowsDirect(*store, txn, rows)
                              : InsertRows(*store, txn, rows))
                          .ok());
          store->CommitTxn(txn, epoch);
        }
      };
      TxnId txn = 10;
      for (int i = 0; i < 3; ++i) load(txn++, /*direct=*/true);
      for (int i = 0; i < 2; ++i) load(txn++, /*direct=*/false);
      EXPECT_TRUE(AllUnencoded(lazy));

      ReadEverything(read, epoch);
      ASSERT_TRUE(lazy.Moveout().ok());
      ASSERT_TRUE(read.Moveout().ok());
      EXPECT_FALSE(lazy.ros_containers().back().encoded());
      ExpectSameStores(lazy, read);

      // Deletes by content read rows but encode nothing.
      for (SegmentStore* store : {&lazy, &read}) {
        ASSERT_TRUE(DeleteRowsByContent(*store, txn, epoch, victims).ok());
        store->CommitTxn(txn, epoch + 1);
      }
      ++txn;
      ++epoch;
      load(txn++, /*direct=*/true);
      EXPECT_TRUE(AllUnencoded(lazy));

      ReadEverything(read, epoch);
      std::vector<int> all(static_cast<size_t>(lazy.num_ros_containers()));
      std::iota(all.begin(), all.end(), 0);
      ASSERT_TRUE(lazy.MergeRosContainers(all).ok());
      ASSERT_TRUE(read.MergeRosContainers(all).ok());
      EXPECT_TRUE(AllUnencoded(lazy));
      ExpectSameStores(lazy, read);

      ReadEverything(read, epoch);
      auto lazy_purged = lazy.PurgeDeletedRows(epoch);
      auto read_purged = read.PurgeDeletedRows(epoch);
      ASSERT_TRUE(lazy_purged.ok() && read_purged.ok());
      EXPECT_EQ(*lazy_purged, *read_purged);
      EXPECT_TRUE(AllUnencoded(lazy));
      ExpectSameStores(lazy, read);
    }
  }
}

// k-safety recovery clones whole stores, unencoded containers included:
// the clone shares their lanes. It must scan and fingerprint as the
// source did after the source's containers are encoded, merged away and
// destroyed (under the sanitizers, a clone reading freed source memory
// fails here).
TEST(LazyEncodingTest, ClonedUnencodedStoreOutlivesItsSource) {
  for (uint64_t seed : fabric::testing::PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    auto source = std::make_unique<SegmentStore>(TestSchema());
    std::vector<Row> victims;
    TxnId txn = 10;
    Epoch epoch = 0;
    for (int load = 0; load < 6; ++load, ++txn) {
      std::vector<Row> rows(1 + rng.NextUint64(400));
      for (Row& row : rows) {
        row = RandomStoreRow(rng);
        if (rng.NextBool(0.3)) row[2] = Value::Varchar(std::string(30, 'w'));
        if (rng.NextBool(0.05)) victims.push_back(row);
      }
      ASSERT_TRUE((load < 4 ? InsertRowsDirect(*source, txn, rows)
                            : InsertRows(*source, txn, rows))
                      .ok());
      source->CommitTxn(txn, ++epoch);
    }
    ASSERT_TRUE(DeleteRowsByContent(*source, txn, epoch, victims).ok());
    source->CommitTxn(txn++, ++epoch);
    ASSERT_TRUE(AllUnencoded(*source));
    const uint64_t fingerprint = source->ContentFingerprint();
    const std::vector<Row> want = SnapshotRows(*source, epoch).value();

    SegmentStore clone(TestSchema());
    clone.CopyContentsFrom(*source);
    EXPECT_TRUE(AllUnencoded(clone));
    ExpectAllScansMatch(*source, epoch);
    ASSERT_TRUE(source->Moveout().ok());
    ASSERT_TRUE(source->MergeRosContainers({0, 1, 2, 3, 4}).ok());
    source.reset();

    EXPECT_TRUE(AllUnencoded(clone));
    EXPECT_EQ(clone.ContentFingerprint(), fingerprint);
    EXPECT_EQ(RowKeys(SnapshotRows(clone, epoch).value()), RowKeys(want));
    ExpectAllScansMatch(clone, epoch);
    ExpectAllScansMatch(clone, epoch - 3);
    ASSERT_TRUE(clone.Moveout().ok());
    ASSERT_TRUE(clone.MergeRosContainers({0, 1, 2, 3, 4}).ok());
    EXPECT_EQ(clone.ContentFingerprint(), fingerprint);
    ExpectAllScansMatch(clone, epoch);
  }
}

// A mergeout of never-read units leaves its output unencoded, and so do
// the reads that need no column: counts, fingerprints, raw sizes. The
// first scan encodes what it reads.
TEST(LazyEncodingTest, MergeoutOfUnreadUnitsStaysUnencoded) {
  SegmentStore store(TestSchema());
  for (TxnId txn = 10; txn < 13; ++txn) {
    ASSERT_TRUE(InsertRowsDirect(store, txn, {MakeRow(txn, 0.5, "a", true),
                                               MakeRow(1, -0.0, "bb", false)})
                    .ok());
    store.CommitTxn(txn, txn);
  }
  ASSERT_TRUE(InsertRows(store, 13, {MakeRow(4, 2.0, "c", true)}).ok());
  store.CommitTxn(13, 13);
  ASSERT_TRUE(store.Moveout().ok());
  ASSERT_TRUE(store.MergeRosContainers({0, 1, 2, 3}).ok());
  ASSERT_EQ(store.num_ros_containers(), 1);
  const RosContainer& merged = store.ros_containers()[0];
  EXPECT_FALSE(merged.encoded());
  EXPECT_EQ(store.CountVisible(13).value(), 7);
  EXPECT_NE(store.ContentFingerprint(), 0u);
  EXPECT_EQ(store.TotalRawBytes(), 7 * 17 + 3 * 1 + 3 * 2 + 1);
  EXPECT_FALSE(merged.encoded());
  ReadEverything(store, 13);
  EXPECT_TRUE(merged.encoded());
}

// ------------------------------------------- lane reads vs boxed rows

// The rows `txn` holds pending delete marks on, as (WOS?, unit index,
// row) in storage order.
std::vector<std::tuple<bool, size_t, uint32_t>> PendingMarks(
    const SegmentStore& store, TxnId txn) {
  std::vector<std::tuple<bool, size_t, uint32_t>> marks;
  for (const auto* units : {&store.ros_containers(), &store.wos_batches()}) {
    for (size_t k = 0; k < units->size(); ++k) {
      const std::vector<DeleteMark>& unit = (*units)[k].delete_marks();
      for (uint32_t i = 0; i < unit.size(); ++i) {
        if (unit[i].state == DeleteMark::State::kPending &&
            unit[i].txn == txn) {
          marks.emplace_back(units == &store.wos_batches(), k, i);
        }
      }
    }
  }
  return marks;
}

// Whether each unit is encoded, in storage order.
std::vector<bool> EncodedFlags(const SegmentStore& store) {
  std::vector<bool> flags;
  for (const auto* units : {&store.ros_containers(), &store.wos_batches()}) {
    for (const RosContainer& unit : *units) flags.push_back(unit.encoded());
  }
  return flags;
}

// The by-content delete and the content fingerprint read lanes (a
// never-read unit's own, an encoded one's decoded chunks); both must
// agree with the boxed reference in scan_reference.h, which decodes
// every unit into Values: the fingerprint fold over boxed rows, and
// the first-unconsumed-match delete on RowKey. The stores mix never-read
// and encoded units, DIRECT and WOS loads, sorted and unsorted designs,
// over NULLs, NaNs of both signs, -0.0 beside 0.0, varchars and
// duplicate rows; some victims match nothing, and older snapshots hide
// later loads. Neither read encodes a unit.
TEST(LaneContentTest, ByContentDeleteAndFingerprintMatchBoxedRowsProperty) {
  std::vector<PhysicalDesign> designs(2);
  designs[1].sort_columns = {1, 2};
  for (uint64_t seed : fabric::testing::PropertySeeds()) {
    for (size_t d = 0; d < designs.size(); ++d) {
      SCOPED_TRACE(StrCat("seed ", seed, " design ", d));
      Rng rng(seed * 31 + d);
      SegmentStore store(RebuildSchema(), designs[d]);
      std::vector<Row> loaded;
      TxnId txn = 10;
      Epoch epoch = 0;
      for (int load = 0; load < 8; ++load, ++txn) {
        std::vector<Row> rows(1 + rng.NextUint64(120));
        for (Row& row : rows) {
          row = !loaded.empty() && rng.NextBool(0.3)
                    ? loaded[rng.NextUint64(loaded.size())]
                    : RandomRebuildRow(rng);
        }
        loaded.insert(loaded.end(), rows.begin(), rows.end());
        ASSERT_TRUE((load % 3 == 0 ? InsertRows(store, txn, rows)
                                   : InsertRowsDirect(store, txn, rows))
                        .ok());
        store.CommitTxn(txn, ++epoch);
      }
      // Every other unit is read, which encodes it.
      size_t k = 0;
      for (const auto* units :
           {&store.ros_containers(), &store.wos_batches()}) {
        for (const RosContainer& unit : *units) {
          if (k++ % 2 == 0) unit.encoded_bytes();
        }
      }
      const std::vector<bool> encoded = EncodedFlags(store);
      EXPECT_EQ(store.ContentFingerprint(), ReferenceFingerprint(store));

      for (int round = 0; round < 3; ++round, ++txn) {
        std::vector<Row> victims(rng.NextUint64(80));
        for (Row& row : victims) {
          row = rng.NextBool(0.8) ? loaded[rng.NextUint64(loaded.size())]
                                  : RandomRebuildRow(rng);
        }
        const Epoch as_of = epoch - rng.NextUint64(3);
        auto want = ReferenceDeleteByContent(store, txn, as_of, victims);
        ASSERT_TRUE(want.ok()) << want.status();
        auto marked = DeleteRowsByContent(store, txn, as_of, victims);
        ASSERT_TRUE(marked.ok()) << marked.status();
        EXPECT_EQ(*marked, static_cast<int64_t>(want->size()));
        EXPECT_EQ(PendingMarks(store, txn), *want);
        EXPECT_EQ(store.ContentFingerprint(), ReferenceFingerprint(store));
        store.CommitTxn(txn, ++epoch);
        EXPECT_EQ(store.ContentFingerprint(), ReferenceFingerprint(store));
      }
      EXPECT_EQ(EncodedFlags(store), encoded);
    }
  }
}

// DeleteProjectionRows keys an owner segment's victims once and marks
// them on every copy. Buddy copies apply the same loads, so one key set
// must mark the same positions on each, whether a unit was read
// (encoded) on one copy and never read on the other, and those must be
// the boxed reference's positions.
TEST(LaneContentTest, BuddyCopiesMarkIdenticalPositionsFromOneKeySet) {
  for (uint64_t seed : fabric::testing::PropertySeeds()) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    SegmentStore first(RebuildSchema(), PhysicalDesign{});
    SegmentStore buddy(RebuildSchema(), PhysicalDesign{});
    std::vector<Row> loaded;
    TxnId txn = 10;
    Epoch epoch = 0;
    for (int load = 0; load < 6; ++load, ++txn) {
      std::vector<Row> rows(1 + rng.NextUint64(60));
      for (Row& row : rows) {
        row = !loaded.empty() && rng.NextBool(0.4)
                  ? loaded[rng.NextUint64(loaded.size())]
                  : RandomRebuildRow(rng);
      }
      loaded.insert(loaded.end(), rows.begin(), rows.end());
      for (SegmentStore* store : {&first, &buddy}) {
        ASSERT_TRUE((load % 2 == 0 ? InsertRows(*store, txn, rows)
                                   : InsertRowsDirect(*store, txn, rows))
                        .ok());
        store->CommitTxn(txn, epoch + 1);
      }
      ++epoch;
    }
    for (const RosContainer& unit : first.ros_containers()) {
      unit.encoded_bytes();  // read on one copy only
    }
    for (int round = 0; round < 3; ++round, ++txn) {
      std::vector<Row> victims(1 + rng.NextUint64(40));
      for (Row& row : victims) {
        row = rng.NextBool(0.9) ? loaded[rng.NextUint64(loaded.size())]
                                : RandomRebuildRow(rng);
      }
      auto want = ReferenceDeleteByContent(first, txn, epoch, victims);
      ASSERT_TRUE(want.ok()) << want.status();
      auto lanes = FromRows(RebuildSchema(), victims);
      ASSERT_TRUE(lanes.ok()) << lanes.status();
      const VictimKeys keys(*lanes);
      for (SegmentStore* store : {&first, &buddy}) {
        auto marked = store->MarkDeletedPendingByContent(txn, epoch, keys);
        ASSERT_TRUE(marked.ok()) << marked.status();
        EXPECT_EQ(*marked, static_cast<int64_t>(want->size()));
        EXPECT_EQ(PendingMarks(*store, txn), *want);
        store->CommitTxn(txn, epoch + 1);
      }
      ++epoch;
      EXPECT_EQ(first.ContentFingerprint(), buddy.ContentFingerprint());
    }
  }
}

}  // namespace
}  // namespace fabric::storage
