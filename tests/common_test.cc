#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "exec/hash_aggregate.h"
#include "storage/value.h"

namespace fabric {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such table 't'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such table 't'");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(AbortedError("x").code(), StatusCode::kAborted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(CancelledError("x").code(), StatusCode::kCancelled);
}

Status FailIfNegative(int x) {
  if (x < 0) return InvalidArgumentError("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  FABRIC_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(3).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return OutOfRangeError("not positive");
  return x * 2;
}

Result<int> UsesAssignOrReturn(int x) {
  FABRIC_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = ParsePositive(0);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(UsesAssignOrReturn(5).value(), 11);
  EXPECT_EQ(UsesAssignOrReturn(-5).status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(HashInt64(42), HashInt64(42));
  EXPECT_EQ(HashBytes("hello"), HashBytes("hello"));
  EXPECT_NE(HashBytes("hello"), HashBytes("hellp"));
}

TEST(HashTest, NegativeZeroEqualsPositiveZero) {
  EXPECT_EQ(HashDouble(0.0), HashDouble(-0.0));
}

TEST(HashTest, CombineIsOrderSensitive) {
  uint64_t ab = HashCombine(HashInt64(1), HashInt64(2));
  uint64_t ba = HashCombine(HashInt64(2), HashInt64(1));
  EXPECT_NE(ab, ba);
}

TEST(HashTest, RingDistributionIsRoughlyUniform) {
  // Bucket 100k hashed ints into 16 ring ranges; each bucket should hold
  // close to 1/16 of the keys. This is the property hash segmentation
  // relies on for "minimal data skew" (Section 3.1.2).
  constexpr int kKeys = 100000;
  constexpr int kBuckets = 16;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kKeys; ++i) {
    uint64_t h = HashInt64(i);
    counts[static_cast<int>(h / (UINT64_MAX / kBuckets + 1))]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, kKeys / kBuckets * 0.9);
    EXPECT_LT(c, kKeys / kBuckets * 1.1);
  }
}

TEST(RngTest, SeedsAreReproducible) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedDrawsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    int64_t v = rng.NextInt64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(99);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.3);
  EXPECT_GT(heads, 2700);
  EXPECT_LT(heads, 3300);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

TEST(StringUtilTest, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, CaseAndTrim) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("hash"), "HASH");
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_TRUE(StartsWith("v_catalog.nodes", "v_catalog."));
  EXPECT_TRUE(EndsWith("staging_tbl", "_tbl"));
}

TEST(StringUtilTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("n=", 42, ", f=", 1.5), "n=42, f=1.5");
}

// ------------------------------------------------ formatting references
//
// StrCat and Value::AppendDisplayString format through std::to_chars.
// These references are the stream and printf spellings they replaced;
// every key, trace and output row depends on the two agreeing exactly.

template <typename... Args>
std::string StreamStrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

std::string PrintfDisplayString(const storage::Value& v) {
  if (v.is_null()) return "NULL";
  switch (v.type()) {
    case storage::DataType::kBool:
      return v.bool_value() ? "true" : "false";
    case storage::DataType::kInt64:
      return StreamStrCat(v.int64_value());
    case storage::DataType::kFloat64: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.float64_value());
      return buf;
    }
    case storage::DataType::kVarchar:
      return v.varchar_value();
  }
  return "NULL";
}

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Edge doubles (signed NaN and infinities, signed zero, subnormals,
// limits, rounding boundaries of both precisions), seeded uniform and
// scaled doubles, and random bit patterns (NaN payloads included).
std::vector<double> FormattingDoubles() {
  std::vector<double> out = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      DoubleFromBits(0x7ff0000000000001ULL),  // signalling NaN
      DoubleFromBits(0xfff0000000000001ULL),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0, -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DoubleFromBits(0x000fffffffffffffULL),  // largest subnormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      0.1, 0.5, 1.0, 1.5, 2.5, -7.0, 123.456, 1e-7, 1e15, 1e16, 1e17,
      999999.5, 9999995.0, 0.0001, 0.00001, 1.5e300, 9007199254740993.0,
  };
  Rng rng(20160626);
  for (int i = 0; i < 100000; ++i) out.push_back(rng.NextDouble());
  for (int i = 0; i < 100000; ++i) {
    const double scale = DoubleFromBits(
        static_cast<uint64_t>(rng.NextInt64(1, 2046)) << 52);
    out.push_back((rng.NextDouble() - 0.5) * scale);
  }
  for (int i = 0; i < 200000; ++i) {
    out.push_back(DoubleFromBits(rng.NextUint64()));
  }
  return out;
}

std::vector<int64_t> FormattingInt64s() {
  std::vector<int64_t> out = {0,
                              1,
                              -1,
                              9,
                              10,
                              -10,
                              std::numeric_limits<int64_t>::max(),
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max() - 1,
                              std::numeric_limits<int64_t>::min() + 1};
  Rng rng(1958);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t bits = rng.NextUint64();
    // Spread over every magnitude, not just 19-digit values.
    out.push_back(static_cast<int64_t>(bits >> rng.NextUint64(64)));
    out.push_back(static_cast<int64_t>(bits));
  }
  return out;
}

TEST(FormattingReferenceTest, StrCatMatchesStreamOnIntegers) {
  for (int64_t v : FormattingInt64s()) {
    ASSERT_EQ(StrCat(v), StreamStrCat(v)) << v;
    const auto u = static_cast<uint64_t>(v);
    ASSERT_EQ(StrCat(u), StreamStrCat(u)) << u;
    const auto i32 = static_cast<int32_t>(v);
    ASSERT_EQ(StrCat(i32), StreamStrCat(i32)) << i32;
    const auto u16 = static_cast<uint16_t>(v);
    ASSERT_EQ(StrCat(u16), StreamStrCat(u16)) << u16;
  }
  // bool and the char types keep their stream spellings.
  EXPECT_EQ(StrCat(true, false), StreamStrCat(true, false));
  EXPECT_EQ(StrCat('x', static_cast<signed char>('y'),
                   static_cast<unsigned char>('z')),
            StreamStrCat('x', static_cast<signed char>('y'),
                         static_cast<unsigned char>('z')));
}

TEST(FormattingReferenceTest, StrCatMatchesStreamOnDoubles) {
  for (double d : FormattingDoubles()) {
    ASSERT_EQ(StrCat(d), StreamStrCat(d)) << std::hexfloat << d;
    const auto f = static_cast<float>(d);
    ASSERT_EQ(StrCat(f), StreamStrCat(f)) << std::hexfloat << f;
  }
}

TEST(FormattingReferenceTest, StrCatMatchesStreamOnMixedPieces) {
  const std::string owned = "owned";
  const std::string_view view = "view";
  const char* c_string = "c-string";
  EXPECT_EQ(StrCat("lit ", owned, ' ', view, c_string, -3, 2.5f, 1e300,
                   static_cast<size_t>(7)),
            StreamStrCat("lit ", owned, ' ', view, c_string, -3, 2.5f,
                         1e300, static_cast<size_t>(7)));
  // Other streamables fall back to their operator<<.
  const Status status = NotFoundError("no such table 't'");
  EXPECT_EQ(StrCat("failed: ", status), StreamStrCat("failed: ", status));
  EXPECT_EQ(StrCat(), "");
}

TEST(FormattingReferenceTest, DisplayStringMatchesPrintf) {
  for (double d : FormattingDoubles()) {
    const storage::Value v = storage::Value::Float64(d);
    ASSERT_EQ(v.ToDisplayString(), PrintfDisplayString(v))
        << std::hexfloat << d;
  }
  for (int64_t i : FormattingInt64s()) {
    const storage::Value v = storage::Value::Int64(i);
    ASSERT_EQ(v.ToDisplayString(), PrintfDisplayString(v)) << i;
  }
  for (const storage::Value& v :
       {storage::Value::Null(), storage::Value::Bool(true),
        storage::Value::Bool(false), storage::Value::Varchar(""),
        storage::Value::Varchar("it's \x01 raw")}) {
    EXPECT_EQ(v.ToDisplayString(), PrintfDisplayString(v));
  }
  // AppendDisplayString appends; it never clears the buffer.
  std::string buf = "prefix:";
  storage::Value::Int64(-42).AppendDisplayString(&buf);
  storage::Value::Float64(0.1).AppendDisplayString(&buf);
  EXPECT_EQ(buf, "prefix:-420.10000000000000001");
}

TEST(FormattingReferenceTest, AppendGroupKeyMatchesGroupKey) {
  Rng rng(77);
  const std::vector<double> doubles = FormattingDoubles();
  const std::vector<int64_t> ints = FormattingInt64s();
  std::string buf;
  for (int trial = 0; trial < 20000; ++trial) {
    storage::Row row;
    const int width = static_cast<int>(rng.NextInt64(1, 5));
    for (int c = 0; c < width; ++c) {
      switch (rng.NextInt64(0, 4)) {
        case 0:
          row.push_back(storage::Value::Null());
          break;
        case 1:
          row.push_back(storage::Value::Bool(rng.NextBool(0.5)));
          break;
        case 2:
          row.push_back(storage::Value::Int64(
              ints[rng.NextUint64(ints.size())]));
          break;
        case 3:
          row.push_back(storage::Value::Float64(
              doubles[rng.NextUint64(doubles.size())]));
          break;
        default:
          row.push_back(storage::Value::Varchar(
              rng.NextString(static_cast<int>(rng.NextInt64(0, 6)))));
          break;
      }
    }
    std::vector<int> cols;
    for (int c = 0; c < width; ++c) {
      if (rng.NextBool(0.7)) cols.push_back(c);
    }
    std::string want;
    for (int c : cols) {
      want += row[c].is_null() ? std::string("\x01")
                               : PrintfDisplayString(row[c]);
      want += '\x02';
    }
    ASSERT_EQ(exec::GroupKey(row, cols), want);
    // A reused buffer: cleared by the caller, appended by the encoder.
    buf.clear();
    exec::AppendGroupKey(row, cols, &buf);
    ASSERT_EQ(buf, want);
  }
}

TEST(StringUtilTest, HumanFormats) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
  EXPECT_EQ(HumanCount(100000000), "100M");
  EXPECT_EQ(HumanCount(1460000000), "1.46B");
}

TEST(StringUtilTest, ParseNumbers) {
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64(" -42 ", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64("4x", &i));
  EXPECT_FALSE(ParseInt64("", &i));
  double d = 0;
  EXPECT_TRUE(ParseDouble("2.5", &d));
  EXPECT_EQ(d, 2.5);
  EXPECT_FALSE(ParseDouble("2.5z", &d));
}

TEST(CsvTest, RoundTripSimple) {
  std::vector<std::string> fields = {"1", "hello", "2.5"};
  auto decoded = CsvDecodeRecord(CsvEncodeRecord(fields));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, fields);
}

TEST(CsvTest, RoundTripQuoting) {
  std::vector<std::string> fields = {"a,b", "say \"hi\"", "", "line\nbreak"};
  auto decoded = CsvDecodeRecord(CsvEncodeRecord(fields));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, fields);
}

TEST(CsvTest, RejectsUnbalancedQuote) {
  EXPECT_FALSE(CsvDecodeRecord("\"abc").ok());
}

TEST(CsvTest, EmptyLineIsOneEmptyField) {
  auto decoded = CsvDecodeRecord("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0], "");
}

// Property sweep: CSV round-trips arbitrary generated records.
class CsvPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvPropertyTest, RoundTripsRandomRecords) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::string> fields;
    int n = 1 + static_cast<int>(rng.NextUint64(8));
    for (int i = 0; i < n; ++i) {
      std::string f = rng.NextString(static_cast<int>(rng.NextUint64(20)));
      // Sprinkle in CSV-hostile characters.
      if (rng.NextBool(0.3)) f += ',';
      if (rng.NextBool(0.3)) f += '"';
      if (rng.NextBool(0.2)) f += '\n';
      fields.push_back(f);
    }
    auto decoded = CsvDecodeRecord(CsvEncodeRecord(fields));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, fields);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace fabric
