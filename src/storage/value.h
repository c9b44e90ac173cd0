#ifndef FABRIC_STORAGE_VALUE_H_
#define FABRIC_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"

namespace fabric::storage {

// Column data types. VARCHAR covers all string data (the paper notes
// Vertica represents string data as VARCHAR columns).
enum class DataType { kBool, kInt64, kFloat64, kVarchar };

const char* DataTypeName(DataType type);

// Parses "int"/"integer"/"bigint", "float"/"double", "varchar"/"string",
// "bool"/"boolean" (case-insensitive, as the SQL layer sees them).
Result<DataType> ParseDataType(std::string_view name);

// A single nullable SQL value. Small, copyable; the fabric's lingua franca
// between Spark Rows, Vertica storage and the connectors.
class Value {
 public:
  // Null of unspecified type (SQL NULL).
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Repr(v)); }
  static Value Int64(int64_t v) { return Value(Repr(v)); }
  static Value Float64(double v) { return Value(Repr(v)); }
  static Value Varchar(std::string v) { return Value(Repr(std::move(v))); }

  bool is_null() const {
    return std::holds_alternative<std::monostate>(data_);
  }

  // Type of a non-null value; callers must not ask for a null's type.
  // Inline: storage hot loops type-check every value.
  DataType type() const {
    size_t index = data_.index();
    if (index == 0) FailNullType();
    // Alternatives 1..4 follow DataType's order.
    return static_cast<DataType>(index - 1);
  }

  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int64_value() const { return std::get<int64_t>(data_); }
  double float64_value() const { return std::get<double>(data_); }
  const std::string& varchar_value() const {
    return std::get<std::string>(data_);
  }

  // Numeric view: int64 and float64 both read as double (SQL-style numeric
  // coercion in comparisons/arithmetic). Fails on other types.
  Result<double> AsDouble() const;

  // Unchecked numeric view for scan hot loops: callers must have
  // established the value is non-null bool/int/float (e.g. via column
  // type). Bool reads as 0/1 to match AsDouble()/Compare() semantics.
  double NumericValue() const {
    switch (data_.index()) {
      case 1:
        return std::get<bool>(data_) ? 1.0 : 0.0;
      case 2:
        return static_cast<double>(std::get<int64_t>(data_));
      default:
        return std::get<double>(data_);
    }
  }

  // Strict equality: null equals nothing (not even null) under
  // SqlEquals(); Equals() is structural (null == null) for storage and
  // test bookkeeping.
  bool Equals(const Value& other) const;

  // Three-way comparison for ORDER/min-max: nulls sort first; numeric
  // types compare by value across int/float; mismatched non-numeric types
  // are an error.
  Result<int> Compare(const Value& other) const;

  // Segmentation/ring hash of this value (see common/hash.h).
  uint64_t SegmentationHash() const;

  // 64-bit hash for HLL distinct-count sketches, salted away from the
  // segmentation hash so sketch quality is independent of how the data
  // happens to be placed on the ring. Every layer that feeds values into
  // a sketch (Vertica UDx, Spark shuffle combine) uses this hash, which
  // is what makes their sketches mergeable and byte-identical.
  uint64_t DistinctHash() const;

  // Bytes this value occupies "raw" (the cost model's notion of data
  // size): 8 for numerics, 1 for bool, string length for varchar, 0 null.
  double RawSize() const;

  // SQL literal rendering: 42, 2.5, 'text' (quotes doubled), TRUE, NULL.
  std::string ToSqlLiteral() const;

  // Unquoted rendering for CSV / display: NULL, true/false, the shortest
  // decimal integer, %.17g for floats (std::to_chars, no locale), or the
  // string itself. AppendDisplayString is the one formatter; it appends
  // to `out` so per-row key builders can reuse one buffer.
  void AppendDisplayString(std::string* out) const;
  std::string ToDisplayString() const {
    std::string out;
    AppendDisplayString(&out);
    return out;
  }

  // Parses a display-string as `type` ("" parses to NULL for varchar it is
  // the empty string; use ParseNullableAs for explicit null markers).
  static Result<Value> ParseAs(DataType type, std::string_view text);

 private:
  using Repr =
      std::variant<std::monostate, bool, int64_t, double, std::string>;
  [[noreturn]] static void FailNullType();
  explicit Value(Repr repr) : data_(std::move(repr)) {}

  Repr data_;
};

// The display formatters behind Value::AppendDisplayString, for callers
// holding unboxed values (typed lanes): the shortest decimal integer and
// %.17g for floats, appended to `out`.
void AppendInt64Display(int64_t v, std::string* out);
void AppendFloat64Display(double v, std::string* out);

// Structural equality/ordering functors for containers of Values.
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return a.Equals(b);
  }
};

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_VALUE_H_
