#include "storage/value.h"

#include <charconv>
#include <cstdlib>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace fabric::storage {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kBool:
      return "BOOLEAN";
    case DataType::kInt64:
      return "INTEGER";
    case DataType::kFloat64:
      return "FLOAT";
    case DataType::kVarchar:
      return "VARCHAR";
  }
  return "?";
}

Result<DataType> ParseDataType(std::string_view name) {
  std::string lower = ToLower(name);
  // Strip a VARCHAR(n) length suffix if present.
  if (size_t paren = lower.find('('); paren != std::string::npos) {
    lower = lower.substr(0, paren);
  }
  if (lower == "bool" || lower == "boolean") return DataType::kBool;
  if (lower == "int" || lower == "integer" || lower == "bigint" ||
      lower == "long") {
    return DataType::kInt64;
  }
  if (lower == "float" || lower == "double" || lower == "real") {
    return DataType::kFloat64;
  }
  if (lower == "varchar" || lower == "string" || lower == "text" ||
      lower == "char") {
    return DataType::kVarchar;
  }
  return InvalidArgumentError(StrCat("unknown data type '", name, "'"));
}

void Value::FailNullType() {
  FABRIC_CHECK(false) << "type() of NULL value";
  std::abort();
}

Result<double> Value::AsDouble() const {
  if (is_null()) return InvalidArgumentError("NULL has no numeric value");
  switch (type()) {
    case DataType::kInt64:
      return static_cast<double>(int64_value());
    case DataType::kFloat64:
      return float64_value();
    case DataType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case DataType::kVarchar:
      return InvalidArgumentError("VARCHAR is not numeric");
  }
  return InternalError("corrupt value");
}

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (type() != other.type()) {
    // Numeric cross-type equality (1 == 1.0).
    auto a = AsDouble();
    auto b = other.AsDouble();
    if (a.ok() && b.ok()) return *a == *b;
    return false;
  }
  return data_ == other.data_;
}

Result<int> Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (type() == DataType::kVarchar && other.type() == DataType::kVarchar) {
    int c = varchar_value().compare(other.varchar_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  auto a = AsDouble();
  auto b = other.AsDouble();
  if (a.ok() && b.ok()) {
    if (*a < *b) return -1;
    if (*a > *b) return 1;
    return 0;
  }
  return InvalidArgumentError(
      StrCat("cannot compare ", DataTypeName(type()), " with ",
             DataTypeName(other.type())));
}

uint64_t Value::SegmentationHash() const {
  if (is_null()) return Mix64(0xdeadULL);
  switch (type()) {
    case DataType::kBool:
      return HashBool(bool_value());
    case DataType::kInt64:
      return HashInt64(int64_value());
    case DataType::kFloat64:
      return HashDouble(float64_value());
    case DataType::kVarchar:
      return HashBytes(varchar_value());
  }
  return 0;
}

uint64_t Value::DistinctHash() const {
  return Mix64(SegmentationHash() ^ 0xc2b2ae3d27d4eb4fULL);
}

double Value::RawSize() const {
  if (is_null()) return 0;
  switch (type()) {
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kFloat64:
      return 8;
    case DataType::kVarchar:
      return static_cast<double>(varchar_value().size());
  }
  return 0;
}

std::string Value::ToSqlLiteral() const {
  if (is_null()) return "NULL";
  switch (type()) {
    case DataType::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case DataType::kInt64:
      return ToDisplayString();
    case DataType::kFloat64: {
      std::string out = ToDisplayString();
      // %.17g drops the point for integral values ("2", not "2.0") and
      // the lexer would hand that back as an Int64 literal; force a
      // float marker when the rendering is digits-only (inf/nan
      // spellings are left alone).
      if (out.find_first_not_of("-0123456789") == std::string::npos) {
        out += ".0";
      }
      return out;
    }
    case DataType::kVarchar: {
      std::string out = "'";
      for (char c : varchar_value()) {
        if (c == '\'') out += "''";
        else out.push_back(c);
      }
      out += "'";
      return out;
    }
  }
  return "NULL";
}

void AppendInt64Display(int64_t v, std::string* out) {
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

void AppendFloat64Display(double v, std::string* out) {
  // Same digits as printf("%.17g"): round-trips every double.
  char buf[32];
  const char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17)
          .ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

void Value::AppendDisplayString(std::string* out) const {
  if (is_null()) {
    out->append("NULL");
    return;
  }
  switch (type()) {
    case DataType::kBool:
      out->append(bool_value() ? "true" : "false");
      return;
    case DataType::kInt64:
      AppendInt64Display(int64_value(), out);
      return;
    case DataType::kFloat64:
      AppendFloat64Display(float64_value(), out);
      return;
    case DataType::kVarchar:
      out->append(varchar_value());
      return;
  }
}

Result<Value> Value::ParseAs(DataType type, std::string_view text) {
  switch (type) {
    case DataType::kBool: {
      if (EqualsIgnoreCase(text, "true") || text == "1") return Bool(true);
      if (EqualsIgnoreCase(text, "false") || text == "0") return Bool(false);
      return InvalidArgumentError(StrCat("bad BOOLEAN literal '", text, "'"));
    }
    case DataType::kInt64: {
      int64_t v = 0;
      if (!ParseInt64(text, &v)) {
        return InvalidArgumentError(
            StrCat("bad INTEGER literal '", text, "'"));
      }
      return Int64(v);
    }
    case DataType::kFloat64: {
      double v = 0;
      if (!ParseDouble(text, &v)) {
        return InvalidArgumentError(StrCat("bad FLOAT literal '", text, "'"));
      }
      return Float64(v);
    }
    case DataType::kVarchar:
      return Varchar(std::string(text));
  }
  return InternalError("corrupt type");
}

}  // namespace fabric::storage
