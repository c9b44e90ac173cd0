#include "vertica/sql_eval.h"

#include <cmath>
#include <optional>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/wrapping_arith.h"

namespace fabric::vertica::sql {

using storage::DataType;
using storage::Value;

int64_t RingHashToSigned(uint64_t ring_hash) {
  return static_cast<int64_t>(ring_hash ^ (1ULL << 63));
}

uint64_t SignedToRingHash(int64_t signed_hash) {
  return static_cast<uint64_t>(signed_hash) ^ (1ULL << 63);
}

bool IsAggregateFunction(const std::string& upper_name) {
  return exec::AggFnByName(upper_name).has_value();
}

bool ContainsAggregate(const Expr& expr) {
  return ContainsAggregate(expr, nullptr);
}

bool ContainsAggregate(const Expr& expr,
                       const AggregateUdxResolver* aggregate_udx) {
  if (expr.kind == Expr::Kind::kCall) {
    if (IsAggregateFunction(expr.function)) return true;
    if (aggregate_udx != nullptr && *aggregate_udx &&
        (*aggregate_udx)(expr.function) != nullptr) {
      return true;
    }
  }
  for (const ExprPtr& arg : expr.args) {
    if (ContainsAggregate(*arg, aggregate_udx)) return true;
  }
  return false;
}

bool IsAggregateSelect(const SelectStmt& select,
                       const AggregateUdxResolver* aggregate_udx) {
  if (!select.group_by.empty()) return true;
  for (const SelectItem& item : select.items) {
    if (!item.star && ContainsAggregate(*item.expr, aggregate_udx)) {
      return true;
    }
  }
  return false;
}

DataType InferType(const Expr& expr, const storage::Schema& schema) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal.is_null() ? DataType::kVarchar
                                    : expr.literal.type();
    case Expr::Kind::kColumnRef: {
      auto idx = schema.IndexOf(expr.column);
      return idx.ok() ? schema.column(*idx).type : DataType::kVarchar;
    }
    case Expr::Kind::kUnary:
      return expr.op == "NOT" ? DataType::kBool
                              : InferType(*expr.args[0], schema);
    case Expr::Kind::kBinary: {
      const std::string& op = expr.op;
      if (op == "AND" || op == "OR" || op == "=" || op == "<>" ||
          op == "<" || op == "<=" || op == ">" || op == ">=") {
        return DataType::kBool;
      }
      if (op == "||") return DataType::kVarchar;
      if (op == "/") return DataType::kFloat64;
      DataType lhs = InferType(*expr.args[0], schema);
      DataType rhs = InferType(*expr.args[1], schema);
      if (lhs == DataType::kFloat64 || rhs == DataType::kFloat64) {
        return DataType::kFloat64;
      }
      return DataType::kInt64;
    }
    case Expr::Kind::kIsNull:
      return DataType::kBool;
    case Expr::Kind::kCall: {
      if (expr.function == "COUNT") return DataType::kInt64;
      if (expr.function == "SUM" || expr.function == "AVG") {
        return DataType::kFloat64;
      }
      if (expr.function == "MIN" || expr.function == "MAX") {
        return expr.args.empty() ? DataType::kFloat64
                                 : InferType(*expr.args[0], schema);
      }
      if (expr.function == "HASH" || expr.function == "LENGTH") {
        return DataType::kInt64;
      }
      if (expr.function == "APPROXIMATE_COUNT_DISTINCT" ||
          expr.function == "HLL_ESTIMATE") {
        return DataType::kInt64;
      }
      if (expr.function == "HLL_SKETCH" ||
          expr.function == "HLL_UNION_AGG") {
        return DataType::kVarchar;
      }
      if (expr.function == "UPPER" || expr.function == "LOWER") {
        return DataType::kVarchar;
      }
      return DataType::kFloat64;  // UDx default: numeric score
    }
  }
  return DataType::kVarchar;
}

std::string SelectItemName(const SelectItem& item, int position) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr && item.expr->kind == Expr::Kind::kColumnRef) {
    return item.expr->column;
  }
  return StrCat("col", position);
}

namespace {

// Kleene three-valued boolean: nullopt == SQL NULL/unknown.
using Tribool = std::optional<bool>;

Result<Tribool> AsTribool(const Value& v) {
  if (v.is_null()) return Tribool(std::nullopt);
  if (v.type() == DataType::kBool) return Tribool(v.bool_value());
  return InvalidArgumentError(
      StrCat("expected BOOLEAN, got ", DataTypeName(v.type())));
}

Result<Value> EvalBinary(const Expr& expr, const EvalContext& context);
Result<Value> EvalCall(const Expr& expr, const EvalContext& context);

}  // namespace

Result<Value> Eval(const Expr& expr, const EvalContext& context) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumnRef: {
      if (context.schema == nullptr || context.row == nullptr) {
        return InvalidArgumentError(
            StrCat("column '", expr.column, "' in row-less context"));
      }
      FABRIC_ASSIGN_OR_RETURN(int index,
                              context.schema->IndexOf(expr.column));
      return (*context.row)[index];
    }
    case Expr::Kind::kUnary: {
      FABRIC_ASSIGN_OR_RETURN(Value operand, Eval(*expr.args[0], context));
      if (expr.op == "NOT") {
        FABRIC_ASSIGN_OR_RETURN(Tribool t, AsTribool(operand));
        if (!t.has_value()) return Value::Null();
        return Value::Bool(!*t);
      }
      // Unary minus.
      if (operand.is_null()) return Value::Null();
      if (operand.type() == DataType::kInt64) {
        return Value::Int64(WrapNeg(operand.int64_value()));
      }
      FABRIC_ASSIGN_OR_RETURN(double d, operand.AsDouble());
      return Value::Float64(-d);
    }
    case Expr::Kind::kBinary:
      return EvalBinary(expr, context);
    case Expr::Kind::kIsNull: {
      FABRIC_ASSIGN_OR_RETURN(Value operand, Eval(*expr.args[0], context));
      bool is_null = operand.is_null();
      return Value::Bool(expr.negated ? !is_null : is_null);
    }
    case Expr::Kind::kCall:
      return EvalCall(expr, context);
  }
  return InternalError("corrupt expression");
}

namespace {

Result<Value> EvalBinary(const Expr& expr, const EvalContext& context) {
  const std::string& op = expr.op;

  // AND / OR need Kleene short-circuit semantics.
  if (op == "AND" || op == "OR") {
    FABRIC_ASSIGN_OR_RETURN(Value lv, Eval(*expr.args[0], context));
    FABRIC_ASSIGN_OR_RETURN(Tribool lhs, AsTribool(lv));
    if (op == "AND" && lhs.has_value() && !*lhs) return Value::Bool(false);
    if (op == "OR" && lhs.has_value() && *lhs) return Value::Bool(true);
    FABRIC_ASSIGN_OR_RETURN(Value rv, Eval(*expr.args[1], context));
    FABRIC_ASSIGN_OR_RETURN(Tribool rhs, AsTribool(rv));
    if (op == "AND") {
      if (rhs.has_value() && !*rhs) return Value::Bool(false);
      if (lhs.has_value() && rhs.has_value()) return Value::Bool(true);
      return Value::Null();
    }
    if (rhs.has_value() && *rhs) return Value::Bool(true);
    if (lhs.has_value() && rhs.has_value()) return Value::Bool(false);
    return Value::Null();
  }

  FABRIC_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.args[0], context));
  FABRIC_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.args[1], context));

  // Comparisons: NULL operand => NULL result.
  if (op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
      op == ">=") {
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    FABRIC_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs));
    if (op == "=") return Value::Bool(c == 0);
    if (op == "<>") return Value::Bool(c != 0);
    if (op == "<") return Value::Bool(c < 0);
    if (op == "<=") return Value::Bool(c <= 0);
    if (op == ">") return Value::Bool(c > 0);
    return Value::Bool(c >= 0);
  }

  if (op == "||") {
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Varchar(
        StrCat(lhs.ToDisplayString(), rhs.ToDisplayString()));
  }

  // Arithmetic.
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  bool both_int = !lhs.is_null() && !rhs.is_null() &&
                  lhs.type() == DataType::kInt64 &&
                  rhs.type() == DataType::kInt64;
  if (op == "%") {
    if (!both_int) return InvalidArgumentError("% requires integers");
    int64_t divisor = rhs.int64_value();
    if (divisor == 0) return InvalidArgumentError("division by zero");
    return Value::Int64(WrapMod(lhs.int64_value(), divisor));
  }
  FABRIC_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
  FABRIC_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
  if (op == "+") {
    if (both_int) {
      return Value::Int64(WrapAdd(lhs.int64_value(), rhs.int64_value()));
    }
    return Value::Float64(a + b);
  }
  if (op == "-") {
    if (both_int) {
      return Value::Int64(WrapSub(lhs.int64_value(), rhs.int64_value()));
    }
    return Value::Float64(a - b);
  }
  if (op == "*") {
    if (both_int) {
      return Value::Int64(WrapMul(lhs.int64_value(), rhs.int64_value()));
    }
    return Value::Float64(a * b);
  }
  if (op == "/") {
    if (b == 0) return InvalidArgumentError("division by zero");
    // Vertica-style: / always yields float.
    return Value::Float64(a / b);
  }
  return InternalError(StrCat("unknown operator '", op, "'"));
}

Result<Value> EvalCall(const Expr& expr, const EvalContext& context) {
  const std::string& fn = expr.function;
  if (IsAggregateFunction(fn) ||
      (context.aggregate_udx != nullptr && *context.aggregate_udx &&
       (*context.aggregate_udx)(fn) != nullptr)) {
    return InvalidArgumentError(
        StrCat(fn, " is an aggregate and cannot be evaluated per row"));
  }

  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& arg : expr.args) {
    FABRIC_ASSIGN_OR_RETURN(Value v, Eval(*arg, context));
    args.push_back(std::move(v));
  }

  if (fn == "HASH") {
    if (args.empty()) return InvalidArgumentError("HASH() needs arguments");
    uint64_t h = kSegmentationHashSeed;
    for (const Value& v : args) {
      h = HashCombine(h, v.SegmentationHash());
    }
    return Value::Int64(RingHashToSigned(h));
  }
  if (fn == "ABS") {
    if (args.size() != 1) return InvalidArgumentError("ABS(x)");
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == DataType::kInt64) {
      return Value::Int64(WrapAbs(args[0].int64_value()));
    }
    FABRIC_ASSIGN_OR_RETURN(double d, args[0].AsDouble());
    return Value::Float64(std::fabs(d));
  }
  if (fn == "FLOOR" || fn == "CEIL" || fn == "CEILING") {
    if (args.size() != 1) return InvalidArgumentError(StrCat(fn, "(x)"));
    if (args[0].is_null()) return Value::Null();
    FABRIC_ASSIGN_OR_RETURN(double d, args[0].AsDouble());
    return Value::Float64(fn == "FLOOR" ? std::floor(d) : std::ceil(d));
  }
  if (fn == "LENGTH") {
    if (args.size() != 1) return InvalidArgumentError("LENGTH(s)");
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != DataType::kVarchar) {
      return InvalidArgumentError("LENGTH expects VARCHAR");
    }
    return Value::Int64(
        static_cast<int64_t>(args[0].varchar_value().size()));
  }
  if (fn == "UPPER" || fn == "LOWER") {
    if (args.size() != 1) return InvalidArgumentError(StrCat(fn, "(s)"));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != DataType::kVarchar) {
      return InvalidArgumentError(StrCat(fn, " expects VARCHAR"));
    }
    return Value::Varchar(fn == "UPPER" ? ToUpper(args[0].varchar_value())
                                        : ToLower(args[0].varchar_value()));
  }

  // Fall through to the UDx resolver.
  if (context.udx != nullptr && *context.udx) {
    return (*context.udx)(fn, args, expr.parameters);
  }
  return NotFoundError(StrCat("unknown function '", fn, "'"));
}

}  // namespace

Result<bool> EvalPredicate(const Expr& expr, const EvalContext& context) {
  FABRIC_ASSIGN_OR_RETURN(Value v, Eval(expr, context));
  if (v.is_null()) return false;
  if (v.type() != DataType::kBool) {
    return InvalidArgumentError("predicate is not BOOLEAN");
  }
  return v.bool_value();
}

bool EvalPredicateLenient(const Expr& expr, const EvalContext& context) {
  auto ok = EvalPredicate(expr, context);
  return ok.ok() && *ok;
}

}  // namespace fabric::vertica::sql
