#include "vertica/pipeline.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace fabric::vertica {
namespace {

using storage::DataType;
using storage::Schema;
using storage::Value;

bool IsNumeric(DataType t) { return t != DataType::kVarchar; }

// Builds the flat node vector for one expression tree. Every rule here
// either reproduces the interpreter's typing exactly or refuses: an
// expression whose interpreted evaluation could error on a non-null
// value (NOT over a non-bool, LENGTH over a number, varchar arithmetic,
// mixed varchar/numeric comparison) is rejected so the interpreter stays
// the one that raises the error.
class Lowering {
 public:
  explicit Lowering(const Schema& schema) : schema_(schema) {}

  // Returns the root node index, or -1 when not compilable.
  int Lower(const sql::Expr& e) {
    switch (e.kind) {
      case sql::Expr::Kind::kLiteral: {
        // NULL literals have no static type; leave them interpreted.
        if (e.literal.is_null()) return -1;
        exec::Node n;
        n.op = exec::Node::Op::kConst;
        n.type = e.literal.type();
        n.constant = e.literal;
        return Push(std::move(n));
      }
      case sql::Expr::Kind::kColumnRef: {
        auto idx = schema_.IndexOf(e.column);
        if (!idx.ok()) return -1;
        exec::Node n;
        n.op = exec::Node::Op::kColumn;
        n.type = schema_.column(*idx).type;
        n.column = *idx;
        return Push(std::move(n));
      }
      case sql::Expr::Kind::kUnary: {
        if (e.args.size() != 1) return -1;
        int a = Lower(*e.args[0]);
        if (a < 0) return -1;
        exec::Node n;
        n.a = a;
        if (e.op == "NOT") {
          if (nodes_[a].type != DataType::kBool) return -1;
          n.op = exec::Node::Op::kNot;
          n.type = DataType::kBool;
        } else {  // unary minus
          if (!IsNumeric(nodes_[a].type)) return -1;
          n.op = exec::Node::Op::kNegate;
          n.type = nodes_[a].type == DataType::kInt64 ? DataType::kInt64
                                                      : DataType::kFloat64;
        }
        return Push(std::move(n));
      }
      case sql::Expr::Kind::kIsNull: {
        if (e.args.size() != 1) return -1;
        int a = Lower(*e.args[0]);
        if (a < 0) return -1;
        exec::Node n;
        n.op = exec::Node::Op::kIsNull;
        n.type = DataType::kBool;
        n.a = a;
        n.negated = e.negated;
        return Push(std::move(n));
      }
      case sql::Expr::Kind::kBinary:
        return LowerBinary(e);
      case sql::Expr::Kind::kCall:
        return LowerCall(e);
    }
    return -1;
  }

  std::vector<exec::Node> Take() { return std::move(nodes_); }

 private:
  int LowerBinary(const sql::Expr& e) {
    if (e.args.size() != 2) return -1;
    const std::string& op = e.op;
    int a = Lower(*e.args[0]);
    if (a < 0) return -1;
    int b = Lower(*e.args[1]);
    if (b < 0) return -1;
    DataType ta = nodes_[a].type;
    DataType tb = nodes_[b].type;
    exec::Node n;
    n.a = a;
    n.b = b;
    if (op == "AND" || op == "OR") {
      if (ta != DataType::kBool || tb != DataType::kBool) return -1;
      n.op = op == "AND" ? exec::Node::Op::kAnd : exec::Node::Op::kOr;
      n.type = DataType::kBool;
      return Push(std::move(n));
    }
    if (op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
        op == ">=") {
      bool both_str =
          ta == DataType::kVarchar && tb == DataType::kVarchar;
      if (!both_str && (!IsNumeric(ta) || !IsNumeric(tb))) return -1;
      n.op = exec::Node::Op::kCompare;
      n.type = DataType::kBool;
      n.string_compare = both_str;
      if (op == "=") n.cmp = exec::Node::Cmp::kEq;
      else if (op == "<>") n.cmp = exec::Node::Cmp::kNe;
      else if (op == "<") n.cmp = exec::Node::Cmp::kLt;
      else if (op == "<=") n.cmp = exec::Node::Cmp::kLe;
      else if (op == ">") n.cmp = exec::Node::Cmp::kGt;
      else n.cmp = exec::Node::Cmp::kGe;
      return Push(std::move(n));
    }
    if (op == "||") {
      // The interpreter concatenates display strings of any type; the
      // compiled kernel keeps only the varchar-varchar shape, where the
      // display string is the string itself.
      if (ta != DataType::kVarchar || tb != DataType::kVarchar) return -1;
      n.op = exec::Node::Op::kConcat;
      n.type = DataType::kVarchar;
      return Push(std::move(n));
    }
    if (op == "%") {
      if (ta != DataType::kInt64 || tb != DataType::kInt64) return -1;
      n.op = exec::Node::Op::kMod;
      n.type = DataType::kInt64;
      return Push(std::move(n));
    }
    if (op == "/") {
      if (!IsNumeric(ta) || !IsNumeric(tb)) return -1;
      n.op = exec::Node::Op::kDiv;
      n.type = DataType::kFloat64;
      return Push(std::move(n));
    }
    if (op == "+" || op == "-" || op == "*") {
      if (!IsNumeric(ta) || !IsNumeric(tb)) return -1;
      n.op = op == "+" ? exec::Node::Op::kAdd
                       : (op == "-" ? exec::Node::Op::kSub
                                    : exec::Node::Op::kMul);
      n.int_arith =
          ta == DataType::kInt64 && tb == DataType::kInt64;
      n.type = n.int_arith ? DataType::kInt64 : DataType::kFloat64;
      return Push(std::move(n));
    }
    return -1;
  }

  int LowerCall(const sql::Expr& e) {
    const std::string& fn = e.function;
    // HASH, scalar UDx and aggregates stay interpreted (HASH for its
    // ring seeding, UDx because resolver calls are opaque, aggregates
    // because LowerSelect intercepts them above expression level).
    if (fn == "ABS") {
      if (e.args.size() != 1) return -1;
      int a = Lower(*e.args[0]);
      if (a < 0 || !IsNumeric(nodes_[a].type)) return -1;
      exec::Node n;
      n.op = exec::Node::Op::kAbs;
      n.type = nodes_[a].type == DataType::kInt64 ? DataType::kInt64
                                                  : DataType::kFloat64;
      n.a = a;
      return Push(std::move(n));
    }
    if (fn == "FLOOR" || fn == "CEIL" || fn == "CEILING") {
      if (e.args.size() != 1) return -1;
      int a = Lower(*e.args[0]);
      if (a < 0 || !IsNumeric(nodes_[a].type)) return -1;
      exec::Node n;
      n.op = fn == "FLOOR" ? exec::Node::Op::kFloor : exec::Node::Op::kCeil;
      n.type = DataType::kFloat64;
      n.a = a;
      return Push(std::move(n));
    }
    if (fn == "LENGTH") {
      if (e.args.size() != 1) return -1;
      int a = Lower(*e.args[0]);
      if (a < 0 || nodes_[a].type != DataType::kVarchar) return -1;
      exec::Node n;
      n.op = exec::Node::Op::kLength;
      n.type = DataType::kInt64;
      n.a = a;
      return Push(std::move(n));
    }
    if (fn == "UPPER" || fn == "LOWER") {
      if (e.args.size() != 1) return -1;
      int a = Lower(*e.args[0]);
      if (a < 0 || nodes_[a].type != DataType::kVarchar) return -1;
      exec::Node n;
      n.op = fn == "UPPER" ? exec::Node::Op::kUpper : exec::Node::Op::kLower;
      n.type = DataType::kVarchar;
      n.a = a;
      return Push(std::move(n));
    }
    return -1;
  }

  int Push(exec::Node n) {
    nodes_.push_back(std::move(n));
    return static_cast<int>(nodes_.size()) - 1;
  }

  const Schema& schema_;
  std::vector<exec::Node> nodes_;
};

// Lowers one expression into `cs`, appending its program. Returns the
// program index or -1.
int LowerProgramInto(const sql::Expr& e, const Schema& schema,
                     exec::CompiledSelect* cs) {
  Lowering lowering(schema);
  if (lowering.Lower(e) < 0) return -1;
  exec::Program p;
  p.nodes = lowering.Take();
  cs->programs.push_back(std::move(p));
  return static_cast<int>(cs->programs.size()) - 1;
}

}  // namespace

std::optional<exec::Program> LowerExpr(const sql::Expr& expr,
                                       const Schema& schema) {
  Lowering lowering(schema);
  if (lowering.Lower(expr) < 0) return std::nullopt;
  exec::Program p;
  p.nodes = lowering.Take();
  return p;
}

std::optional<CompiledQuery> LowerSelect(
    const sql::SelectStmt& select, const Schema& schema,
    const sql::UdxResolver* udx, const sql::AggregateUdxResolver* agg_udx) {
  CompiledQuery q;
  exec::CompiledSelect& cs = q.select;

  if (select.where != nullptr) {
    auto filter = LowerExpr(*select.where, schema);
    if (!filter.has_value() ||
        filter->out_type() != DataType::kBool) {
      return std::nullopt;
    }
    cs.filter = std::move(*filter);
  }

  cs.aggregate = sql::IsAggregateSelect(select, agg_udx);

  std::vector<storage::ColumnDef> out_columns;
  if (!cs.aggregate) {
    int stars = 0;
    int placeholders = 0;
    for (size_t i = 0; i < select.items.size(); ++i) {
      const sql::SelectItem& item = select.items[i];
      if (item.star) {
        // The interpreter's star placeholders copy input columns by a
        // per-row running cursor; a single star is the only shape where
        // that cursor provably stays inside the row.
        if (++stars > 1) return std::nullopt;
        for (int c = 0; c < schema.num_columns(); ++c) {
          out_columns.push_back(schema.column(c));
          exec::CompiledSelect::Output o;
          o.passthrough = placeholders++;
          cs.outputs.push_back(o);
        }
        continue;
      }
      int p = LowerProgramInto(*item.expr, schema, &cs);
      if (p < 0) return std::nullopt;
      exec::CompiledSelect::Output o;
      o.program = p;
      cs.outputs.push_back(o);
      out_columns.push_back({sql::SelectItemName(item, static_cast<int>(i)),
                             sql::InferType(*item.expr, schema)});
    }
    q.out_schema = Schema(std::move(out_columns));
    return q;
  }

  // Aggregate body: only the interpreter's happy path compiles; anything
  // it would reject with a typed error is left to it.
  auto items = ResolveAggregateItems(select, schema, udx, agg_udx);
  if (!items.ok()) return std::nullopt;
  cs.group_cols = std::move(items->group_cols);
  cs.agg_calls = std::move(items->calls);
  for (const sql::Expr* arg : items->args) {
    int program = -1;
    if (arg != nullptr) {
      program = LowerProgramInto(*arg, schema, &cs);
      if (program < 0) return std::nullopt;
    }
    cs.agg_args.push_back(program);
  }
  q.out_schema = std::move(items->out_schema);
  return q;
}

Result<AggregateItems> ResolveAggregateItems(
    const sql::SelectStmt& select, const Schema& schema,
    const sql::UdxResolver* udx, const sql::AggregateUdxResolver* agg_udx) {
  AggregateItems out;
  for (const std::string& name : select.group_by) {
    FABRIC_ASSIGN_OR_RETURN(int idx, schema.IndexOf(name));
    out.group_cols.push_back(idx);
  }
  std::vector<storage::ColumnDef> out_columns;
  for (size_t i = 0; i < select.items.size(); ++i) {
    const sql::SelectItem& item = select.items[i];
    if (item.star) {
      return InvalidArgumentError("SELECT * with aggregation");
    }
    const sql::Expr& e = *item.expr;
    const std::string name = sql::SelectItemName(item, static_cast<int>(i));
    exec::AggCall call;
    const sql::Expr* arg = nullptr;
    if (e.kind == sql::Expr::Kind::kColumnRef) {
      FABRIC_ASSIGN_OR_RETURN(int idx, schema.IndexOf(e.column));
      auto it = std::find(out.group_cols.begin(), out.group_cols.end(), idx);
      if (it == out.group_cols.end()) {
        return InvalidArgumentError(
            StrCat("column '", e.column, "' not in GROUP BY"));
      }
      call.group_pos = static_cast<int>(it - out.group_cols.begin());
      out_columns.push_back({name, schema.column(idx).type});
    } else if (e.kind == sql::Expr::Kind::kCall &&
               sql::IsAggregateFunction(e.function)) {
      call.fn = *exec::AggFnByName(e.function);
      arg = e.args.empty() ? nullptr : e.args[0].get();
      out_columns.push_back({name, sql::InferType(e, schema)});
    } else if (e.kind == sql::Expr::Kind::kCall && agg_udx != nullptr &&
               *agg_udx && (*agg_udx)(e.function) != nullptr) {
      // Aggregate UDx call: first argument is the aggregated expression,
      // the rest must be constants handed to init (e.g. the precision),
      // evaluated once per query with no row context.
      const sql::AggregateUdx* udx_def = (*agg_udx)(e.function);
      if (e.args.empty()) {
        return InvalidArgumentError(
            StrCat(e.function, " requires an argument"));
      }
      call.fn = exec::AggFn::kUdx;
      call.udx = udx_def;
      arg = e.args[0].get();
      std::vector<Value> extra;
      for (size_t a = 1; a < e.args.size(); ++a) {
        sql::EvalContext const_context;
        const_context.udx = udx;
        auto v = sql::Eval(*e.args[a], const_context);
        if (!v.ok()) {
          return InvalidArgumentError(
              StrCat(e.function, " extra arguments must be constants: ",
                     v.status().message()));
        }
        extra.push_back(std::move(*v));
      }
      FABRIC_ASSIGN_OR_RETURN(call.init_state, udx_def->init(extra));
      out_columns.push_back({name, udx_def->output_type});
    } else {
      return InvalidArgumentError(
          "aggregate queries support only group columns and simple "
          "aggregate calls");
    }
    out.calls.push_back(std::move(call));
    out.args.push_back(arg);
  }
  out.out_schema = Schema(std::move(out_columns));
  return out;
}

namespace {

std::string SelectFingerprint(const sql::SelectStmt& select,
                              const Schema& schema) {
  std::string key = StrCat(schema.ToDdlBody(), "\n", select.ToSql());
  // ToSql is the statement identity; aliases are appended explicitly in
  // case a rendering ever elides them (they name output columns).
  for (const sql::SelectItem& item : select.items) {
    key += StrCat("|", item.alias);
  }
  return key;
}

}  // namespace

std::shared_ptr<const CompiledQuery> PipelineCompiler::GetOrCompileSelect(
    const sql::SelectStmt& select, const Schema& schema,
    const sql::UdxResolver* udx, const sql::AggregateUdxResolver* agg_udx) {
  if (!enabled_) return nullptr;
  std::string key = SelectFingerprint(select, schema);
  auto it = selects_.find(key);
  if (it != selects_.end()) {
    ++cache_hits_;
    return it->second;
  }
  ++cache_misses_;
  auto lowered = LowerSelect(select, schema, udx, agg_udx);
  std::shared_ptr<const CompiledQuery> compiled =
      lowered.has_value()
          ? std::make_shared<const CompiledQuery>(std::move(*lowered))
          : nullptr;
  selects_.emplace(std::move(key), compiled);
  return compiled;
}

std::shared_ptr<const exec::Program> PipelineCompiler::GetOrCompilePredicate(
    const sql::Expr& expr, const Schema& schema) {
  if (!enabled_) return nullptr;
  std::string key = StrCat(schema.ToDdlBody(), "\n", expr.ToSql());
  auto it = predicates_.find(key);
  if (it != predicates_.end()) {
    ++cache_hits_;
    return it->second;
  }
  ++cache_misses_;
  auto lowered = LowerExpr(expr, schema);
  std::shared_ptr<const exec::Program> compiled;
  if (lowered.has_value() &&
      lowered->out_type() == DataType::kBool) {
    compiled = std::make_shared<const exec::Program>(std::move(*lowered));
  }
  predicates_.emplace(std::move(key), compiled);
  return compiled;
}

}  // namespace fabric::vertica
