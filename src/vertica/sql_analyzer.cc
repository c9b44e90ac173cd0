#include "vertica/sql_analyzer.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/wrapping_arith.h"
#include "vertica/sql_eval.h"

namespace fabric::vertica::sql {
namespace {

constexpr unsigned __int128 kRingEnd = (static_cast<unsigned __int128>(1))
                                       << 64;

}  // namespace

RingRangeSet RingRangeSet::Full() { return Of(0, kRingEnd); }

RingRangeSet RingRangeSet::Of(unsigned __int128 lower,
                              unsigned __int128 upper) {
  RingRangeSet set;
  if (upper > kRingEnd) upper = kRingEnd;
  if (lower < upper) set.ranges_.emplace_back(lower, upper);
  return set;
}

RingRangeSet RingRangeSet::OfHashRange(const HashRange& range) {
  unsigned __int128 upper =
      range.upper == 0 ? kRingEnd
                       : static_cast<unsigned __int128>(range.upper);
  return Of(range.lower, upper);
}

void RingRangeSet::Normalize() {
  std::sort(ranges_.begin(), ranges_.end());
  std::vector<std::pair<unsigned __int128, unsigned __int128>> merged;
  for (const auto& [lo, hi] : ranges_) {
    if (lo >= hi) continue;
    if (!merged.empty() && lo <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, hi);
    } else {
      merged.emplace_back(lo, hi);
    }
  }
  ranges_ = std::move(merged);
}

RingRangeSet RingRangeSet::Union(const RingRangeSet& other) const {
  RingRangeSet out;
  out.ranges_ = ranges_;
  out.ranges_.insert(out.ranges_.end(), other.ranges_.begin(),
                     other.ranges_.end());
  out.Normalize();
  return out;
}

RingRangeSet RingRangeSet::Intersect(const RingRangeSet& other) const {
  RingRangeSet out;
  for (const auto& [alo, ahi] : ranges_) {
    for (const auto& [blo, bhi] : other.ranges_) {
      unsigned __int128 lo = std::max(alo, blo);
      unsigned __int128 hi = std::min(ahi, bhi);
      if (lo < hi) out.ranges_.emplace_back(lo, hi);
    }
  }
  out.Normalize();
  return out;
}

bool RingRangeSet::IsFull() const {
  return ranges_.size() == 1 && ranges_[0].first == 0 &&
         ranges_[0].second == kRingEnd;
}

bool RingRangeSet::Contains(uint64_t hash) const {
  unsigned __int128 h = hash;
  for (const auto& [lo, hi] : ranges_) {
    if (h >= lo && h < hi) return true;
  }
  return false;
}

bool RingRangeSet::Intersects(const HashRange& range) const {
  return !Intersect(OfHashRange(range)).IsEmpty();
}

namespace {

// True when `call` is HASH(c1,...,ck) matching the segmentation columns
// in order.
bool IsSegmentationHashCall(const Expr& call,
                            const std::vector<std::string>& seg_columns) {
  if (call.kind != Expr::Kind::kCall || call.function != "HASH") {
    return false;
  }
  if (call.args.size() != seg_columns.size()) return false;
  for (size_t i = 0; i < call.args.size(); ++i) {
    if (call.args[i]->kind != Expr::Kind::kColumnRef) return false;
    if (!EqualsIgnoreCase(call.args[i]->column, seg_columns[i])) {
      return false;
    }
  }
  return true;
}

// Attempts HASH(...) <op> <integer literal>. The literal is in the signed
// SQL domain; convert back to the unsigned ring.
std::optional<RingRangeSet> RangeOfComparison(
    const Expr& expr, const std::vector<std::string>& seg_columns) {
  if (expr.kind != Expr::Kind::kBinary) return std::nullopt;
  const std::string& op = expr.op;
  if (op != "=" && op != "<" && op != "<=" && op != ">" && op != ">=") {
    return std::nullopt;
  }
  const Expr* call = expr.args[0].get();
  const Expr* literal = expr.args[1].get();
  std::string effective_op = op;
  if (!IsSegmentationHashCall(*call, seg_columns)) {
    // Allow the reversed form  <literal> <op> HASH(...).
    std::swap(call, literal);
    if (!IsSegmentationHashCall(*call, seg_columns)) return std::nullopt;
    if (effective_op == "<") effective_op = ">";
    else if (effective_op == "<=") effective_op = ">=";
    else if (effective_op == ">") effective_op = "<";
    else if (effective_op == ">=") effective_op = "<=";
  }
  // Literal may be a plain integer or a negated one.
  int64_t signed_bound = 0;
  if (literal->kind == Expr::Kind::kLiteral && !literal->literal.is_null() &&
      literal->literal.type() == storage::DataType::kInt64) {
    signed_bound = literal->literal.int64_value();
  } else if (literal->kind == Expr::Kind::kUnary && literal->op == "-" &&
             literal->args[0]->kind == Expr::Kind::kLiteral &&
             literal->args[0]->literal.type() ==
                 storage::DataType::kInt64) {
    signed_bound = -literal->args[0]->literal.int64_value();
  } else {
    return std::nullopt;
  }
  unsigned __int128 ring = SignedToRingHash(signed_bound);
  if (effective_op == "=") return RingRangeSet::Of(ring, ring + 1);
  if (effective_op == "<") return RingRangeSet::Of(0, ring);
  if (effective_op == "<=") return RingRangeSet::Of(0, ring + 1);
  if (effective_op == ">") {
    return RingRangeSet::Of(ring + 1,
                            (static_cast<unsigned __int128>(1)) << 64);
  }
  // ">="
  return RingRangeSet::Of(ring, (static_cast<unsigned __int128>(1)) << 64);
}

}  // namespace

namespace {

using storage::CompareOp;
using storage::CompareTerm;
using storage::HashRangeTerm;
using storage::NullTestTerm;

std::optional<CompareOp> CompareOpOf(const std::string& op) {
  if (op == "=") return CompareOp::kEq;
  if (op == "<>") return CompareOp::kNe;
  if (op == "<") return CompareOp::kLt;
  if (op == "<=") return CompareOp::kLe;
  if (op == ">") return CompareOp::kGt;
  if (op == ">=") return CompareOp::kGe;
  return std::nullopt;
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

// Extracts a non-null literal, folding a unary minus over a numeric one.
std::optional<storage::Value> LiteralOf(const Expr& expr) {
  if (expr.kind == Expr::Kind::kLiteral) {
    if (expr.literal.is_null()) return std::nullopt;
    return expr.literal;
  }
  if (expr.kind == Expr::Kind::kUnary && expr.op == "-" &&
      expr.args[0]->kind == Expr::Kind::kLiteral &&
      !expr.args[0]->literal.is_null()) {
    const storage::Value& v = expr.args[0]->literal;
    if (v.type() == storage::DataType::kInt64) {
      return storage::Value::Int64(WrapNeg(v.int64_value()));
    }
    if (v.type() == storage::DataType::kFloat64) {
      return storage::Value::Float64(-v.float64_value());
    }
  }
  return std::nullopt;
}

// Splits an AND tree into conjuncts, left to right.
void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == "AND") {
    SplitConjuncts(*expr.args[0], out);
    SplitConjuncts(*expr.args[1], out);
    return;
  }
  out->push_back(&expr);
}

// column <op> literal (either order) with matching types.
bool CompileCompare(const Expr& expr, const storage::Schema& schema,
                    storage::ScanPredicate* pred) {
  if (expr.kind != Expr::Kind::kBinary) return false;
  auto op = CompareOpOf(expr.op);
  if (!op) return false;
  const Expr* col = expr.args[0].get();
  const Expr* lit = expr.args[1].get();
  if (col->kind != Expr::Kind::kColumnRef) {
    std::swap(col, lit);
    if (col->kind != Expr::Kind::kColumnRef) return false;
    *op = FlipCompareOp(*op);
  }
  auto idx = schema.IndexOf(col->column);
  if (!idx.ok()) return false;
  auto literal = LiteralOf(*lit);
  if (!literal) return false;

  storage::DataType column_type = schema.column(*idx).type;
  bool column_is_string = column_type == storage::DataType::kVarchar;
  bool literal_is_string = literal->type() == storage::DataType::kVarchar;
  // Mixed string/numeric comparisons are interpreter errors; leave them
  // to the residual so the error surfaces identically.
  if (column_is_string != literal_is_string) return false;

  CompareTerm term;
  term.column = *idx;
  term.op = *op;
  term.is_string = column_is_string;
  if (column_is_string) {
    term.text = literal->varchar_value();
  } else {
    term.number = literal->NumericValue();
  }
  pred->compares.push_back(std::move(term));
  return true;
}

bool CompileNullTest(const Expr& expr, const storage::Schema& schema,
                     storage::ScanPredicate* pred) {
  if (expr.kind != Expr::Kind::kIsNull) return false;
  if (expr.args[0]->kind != Expr::Kind::kColumnRef) return false;
  auto idx = schema.IndexOf(expr.args[0]->column);
  if (!idx.ok()) return false;
  pred->null_tests.push_back(NullTestTerm{*idx, expr.negated});
  return true;
}

// HASH(col, ...) <op> integer literal (either order), folded into the
// inclusive unsigned ring bounds of a HashRangeTerm. Terms over the same
// column list merge by bound intersection.
bool CompileHashRange(const Expr& expr, const storage::Schema& schema,
                      storage::ScanPredicate* pred) {
  if (expr.kind != Expr::Kind::kBinary) return false;
  auto op = CompareOpOf(expr.op);
  if (!op || *op == CompareOp::kNe) return false;
  const Expr* call = expr.args[0].get();
  const Expr* lit = expr.args[1].get();
  if (call->kind != Expr::Kind::kCall) {
    std::swap(call, lit);
    if (call->kind != Expr::Kind::kCall) return false;
    *op = FlipCompareOp(*op);
  }
  if (call->function != "HASH" || call->args.empty()) return false;
  std::vector<int> columns;
  for (const ExprPtr& arg : call->args) {
    if (arg->kind != Expr::Kind::kColumnRef) return false;
    auto idx = schema.IndexOf(arg->column);
    if (!idx.ok()) return false;
    columns.push_back(*idx);
  }
  auto literal = LiteralOf(*lit);
  if (!literal || literal->type() != storage::DataType::kInt64) {
    return false;
  }
  uint64_t ring = SignedToRingHash(literal->int64_value());

  uint64_t lower = 0;
  uint64_t upper = ~0ull;
  bool empty = false;
  switch (*op) {
    case CompareOp::kEq:
      lower = upper = ring;
      break;
    case CompareOp::kLt:
      if (ring == 0) empty = true;
      else upper = ring - 1;
      break;
    case CompareOp::kLe:
      upper = ring;
      break;
    case CompareOp::kGt:
      if (ring == ~0ull) empty = true;
      else lower = ring + 1;
      break;
    case CompareOp::kGe:
      lower = ring;
      break;
    case CompareOp::kNe:
      return false;
  }
  if (empty) {
    pred->always_false = true;
    return true;
  }
  for (HashRangeTerm& existing : pred->hash_ranges) {
    if (existing.columns == columns) {
      existing.lower = std::max(existing.lower, lower);
      existing.upper = std::min(existing.upper, upper);
      if (existing.lower > existing.upper) pred->always_false = true;
      return true;
    }
  }
  HashRangeTerm term;
  term.columns = std::move(columns);
  term.lower = lower;
  term.upper = upper;
  pred->hash_ranges.push_back(std::move(term));
  return true;
}

}  // namespace

CompiledScan CompileScanPredicate(const Expr& where,
                                  const storage::Schema& schema) {
  CompiledScan out;
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, &conjuncts);
  std::vector<const Expr*> leftovers;
  for (const Expr* conjunct : conjuncts) {
    if (CompileCompare(*conjunct, schema, &out.predicate)) continue;
    if (CompileNullTest(*conjunct, schema, &out.predicate)) continue;
    if (CompileHashRange(*conjunct, schema, &out.predicate)) continue;
    leftovers.push_back(conjunct);
  }
  for (const Expr* leftover : leftovers) {
    out.residual = out.residual == nullptr
                       ? leftover->Clone()
                       : Expr::Binary("AND", std::move(out.residual),
                                      leftover->Clone());
  }
  return out;
}

RingRangeSet ExtractHashRanges(
    const Expr& where,
    const std::vector<std::string>& segmentation_column_names) {
  if (segmentation_column_names.empty()) return RingRangeSet::Full();
  if (where.kind == Expr::Kind::kBinary) {
    if (where.op == "AND") {
      return ExtractHashRanges(*where.args[0], segmentation_column_names)
          .Intersect(
              ExtractHashRanges(*where.args[1], segmentation_column_names));
    }
    if (where.op == "OR") {
      RingRangeSet lhs =
          ExtractHashRanges(*where.args[0], segmentation_column_names);
      RingRangeSet rhs =
          ExtractHashRanges(*where.args[1], segmentation_column_names);
      // OR weakens: if either side is unconstrained the whole is.
      if (lhs.IsFull() || rhs.IsFull()) return RingRangeSet::Full();
      return lhs.Union(rhs);
    }
    if (auto range = RangeOfComparison(where, segmentation_column_names)) {
      return *range;
    }
    return RingRangeSet::Full();
  }
  return RingRangeSet::Full();
}

}  // namespace fabric::vertica::sql
