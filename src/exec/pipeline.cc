#include "exec/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/string_util.h"
#include "common/wrapping_arith.h"

namespace fabric::exec {

using storage::DataType;
using storage::Row;
using storage::Value;

void Lanes::Reset(size_t n, DataType t) {
  type = t;
  nulls.assign(n, 0);
  switch (t) {
    case DataType::kBool:
      bools.assign(n, 0);
      break;
    case DataType::kInt64:
      ints.assign(n, 0);
      break;
    case DataType::kFloat64:
      doubles.assign(n, 0.0);
      break;
    case DataType::kVarchar:
      if (strings.size() < n) strings.resize(n);
      break;
  }
}

Value Lanes::Box(uint32_t i) const {
  if (nulls[i]) return Value::Null();
  switch (type) {
    case DataType::kBool:
      return Value::Bool(bools[i] != 0);
    case DataType::kInt64:
      return Value::Int64(ints[i]);
    case DataType::kFloat64:
      return Value::Float64(doubles[i]);
    case DataType::kVarchar:
      return Value::Varchar(strings[i]);
  }
  return Value::Null();
}

double Lanes::Number(uint32_t i) const {
  switch (type) {
    case DataType::kBool:
      return bools[i] ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(ints[i]);
    default:
      return doubles[i];
  }
}

namespace {

bool KnownFalse(const Lanes& l, uint32_t i) {
  return !l.nulls[i] && !l.bools[i];
}

bool KnownTrue(const Lanes& l, uint32_t i) {
  return !l.nulls[i] && l.bools[i];
}

// Recursive masked evaluation over the flat node vector. Each node gets
// its own lane frame; AND/OR nodes additionally own a sub-selection in
// state->masks so their right child evaluates only where the left child
// left the answer undecided — exactly the (row, node) pairs the
// interpreter's short-circuit touches, which is what makes divide-by-zero
// and UDx-error behavior identical between the two paths.
class Evaluator {
 public:
  Evaluator(const Program& program, const Row* rows, size_t block_rows,
            EvalState* state)
      : nodes_(program.nodes),
        rows_(rows),
        block_rows_(block_rows),
        state_(state) {}

  bool EvalNode(int id, const std::vector<uint32_t>& active) {
    const Node& n = nodes_[id];
    Lanes& out = state_->frames[id];
    out.Reset(block_rows_, n.type);
    switch (n.op) {
      case Node::Op::kConst:
        return EvalConst(n, active, &out);
      case Node::Op::kColumn:
        return EvalColumn(n, active, &out);
      case Node::Op::kNot: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.bools[i] = a.bools[i] ? 0 : 1;
          }
        }
        return true;
      }
      case Node::Op::kNegate: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else if (n.type == DataType::kInt64) {
            out.ints[i] = WrapNeg(a.ints[i]);
          } else {
            out.doubles[i] = -a.Number(i);
          }
        }
        return true;
      }
      case Node::Op::kIsNull: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          bool is_null = a.nulls[i] != 0;
          out.bools[i] = (n.negated ? !is_null : is_null) ? 1 : 0;
        }
        return true;
      }
      case Node::Op::kAnd:
        return EvalAndOr(n, id, active, /*is_and=*/true, &out);
      case Node::Op::kOr:
        return EvalAndOr(n, id, active, /*is_and=*/false, &out);
      case Node::Op::kCompare:
        return EvalCompare(n, active, &out);
      case Node::Op::kConcat: {
        if (!EvalNode(n.a, active) || !EvalNode(n.b, active)) return false;
        const Lanes& a = state_->frames[n.a];
        const Lanes& b = state_->frames[n.b];
        for (uint32_t i : active) {
          if (a.nulls[i] || b.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.strings[i] = StrCat(a.strings[i], b.strings[i]);
          }
        }
        return true;
      }
      case Node::Op::kAdd:
      case Node::Op::kSub:
      case Node::Op::kMul:
      case Node::Op::kDiv:
      case Node::Op::kMod:
        return EvalArith(n, active, &out);
      case Node::Op::kAbs: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else if (n.type == DataType::kInt64) {
            out.ints[i] = WrapAbs(a.ints[i]);
          } else {
            out.doubles[i] = std::fabs(a.Number(i));
          }
        }
        return true;
      }
      case Node::Op::kFloor:
      case Node::Op::kCeil: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            double d = a.Number(i);
            out.doubles[i] =
                n.op == Node::Op::kFloor ? std::floor(d) : std::ceil(d);
          }
        }
        return true;
      }
      case Node::Op::kLength: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.ints[i] = static_cast<int64_t>(a.strings[i].size());
          }
        }
        return true;
      }
      case Node::Op::kUpper:
      case Node::Op::kLower: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.strings[i] = n.op == Node::Op::kUpper ? ToUpper(a.strings[i])
                                                      : ToLower(a.strings[i]);
          }
        }
        return true;
      }
    }
    return false;
  }

 private:
  bool EvalConst(const Node& n, const std::vector<uint32_t>& active,
                 Lanes* out) {
    const Value& c = n.constant;
    if (c.is_null()) return false;  // NULL literals are rejected at compile
    switch (n.type) {
      case DataType::kBool: {
        uint8_t v = c.bool_value() ? 1 : 0;
        for (uint32_t i : active) out->bools[i] = v;
        return true;
      }
      case DataType::kInt64: {
        int64_t v = c.int64_value();
        for (uint32_t i : active) out->ints[i] = v;
        return true;
      }
      case DataType::kFloat64: {
        double v = c.float64_value();
        for (uint32_t i : active) out->doubles[i] = v;
        return true;
      }
      case DataType::kVarchar: {
        for (uint32_t i : active) out->strings[i] = c.varchar_value();
        return true;
      }
    }
    return false;
  }

  bool EvalColumn(const Node& n, const std::vector<uint32_t>& active,
                  Lanes* out) {
    for (uint32_t i : active) {
      const Row& row = rows_[i];
      if (n.column >= static_cast<int>(row.size())) return false;
      const Value& v = row[n.column];
      if (v.is_null()) {
        out->nulls[i] = 1;
        continue;
      }
      // The declared type is the compiled static type; any drift between
      // a row value and its schema column is a bail, never a coercion.
      if (v.type() != n.type) return false;
      switch (n.type) {
        case DataType::kBool:
          out->bools[i] = v.bool_value() ? 1 : 0;
          break;
        case DataType::kInt64:
          out->ints[i] = v.int64_value();
          break;
        case DataType::kFloat64:
          out->doubles[i] = v.float64_value();
          break;
        case DataType::kVarchar:
          out->strings[i] = v.varchar_value();
          break;
      }
    }
    return true;
  }

  bool EvalAndOr(const Node& n, int id, const std::vector<uint32_t>& active,
                 bool is_and, Lanes* out) {
    if (!EvalNode(n.a, active)) return false;
    const Lanes& a = state_->frames[n.a];
    // The right child runs only where the left child did not decide the
    // answer (AND: left is true-or-null; OR: left is false-or-null).
    std::vector<uint32_t>& mask = state_->masks[id];
    mask.clear();
    for (uint32_t i : active) {
      bool decided = is_and ? KnownFalse(a, i) : KnownTrue(a, i);
      if (!decided) mask.push_back(i);
    }
    if (!EvalNode(n.b, mask)) return false;
    const Lanes& b = state_->frames[n.b];
    for (uint32_t i : active) {
      if (is_and) {
        if (KnownFalse(a, i)) {
          out->bools[i] = 0;
        } else if (KnownFalse(b, i)) {
          out->bools[i] = 0;
        } else if (!a.nulls[i] && !b.nulls[i]) {
          out->bools[i] = 1;
        } else {
          out->nulls[i] = 1;
        }
      } else {
        if (KnownTrue(a, i)) {
          out->bools[i] = 1;
        } else if (KnownTrue(b, i)) {
          out->bools[i] = 1;
        } else if (!a.nulls[i] && !b.nulls[i]) {
          out->bools[i] = 0;
        } else {
          out->nulls[i] = 1;
        }
      }
    }
    return true;
  }

  bool EvalCompare(const Node& n, const std::vector<uint32_t>& active,
                   Lanes* out) {
    if (!EvalNode(n.a, active) || !EvalNode(n.b, active)) return false;
    const Lanes& a = state_->frames[n.a];
    const Lanes& b = state_->frames[n.b];
    for (uint32_t i : active) {
      if (a.nulls[i] || b.nulls[i]) {
        out->nulls[i] = 1;
        continue;
      }
      int c;
      if (n.string_compare) {
        int r = a.strings[i].compare(b.strings[i]);
        c = r < 0 ? -1 : (r > 0 ? 1 : 0);
      } else {
        // Value::Compare's numeric path: both sides through AsDouble,
        // including int-int (so >2^53 integers lose precision here
        // exactly as they do in the interpreter).
        double x = a.Number(i);
        double y = b.Number(i);
        c = x < y ? -1 : (x > y ? 1 : 0);
      }
      bool v = false;
      switch (n.cmp) {
        case Node::Cmp::kEq:
          v = c == 0;
          break;
        case Node::Cmp::kNe:
          v = c != 0;
          break;
        case Node::Cmp::kLt:
          v = c < 0;
          break;
        case Node::Cmp::kLe:
          v = c <= 0;
          break;
        case Node::Cmp::kGt:
          v = c > 0;
          break;
        case Node::Cmp::kGe:
          v = c >= 0;
          break;
      }
      out->bools[i] = v ? 1 : 0;
    }
    return true;
  }

  bool EvalArith(const Node& n, const std::vector<uint32_t>& active,
                 Lanes* out) {
    if (!EvalNode(n.a, active) || !EvalNode(n.b, active)) return false;
    const Lanes& a = state_->frames[n.a];
    const Lanes& b = state_->frames[n.b];
    for (uint32_t i : active) {
      if (a.nulls[i] || b.nulls[i]) {
        out->nulls[i] = 1;
        continue;
      }
      if (n.op == Node::Op::kMod) {
        if (b.ints[i] == 0) return false;  // interpreter: division by zero
        out->ints[i] = WrapMod(a.ints[i], b.ints[i]);
        continue;
      }
      if (n.op == Node::Op::kDiv) {
        double y = b.Number(i);
        if (y == 0) return false;  // interpreter: division by zero
        out->doubles[i] = a.Number(i) / y;
        continue;
      }
      if (n.int_arith) {
        int64_t x = a.ints[i];
        int64_t y = b.ints[i];
        switch (n.op) {
          case Node::Op::kAdd:
            out->ints[i] = WrapAdd(x, y);
            break;
          case Node::Op::kSub:
            out->ints[i] = WrapSub(x, y);
            break;
          default:
            out->ints[i] = WrapMul(x, y);
            break;
        }
      } else {
        double x = a.Number(i);
        double y = b.Number(i);
        switch (n.op) {
          case Node::Op::kAdd:
            out->doubles[i] = x + y;
            break;
          case Node::Op::kSub:
            out->doubles[i] = x - y;
            break;
          default:
            out->doubles[i] = x * y;
            break;
        }
      }
    }
    return true;
  }

  const std::vector<Node>& nodes_;
  const Row* rows_;
  size_t block_rows_;
  EvalState* state_;
};

}  // namespace

bool Program::Eval(const Row* rows, size_t block_rows,
                   const std::vector<uint32_t>& active,
                   EvalState* state) const {
  state->frames.resize(nodes.size());
  state->masks.resize(nodes.size());
  Evaluator evaluator(*this, rows, block_rows, state);
  return evaluator.EvalNode(static_cast<int>(nodes.size()) - 1, active);
}

bool RunFilter(const Program& program, const Row* rows, size_t block_rows,
               const std::vector<uint32_t>& active, EvalState* state,
               std::vector<uint32_t>* out) {
  if (!program.Eval(rows, block_rows, active, state)) return false;
  const Lanes& root = program.root(*state);
  for (uint32_t i : active) {
    if (!root.nulls[i] && root.bools[i]) out->push_back(i);
  }
  return true;
}

namespace {

// Folds row i of the block into the group's states with typed lane
// reads; the rules are exactly exec::Update's (NULL skip, double
// accumulation in row order, keep-first MIN/MAX via strict comparisons
// through the numeric view). UDx calls box the lane and go through
// exec::Update itself. Returns false on bail.
bool FoldRow(const CompiledSelect& select, uint32_t i,
             const std::vector<EvalState>& states,
             std::vector<AggState>* group) {
  for (size_t k = 0; k < select.agg_calls.size(); ++k) {
    const AggCall& call = select.agg_calls[k];
    if (call.group_pos >= 0) continue;
    AggState& s = (*group)[k];
    const int arg = select.agg_args[k];
    const Lanes* lanes = nullptr;
    if (arg >= 0) {
      lanes = &select.programs[arg].root(states[arg]);
      if (lanes->nulls[i]) continue;  // SQL aggregates skip NULLs
    }
    // arg < 0: the interpreter folds a synthetic non-null Int64(1) per
    // row (COUNT(*), or any argless aggregate call).
    if (call.fn == AggFn::kUdx) {
      const Value v = lanes != nullptr ? lanes->Box(i) : Value::Int64(1);
      if (!Update(call, v, &s).ok()) return false;
      continue;
    }
    ++s.count;
    switch (call.fn) {
      case AggFn::kSum:
      case AggFn::kAvg:
        s.sum += lanes != nullptr ? lanes->Number(i) : 1.0;
        break;
      case AggFn::kMin:
      case AggFn::kMax: {
        const int sign = call.fn == AggFn::kMin ? -1 : 1;
        Value& extreme = call.fn == AggFn::kMin ? s.min : s.max;
        int c;
        if (extreme.is_null()) {
          c = sign;
        } else if (lanes != nullptr && lanes->type == DataType::kVarchar) {
          int r = lanes->strings[i].compare(extreme.varchar_value());
          c = r < 0 ? -1 : (r > 0 ? 1 : 0);
        } else {
          double v = lanes != nullptr ? lanes->Number(i) : 1.0;
          double e = extreme.NumericValue();
          c = v < e ? -1 : (v > e ? 1 : 0);
        }
        if (c * sign > 0) {
          extreme = lanes != nullptr ? lanes->Box(i) : Value::Int64(1);
        }
        break;
      }
      default:
        break;
    }
  }
  return true;
}

}  // namespace

std::optional<std::vector<Row>> RunCompiledSelect(
    const CompiledSelect& select, const std::vector<Row>& rows) {
  std::vector<Row> out;
  EvalState filter_state;
  std::vector<EvalState> states(select.programs.size());
  GroupTable groups(&select.agg_calls);

  int min_width = 0;
  for (int c : select.group_cols) min_width = std::max(min_width, c + 1);
  for (const CompiledSelect::Output& o : select.outputs) {
    if (o.passthrough >= 0) min_width = std::max(min_width, o.passthrough + 1);
  }

  std::vector<uint32_t> all;
  std::vector<uint32_t> filtered;
  const size_t n = rows.size();
  for (size_t base = 0; base < n; base += kBlockRows) {
    const size_t len = std::min(kBlockRows, n - base);
    const Row* block = rows.data() + base;
    all.resize(len);
    for (size_t i = 0; i < len; ++i) all[i] = static_cast<uint32_t>(i);
    const std::vector<uint32_t>* active = &all;
    if (select.filter.has_value()) {
      filtered.clear();
      if (!RunFilter(*select.filter, block, len, all, &filter_state,
                     &filtered)) {
        return std::nullopt;
      }
      active = &filtered;
    }

    if (!select.aggregate) {
      for (const CompiledSelect::Output& o : select.outputs) {
        if (o.program >= 0 &&
            !select.programs[o.program].Eval(block, len, *active,
                                             &states[o.program])) {
          return std::nullopt;
        }
      }
      for (uint32_t i : *active) {
        const Row& row = block[i];
        if (static_cast<int>(row.size()) < min_width) return std::nullopt;
        Row r;
        r.reserve(select.outputs.size());
        for (const CompiledSelect::Output& o : select.outputs) {
          if (o.passthrough >= 0) {
            r.push_back(row[o.passthrough]);
          } else {
            r.push_back(select.programs[o.program].root(states[o.program])
                            .Box(i));
          }
        }
        out.push_back(std::move(r));
      }
      continue;
    }

    for (int arg : select.agg_args) {
      if (arg >= 0 &&
          !select.programs[arg].Eval(block, len, *active, &states[arg])) {
        return std::nullopt;
      }
    }
    for (uint32_t i : *active) {
      const Row& row = block[i];
      if (static_cast<int>(row.size()) < min_width) return std::nullopt;
      Status folded = groups.Add(
          row, select.group_cols, [&](GroupTable::Group& group) {
            return FoldRow(select, i, states, &group.states)
                       ? Status::OK()
                       : CancelledError("compiled fold bailed");
          });
      if (!folded.ok()) return std::nullopt;
    }
  }

  if (!select.aggregate) return out;

  if (!groups.Finish(select.group_cols.empty()).ok()) return std::nullopt;
  out.reserve(groups.groups().size());
  for (const auto& [key, group] : groups.groups()) {
    Row r;
    r.reserve(select.agg_calls.size());
    if (!groups.AppendFinal(group, &r).ok()) return std::nullopt;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace fabric::exec
