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

namespace {

bool KnownFalse(const Lanes& l, uint32_t i) {
  return !l.nulls[i] && !l.values.bools[i];
}

bool KnownTrue(const Lanes& l, uint32_t i) {
  return !l.nulls[i] && l.values.bools[i];
}

// Recursive masked evaluation over the flat node vector. Each node gets
// its own lane frame; AND/OR nodes additionally own a sub-selection in
// state->masks so their right child evaluates only where the left child
// left the answer undecided — exactly the (row, node) pairs the
// interpreter's short-circuit touches, which is what makes divide-by-zero
// and UDx-error behavior identical between the two paths.
class Evaluator {
 public:
  Evaluator(const Program& program, const LaneRows& input, EvalState* state)
      : nodes_(program.nodes), input_(input), state_(state) {}

  bool EvalNode(int id, const std::vector<uint32_t>& active) {
    const Node& n = nodes_[id];
    if (n.op == Node::Op::kColumn) return EvalColumn(n, id, active);
    Lanes& out = state_->frames[id];
    state_->views[id] = &out;
    out.Reset(input_.num_rows, n.type);
    switch (n.op) {
      case Node::Op::kConst:
        return EvalConst(n, active, &out);
      case Node::Op::kColumn:
        return false;  // handled above
      case Node::Op::kNot: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = Frame(n.a);
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.values.bools[i] = a.values.bools[i] ? 0 : 1;
          }
        }
        return true;
      }
      case Node::Op::kNegate: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = Frame(n.a);
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else if (n.type == DataType::kInt64) {
            out.values.ints[i] = WrapNeg(a.values.ints[i]);
          } else {
            out.values.doubles[i] = -a.Number(i);
          }
        }
        return true;
      }
      case Node::Op::kIsNull: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = Frame(n.a);
        for (uint32_t i : active) {
          bool is_null = a.nulls[i] != 0;
          out.values.bools[i] = (n.negated ? !is_null : is_null) ? 1 : 0;
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
        const Lanes& a = Frame(n.a);
        const Lanes& b = Frame(n.b);
        for (uint32_t i : active) {
          if (a.nulls[i] || b.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.values.strings[i] =
                StrCat(a.values.strings[i], b.values.strings[i]);
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
        const Lanes& a = Frame(n.a);
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else if (n.type == DataType::kInt64) {
            out.values.ints[i] = WrapAbs(a.values.ints[i]);
          } else {
            out.values.doubles[i] = std::fabs(a.Number(i));
          }
        }
        return true;
      }
      case Node::Op::kFloor:
      case Node::Op::kCeil: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = Frame(n.a);
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            double d = a.Number(i);
            out.values.doubles[i] =
                n.op == Node::Op::kFloor ? std::floor(d) : std::ceil(d);
          }
        }
        return true;
      }
      case Node::Op::kLength: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = Frame(n.a);
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.values.ints[i] =
                static_cast<int64_t>(a.values.strings[i].size());
          }
        }
        return true;
      }
      case Node::Op::kUpper:
      case Node::Op::kLower: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = Frame(n.a);
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            const std::string& v = a.values.strings[i];
            out.values.strings[i] =
                n.op == Node::Op::kUpper ? ToUpper(v) : ToLower(v);
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
        for (uint32_t i : active) out->values.bools[i] = v;
        return true;
      }
      case DataType::kInt64: {
        int64_t v = c.int64_value();
        for (uint32_t i : active) out->values.ints[i] = v;
        return true;
      }
      case DataType::kFloat64: {
        double v = c.float64_value();
        for (uint32_t i : active) out->values.doubles[i] = v;
        return true;
      }
      case DataType::kVarchar: {
        for (uint32_t i : active) out->values.strings[i] = c.varchar_value();
        return true;
      }
    }
    return false;
  }

  const Lanes& Frame(int id) const { return *state_->views[id]; }

  // A typed input lane of the node's type is read in place. A boxed lane
  // (values drifting from the schema) is unboxed at the active rows;
  // any drift between a value and the compiled static type is a bail,
  // never a coercion.
  bool EvalColumn(const Node& n, int id, const std::vector<uint32_t>& active) {
    if (n.column < 0 ||
        n.column >= static_cast<int>(input_.columns.size())) {
      return false;
    }
    const Lanes& lane = input_.columns[n.column];
    if (lane.size() != input_.num_rows) return false;
    if (!lane.is_boxed() && lane.type == n.type) {
      state_->views[id] = &lane;
      return true;
    }
    Lanes& out = state_->frames[id];
    state_->views[id] = &out;
    out.Reset(input_.num_rows, n.type);
    for (uint32_t i : active) {
      if (lane.IsNull(i)) {
        out.nulls[i] = 1;
        continue;
      }
      if (!lane.is_boxed()) return false;
      const Value& v = lane.boxed[i];
      if (v.type() != n.type) return false;
      switch (n.type) {
        case DataType::kBool:
          out.values.bools[i] = v.bool_value() ? 1 : 0;
          break;
        case DataType::kInt64:
          out.values.ints[i] = v.int64_value();
          break;
        case DataType::kFloat64:
          out.values.doubles[i] = v.float64_value();
          break;
        case DataType::kVarchar:
          out.values.strings[i] = v.varchar_value();
          break;
      }
    }
    return true;
  }

  bool EvalAndOr(const Node& n, int id, const std::vector<uint32_t>& active,
                 bool is_and, Lanes* out) {
    if (!EvalNode(n.a, active)) return false;
    const Lanes& a = Frame(n.a);
    // The right child runs only where the left child did not decide the
    // answer (AND: left is true-or-null; OR: left is false-or-null).
    std::vector<uint32_t>& mask = state_->masks[id];
    mask.clear();
    for (uint32_t i : active) {
      bool decided = is_and ? KnownFalse(a, i) : KnownTrue(a, i);
      if (!decided) mask.push_back(i);
    }
    if (!EvalNode(n.b, mask)) return false;
    const Lanes& b = Frame(n.b);
    for (uint32_t i : active) {
      if (is_and) {
        if (KnownFalse(a, i)) {
          out->values.bools[i] = 0;
        } else if (KnownFalse(b, i)) {
          out->values.bools[i] = 0;
        } else if (!a.nulls[i] && !b.nulls[i]) {
          out->values.bools[i] = 1;
        } else {
          out->nulls[i] = 1;
        }
      } else {
        if (KnownTrue(a, i)) {
          out->values.bools[i] = 1;
        } else if (KnownTrue(b, i)) {
          out->values.bools[i] = 1;
        } else if (!a.nulls[i] && !b.nulls[i]) {
          out->values.bools[i] = 0;
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
    const Lanes& a = Frame(n.a);
    const Lanes& b = Frame(n.b);
    for (uint32_t i : active) {
      if (a.nulls[i] || b.nulls[i]) {
        out->nulls[i] = 1;
        continue;
      }
      int c;
      if (n.string_compare) {
        int r = a.values.strings[i].compare(b.values.strings[i]);
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
      out->values.bools[i] = v ? 1 : 0;
    }
    return true;
  }

  bool EvalArith(const Node& n, const std::vector<uint32_t>& active,
                 Lanes* out) {
    if (!EvalNode(n.a, active) || !EvalNode(n.b, active)) return false;
    const Lanes& a = Frame(n.a);
    const Lanes& b = Frame(n.b);
    for (uint32_t i : active) {
      if (a.nulls[i] || b.nulls[i]) {
        out->nulls[i] = 1;
        continue;
      }
      if (n.op == Node::Op::kMod) {
        // The interpreter errors on division by zero.
        if (b.values.ints[i] == 0) return false;
        out->values.ints[i] = WrapMod(a.values.ints[i], b.values.ints[i]);
        continue;
      }
      if (n.op == Node::Op::kDiv) {
        double y = b.Number(i);
        if (y == 0) return false;  // interpreter: division by zero
        out->values.doubles[i] = a.Number(i) / y;
        continue;
      }
      if (n.int_arith) {
        int64_t x = a.values.ints[i];
        int64_t y = b.values.ints[i];
        switch (n.op) {
          case Node::Op::kAdd:
            out->values.ints[i] = WrapAdd(x, y);
            break;
          case Node::Op::kSub:
            out->values.ints[i] = WrapSub(x, y);
            break;
          default:
            out->values.ints[i] = WrapMul(x, y);
            break;
        }
      } else {
        double x = a.Number(i);
        double y = b.Number(i);
        switch (n.op) {
          case Node::Op::kAdd:
            out->values.doubles[i] = x + y;
            break;
          case Node::Op::kSub:
            out->values.doubles[i] = x - y;
            break;
          default:
            out->values.doubles[i] = x * y;
            break;
        }
      }
    }
    return true;
  }

  const std::vector<Node>& nodes_;
  const LaneRows& input_;
  EvalState* state_;
};

}  // namespace

bool Program::Eval(const LaneRows& input, const std::vector<uint32_t>& active,
                   EvalState* state) const {
  state->frames.resize(nodes.size());
  state->views.assign(nodes.size(), nullptr);
  state->masks.resize(nodes.size());
  Evaluator evaluator(*this, input, state);
  return evaluator.EvalNode(static_cast<int>(nodes.size()) - 1, active);
}

bool RunFilter(const Program& program, const LaneRows& input,
               const std::vector<uint32_t>& active, EvalState* state,
               std::vector<uint32_t>* out) {
  if (!program.Eval(input, active, state)) return false;
  const Lanes& root = program.root(*state);
  for (uint32_t i : active) {
    if (!root.nulls[i] && root.values.bools[i]) out->push_back(i);
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
          int r = lanes->values.strings[i].compare(extreme.varchar_value());
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

std::vector<int> InputColumns(const CompiledSelect& select) {
  std::vector<int> columns = select.group_cols;
  auto add_loads = [&columns](const Program& program) {
    for (const Node& n : program.nodes) {
      if (n.op == Node::Op::kColumn) columns.push_back(n.column);
    }
  };
  if (select.filter.has_value()) add_loads(*select.filter);
  for (const Program& program : select.programs) add_loads(program);
  for (const CompiledSelect::Output& o : select.outputs) {
    if (o.passthrough >= 0) columns.push_back(o.passthrough);
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return columns;
}

std::optional<CompiledResult> RunCompiledSelect(const CompiledSelect& select,
                                                const LaneRows& input) {
  size_t min_width = 0;
  for (int c : select.group_cols) {
    min_width = std::max(min_width, static_cast<size_t>(c) + 1);
  }
  for (const CompiledSelect::Output& o : select.outputs) {
    if (o.passthrough >= 0) {
      min_width = std::max(min_width, static_cast<size_t>(o.passthrough) + 1);
    }
  }

  std::vector<uint32_t> all(input.num_rows);
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  const std::vector<uint32_t>* active = &all;
  std::vector<uint32_t> filtered;
  if (select.filter.has_value()) {
    EvalState filter_state;
    if (!RunFilter(*select.filter, input, all, &filter_state, &filtered)) {
      return std::nullopt;
    }
    active = &filtered;
  }
  if (!active->empty()) {
    if (input.columns.size() < min_width) return std::nullopt;
    // Group keys and passthrough outputs read their lanes directly; a
    // column the input did not materialize is a bail.
    for (int c : InputColumns(select)) {
      if (input.columns[c].size() != input.num_rows) return std::nullopt;
    }
  }

  std::vector<EvalState> states(select.programs.size());
  CompiledResult result;
  if (!select.aggregate) {
    LaneRows& out = result.lanes.emplace();
    out.num_rows = active->size();
    out.columns.reserve(select.outputs.size());
    for (const CompiledSelect::Output& o : select.outputs) {
      const Lanes* src = nullptr;
      if (o.passthrough >= 0) {
        src = &input.columns[o.passthrough];
      } else {
        const Program& program = select.programs[o.program];
        if (!program.Eval(input, *active, &states[o.program])) {
          return std::nullopt;
        }
        src = &program.root(states[o.program]);
      }
      if (active->size() == input.num_rows) {
        out.columns.push_back(*src);  // every row, in order
      } else {
        out.columns.emplace_back(src->type).AppendTaken(*src, *active);
      }
    }
    return result;
  }

  for (int arg : select.agg_args) {
    if (arg >= 0 && !select.programs[arg].Eval(input, *active, &states[arg])) {
      return std::nullopt;
    }
  }
  GroupTable groups(&select.agg_calls);
  for (uint32_t i : *active) {
    Status folded = groups.Add(
        input, i, select.group_cols, [&](GroupTable::Group& group) {
          return FoldRow(select, i, states, &group.states)
                     ? Status::OK()
                     : CancelledError("compiled fold bailed");
        });
    if (!folded.ok()) return std::nullopt;
  }
  if (!groups.Finish(select.group_cols.empty()).ok()) return std::nullopt;
  result.rows.reserve(groups.groups().size());
  for (const auto& [key, group] : groups.groups()) {
    Row r;
    r.reserve(select.agg_calls.size());
    if (!groups.AppendFinal(group, &r).ok()) return std::nullopt;
    result.rows.push_back(std::move(r));
  }
  return result;
}

}  // namespace fabric::exec
