#ifndef FABRIC_EXEC_PIPELINE_H_
#define FABRIC_EXEC_PIPELINE_H_

// The pipeline compiler's execution layer: a kernel-composition design
// (no codegen) that lowers scalar expressions and whole SELECT pipelines
// — filter, projected expressions, GROUP BY + aggregates — into typed
// vector programs evaluated over typed column lanes (storage::LaneRows,
// what a scan emits) with selection vectors.
//
// Both engines lower into this IR: the Vertica SQL executor compiles its
// interpreter-residual expressions here (vertica/pipeline.h) and the
// Spark shuffle map stage fuses scan→filter→combine through the same
// Program type (spark/shuffle/exec.cc).
//
// The contract that makes the compiled path safe to cache and swap in
// transparently is *bail-out, never approximate*: a Program evaluates a
// row set only when every value matches its statically inferred type
// and no operation errors. On any surprise — a row value whose dynamic type
// deviates from the schema, a division by zero, a UDx update failure —
// execution reports "not handled" and the caller re-runs the
// row-at-a-time interpreter, which is authoritative for both results and
// errors. Compiled success therefore implies byte-identical output to
// the interpreter by construction: the evaluation rules below replicate
// the interpreter's semantics exactly (Kleene short-circuit masking,
// numeric promotion through double, NULL-skipping aggregate folds in row
// order, display-string group keys, std::map group ordering).

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/hash_aggregate.h"
#include "storage/lanes.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fabric::exec {

// Program inputs and evaluation frames are the storage layer's typed
// lanes: a node's frame has one slot per input row, and only positions
// named by the active selection hold defined values.
using storage::Lanes;
using storage::LaneRows;

// One operation of a compiled expression tree. Nodes are stored in a
// flat vector (children before parents, root last); `a`/`b` index into
// it. Output types are inferred at compile time, so evaluation never
// dispatches on runtime types.
struct Node {
  enum class Op {
    kConst,    // constant (non-NULL literal)
    kColumn,   // input column load with declared-type check
    kNot,      // NOT (bool)
    kNegate,   // unary minus
    kIsNull,   // IS [NOT] NULL (negated)
    kAnd,      // Kleene AND with masked rhs (interpreter short-circuit)
    kOr,       // Kleene OR with masked rhs
    kCompare,  // = <> < <= > >= via Value::Compare's promotion rules
    kConcat,   // || on varchar lanes
    kAdd, kSub, kMul,  // int64 when both-int, else double
    kDiv,      // always double; bails on divisor == 0
    kMod,      // int64 %, bails on divisor == 0
    kAbs, kFloor, kCeil, kLength, kUpper, kLower,
  };
  enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe };

  Op op = Op::kConst;
  storage::DataType type = storage::DataType::kBool;  // static output type
  int a = -1;
  int b = -1;
  int column = -1;              // kColumn
  storage::Value constant;      // kConst
  Cmp cmp = Cmp::kEq;           // kCompare
  bool negated = false;         // kIsNull: IS NOT NULL
  bool int_arith = false;       // kAdd/kSub/kMul on int64 lanes
  bool string_compare = false;  // kCompare on varchar lanes
};

// Reusable per-evaluation scratch (lane frames and sub-selections);
// hoisted out of Program::Eval so repeated evaluations reuse capacity.
// `views[id]` is node id's result: its own frame, or — for a column load
// of a matching typed lane — the input lane itself, read in place.
struct EvalState {
  std::vector<Lanes> frames;
  std::vector<const Lanes*> views;
  std::vector<std::vector<uint32_t>> masks;
};

// A compiled expression. Evaluation touches exactly the (row, node)
// pairs the interpreter would: AND/OR evaluate their right child only at
// positions the left child left undecided.
struct Program {
  std::vector<Node> nodes;

  storage::DataType out_type() const { return nodes.back().type; }

  // Evaluates over input row i for each active i (row indices of
  // `input`, ascending). Returns false ("bail") on any dynamic type
  // mismatch or evaluation error; lane contents are then unspecified and
  // the caller must fall back to the interpreter.
  bool Eval(const LaneRows& input, const std::vector<uint32_t>& active,
            EvalState* state) const;

  // The root's lanes after a successful Eval (indexed by input row).
  const Lanes& root(const EvalState& state) const {
    return *state.views[nodes.size() - 1];
  }
};

// Strict predicate filter (the interpreter's EvalPredicate semantics:
// NULL is no-match). Appends surviving members of `active` to `out` in
// order. The program's out_type must be kBool (enforced at compile).
// Returns false on bail.
bool RunFilter(const Program& program, const LaneRows& input,
               const std::vector<uint32_t>& active, EvalState* state,
               std::vector<uint32_t>* out);

// ---------------------------------------------------------------- SELECT

// A whole compiled SELECT body (everything between the gathered lanes
// and ORDER BY/LIMIT): filter → {projected expressions | grouped
// aggregation}. Pure and engine-neutral, so it caches per plan
// fingerprint.
struct CompiledSelect {
  std::optional<Program> filter;

  // Non-aggregate output: exactly one of passthrough (a positional
  // column copy, from SELECT *) or program is set.
  struct Output {
    int passthrough = -1;
    int program = -1;
  };
  bool aggregate = false;
  std::vector<Output> outputs;

  // Aggregate output: one call per SELECT item (group items are group
  // slots), with agg_args[i] the program feeding call i (-1 = COUNT(*)
  // or a group slot).
  std::vector<int> group_cols;
  std::vector<AggCall> agg_calls;
  std::vector<int> agg_args;

  std::vector<Program> programs;
};

// The input columns the compiled SELECT reads: its programs' column
// loads, its group keys and its passthrough outputs.
std::vector<int> InputColumns(const CompiledSelect& select);

// A compiled SELECT's result: a projection's output columns as lanes,
// or an aggregate's finished group rows (GroupTable::AppendFinal boxes
// them, and they go to the QueryResult as they are).
struct CompiledResult {
  std::optional<LaneRows> lanes;
  std::vector<storage::Row> rows;
};

// Runs the compiled SELECT over `input`. Returns nullopt on bail (the
// caller re-runs the interpreted path, which reproduces the exact
// result or the exact error). On success the boxed rows are
// byte-identical to the interpreter's: projection preserves row order;
// aggregation folds in row order and emits groups sorted by the
// interpreter's encoded group key.
std::optional<CompiledResult> RunCompiledSelect(const CompiledSelect& select,
                                                const LaneRows& input);

}  // namespace fabric::exec

#endif  // FABRIC_EXEC_PIPELINE_H_
