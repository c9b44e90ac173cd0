#ifndef FABRIC_EXEC_PIPELINE_H_
#define FABRIC_EXEC_PIPELINE_H_

// The pipeline compiler's execution layer: a kernel-composition design
// (no codegen) that lowers scalar expressions and whole SELECT pipelines
// — filter, projected expressions, GROUP BY + aggregates — into typed
// vector programs evaluated over row blocks with selection vectors.
//
// Both engines lower into this IR: the Vertica SQL executor compiles its
// interpreter-residual expressions here (vertica/pipeline.h) and the
// Spark shuffle map stage fuses scan→filter→combine through the same
// Program type (spark/shuffle/exec.cc).
//
// The contract that makes the compiled path safe to cache and swap in
// transparently is *bail-out, never approximate*: a Program evaluates a
// block only when every value matches its statically inferred type and
// no operation errors. On any surprise — a row value whose dynamic type
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
#include "storage/schema.h"
#include "storage/value.h"

namespace fabric::exec {

// Rows per evaluation block: matches the storage scan batch so a block
// of gathered rows and a storage ColumnBatch vectorize identically.
inline constexpr size_t kBlockRows = 1024;

// Dense typed lanes over a row block. Only the vector for the lane type
// is sized; only positions named by the active selection hold defined
// values.
struct Lanes {
  storage::DataType type = storage::DataType::kBool;
  std::vector<uint8_t> nulls;  // 1 = SQL NULL
  std::vector<uint8_t> bools;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;

  void Reset(size_t n, storage::DataType t);
  // Boxes lane `i` back into a Value (exactly the Value the interpreter
  // would have produced: same type, same bits).
  storage::Value Box(uint32_t i) const;
  // Value::AsDouble semantics for numeric lanes (never called on
  // varchar lanes; the compiler rejects those shapes).
  double Number(uint32_t i) const;
};

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
// hoisted out of Program::Eval so block loops reuse capacity.
struct EvalState {
  std::vector<Lanes> frames;
  std::vector<std::vector<uint32_t>> masks;
};

// A compiled expression. Evaluation touches exactly the (row, node)
// pairs the interpreter would: AND/OR evaluate their right child only at
// positions the left child left undecided.
struct Program {
  std::vector<Node> nodes;

  storage::DataType out_type() const { return nodes.back().type; }

  // Evaluates over rows[i] for each active i (indices are relative to
  // `rows`, a block of at most kBlockRows — callers chunk larger
  // inputs). Returns false ("bail") on any dynamic type mismatch or
  // evaluation error; lane contents are then unspecified and the caller
  // must fall back to the interpreter.
  bool Eval(const storage::Row* rows, size_t block_rows,
            const std::vector<uint32_t>& active, EvalState* state) const;

  // The root's lanes after a successful Eval.
  const Lanes& root(const EvalState& state) const {
    return state.frames[nodes.size() - 1];
  }
};

// Strict predicate filter (the interpreter's EvalPredicate semantics:
// NULL is no-match). Appends surviving members of `active` to `out` in
// order. The program's out_type must be kBool (enforced at compile).
// Returns false on bail.
bool RunFilter(const Program& program, const storage::Row* rows,
               size_t block_rows, const std::vector<uint32_t>& active,
               EvalState* state, std::vector<uint32_t>* out);

// ---------------------------------------------------------------- SELECT

// A whole compiled SELECT body (everything between the gathered rows and
// ORDER BY/LIMIT): filter → {projected expressions | grouped
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

// Runs the compiled SELECT over `rows` in blocks of kBlockRows. Returns
// nullopt on bail (the caller re-runs the interpreted path, which
// reproduces the exact result or the exact error). On success the rows
// are byte-identical to the interpreter's: projection preserves row
// order; aggregation folds in row order and emits groups sorted by the
// interpreter's encoded group key.
std::optional<std::vector<storage::Row>> RunCompiledSelect(
    const CompiledSelect& select, const std::vector<storage::Row>& rows);

}  // namespace fabric::exec

#endif  // FABRIC_EXEC_PIPELINE_H_
