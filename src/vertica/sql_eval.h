#ifndef FABRIC_VERTICA_SQL_EVAL_H_
#define FABRIC_VERTICA_SQL_EVAL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/hash_aggregate.h"
#include "storage/schema.h"
#include "vertica/sql_ast.h"

namespace fabric::vertica::sql {

// Resolver for non-builtin scalar functions (the UDx hook): receives the
// upper-cased function name, evaluated arguments and USING PARAMETERS.
using UdxResolver = std::function<Result<storage::Value>(
    const std::string& function, const std::vector<storage::Value>& args,
    const std::map<std::string, storage::Value>& parameters)>;

// A mergeable aggregate UDx (the hook APPROXIMATE_COUNT_DISTINCT plugs
// into). The executor drives the classic init/update/merge/finalize
// lifecycle over an opaque byte-string state:
//   init      builds the initial state from the call's constant extra
//             arguments (everything after the aggregated expression,
//             e.g. the sketch precision), evaluated once per query;
//   update    folds one non-NULL input value into the state (the
//             executor skips SQL NULLs, matching built-in aggregates);
//   merge     combines another state produced by the same init — must be
//             commutative, associative and idempotent so partial states
//             survive any re-execution or combine order;
//   finalize  renders the state as the output value.
// update/merge/finalize are the engine-neutral exec::AggUdx the shared
// group table (exec/hash_aggregate.h) drives.
struct AggregateUdx : exec::AggUdx {
  storage::DataType output_type = storage::DataType::kFloat64;
  std::function<Result<std::string>(const std::vector<storage::Value>& extra)>
      init;
};

// Looks up an aggregate UDx by upper-cased name; returns nullptr when the
// name is not a registered aggregate.
using AggregateUdxResolver =
    std::function<const AggregateUdx*(const std::string& function)>;

struct EvalContext {
  const storage::Schema* schema = nullptr;  // null for constant expressions
  const storage::Row* row = nullptr;
  const UdxResolver* udx = nullptr;
  // When set, EvalCall rejects registered aggregate UDx names per-row
  // with a typed error (same treatment as COUNT/SUM/...).
  const AggregateUdxResolver* aggregate_udx = nullptr;
};

// The ring hash exposed to SQL is signed: HASH(...) returns the raw 64-bit
// ring position with its top bit flipped, which maps the unsigned ring
// order onto the signed int64 order so range predicates compare correctly.
int64_t RingHashToSigned(uint64_t ring_hash);
uint64_t SignedToRingHash(int64_t signed_hash);

// Evaluates a scalar expression under SQL three-valued logic (NULL
// propagates; AND/OR follow Kleene logic). Aggregate function names
// (COUNT/SUM/AVG/MIN/MAX) are rejected here — the executor intercepts
// them before row-level evaluation.
Result<storage::Value> Eval(const Expr& expr, const EvalContext& context);

// WHERE semantics: row qualifies only when the expression is TRUE (a NULL
// result filters the row out).
Result<bool> EvalPredicate(const Expr& expr, const EvalContext& context);

// UPDATE/DELETE row-matching semantics: evaluation errors count as "no
// match" rather than failing the statement (the historical behavior of
// the write path's row filter).
bool EvalPredicateLenient(const Expr& expr, const EvalContext& context);

// True for COUNT/SUM/AVG/MIN/MAX.
bool IsAggregateFunction(const std::string& upper_name);

// Output-type inference for result schemas (used when zero rows return;
// shared by the interpreter's schema building and the pipeline compiler
// so both paths declare identical result schemas).
storage::DataType InferType(const Expr& expr, const storage::Schema& schema);

// Output column name for a SELECT item: alias, else the referenced
// column, else "col<position>".
std::string SelectItemName(const SelectItem& item, int position);

// True when the expression tree contains an aggregate call, counting
// registered aggregate UDx names when `aggregate_udx` is given.
bool ContainsAggregate(const Expr& expr,
                       const AggregateUdxResolver* aggregate_udx);

// True when the SELECT aggregates: it has a GROUP BY or an item that
// contains an aggregate call (builtin or registered aggregate UDx).
bool IsAggregateSelect(const SelectStmt& select,
                       const AggregateUdxResolver* aggregate_udx);

}  // namespace fabric::vertica::sql

#endif  // FABRIC_VERTICA_SQL_EVAL_H_
