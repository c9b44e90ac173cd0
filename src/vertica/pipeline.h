#ifndef FABRIC_VERTICA_PIPELINE_H_
#define FABRIC_VERTICA_PIPELINE_H_

// Lowers SQL SELECT bodies and scan-residual predicates into the exec
// pipeline IR (exec/pipeline.h) and caches the compiled artifacts per
// plan fingerprint. Lowering is conservative: any shape whose compiled
// semantics could deviate from the row-at-a-time interpreter — NULL
// literals, HASH, scalar UDx calls, statically mistyped operands,
// multiple stars, invalid aggregate items — is "not compilable" and the
// caller keeps the interpreter, which stays authoritative for results
// and errors alike.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/hash_aggregate.h"
#include "exec/pipeline.h"
#include "storage/schema.h"
#include "vertica/sql_ast.h"
#include "vertica/sql_eval.h"

namespace fabric::vertica {

// A SELECT body lowered to the exec IR, plus the result schema the
// interpreter would have produced (ORDER BY / LIMIT stay with the
// caller, shared between both paths).
struct CompiledQuery {
  exec::CompiledSelect select;
  storage::Schema out_schema;
};

// An aggregate SELECT's items resolved for the shared group table
// (exec/hash_aggregate.h): one call per item (group columns are group
// slots), the aggregated expression of each call (null for COUNT(*) and
// group slots; borrowed from the statement), and the result schema.
struct AggregateItems {
  std::vector<int> group_cols;
  std::vector<exec::AggCall> calls;
  std::vector<const sql::Expr*> args;
  storage::Schema out_schema;
};

// Items must be GROUP BY columns or simple aggregate calls (builtin or
// aggregate UDx, whose extra arguments are constants handed to init).
// Any other shape fails with the interpreter's typed error.
Result<AggregateItems> ResolveAggregateItems(
    const sql::SelectStmt& select, const storage::Schema& schema,
    const sql::UdxResolver* udx, const sql::AggregateUdxResolver* agg_udx);

// Lowering entry points (exposed for tests). nullopt: not compilable.
std::optional<exec::Program> LowerExpr(const sql::Expr& expr,
                                       const storage::Schema& schema);
std::optional<CompiledQuery> LowerSelect(
    const sql::SelectStmt& select, const storage::Schema& schema,
    const sql::UdxResolver* udx, const sql::AggregateUdxResolver* agg_udx);

// Per-database compilation cache. Both outcomes are cached — a compiled
// artifact and a "not compilable" verdict — keyed by (schema signature,
// statement rendering), so repeated plans skip lowering entirely and
// V2S failover retries of the same partition query reuse one artifact.
class PipelineCompiler {
 public:
  explicit PipelineCompiler(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // nullptr: not compilable (callers run the interpreter). Returns
  // nullptr without lowering when disabled.
  std::shared_ptr<const CompiledQuery> GetOrCompileSelect(
      const sql::SelectStmt& select, const storage::Schema& schema,
      const sql::UdxResolver* udx, const sql::AggregateUdxResolver* agg_udx);

  // Compiles a WHERE-residual predicate (strict EvalPredicate semantics)
  // for the scan's batch path; nullptr when not compilable or disabled.
  std::shared_ptr<const exec::Program> GetOrCompilePredicate(
      const sql::Expr& expr, const storage::Schema& schema);

  // Cache telemetry (tests assert retries hit the cache).
  int64_t cache_hits() const { return cache_hits_; }
  int64_t cache_misses() const { return cache_misses_; }

 private:
  bool enabled_;
  std::map<std::string, std::shared_ptr<const CompiledQuery>> selects_;
  std::map<std::string, std::shared_ptr<const exec::Program>> predicates_;
  int64_t cache_hits_ = 0;
  int64_t cache_misses_ = 0;
};

}  // namespace fabric::vertica

#endif  // FABRIC_VERTICA_PIPELINE_H_
