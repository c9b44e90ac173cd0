#ifndef FABRIC_SPARK_TYPES_H_
#define FABRIC_SPARK_TYPES_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"

namespace fabric::spark {

// Key=value options passed through the External Data Source API
// (Table 1's `opts`: host, user, table, numpartitions, ...). Keys are
// case-insensitive (stored lower).
class SourceOptions {
 public:
  SourceOptions() = default;

  SourceOptions& Set(const std::string& key, const std::string& value);
  SourceOptions& Set(const std::string& key, int64_t value);

  bool Has(const std::string& key) const;
  Result<std::string> Get(const std::string& key) const;
  std::string GetOr(const std::string& key,
                    const std::string& fallback) const;
  Result<int64_t> GetInt(const std::string& key) const;
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  double GetDoubleOr(const std::string& key, double fallback) const;

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

// Simple column-vs-literal predicates, the shape Spark's External Data
// Source API can push down to sources.
struct ColumnPredicate {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe, kIsNull, kIsNotNull };
  std::string column;
  Op op = Op::kEq;
  storage::Value literal;

  // Evaluates against a row of `schema`. NULL comparisons are false
  // (SQL semantics).
  Result<bool> Matches(const storage::Schema& schema,
                       const storage::Row& row) const;

  // Renders as a SQL condition ("score >= 20") for sources that push
  // down by query rewriting.
  std::string ToSqlCondition() const;
};

// Aggregate functions a source may evaluate on the DataFrame's behalf.
// The set mirrors what both the Spark-side shuffle aggregation and the
// Vertica SQL engine implement, so a pushed and an unpushed plan agree.
// kApproxCountDistinct and kHllSketch carry mergeable HyperLogLog
// register state instead of scalar accumulators (common/hll.h); the
// former finalizes to the cardinality estimate, the latter to the
// versioned serialized sketch.
enum class AggregateFn {
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kApproxCountDistinct,
  kHllSketch,
};

const char* AggregateFnName(AggregateFn fn);  // "COUNT", "SUM", ...

// True for the sketch-state aggregates (variable-width partial state).
bool IsSketchFn(AggregateFn fn);

// One aggregate call over a source column. An empty `column` means
// COUNT(*) (counts rows, including NULLs).
struct AggregateCall {
  AggregateFn fn = AggregateFn::kCount;
  std::string column;
  // HLL precision for the sketch aggregates (ignored otherwise).
  int precision = 0;

  // Renders as a SQL select item ("SUM(score)", "COUNT(*)",
  // "APPROXIMATE_COUNT_DISTINCT(user_id, 12)") for sources that push
  // down by query rewriting.
  std::string ToSqlExpr() const;
};

// A grouped aggregation pushed whole into the source: the source returns
// one row per group (keys first, then the finalized aggregates).
struct AggregatePushDown {
  std::vector<std::string> group_columns;
  std::vector<AggregateCall> calls;
};

// What an action pushed into a scan source: column pruning, filters,
// whether only the row count is needed, a row limit, and optionally a
// whole grouped aggregation.
struct PushDown {
  std::vector<std::string> required_columns;  // empty: all
  std::vector<ColumnPredicate> filters;
  bool count_only = false;
  // Per-partition row cap (< 0: none). Sound because a global LIMIT n
  // needs at most n rows from every partition.
  int64_t limit = -1;
  std::optional<AggregatePushDown> aggregate;
};

enum class SaveMode { kOverwrite, kAppend, kErrorIfExists };

}  // namespace fabric::spark

#endif  // FABRIC_SPARK_TYPES_H_
