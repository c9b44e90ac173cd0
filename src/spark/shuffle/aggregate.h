#ifndef FABRIC_SPARK_SHUFFLE_AGGREGATE_H_
#define FABRIC_SPARK_SHUFFLE_AGGREGATE_H_

// The shuffle's map-side combine and reduce-side merge: the partial-row
// encoding around the shared grouped-aggregation core
// (exec/hash_aggregate.h) that the Vertica SQL engine also runs, so a
// plan computed through the Spark shuffle and the same plan pushed into
// Vertica return byte-identical rows. Sketch calls fold through the
// same raw-register HLL state as Vertica's sketch UDx.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/hash_aggregate.h"
#include "spark/types.h"
#include "storage/schema.h"

namespace fabric::spark::shuffle {

// One aggregate over a column of the input schema (`column` < 0 means
// COUNT(*): counts every row). Sketch aggregates carry their HLL
// precision so every layer builds register-identical state.
struct AggCall {
  AggregateFn fn = AggregateFn::kCount;
  int column = -1;
  int precision = 0;
};

// A grouped aggregation: group by `keys` (indices into `in_schema`),
// evaluate `calls`, emit rows of `out_schema` (key columns first, then
// one column per call).
struct AggPlan {
  std::vector<int> keys;
  std::vector<AggCall> calls;
  storage::Schema in_schema;
  storage::Schema out_schema;
};

// Rows flowing between map-side combine and reduce-side merge carry the
// group keys followed by a per-call accumulator layout. Scalar calls
// contribute four fixed fields [count INTEGER, sum FLOAT, min <col
// type>, max <col type>] (`count` is the number of non-null inputs, so
// "any input seen" is exactly count > 0); sketch calls contribute one
// variable-length field [sketch VARCHAR] holding the serialized HLL
// registers. Consumers must walk the layout with PartialWidth — partial
// rows are NOT a fixed stride per call.
storage::Schema PartialSchema(const AggPlan& plan);

// Number of partial-row fields the call occupies (4 scalar, 1 sketch).
int PartialWidth(const AggCall& call);

// Map-side combine: folds raw input rows one at a time (the fused map
// stage in exec.cc feeds surviving scan rows without materializing the
// filtered row vector) and Finish() emits one partial row per group,
// sorted by encoded group key.
class Combiner {
 public:
  // `plan` is borrowed and must outlive the combiner. Only `keys` and
  // `calls` are consulted, so a column-remapped copy works. `spill`
  // (borrowed, may be null) bounds the resident group table.
  explicit Combiner(const AggPlan* plan,
                    const exec::SpillPolicy* spill = nullptr);
  ~Combiner();

  Status Add(const storage::Row& row);
  Result<std::vector<storage::Row>> Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Reduce-side merge: merges partial rows (keys at positions 0..k-1) and
// finalizes each call — COUNT -> INTEGER, SUM/AVG -> FLOAT or NULL when
// no non-null input, MIN/MAX -> the extremal value. Output is sorted by
// encoded group key. With no group keys, emits exactly one row (the SQL
// aggregate-without-GROUP-BY convention) even for empty input.
Result<std::vector<storage::Row>> MergePartials(
    const std::vector<storage::Row>& partials, const AggPlan& plan,
    const exec::SpillPolicy* spill = nullptr);

// The shuffle partition a row hashes to. `keys` empty means hash over
// all columns (pure repartitioning).
int PartitionOf(const storage::Row& row, const std::vector<int>& keys,
                int num_partitions);

// Describes one exchange (shuffle boundary) in a plan. When `combine` is
// set the map side pre-aggregates, and the rows crossing the wire are
// PartialSchema rows whose group keys sit at positions 0..k-1.
struct ExchangeSpec {
  std::vector<int> keys;  // in the rows crossing this exchange
  int num_partitions = 0;
  std::shared_ptr<const AggPlan> combine;
  // Shuffle id assigned by the executor on first materialization; reused
  // by later actions on the same plan (blocks are served from the block
  // store until an executor loss invalidates them).
  mutable int shuffle_id = -1;
};

}  // namespace fabric::spark::shuffle

#endif  // FABRIC_SPARK_SHUFFLE_AGGREGATE_H_
