#ifndef FABRIC_VERTICA_PROJECTIONS_PLANNER_H_
#define FABRIC_VERTICA_PROJECTIONS_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "storage/lanes.h"
#include "storage/schema.h"
#include "vertica/catalog.h"
#include "vertica/sql_ast.h"

namespace fabric::vertica::projections {

// The shape of one SELECT over a base table, reduced to what projection
// costing needs. Column names are lower-cased.
struct QueryShape {
  std::vector<std::string> referenced;  // every column the query touches
  std::vector<std::string> group_by;
  bool star = false;
  bool aggregate = false;
  int64_t at_epoch = -1;
  // Columns with a direct compare-to-literal term in WHERE (the terms
  // min-max container pruning can use).
  std::vector<std::string> where_compare_columns;
  // Join-key columns of this side of an INNER JOIN (empty when the query
  // has no join). A projection whose sort order leads with the first join
  // key can stream a merge join without a hash table.
  std::vector<std::string> join_keys;
};

// Extracts the QueryShape of `select` against the anchor schema.
// Expressions referencing unknown columns simply contribute nothing —
// eligibility then falls back to the super projection, and the executor
// reports the real error.
QueryShape ShapeOf(const sql::SelectStmt& select,
                   const storage::Schema& schema);

// The planner's decision for one scan.
struct PlanChoice {
  const ProjectionDef* projection = nullptr;  // null => super projection
  double cost = 1.0;
  // True when the chosen projection's sort order prefixes the GROUP BY
  // keys: the aggregate runs merge-style on sorted runs instead of
  // hashing.
  bool sorted_group_by = false;
  // True when the chosen projection's sort order leads with the query's
  // first join key: this side can feed a streaming merge join.
  bool sorted_join = false;
  std::string reason;  // one-line costing summary for EXPLAIN
};

// Cost attributes reported alongside CostProjection's scalar cost.
struct CostAttrs {
  bool sorted_group_by = false;
  bool sorted_join = false;
};

// True when `proj` can serve the query: every referenced column is
// stored (star demands the full anchor column set in schema order), and
// the snapshot is not older than the projection (population collapses
// pre-existing history into the creating commit).
bool Eligible(const TableDef& anchor, const ProjectionDef& proj,
              const QueryShape& shape);

// Deterministic catalog-only cost of scanning the query through `proj`
// (nullptr = super projection, cost exactly 1.0). Never consults row or
// container counts, so a query costs the same under any Tuple Mover /
// workload configuration — the decision depends only on schema metadata.
// Lower is better. `attrs` (may be null) reports whether the merge-style
// aggregation / merge-join discounts applied.
double CostProjection(const TableDef& anchor, const ProjectionDef* proj,
                      const QueryShape& shape, CostAttrs* attrs = nullptr);

// Costs every eligible projection of the anchor and picks the cheapest;
// ties prefer the super projection, then the lexicographically first
// name. Also fills `candidates` (when non-null) with "name=cost" pairs
// for EXPLAIN, super projection first.
PlanChoice ChoosePlan(const Catalog& catalog, const TableDef& anchor,
                      const QueryShape& shape,
                      std::vector<std::pair<std::string, double>>* candidates
                          = nullptr);

// The cheapest eligible projection that can feed a streaming merge join
// (sort order leading with shape.join_keys.front()). The super
// projection stores insertion order and never qualifies. Empty when no
// projection qualifies — the join falls back to hashing.
std::optional<PlanChoice> ChooseSortedJoinPlan(const Catalog& catalog,
                                               const TableDef& anchor,
                                               const QueryShape& shape);

// The planner's decision for one INNER JOIN: the chosen layout per side
// plus the join strategy they imply.
struct JoinPlan {
  PlanChoice left;
  PlanChoice right;
  // Both sides scan projections sorted on the join key: streaming merge
  // join, no hash table.
  bool merge = false;
  // Merge join whose inputs need no reshuffle: the right layout is
  // replicated (unsegmented), or both layouts are segmented exactly on
  // their join-key column — equal keys land on the same node and the
  // join runs node-local, shipping only its output to the initiator.
  bool co_located = false;
  const char* strategy() const { return merge ? "merge" : "hash"; }
};

// Classifies the join strategy implied by two already-chosen layouts.
// `left_key` / `right_key` are the lower-cased join-key column names on
// each side.
JoinPlan ClassifyJoin(const TableDef& left_anchor, const PlanChoice& left,
                      const std::string& left_key,
                      const TableDef& right_anchor, const PlanChoice& right,
                      const std::string& right_key);

// Per-column encodings for a new projection, chosen from the data it is
// populated with: RLE on sorted low-cardinality columns, dictionary on
// other low-cardinality or string columns, plain for high-cardinality
// numerics. Empty when `sample` is empty (auto-encode until data says
// otherwise is wrong — an empty projection keeps auto selection).
std::vector<storage::Encoding> ChooseEncodings(
    const storage::Schema& schema, const std::vector<int>& sort_columns,
    const storage::LaneViewRows& sample);

}  // namespace fabric::vertica::projections

#endif  // FABRIC_VERTICA_PROJECTIONS_PLANNER_H_
