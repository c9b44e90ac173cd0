#ifndef FABRIC_VERTICA_SQL_ANALYZER_H_
#define FABRIC_VERTICA_SQL_ANALYZER_H_

#include <optional>
#include <string>
#include <vector>

#include "storage/scan_kernels.h"
#include "storage/schema.h"
#include "vertica/catalog.h"
#include "vertica/sql_ast.h"

namespace fabric::vertica::sql {

// A normalized set of half-open ranges on the unsigned 2^64 hash ring.
// Bounds use unsigned __int128 so the exclusive upper bound 2^64 is
// representable without a wrap sentinel.
class RingRangeSet {
 public:
  static RingRangeSet Full();
  // [lower, upper) with upper as a 2^64-capable bound.
  static RingRangeSet Of(unsigned __int128 lower, unsigned __int128 upper);
  static RingRangeSet OfHashRange(const HashRange& range);

  RingRangeSet Union(const RingRangeSet& other) const;
  RingRangeSet Intersect(const RingRangeSet& other) const;

  bool IsEmpty() const { return ranges_.empty(); }
  bool IsFull() const;
  bool Contains(uint64_t hash) const;
  bool Intersects(const HashRange& range) const;

  int num_ranges() const { return static_cast<int>(ranges_.size()); }

 private:
  void Normalize();

  // Sorted, disjoint, non-adjacent [lower, upper) pairs.
  std::vector<std::pair<unsigned __int128, unsigned __int128>> ranges_;
};

// Derives the ring ranges a WHERE clause constrains HASH(segmentation
// columns) to, for segment/node pruning. This is the analysis that makes
// the V2S locality-aware queries touch exactly one node. Returns Full()
// when the predicate does not constrain the ring (scan everything).
//
// Recognized forms (combined through AND/OR):
//   HASH(c1, ..., ck) >= n / > n / < n / <= n / = n
// where (c1..ck) matches `segmentation_column_names` in order.
RingRangeSet ExtractHashRanges(
    const Expr& where,
    const std::vector<std::string>& segmentation_column_names);

// A WHERE clause compiled for the vectorized scan path: the conjuncts
// the predicate kernels can run directly on encoded columns, plus the
// re-ANDed leftovers (`residual`, null when fully compiled) for the
// row-at-a-time interpreter.
struct CompiledScan {
  storage::ScanPredicate predicate;
  ExprPtr residual;
};

// Compiles the compilable conjuncts of `where`. Recognized shapes:
//   column <op> literal   (and the reversed literal <op> column) when
//       the column and literal types agree (numeric incl. BOOLEAN, or
//       VARCHAR/VARCHAR);
//   column IS [NOT] NULL;
//   HASH(col, ...) <op> integer-literal for op in {=, <, <=, >, >=}
//       (the V2S partition-pushdown shape), folded into inclusive ring
//       bounds; contradictory bounds mark the predicate always_false.
// Never fails: anything unrecognized — NULL literals, mixed-type
// comparisons, OR trees, expressions over multiple columns — lands in
// `residual` so interpreter semantics (including its errors) are
// preserved for those rows.
CompiledScan CompileScanPredicate(const Expr& where,
                                  const storage::Schema& schema);

}  // namespace fabric::vertica::sql

#endif  // FABRIC_VERTICA_SQL_ANALYZER_H_
