#ifndef FABRIC_EXEC_JOIN_H_
#define FABRIC_EXEC_JOIN_H_

// The equi-join kernel behind every SQL inner join on `a = b`: the
// gathered hash and merge joins, the co-located merge join and the
// legacy join over views and system tables.
//
// Join equality is display-string equality, the rule the SQL layer has
// always joined by (so `1` joins `1.0` and '1'). The kernel keys typed
// lanes directly where that is the same relation:
//   - INT64 = INT64 and BOOL = BOOL compare as integers;
//   - FLOAT64 = FLOAT64 compares bits, except that every NaN of one
//     sign is equal ("nan", "-nan"); -0 and 0 differ ("-0", "0");
//   - VARCHAR = VARCHAR compares bytes.
// Any other pairing (mixed types, or a boxed lane) keys both sides by
// their display strings. NULL joins nothing.

#include <vector>

#include "storage/lanes.h"

namespace fabric::exec {

// Inner join of `left` and `right` on left.columns[left_key] =
// right.columns[right_key]. Each output row holds the `left_out`
// columns of a left row, then the `right_out` columns of its match.
// Output order: left rows in input order, each row's matches in right
// input order — what a hash join probing with the left side and a
// stable merge join both produce.
storage::LaneRows EquiJoin(const storage::LaneRows& left, int left_key,
                           const std::vector<int>& left_out,
                           const storage::LaneRows& right, int right_key,
                           const std::vector<int>& right_out);

}  // namespace fabric::exec

#endif  // FABRIC_EXEC_JOIN_H_
