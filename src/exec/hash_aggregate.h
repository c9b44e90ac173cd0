#ifndef FABRIC_EXEC_HASH_AGGREGATE_H_
#define FABRIC_EXEC_HASH_AGGREGATE_H_

// Grouped aggregation for every engine: the Vertica SQL interpreter's
// GROUP BY, the compiled SELECT pipeline (exec/pipeline.h), and the
// Spark shuffle's map-side combine and reduce-side merge
// (spark/shuffle/aggregate.h). One accumulator state machine, one
// group-key encoding and one key-ordered group table with one grace-hash
// spill path, so a pushed and an unpushed plan, a compiled and an
// interpreted run, and a budgeted and an unbudgeted run agree row for
// row by construction.
//
// Fold rules: NULL inputs are skipped; COUNT counts non-null inputs
// (COUNT(*) folds a synthetic non-null value per row); SUM/AVG
// accumulate through double in fold order and are NULL over zero
// inputs; MIN/MAX keep the first extremal value (strict comparisons);
// an aggregate UDx's state stays empty until its first input, which
// starts it from the call's init state. Output groups are ordered by
// encoded group key.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/lanes.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fabric::exec {

enum class AggFn { kCount, kSum, kAvg, kMin, kMax, kUdx };

// The builtin aggregate with the upper-cased name (COUNT, SUM, AVG, MIN,
// MAX), or nullopt for any other name.
std::optional<AggFn> AggFnByName(std::string_view upper_name);

// Mergeable lifecycle of an aggregate UDx over an opaque byte state.
struct AggUdx {
  std::function<Status(const storage::Value& input, std::string* state)>
      update;
  std::function<Status(const std::string& other, std::string* state)> merge;
  std::function<Result<storage::Value>(const std::string& state)> finalize;
};

// The HLL sketch aggregate over the raw-register state of common/hll.h
// (the state a sketch call's init builds for its precision): Vertica's
// APPROXIMATE_COUNT_DISTINCT and HLL_SKETCH and the Spark sketch calls.
// `estimate` finalizes to the cardinality estimate (INTEGER), otherwise
// to the serialized sketch (VARCHAR).
AggUdx HllSketchUdx(bool estimate);

// One output slot of a grouped aggregation. A slot with group_pos >= 0
// copies that group-key value and folds nothing (its state stays empty).
struct AggCall {
  AggFn fn = AggFn::kCount;
  int group_pos = -1;
  const AggUdx* udx = nullptr;  // kUdx: borrowed lifecycle
  std::string init_state;       // kUdx: the state the first input starts
};

// Running accumulator of one call within one group. `count` is the
// number of non-null inputs, so "any input seen" is count > 0.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  storage::Value min;
  storage::Value max;
  std::string udx_state;
};

Status Update(const AggCall& call, const storage::Value& input,
              AggState* state);
// Folds `src` (a state of the same call) into `dst`. Every call is
// mergeable, which is what makes spilling and map-side combining exact.
Status Merge(const AggCall& call, const AggState& src, AggState* dst);
Result<storage::Value> Finalize(const AggCall& call, const AggState& state);

// The group-key encoding: display string per key column, \x01 for NULL
// (distinct from any display string), \x02 after every column. Ordering
// rows by this key is the canonical aggregate output order. Two keys are
// equal exactly when their display strings are (see Value formatting in
// DESIGN.md). AppendGroupKey appends the key to `key`, so per-row callers
// reuse one buffer and allocate only when they store a new key. Typed
// lanes build the same key with storage::BasicLaneRows::AppendKey.
void AppendGroupKey(const storage::Row& row, const std::vector<int>& cols,
                    std::string* key);
std::string GroupKey(const storage::Row& row, const std::vector<int>& cols);

// Grace-hash fan-out and partition function (FNV-1a over the key).
inline constexpr int kSpillPartitions = 8;
int SpillPartitionOf(const std::string& key);

// Memory budget for a group table. When the resident groups' estimated
// bytes exceed `budget_bytes`, the table pushes them out to partitioned
// runs (`charge_write` bills the simulated local disk, then `on_spill`
// reports the event) and merges the runs back at Finish, billing
// `charge_read` per run. A non-positive budget (or a null policy) never
// spills.
struct SpillPolicy {
  double budget_bytes = 0;
  std::function<Status(double bytes)> charge_write;
  std::function<Status(double bytes)> charge_read;
  std::function<void(double bytes, int64_t groups)> on_spill;
};

// Key-ordered group table with the grace-hash spill path. A group's
// estimated size is its key bytes + 48, plus 56 + state bytes per slot;
// it is charged once, after the fold that created it. Runs hold disjoint
// key sets and the table is ordered by encoded key, so spilling never
// changes the output.
class GroupTable {
 public:
  struct Group {
    storage::Row keys;             // the key-column values
    std::vector<AggState> states;  // one per call
  };

  // `calls` and `spill` (may be null) are borrowed.
  explicit GroupTable(const std::vector<AggCall>* calls,
                      const SpillPolicy* spill = nullptr)
      : calls_(calls), spill_(spill) {}

  // Finds or creates the group keyed by row[key_cols] and hands it to
  // `fold(Group&) -> Status`.
  template <typename Fold>
  Status Add(const storage::Row& row, const std::vector<int>& key_cols,
             Fold&& fold) {
    key_.clear();
    AppendGroupKey(row, key_cols, &key_);
    return AddKeyed(
        key_cols.size(), [&](size_t k) { return row[key_cols[k]]; }, fold);
  }
  // The same for row `row` of typed lanes: the key is appended from the
  // lanes, and key values are boxed only when a new group is created.
  template <typename Fold>
  Status Add(const storage::LaneRows& rows, uint32_t row,
             const std::vector<int>& key_cols, Fold&& fold) {
    key_.clear();
    rows.AppendKey(row, key_cols, &key_);
    return AddKeyed(
        key_cols.size(),
        [&](size_t k) { return rows.columns[key_cols[k]].Box(row); }, fold);
  }

  // Merges spilled runs back. A scalar aggregate (no GROUP BY) then
  // holds exactly one group, even over empty input.
  Status Finish(bool scalar_aggregate);

  std::map<std::string, Group>& groups() { return groups_; }

  // Appends the group's output row: the key value for group slots, the
  // finalized state otherwise.
  Status AppendFinal(const Group& group, storage::Row* out) const;

 private:
  bool budgeted() const {
    return spill_ != nullptr && spill_->budget_bytes > 0;
  }
  // Finds or creates the group keyed by key_ (key value k is
  // key_value(k)) and folds into it.
  template <typename KeyValue, typename Fold>
  Status AddKeyed(size_t num_keys, KeyValue&& key_value, Fold& fold) {
    auto it = groups_.lower_bound(key_);
    const bool inserted = it == groups_.end() || it->first != key_;
    if (inserted) it = groups_.emplace_hint(it, key_, Group());
    Group& group = it->second;
    if (inserted) {
      group.keys.reserve(num_keys);
      for (size_t k = 0; k < num_keys; ++k) {
        group.keys.push_back(key_value(k));
      }
      group.states.resize(calls_->size());
    }
    FABRIC_RETURN_IF_ERROR(fold(group));
    if (inserted && budgeted()) return Charge(it->first, group);
    return Status::OK();
  }
  double GroupBytes(const std::string& key, const Group& group) const;
  Status Charge(const std::string& key, const Group& group);
  Status SpillResident();

  const std::vector<AggCall>* calls_;
  const SpillPolicy* spill_;
  std::map<std::string, Group> groups_;
  std::string key_;  // Add's key buffer, reused across rows
  std::vector<std::vector<std::pair<std::string, Group>>> runs_;
  double resident_bytes_ = 0;
};

}  // namespace fabric::exec

#endif  // FABRIC_EXEC_HASH_AGGREGATE_H_
