#include "spark/dataframe.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/hash_aggregate.h"
#include "spark/shuffle/exec.h"
#include "spark/shuffle/shuffle.h"
#include "storage/profile.h"

namespace fabric::spark {

using storage::Row;
using storage::Schema;

// ------------------------------------------------------------------ Plan

int Plan::NumPartitions() const {
  switch (kind) {
    case Kind::kParallelize:
      return static_cast<int>(data->size());
    case Kind::kScan:
      return relation->num_partitions();
    case Kind::kUnion:
      return child->NumPartitions() + other->NumPartitions();
    case Kind::kCoalesce:
      return target_partitions;
    case Kind::kExchange:
      return exchange->num_partitions;
    default:
      return child->NumPartitions();
  }
}

Result<std::vector<Row>> Plan::Compute(TaskContext& task,
                                       int partition) const {
  const CostModel& cost = task.cluster->cost();
  switch (kind) {
    case Kind::kParallelize:
      return (*data)[partition];
    case Kind::kScan: {
      FABRIC_ASSIGN_OR_RETURN(ScanRelation::PartitionData part,
                              relation->ReadPartition(task, partition,
                                                      pushed));
      return std::move(part.rows);
    }
    case Kind::kFilterPredicate: {
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              child->Compute(task, partition));
      FABRIC_RETURN_IF_ERROR(task.Compute(rows.size() *
                                          cost.spark_row_process_cpu *
                                          cost.data_scale));
      std::vector<Row> out;
      for (Row& row : rows) {
        FABRIC_ASSIGN_OR_RETURN(bool keep,
                                predicate.Matches(child->schema, row));
        if (keep) out.push_back(std::move(row));
      }
      return out;
    }
    case Kind::kFilterFn: {
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              child->Compute(task, partition));
      FABRIC_RETURN_IF_ERROR(task.Compute(rows.size() *
                                          cost.spark_row_process_cpu *
                                          cost.data_scale));
      std::vector<Row> out;
      for (Row& row : rows) {
        FABRIC_ASSIGN_OR_RETURN(bool keep, filter_fn(row));
        if (keep) out.push_back(std::move(row));
      }
      return out;
    }
    case Kind::kMapFn: {
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              child->Compute(task, partition));
      FABRIC_RETURN_IF_ERROR(task.Compute(rows.size() *
                                          cost.spark_row_process_cpu *
                                          cost.data_scale));
      std::vector<Row> out;
      out.reserve(rows.size());
      for (const Row& row : rows) {
        // Schema violations surface at the sink (as in Spark, where Row
        // contents are not checked until an action consumes them).
        FABRIC_ASSIGN_OR_RETURN(Row mapped, map_fn(row));
        out.push_back(std::move(mapped));
      }
      return out;
    }
    case Kind::kSelect: {
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              child->Compute(task, partition));
      std::vector<Row> out;
      out.reserve(rows.size());
      for (const Row& row : rows) {
        Row projected;
        projected.reserve(select_indices.size());
        for (int idx : select_indices) projected.push_back(row[idx]);
        out.push_back(std::move(projected));
      }
      return out;
    }
    case Kind::kUnion: {
      int left = child->NumPartitions();
      if (partition < left) return child->Compute(task, partition);
      return other->Compute(task, partition - left);
    }
    case Kind::kCoalesce: {
      // Output partition p folds a contiguous run of child partitions.
      int source = child->NumPartitions();
      int per = source / target_partitions;
      int extra = source % target_partitions;
      int begin = partition * per + std::min(partition, extra);
      int count = per + (partition < extra ? 1 : 0);
      std::vector<Row> out;
      for (int i = begin; i < begin + count; ++i) {
        FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                child->Compute(task, i));
        for (Row& row : rows) out.push_back(std::move(row));
      }
      return out;
    }
    case Kind::kExchange: {
      // The map stage committed this shuffle's blocks before the job
      // consuming it launched (shuffle::RunPlanJob); a task reaching an
      // unregistered exchange is a planner bug, not a runtime race.
      if (exchange->shuffle_id < 0) {
        return InternalError("exchange executed without a map stage");
      }
      return task.cluster->shuffle_manager()->FetchPartition(
          task, exchange->shuffle_id, partition);
    }
    case Kind::kHashAggregate: {
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              child->Compute(task, partition));
      FABRIC_RETURN_IF_ERROR(task.Compute(rows.size() *
                                          cost.spark_row_process_cpu *
                                          cost.data_scale));
      exec::SpillPolicy spill = shuffle::TaskSpillPolicy(task);
      return shuffle::MergePartials(rows, *agg, &spill);
    }
    case Kind::kHashJoin: {
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> left,
                              child->Compute(task, partition));
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> right,
                              other->Compute(task, partition));
      FABRIC_RETURN_IF_ERROR(task.Compute((left.size() + right.size()) *
                                          cost.spark_row_process_cpu *
                                          cost.data_scale));
      // Build on the left, probe in right-row order: deterministic
      // output, and rows with any NULL key never match (SQL equi-join).
      auto has_null_key = [](const Row& row, const std::vector<int>& keys) {
        for (int k : keys) {
          if (row[k].is_null()) return true;
        }
        return false;
      };
      // Multi-pass build (hybrid hash). Each pass builds as much of the
      // left side as the task memory budget holds (all of it when the
      // budget is unbounded) and probes the full right side; on overflow
      // the probe side is spilled once and re-read per extra pass.
      // Matches are (right, left) index pairs: one pass emits them in
      // right-row order with left indices ascending, and sorting the
      // pairs of several passes restores exactly that order.
      const double task_memory = task.cluster->options().task_memory_bytes;
      const double budget = task_memory > 0
                                ? task_memory
                                : std::numeric_limits<double>::infinity();
      exec::SpillPolicy spill = shuffle::TaskSpillPolicy(task);
      // Probe-side volume, billed only by spilling passes.
      const double right_bytes = task_memory > 0
                                     ? storage::ProfileRows(right)
                                           .ScaleBy(cost.data_scale)
                                           .raw_bytes
                                     : 0;
      std::vector<std::pair<size_t, size_t>> matches;
      size_t start = 0;
      int pass = 0;
      bool spilled = false;
      do {
        std::map<std::string, std::vector<size_t>> table;
        double resident = 0;
        size_t i = start;
        for (; i < left.size(); ++i) {
          if (has_null_key(left[i], join_left_keys)) continue;
          std::string key = exec::GroupKey(left[i], join_left_keys);
          resident += static_cast<double>(key.size()) + 64;
          table[std::move(key)].push_back(i);
          if (resident > budget && i + 1 < left.size()) {
            ++i;
            break;
          }
        }
        if (pass > 0 && spill.charge_read) {
          // Re-read the spilled probe side for this extra pass.
          FABRIC_RETURN_IF_ERROR(spill.charge_read(right_bytes));
        }
        for (size_t r = 0; r < right.size(); ++r) {
          if (has_null_key(right[r], join_right_keys)) continue;
          auto it = table.find(exec::GroupKey(right[r], join_right_keys));
          if (it == table.end()) continue;
          for (size_t l : it->second) matches.emplace_back(r, l);
        }
        start = i;
        ++pass;
        if (start < left.size() && !spilled) {
          spilled = true;
          if (spill.charge_write) {
            FABRIC_RETURN_IF_ERROR(spill.charge_write(right_bytes));
          }
        }
      } while (start < left.size());
      if (pass > 1) std::sort(matches.begin(), matches.end());
      std::vector<Row> out;
      out.reserve(matches.size());
      for (const auto& [r, l] : matches) {
        Row row = left[l];
        row.insert(row.end(), right[r].begin(), right[r].end());
        out.push_back(std::move(row));
      }
      return out;
    }
    case Kind::kLimit: {
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              child->Compute(task, partition));
      if (static_cast<int64_t>(rows.size()) > limit) rows.resize(limit);
      return rows;
    }
  }
  return InternalError("corrupt plan");
}

// ------------------------------------------------------------- pushdown

namespace {

// Re-parents `plan` onto a rewritten child, sharing the original node
// when nothing below it changed.
std::shared_ptr<const Plan> WithChild(const std::shared_ptr<const Plan>& plan,
                                      std::shared_ptr<const Plan> child) {
  if (child == plan->child) return plan;
  auto copy = std::make_shared<Plan>(*plan);
  copy->child = std::move(child);
  return copy;
}

// A scan that already evaluates an aggregate or a row cap returns
// transformed rows; later filters/selects refer to those output rows and
// must not be folded into the scan's own WHERE/projection.
bool ScanAcceptsRowPushdowns(const Plan& scan) {
  return !scan.pushed.aggregate.has_value() && !scan.pushed.count_only;
}

}  // namespace

std::shared_ptr<const Plan> PushDownPass(std::shared_ptr<const Plan> plan) {
  switch (plan->kind) {
    case Plan::Kind::kFilterPredicate: {
      auto child = PushDownPass(plan->child);
      // A filter commutes with the scan's WHERE but not with a pushed
      // LIMIT (the cap samples rows before the filter would run).
      if (child->kind == Plan::Kind::kScan &&
          ScanAcceptsRowPushdowns(*child) && child->pushed.limit < 0) {
        auto fused = std::make_shared<Plan>(*child);
        fused->pushed.filters.push_back(plan->predicate);
        fused->schema = plan->schema;
        return fused;
      }
      return WithChild(plan, std::move(child));
    }
    case Plan::Kind::kSelect: {
      auto child = PushDownPass(plan->child);
      // Projection commutes with a pushed LIMIT (same rows, fewer
      // columns) but not with a pushed aggregate.
      if (child->kind == Plan::Kind::kScan &&
          ScanAcceptsRowPushdowns(*child) &&
          child->pushed.required_columns.empty()) {
        auto fused = std::make_shared<Plan>(*child);
        for (int idx : plan->select_indices) {
          fused->pushed.required_columns.push_back(
              child->schema.column(idx).name);
        }
        fused->schema = plan->schema;
        return fused;
      }
      return WithChild(plan, std::move(child));
    }
    case Plan::Kind::kLimit: {
      auto child = PushDownPass(plan->child);
      if (child->kind == Plan::Kind::kScan &&
          !child->pushed.count_only &&
          child->relation->SupportsLimitPushdown()) {
        auto fused = std::make_shared<Plan>(*child);
        fused->pushed.limit = fused->pushed.limit >= 0
                                  ? std::min(fused->pushed.limit, plan->limit)
                                  : plan->limit;
        return fused;
      }
      return WithChild(plan, std::move(child));
    }
    case Plan::Kind::kHashAggregate: {
      // The child is always this aggregation's exchange. When the scan
      // below it can evaluate the whole grouped aggregate (disjoint
      // group sets per partition), fuse the full stack into the scan —
      // the shuffle disappears.
      auto inner = PushDownPass(plan->child->child);
      if (inner->kind == Plan::Kind::kScan &&
          ScanAcceptsRowPushdowns(*inner) && inner->pushed.limit < 0) {
        AggregatePushDown spec;
        for (int k : plan->agg->keys) {
          spec.group_columns.push_back(plan->agg->in_schema.column(k).name);
        }
        for (const shuffle::AggCall& call : plan->agg->calls) {
          spec.calls.push_back(
              {call.fn,
               call.column < 0
                   ? std::string()
                   : plan->agg->in_schema.column(call.column).name,
               call.precision});
        }
        if (inner->relation->SupportsAggregatePushdown(spec)) {
          auto fused = std::make_shared<Plan>(*inner);
          fused->pushed.aggregate = std::move(spec);
          fused->schema = plan->schema;
          return fused;
        }
      }
      if (inner != plan->child->child) {
        auto exchange = std::make_shared<Plan>(*plan->child);
        exchange->child = std::move(inner);
        return WithChild(plan, std::move(exchange));
      }
      return plan;
    }
    case Plan::Kind::kExchange: {
      return WithChild(plan, PushDownPass(plan->child));
    }
    case Plan::Kind::kHashJoin: {
      // Recurse through both exchange inputs so filters/selects below
      // the join still reach their scans.
      auto left = PushDownPass(plan->child);
      auto right = PushDownPass(plan->other);
      if (left == plan->child && right == plan->other) return plan;
      auto copy = std::make_shared<Plan>(*plan);
      copy->child = std::move(left);
      copy->other = std::move(right);
      return copy;
    }
    default:
      return plan;
  }
}

// ------------------------------------------------------------ DataFrame

DataFrame DataFrame::Filter(ColumnPredicate predicate) const {
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kFilterPredicate;
  node->schema = plan_->schema;
  node->child = plan_;
  node->predicate = std::move(predicate);
  return DataFrame(session_, node);
}

DataFrame DataFrame::Filter(
    std::function<Result<bool>(const Row&)> fn) const {
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kFilterFn;
  node->schema = plan_->schema;
  node->child = plan_;
  node->filter_fn = std::move(fn);
  return DataFrame(session_, node);
}

Result<DataFrame> DataFrame::Select(
    const std::vector<std::string>& columns) const {
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kSelect;
  node->child = plan_;
  for (const std::string& name : columns) {
    FABRIC_ASSIGN_OR_RETURN(int idx, plan_->schema.IndexOf(name));
    node->select_indices.push_back(idx);
  }
  node->schema = plan_->schema.Project(node->select_indices);
  return DataFrame(session_, node);
}

DataFrame DataFrame::Map(std::function<Result<Row>(const Row&)> fn,
                         Schema out_schema) const {
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kMapFn;
  node->schema = std::move(out_schema);
  node->child = plan_;
  node->map_fn = std::move(fn);
  return DataFrame(session_, node);
}

Result<DataFrame> DataFrame::Union(const DataFrame& other) const {
  if (!(plan_->schema == other.plan_->schema)) {
    return InvalidArgumentError("UNION schemas differ");
  }
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kUnion;
  node->schema = plan_->schema;
  node->child = plan_;
  node->other = other.plan_;
  return DataFrame(session_, node);
}

Result<DataFrame> DataFrame::Repartition(int num_partitions) const {
  if (num_partitions <= 0) {
    return InvalidArgumentError("partitions must be positive");
  }
  int current = NumPartitions();
  if (num_partitions == current) return *this;
  if (num_partitions < current) {
    auto node = std::make_shared<Plan>();
    node->kind = Plan::Kind::kCoalesce;
    node->schema = plan_->schema;
    node->child = plan_;
    node->target_partitions = num_partitions;
    return DataFrame(session_, node);
  }
  // Widening driver-local data reslices it in place (no cluster work).
  if (plan_->kind == Plan::Kind::kParallelize) {
    std::vector<Row> all;
    for (const auto& part : *plan_->data) {
      for (const Row& row : part) all.push_back(row);
    }
    return session_->CreateDataFrame(plan_->schema, std::move(all),
                                     num_partitions);
  }
  // Everything else widens through a shuffle hashed over all columns.
  auto spec = std::make_shared<shuffle::ExchangeSpec>();
  spec->num_partitions = num_partitions;
  spec->keys.resize(plan_->schema.num_columns());
  std::iota(spec->keys.begin(), spec->keys.end(), 0);
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kExchange;
  node->schema = plan_->schema;
  node->child = plan_;
  node->exchange = std::move(spec);
  return DataFrame(session_, node);
}

Result<GroupedDataFrame> DataFrame::GroupBy(
    const std::vector<std::string>& columns) const {
  std::vector<int> keys;
  keys.reserve(columns.size());
  for (const std::string& name : columns) {
    FABRIC_ASSIGN_OR_RETURN(int idx, plan_->schema.IndexOf(name));
    keys.push_back(idx);
  }
  return GroupedDataFrame(*this, std::move(keys));
}

Result<DataFrame> GroupedDataFrame::Agg(
    const std::vector<AggregateRequest>& aggs) const {
  if (aggs.empty()) {
    return InvalidArgumentError("Agg() needs at least one aggregate");
  }
  const Schema& in_schema = frame_.schema();
  auto agg_plan = std::make_shared<shuffle::AggPlan>();
  agg_plan->keys = key_indices_;
  agg_plan->in_schema = in_schema;
  std::vector<storage::ColumnDef> out_defs;
  for (int k : key_indices_) out_defs.push_back(in_schema.column(k));
  for (const AggregateRequest& req : aggs) {
    int col = -1;
    if (req.column.empty()) {
      if (req.fn != AggregateFn::kCount) {
        return InvalidArgumentError(
            StrCat(AggregateFnName(req.fn), " needs a column argument"));
      }
    } else {
      FABRIC_ASSIGN_OR_RETURN(col, in_schema.IndexOf(req.column));
    }
    if (IsSketchFn(req.fn) && !hll::ValidPrecision(req.precision)) {
      return InvalidArgumentError(
          StrCat(AggregateFnName(req.fn), " precision must be in [",
                 hll::kMinPrecision, ", ", hll::kMaxPrecision, "], got ",
                 req.precision));
    }
    agg_plan->calls.push_back({req.fn, col, req.precision});
    storage::DataType out_type;
    switch (req.fn) {
      case AggregateFn::kCount:
      case AggregateFn::kApproxCountDistinct:
        out_type = storage::DataType::kInt64;
        break;
      case AggregateFn::kSum:
      case AggregateFn::kAvg:
        out_type = storage::DataType::kFloat64;
        break;
      case AggregateFn::kHllSketch:
        out_type = storage::DataType::kVarchar;
        break;
      default:
        out_type = in_schema.column(col).type;
    }
    out_defs.push_back(
        {StrCat(ToLower(AggregateFnName(req.fn)), "(",
                col < 0 ? "*" : in_schema.column(col).name, ")"),
         out_type});
  }
  agg_plan->out_schema = Schema(std::move(out_defs));

  auto spec = std::make_shared<shuffle::ExchangeSpec>();
  // Partial rows carry the group keys at positions 0..k-1. With no keys
  // every partial belongs to the single global group: one reducer.
  spec->keys.resize(key_indices_.size());
  std::iota(spec->keys.begin(), spec->keys.end(), 0);
  spec->num_partitions =
      key_indices_.empty() ? 1 : frame_.NumPartitions();
  spec->combine = agg_plan;

  auto exchange = std::make_shared<Plan>();
  exchange->kind = Plan::Kind::kExchange;
  exchange->schema = shuffle::PartialSchema(*agg_plan);
  exchange->child = frame_.plan();
  exchange->exchange = std::move(spec);

  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kHashAggregate;
  node->schema = agg_plan->out_schema;
  node->child = std::move(exchange);
  node->agg = std::move(agg_plan);
  return DataFrame(frame_.session(), node);
}

Result<DataFrame> DataFrame::Join(
    const DataFrame& other, const std::vector<std::string>& left_on,
    const std::vector<std::string>& right_on) const {
  if (left_on.empty() || left_on.size() != right_on.size()) {
    return InvalidArgumentError(
        "JOIN needs the same non-zero number of key columns on each side");
  }
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  for (const std::string& name : left_on) {
    FABRIC_ASSIGN_OR_RETURN(int idx, plan_->schema.IndexOf(name));
    left_keys.push_back(idx);
  }
  for (const std::string& name : right_on) {
    FABRIC_ASSIGN_OR_RETURN(int idx, other.plan_->schema.IndexOf(name));
    right_keys.push_back(idx);
  }
  // Both sides hash their key values into the same partition count, so
  // equal keys meet in the same reduce task.
  const int partitions =
      std::max(plan_->NumPartitions(), other.plan_->NumPartitions());
  auto make_exchange = [partitions](const std::shared_ptr<const Plan>& input,
                                    std::vector<int> keys) {
    auto spec = std::make_shared<shuffle::ExchangeSpec>();
    spec->num_partitions = partitions;
    spec->keys = std::move(keys);
    auto node = std::make_shared<Plan>();
    node->kind = Plan::Kind::kExchange;
    node->schema = input->schema;
    node->child = input;
    node->exchange = std::move(spec);
    return node;
  };
  // Output columns: left's then right's, with clashing right names
  // suffixed "_r" (and further "_r" until unique).
  std::set<std::string> taken;
  std::vector<storage::ColumnDef> out_defs;
  for (const auto& def : plan_->schema.columns()) {
    taken.insert(ToLower(def.name));
    out_defs.push_back(def);
  }
  for (const auto& def : other.plan_->schema.columns()) {
    std::string name = def.name;
    while (taken.count(ToLower(name)) > 0) name += "_r";
    taken.insert(ToLower(name));
    out_defs.push_back({std::move(name), def.type});
  }
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kHashJoin;
  node->schema = Schema(std::move(out_defs));
  node->child = make_exchange(plan_, left_keys);
  node->other = make_exchange(other.plan_, right_keys);
  node->join_left_keys = std::move(left_keys);
  node->join_right_keys = std::move(right_keys);
  return DataFrame(session_, node);
}

Result<DataFrame> DataFrame::Limit(int64_t n) const {
  if (n < 0) return InvalidArgumentError("LIMIT must be non-negative");
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kLimit;
  node->schema = plan_->schema;
  node->child = plan_;
  node->limit = n;
  return DataFrame(session_, node);
}

namespace {

// The row cap the action must re-apply globally after gathering the
// per-partition results (each partition was capped individually).
int64_t RootLimit(const Plan& plan) {
  if (plan.kind == Plan::Kind::kLimit) return plan.limit;
  if (plan.kind == Plan::Kind::kScan) return plan.pushed.limit;
  return -1;
}

}  // namespace

Result<std::vector<Row>> DataFrame::Collect(sim::Process& driver) const {
  auto plan = PushDownPass(plan_);
  int parts = plan->NumPartitions();
  const CostModel& cost = session_->cluster()->cost();
  auto results = std::make_shared<std::vector<std::vector<Row>>>(parts);
  FABRIC_ASSIGN_OR_RETURN(
      SparkCluster::JobStats stats,
      shuffle::RunPlanJob(
          driver, session_->cluster(), "collect", plan, parts,
          [plan, results, &cost](TaskContext& task) -> Status {
            FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                    plan->Compute(task, task.task));
            // Ship the partition to the driver.
            storage::DataProfile profile = storage::ProfileRows(rows);
            profile.ScaleBy(cost.data_scale);
            FABRIC_RETURN_IF_ERROR(task.cluster->network()->Transfer(
                *task.process,
                {task.worker_host().ext_egress,
                 task.cluster->driver_host().ext_ingress},
                profile.raw_bytes));
            (*results)[task.task] = std::move(rows);
            return Status::OK();
          }));
  (void)stats;
  std::vector<Row> all;
  for (auto& part : *results) {
    for (Row& row : part) all.push_back(std::move(row));
  }
  // Each partition honored the cap locally; enforce it globally.
  int64_t cap = RootLimit(*plan);
  if (cap >= 0 && static_cast<int64_t>(all.size()) > cap) all.resize(cap);
  return all;
}

Result<int64_t> DataFrame::Count(sim::Process& driver) const {
  auto plan = PushDownPass(plan_);
  int parts = plan->NumPartitions();
  auto counts = std::make_shared<std::vector<int64_t>>(parts, 0);
  // A scan already evaluating a pushed aggregate returns group rows; the
  // generic path counts those. (A pushed LIMIT is fine: the global
  // min() below makes the count exact either way.)
  bool count_pushdown = plan->kind == Plan::Kind::kScan &&
                        !plan->pushed.aggregate.has_value();
  FABRIC_ASSIGN_OR_RETURN(
      SparkCluster::JobStats stats,
      shuffle::RunPlanJob(
          driver, session_->cluster(), "count", plan, parts,
          [plan, counts, count_pushdown](TaskContext& task) -> Status {
            if (count_pushdown) {
              PushDown push = plan->pushed;
              push.count_only = true;
              FABRIC_ASSIGN_OR_RETURN(
                  ScanRelation::PartitionData part,
                  plan->relation->ReadPartition(task, task.task, push));
              (*counts)[task.task] = part.count;
              return Status::OK();
            }
            FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                    plan->Compute(task, task.task));
            (*counts)[task.task] = static_cast<int64_t>(rows.size());
            return Status::OK();
          }));
  (void)stats;
  int64_t total = 0;
  for (int64_t c : *counts) total += c;
  // Per-partition caps may add up past a global LIMIT; clamp. Exact:
  // min(sum_i min(p_i, L), L) == min(sum_i p_i, L).
  int64_t cap = RootLimit(*plan);
  if (cap >= 0) total = std::min(total, cap);
  return total;
}

Result<int64_t> DataFrame::Materialize(sim::Process& driver) const {
  auto plan = PushDownPass(plan_);
  int parts = plan->NumPartitions();
  auto counts = std::make_shared<std::vector<int64_t>>(parts, 0);
  FABRIC_ASSIGN_OR_RETURN(
      SparkCluster::JobStats stats,
      shuffle::RunPlanJob(
          driver, session_->cluster(), "materialize", plan, parts,
          [plan, counts](TaskContext& task) -> Status {
            FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                    plan->Compute(task, task.task));
            (*counts)[task.task] = static_cast<int64_t>(rows.size());
            return Status::OK();
          }));
  (void)stats;
  int64_t total = 0;
  for (int64_t c : *counts) total += c;
  int64_t cap = RootLimit(*plan);
  if (cap >= 0) total = std::min(total, cap);
  return total;
}

DataFrameWriter DataFrame::Write() const {
  return DataFrameWriter(session_, *this);
}

// --------------------------------------------------------------- reader

Result<DataFrame> DataFrameReader::Load(sim::Process& driver) {
  FABRIC_ASSIGN_OR_RETURN(DataSourceProvider * provider,
                          session_->FindFormat(format_));
  FABRIC_ASSIGN_OR_RETURN(std::shared_ptr<ScanRelation> relation,
                          provider->CreateScan(driver, options_));
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kScan;
  node->schema = relation->schema();
  node->relation = std::move(relation);
  return DataFrame(session_, node);
}

// --------------------------------------------------------------- writer

Status DataFrameWriter::Save(sim::Process& driver) {
  FABRIC_ASSIGN_OR_RETURN(DataSourceProvider * provider,
                          session_->FindFormat(format_));
  DataFrame frame = frame_;
  // The connector may repartition the DataFrame during setup to reach
  // the requested parallelism (Section 3.2).
  int64_t requested = options_.GetIntOr("numpartitions", 0);
  if (requested > 0 && requested != frame.NumPartitions()) {
    FABRIC_ASSIGN_OR_RETURN(frame,
                            frame.Repartition(static_cast<int>(requested)));
  }
  FABRIC_ASSIGN_OR_RETURN(std::shared_ptr<WriteRelation> relation,
                          provider->CreateWrite(driver, options_, mode_,
                                                frame.schema()));
  auto plan = PushDownPass(frame.plan());
  int parts = plan->NumPartitions();
  // Sink-directed pre-partitioning (S2V pre-hash): only driver-local
  // data can be re-split without a shuffle.
  if (auto partitioner = relation->Partitioner(parts);
      partitioner != nullptr && plan->kind == Plan::Kind::kParallelize) {
    auto data = std::make_shared<std::vector<std::vector<Row>>>(parts);
    for (const auto& part : *plan->data) {
      for (const Row& row : part) {
        int target = partitioner(row);
        FABRIC_CHECK(target >= 0 && target < parts);
        (*data)[target].push_back(row);
      }
    }
    auto node = std::make_shared<Plan>();
    node->kind = Plan::Kind::kParallelize;
    node->schema = plan->schema;
    node->data = std::move(data);
    plan = node;
  }
  FABRIC_RETURN_IF_ERROR(relation->Setup(driver, parts));
  Result<SparkCluster::JobStats> job = shuffle::RunPlanJob(
      driver, session_->cluster(), "save", plan, parts,
      [plan, relation](TaskContext& task) -> Status {
        FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                plan->Compute(task, task.task));
        return relation->WriteTaskPartition(task, task.task, rows);
      });
  Status job_status = job.ok() ? Status::OK() : job.status();
  return relation->Finalize(driver, job_status);
}

// -------------------------------------------------------------- session

void SparkSession::RegisterFormat(
    const std::string& name, std::shared_ptr<DataSourceProvider> provider) {
  formats_[ToLower(name)] = std::move(provider);
}

Result<DataSourceProvider*> SparkSession::FindFormat(
    const std::string& name) const {
  auto it = formats_.find(ToLower(name));
  if (it == formats_.end()) {
    return NotFoundError(StrCat("no data source format '", name, "'"));
  }
  return it->second.get();
}

Result<DataFrame> SparkSession::CreateDataFrame(Schema schema,
                                                std::vector<Row> rows,
                                                int num_partitions) {
  if (num_partitions <= 0) {
    return InvalidArgumentError("partitions must be positive");
  }
  for (const Row& row : rows) {
    FABRIC_RETURN_IF_ERROR(ValidateRow(schema, row));
  }
  auto data = std::make_shared<std::vector<std::vector<Row>>>(
      num_partitions);
  // Contiguous chunks (like parallelize's slicing).
  size_t per = rows.size() / num_partitions;
  size_t extra = rows.size() % num_partitions;
  size_t cursor = 0;
  for (int p = 0; p < num_partitions; ++p) {
    size_t count = per + (static_cast<size_t>(p) < extra ? 1 : 0);
    auto& part = (*data)[p];
    part.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      part.push_back(std::move(rows[cursor++]));
    }
  }
  auto node = std::make_shared<Plan>();
  node->kind = Plan::Kind::kParallelize;
  node->schema = std::move(schema);
  node->data = std::move(data);
  return DataFrame(this, node);
}

}  // namespace fabric::spark
