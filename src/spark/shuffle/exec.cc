#include "spark/shuffle/exec.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "exec/pipeline.h"
#include "obs/trace.h"
#include "spark/shuffle/aggregate.h"
#include "spark/shuffle/shuffle.h"
#include "storage/profile.h"

namespace fabric::spark::shuffle {

exec::SpillPolicy TaskSpillPolicy(const TaskContext& task) {
  exec::SpillPolicy policy;
  policy.budget_bytes = task.cluster->options().task_memory_bytes;
  if (policy.budget_bytes <= 0) return policy;
  SparkCluster* cluster = task.cluster;
  sim::Process* process = task.process;
  const net::Host* host = &task.worker_host();
  int worker = task.worker;
  auto charge = [cluster, process, host, worker](double bytes) -> Status {
    obs::TraceEvent("spark", "task.spill",
                    {{"worker", worker}, {"bytes", bytes}});
    obs::IncrCounter("spark.spills");
    obs::IncrCounter("spark.spill_bytes", bytes);
    if (host->has_disk()) {
      return cluster->network()->Transfer(*process, {host->disk}, bytes);
    }
    return process->Sleep(bytes / cluster->cost().disk_read_bandwidth);
  };
  policy.charge_write = charge;
  // Reads flow back through the same local disk; traced under the same
  // event (the spill counter counts write events only).
  policy.charge_read = [cluster, process, host](double bytes) -> Status {
    if (host->has_disk()) {
      return cluster->network()->Transfer(*process, {host->disk}, bytes);
    }
    return process->Sleep(bytes / cluster->cost().disk_read_bandwidth);
  };
  return policy;
}

namespace {

// Bounds stage re-execution rounds: each round either finishes the job
// or re-runs map tasks lost to an executor kill; the bound only trips if
// executors keep dying faster than stages complete.
constexpr int kMaxStageRounds = 12;

void CollectExchangesPostOrder(const Plan* plan,
                               std::vector<const Plan*>* out) {
  if (plan == nullptr) return;
  CollectExchangesPostOrder(plan->child.get(), out);
  CollectExchangesPostOrder(plan->other.get(), out);
  if (plan->kind == Plan::Kind::kExchange) out->push_back(plan);
}

// ------------------------------------------------- fused map stage
//
// When an exchange combines map-side, the {filter|select}* chain between
// it and its scan/parallelize leaf can be collapsed: the filters compile
// into vector programs over the leaf columns (fabric::exec kernels), the
// selects reduce to a column remapping of the combine plan, and each
// surviving leaf row folds straight into the partial-aggregate table.
// No intermediate row vector is ever materialized. Every task.Compute
// charge of the unfused chain is replicated — same amounts, same order —
// so fused and unfused runs produce byte-identical traces; any stage
// whose predicate cannot be compiled (or whose row values defeat the
// static types at runtime) falls back to the interpreter's own
// ColumnPredicate::Matches over the same rows, keeping results and
// errors identical.

struct FusedMapStage {
  // The scan/parallelize node at the bottom of the chain; computed
  // unfused so source reads charge exactly as before.
  std::shared_ptr<const Plan> leaf;

  struct Filter {
    // The stage predicate with its column renamed to the leaf schema
    // (the per-row fallback path — identical code to the unfused stage).
    ColumnPredicate remapped;
    // A NULL comparison literal matches no row, whatever the value.
    bool const_false = false;
    exec::Program program;  // compiled over leaf columns
  };
  std::vector<Filter> filters;  // leaf-to-exchange order

  // spec->combine with keys/calls remapped to leaf columns; in_schema is
  // the leaf schema (used by the fallback predicate path).
  AggPlan combine;
};

// Compiles the chain below `node` (an exchange with a combine) into a
// fused stage, or returns nullptr when any piece is outside the fusable
// shape — the unfused path then runs and surfaces identical results or
// errors.
std::shared_ptr<const FusedMapStage> TryFuseMapStage(
    const Plan* node, const SparkCluster* cluster) {
  if (!cluster->options().fuse_map_stages) return nullptr;
  const ExchangeSpec& spec = *node->exchange;
  if (spec.combine == nullptr) return nullptr;
  std::vector<const Plan*> chain;  // top-down
  const Plan* leaf = node->child.get();
  while (leaf->kind == Plan::Kind::kFilterPredicate ||
         leaf->kind == Plan::Kind::kSelect) {
    chain.push_back(leaf);
    leaf = leaf->child.get();
  }
  if (chain.empty()) return nullptr;  // nothing to fuse away
  if (leaf->kind != Plan::Kind::kScan &&
      leaf->kind != Plan::Kind::kParallelize) {
    return nullptr;
  }
  const storage::Schema& leaf_schema = leaf->schema;
  // Position in the current stage's output -> leaf column.
  std::vector<int> colmap(leaf_schema.num_columns());
  std::iota(colmap.begin(), colmap.end(), 0);
  auto fused = std::make_shared<FusedMapStage>();
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Plan* stage = *it;
    if (stage->kind == Plan::Kind::kSelect) {
      std::vector<int> next;
      next.reserve(stage->select_indices.size());
      for (int idx : stage->select_indices) next.push_back(colmap[idx]);
      colmap = std::move(next);
      continue;
    }
    const ColumnPredicate& p = stage->predicate;
    auto idx = stage->child->schema.IndexOf(p.column);
    if (!idx.ok()) return nullptr;  // let Matches surface the error
    const int leaf_col = colmap[*idx];
    // The fallback resolves by name against the leaf schema; a duplicate
    // name that resolves elsewhere would change the predicate's column.
    const std::string& leaf_name = leaf_schema.column(leaf_col).name;
    auto back = leaf_schema.IndexOf(leaf_name);
    if (!back.ok() || *back != leaf_col) return nullptr;
    FusedMapStage::Filter f;
    f.remapped = p;
    f.remapped.column = leaf_name;
    const storage::DataType col_type = leaf_schema.column(leaf_col).type;
    exec::Node load;
    load.op = exec::Node::Op::kColumn;
    load.type = col_type;
    load.column = leaf_col;
    if (p.op == ColumnPredicate::Op::kIsNull ||
        p.op == ColumnPredicate::Op::kIsNotNull) {
      exec::Node is_null;
      is_null.op = exec::Node::Op::kIsNull;
      is_null.type = storage::DataType::kBool;
      is_null.a = 0;
      is_null.negated = p.op == ColumnPredicate::Op::kIsNotNull;
      f.program.nodes = {std::move(load), std::move(is_null)};
    } else if (p.literal.is_null()) {
      f.const_false = true;
    } else {
      // Value::Compare promotes every non-varchar through AsDouble, so
      // the only statically uncomparable shape is varchar vs. numeric.
      const bool col_str = col_type == storage::DataType::kVarchar;
      if (col_str != (p.literal.type() == storage::DataType::kVarchar)) {
        return nullptr;
      }
      exec::Node lit;
      lit.op = exec::Node::Op::kConst;
      lit.type = p.literal.type();
      lit.constant = p.literal;
      exec::Node cmp;
      cmp.op = exec::Node::Op::kCompare;
      cmp.type = storage::DataType::kBool;
      cmp.a = 0;
      cmp.b = 1;
      cmp.string_compare = col_str;
      switch (p.op) {
        case ColumnPredicate::Op::kEq:
          cmp.cmp = exec::Node::Cmp::kEq;
          break;
        case ColumnPredicate::Op::kNe:
          cmp.cmp = exec::Node::Cmp::kNe;
          break;
        case ColumnPredicate::Op::kLt:
          cmp.cmp = exec::Node::Cmp::kLt;
          break;
        case ColumnPredicate::Op::kLe:
          cmp.cmp = exec::Node::Cmp::kLe;
          break;
        case ColumnPredicate::Op::kGt:
          cmp.cmp = exec::Node::Cmp::kGt;
          break;
        case ColumnPredicate::Op::kGe:
          cmp.cmp = exec::Node::Cmp::kGe;
          break;
        default:
          return nullptr;
      }
      f.program.nodes = {std::move(load), std::move(lit), std::move(cmp)};
    }
    fused->filters.push_back(std::move(f));
  }
  fused->leaf = chain.back()->child;
  fused->combine = *spec.combine;
  fused->combine.in_schema = leaf_schema;
  for (int& k : fused->combine.keys) k = colmap[k];
  for (AggCall& call : fused->combine.calls) {
    if (call.column >= 0) call.column = colmap[call.column];
  }
  return fused;
}

// One fused map task: leaf rows -> selection-vector filtering -> partial
// rows, charging exactly what the unfused chain charges at each step.
Result<std::vector<storage::Row>> RunFusedMap(TaskContext& task,
                                              const FusedMapStage& fused,
                                              int map) {
  const CostModel& cost = task.cluster->cost();
  FABRIC_ASSIGN_OR_RETURN(std::vector<storage::Row> rows,
                          fused.leaf->Compute(task, map));
  const storage::LaneRows input =
      storage::LaneRows::FromRows(fused.combine.in_schema, rows);
  std::vector<uint32_t> active(rows.size());
  std::iota(active.begin(), active.end(), 0);
  exec::EvalState state;
  for (const FusedMapStage::Filter& f : fused.filters) {
    // The unfused stage charges for every row entering it, before
    // filtering.
    FABRIC_RETURN_IF_ERROR(task.Compute(
        active.size() * cost.spark_row_process_cpu * cost.data_scale));
    if (f.const_false) {
      active.clear();
      continue;
    }
    std::vector<uint32_t> survivors;
    if (!exec::RunFilter(f.program, input, active, &state, &survivors)) {
      // A row value defeated the static types: decide every row with the
      // stage's own predicate (identical semantics, same first-error
      // row).
      survivors.clear();
      for (uint32_t i : active) {
        FABRIC_ASSIGN_OR_RETURN(
            bool keep, f.remapped.Matches(fused.combine.in_schema, rows[i]));
        if (keep) survivors.push_back(i);
      }
    }
    active = std::move(survivors);
  }
  // The map task's own hash+combine charge: the rows reaching the
  // exchange, exactly as the unfused body counts them.
  FABRIC_RETURN_IF_ERROR(task.Compute(
      active.size() * cost.spark_row_process_cpu * cost.data_scale));
  exec::SpillPolicy spill = TaskSpillPolicy(task);
  Combiner combiner(&fused.combine, &spill);
  for (uint32_t i : active) {
    FABRIC_RETURN_IF_ERROR(combiner.Add(rows[i]));
  }
  return combiner.Finish();
}

// Runs (or re-runs) the map stage of one exchange: every map whose
// output was never committed or was lost with its executor recomputes
// its input partition from lineage, hash-partitions (and optionally
// map-side combines) it, spills the blocks to local disk and commits
// them to the block store.
Status RunMapStage(sim::Process& driver, SparkCluster* cluster,
                   const Plan* node) {
  ShuffleManager* manager = cluster->shuffle_manager();
  const std::shared_ptr<ExchangeSpec>& spec = node->exchange;
  if (spec->shuffle_id < 0) {
    spec->shuffle_id =
        manager->Register(node->child->NumPartitions(), spec->num_partitions);
  }
  const int sid = spec->shuffle_id;
  auto missing =
      std::make_shared<const std::vector<int>>(manager->MissingMaps(sid));
  if (missing->empty()) return Status::OK();
  uint64_t span = obs::TraceBegin(
      "spark", "stage",
      {{"kind", "map"},
       {"shuffle", sid},
       {"tasks", static_cast<int>(missing->size())}});
  std::shared_ptr<const Plan> child = node->child;
  std::shared_ptr<const FusedMapStage> fused = TryFuseMapStage(node, cluster);
  if (fused != nullptr) obs::IncrCounter("spark.fused_map_stages");
  auto result = cluster->RunJob(
      driver, StrCat("shuffle-map-s", sid),
      static_cast<int>(missing->size()),
      [child, spec, missing, manager, sid, fused](TaskContext& task)
          -> Status {
        const int map = (*missing)[task.task];
        const CostModel& cost = task.cluster->cost();
        std::vector<storage::Row> rows;
        if (fused != nullptr) {
          FABRIC_ASSIGN_OR_RETURN(rows, RunFusedMap(task, *fused, map));
        } else {
          FABRIC_ASSIGN_OR_RETURN(rows, child->Compute(task, map));
          // Hashing every row (plus the map-side combine when present).
          FABRIC_RETURN_IF_ERROR(task.Compute(
              rows.size() * cost.spark_row_process_cpu * cost.data_scale));
          if (spec->combine != nullptr) {
            exec::SpillPolicy spill = TaskSpillPolicy(task);
            Combiner combiner(&*spec->combine, &spill);
            for (const storage::Row& row : rows) {
              FABRIC_RETURN_IF_ERROR(combiner.Add(row));
            }
            FABRIC_ASSIGN_OR_RETURN(rows, combiner.Finish());
          }
        }
        const double bytes = storage::ProfileRows(rows)
                                 .ScaleBy(cost.data_scale)
                                 .raw_bytes;
        std::vector<std::vector<storage::Row>> blocks(spec->num_partitions);
        for (storage::Row& row : rows) {
          blocks[PartitionOf(row, spec->keys, spec->num_partitions)]
              .push_back(std::move(row));
        }
        if (bytes > 0 && task.worker_host().has_disk()) {
          FABRIC_RETURN_IF_ERROR(task.cluster->network()->Transfer(
              *task.process, {task.worker_host().disk}, bytes));
        }
        manager->CommitMapOutput(sid, map, task.worker, std::move(blocks));
        return Status::OK();
      });
  obs::TraceEnd(span, "spark", "stage");
  return result.ok() ? Status::OK() : result.status();
}

// Materializes every missing map output under `plan`, inner exchanges
// first. A fetch failure inside a map stage (its input reads an inner
// shuffle that lost blocks mid-stage) restarts the sweep.
Status PrepareShuffles(sim::Process& driver, SparkCluster* cluster,
                       const std::shared_ptr<const Plan>& plan) {
  std::vector<const Plan*> exchanges;
  CollectExchangesPostOrder(plan.get(), &exchanges);
  if (exchanges.empty()) return Status::OK();
  Status last = Status::OK();
  for (int round = 0; round < kMaxStageRounds; ++round) {
    bool resubmit = false;
    for (const Plan* node : exchanges) {
      Status status = RunMapStage(driver, cluster, node);
      if (status.ok()) continue;
      if (!IsFetchFailure(status)) return status;
      last = status;
      resubmit = true;
      obs::IncrCounter("spark.shuffle.stage_resubmits");
      obs::TraceEvent("spark", "stage.resubmit",
                      {{"shuffle", node->exchange->shuffle_id}});
      break;
    }
    if (!resubmit) return Status::OK();
  }
  return last;
}

}  // namespace

bool HasExchange(const Plan& plan) {
  if (plan.kind == Plan::Kind::kExchange) return true;
  if (plan.child != nullptr && HasExchange(*plan.child)) return true;
  return plan.other != nullptr && HasExchange(*plan.other);
}

Result<SparkCluster::JobStats> RunPlanJob(
    sim::Process& driver, SparkCluster* cluster, const std::string& name,
    const std::shared_ptr<const Plan>& plan, int num_tasks,
    std::function<Status(TaskContext&)> body) {
  if (!HasExchange(*plan)) {
    return cluster->RunJob(driver, name, num_tasks, std::move(body));
  }
  Status last = Status::OK();
  for (int round = 0; round < kMaxStageRounds; ++round) {
    FABRIC_RETURN_IF_ERROR(PrepareShuffles(driver, cluster, plan));
    auto job = cluster->RunJob(driver, name, num_tasks, body);
    if (job.ok() || !IsFetchFailure(job.status())) return job;
    last = job.status();
    obs::IncrCounter("spark.shuffle.stage_resubmits");
    obs::TraceEvent("spark", "stage.resubmit", {{"job", name}});
  }
  return last;
}

}  // namespace fabric::spark::shuffle
