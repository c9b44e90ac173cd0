#include "spark/shuffle/aggregate.h"

#include <numeric>
#include <utility>

#include "common/hll.h"
#include "common/string_util.h"

namespace fabric::spark::shuffle {
namespace {

using storage::Row;
using storage::Value;

const exec::AggUdx kApproxCountDistinctUdx =
    exec::HllSketchUdx(/*estimate=*/true);
const exec::AggUdx kHllSketchUdx = exec::HllSketchUdx(/*estimate=*/false);

std::vector<exec::AggCall> CoreCalls(const AggPlan& plan) {
  std::vector<exec::AggCall> calls;
  calls.reserve(plan.calls.size());
  for (const AggCall& c : plan.calls) {
    exec::AggCall call;
    if (IsSketchFn(c.fn)) {
      call.fn = exec::AggFn::kUdx;
      call.udx = c.fn == AggregateFn::kApproxCountDistinct
                     ? &kApproxCountDistinctUdx
                     : &kHllSketchUdx;
      // The precision was validated when the plan was built
      // (GroupedDataFrame::Agg).
      call.init_state = hll::Sketch::Create(c.precision).value().ToRawState();
    } else {
      call.fn = *exec::AggFnByName(AggregateFnName(c.fn));
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

}  // namespace

storage::Schema PartialSchema(const AggPlan& plan) {
  std::vector<storage::ColumnDef> defs;
  for (int k : plan.keys) defs.push_back(plan.in_schema.column(k));
  for (size_t i = 0; i < plan.calls.size(); ++i) {
    const AggCall& call = plan.calls[i];
    if (IsSketchFn(call.fn)) {
      defs.push_back({StrCat("p", i, "_sketch"),
                      storage::DataType::kVarchar});
      continue;
    }
    storage::DataType arg_type =
        call.column < 0 ? storage::DataType::kInt64
                        : plan.in_schema.column(call.column).type;
    defs.push_back({StrCat("p", i, "_count"), storage::DataType::kInt64});
    defs.push_back({StrCat("p", i, "_sum"), storage::DataType::kFloat64});
    defs.push_back({StrCat("p", i, "_min"), arg_type});
    defs.push_back({StrCat("p", i, "_max"), arg_type});
  }
  return storage::Schema(std::move(defs));
}

int PartialWidth(const AggCall& call) { return IsSketchFn(call.fn) ? 1 : 4; }

struct Combiner::Impl {
  Impl(const AggPlan* plan, const exec::SpillPolicy* spill)
      : plan(plan), calls(CoreCalls(*plan)), table(&calls, spill) {}

  const AggPlan* plan;
  std::vector<exec::AggCall> calls;
  exec::GroupTable table;
};

Combiner::Combiner(const AggPlan* plan, const exec::SpillPolicy* spill)
    : impl_(new Impl(plan, spill)) {}
Combiner::~Combiner() = default;

Status Combiner::Add(const Row& row) {
  static const Value kOne = Value::Int64(1);  // COUNT(*) counts rows
  const AggPlan& plan = *impl_->plan;
  return impl_->table.Add(
      row, plan.keys, [&](exec::GroupTable::Group& group) -> Status {
        for (size_t i = 0; i < plan.calls.size(); ++i) {
          const int column = plan.calls[i].column;
          FABRIC_RETURN_IF_ERROR(
              exec::Update(impl_->calls[i], column < 0 ? kOne : row[column],
                           &group.states[i]));
        }
        return Status::OK();
      });
}

Result<std::vector<Row>> Combiner::Finish() {
  const AggPlan& plan = *impl_->plan;
  FABRIC_RETURN_IF_ERROR(impl_->table.Finish(/*scalar_aggregate=*/false));
  std::vector<Row> out;
  out.reserve(impl_->table.groups().size());
  for (auto& [key, group] : impl_->table.groups()) {
    Row row = std::move(group.keys);
    for (size_t i = 0; i < plan.calls.size(); ++i) {
      const exec::AggState& s = group.states[i];
      if (IsSketchFn(plan.calls[i].fn)) {
        // Empty states travel as the empty sketch, so the reduce side
        // can always deserialize.
        FABRIC_ASSIGN_OR_RETURN(
            hll::Sketch sketch,
            hll::Sketch::FromRawState(s.udx_state.empty()
                                          ? impl_->calls[i].init_state
                                          : s.udx_state));
        row.push_back(Value::Varchar(sketch.Serialize()));
        continue;
      }
      row.push_back(Value::Int64(s.count));
      row.push_back(Value::Float64(s.sum));
      row.push_back(s.min);
      row.push_back(s.max);
    }
    out.push_back(std::move(row));
  }
  return out;
}

Result<std::vector<Row>> MergePartials(const std::vector<Row>& partials,
                                       const AggPlan& plan,
                                       const exec::SpillPolicy* spill) {
  const int k = static_cast<int>(plan.keys.size());
  std::vector<int> key_positions(k);
  std::iota(key_positions.begin(), key_positions.end(), 0);
  const std::vector<exec::AggCall> calls = CoreCalls(plan);
  exec::GroupTable table(&calls, spill);
  for (const Row& prow : partials) {
    FABRIC_RETURN_IF_ERROR(table.Add(
        prow, key_positions, [&](exec::GroupTable::Group& group) -> Status {
          // Partial rows have a variable per-call width (sketch calls
          // carry a single serialized-register field); walk the layout,
          // never stride.
          int base = k;
          for (size_t i = 0; i < plan.calls.size(); ++i) {
            const AggCall& call = plan.calls[i];
            exec::AggState in;
            if (IsSketchFn(call.fn)) {
              if (prow[base].type() != storage::DataType::kVarchar) {
                return InvalidArgumentError(
                    "sketch partial field is not a serialized sketch");
              }
              FABRIC_ASSIGN_OR_RETURN(
                  hll::Sketch sketch,
                  hll::Sketch::Deserialize(prow[base].varchar_value()));
              in.udx_state = sketch.ToRawState();
            } else {
              in.count = prow[base].int64_value();
              in.sum = prow[base + 1].float64_value();
              in.min = prow[base + 2];
              in.max = prow[base + 3];
            }
            FABRIC_RETURN_IF_ERROR(
                exec::Merge(calls[i], in, &group.states[i]));
            base += PartialWidth(call);
          }
          return Status::OK();
        }));
  }
  FABRIC_RETURN_IF_ERROR(table.Finish(/*scalar_aggregate=*/k == 0));
  std::vector<Row> out;
  out.reserve(table.groups().size());
  for (auto& [key, group] : table.groups()) {
    Row row = std::move(group.keys);
    FABRIC_RETURN_IF_ERROR(table.AppendFinal(group, &row));
    out.push_back(std::move(row));
  }
  return out;
}

int PartitionOf(const Row& row, const std::vector<int>& keys,
                int num_partitions) {
  uint64_t hash;
  if (keys.empty()) {
    std::vector<int> all(row.size());
    std::iota(all.begin(), all.end(), 0);
    hash = storage::RowSegmentationHash(row, all);
  } else {
    hash = storage::RowSegmentationHash(row, keys);
  }
  return static_cast<int>(hash % static_cast<uint64_t>(num_partitions));
}

}  // namespace fabric::spark::shuffle
