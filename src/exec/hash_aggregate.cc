#include "exec/hash_aggregate.h"

#include "common/hll.h"

namespace fabric::exec {

using storage::Row;
using storage::Value;

std::optional<AggFn> AggFnByName(std::string_view upper_name) {
  if (upper_name == "COUNT") return AggFn::kCount;
  if (upper_name == "SUM") return AggFn::kSum;
  if (upper_name == "AVG") return AggFn::kAvg;
  if (upper_name == "MIN") return AggFn::kMin;
  if (upper_name == "MAX") return AggFn::kMax;
  return std::nullopt;
}

namespace {

// Keeps the first extremal value: `candidate` replaces a non-null
// `*extreme` only when strictly smaller (sign -1) or larger (sign 1).
Status FoldExtreme(const Value& candidate, int sign, Value* extreme) {
  if (extreme->is_null()) {
    *extreme = candidate;
    return Status::OK();
  }
  FABRIC_ASSIGN_OR_RETURN(int c, candidate.Compare(*extreme));
  if (c * sign > 0) *extreme = candidate;
  return Status::OK();
}

}  // namespace

Status Update(const AggCall& call, const Value& input, AggState* state) {
  if (input.is_null()) return Status::OK();  // SQL aggregates skip NULLs
  ++state->count;
  switch (call.fn) {
    case AggFn::kCount:
      break;
    case AggFn::kSum:
    case AggFn::kAvg: {
      FABRIC_ASSIGN_OR_RETURN(double d, input.AsDouble());
      state->sum += d;
      break;
    }
    case AggFn::kMin:
      return FoldExtreme(input, -1, &state->min);
    case AggFn::kMax:
      return FoldExtreme(input, 1, &state->max);
    case AggFn::kUdx:
      if (state->udx_state.empty()) state->udx_state = call.init_state;
      return call.udx->update(input, &state->udx_state);
  }
  return Status::OK();
}

Status Merge(const AggCall& call, const AggState& src, AggState* dst) {
  dst->count += src.count;
  dst->sum += src.sum;
  if (!src.min.is_null()) {
    FABRIC_RETURN_IF_ERROR(FoldExtreme(src.min, -1, &dst->min));
  }
  if (!src.max.is_null()) {
    FABRIC_RETURN_IF_ERROR(FoldExtreme(src.max, 1, &dst->max));
  }
  if (!src.udx_state.empty()) {
    if (dst->udx_state.empty()) {
      dst->udx_state = src.udx_state;
    } else {
      FABRIC_RETURN_IF_ERROR(call.udx->merge(src.udx_state, &dst->udx_state));
    }
  }
  return Status::OK();
}

Result<Value> Finalize(const AggCall& call, const AggState& state) {
  switch (call.fn) {
    case AggFn::kCount:
      return Value::Int64(state.count);
    case AggFn::kSum:
      return state.count > 0 ? Value::Float64(state.sum) : Value::Null();
    case AggFn::kAvg:
      return state.count > 0 ? Value::Float64(state.sum / state.count)
                             : Value::Null();
    case AggFn::kMin:
      return state.min;
    case AggFn::kMax:
      return state.max;
    case AggFn::kUdx:
      return call.udx->finalize(state.udx_state.empty() ? call.init_state
                                                        : state.udx_state);
  }
  return Value::Null();
}

AggUdx HllSketchUdx(bool estimate) {
  AggUdx udx;
  udx.update = [](const Value& input, std::string* state) {
    return hll::AddHashToRawState(input.DistinctHash(), state);
  };
  udx.merge = hll::MergeRawStates;
  udx.finalize = [estimate](const std::string& state) -> Result<Value> {
    FABRIC_ASSIGN_OR_RETURN(hll::Sketch sketch,
                            hll::Sketch::FromRawState(state));
    if (estimate) return Value::Int64(sketch.Estimate());
    return Value::Varchar(sketch.Serialize());
  };
  return udx;
}

void AppendGroupKey(const Row& row, const std::vector<int>& cols,
                    std::string* key) {
  for (int c : cols) {
    if (row[c].is_null()) {
      key->push_back('\x01');
    } else {
      row[c].AppendDisplayString(key);
    }
    key->push_back('\x02');
  }
}

std::string GroupKey(const Row& row, const std::vector<int>& cols) {
  std::string key;
  AppendGroupKey(row, cols, &key);
  return key;
}

int SpillPartitionOf(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return static_cast<int>(h % static_cast<uint64_t>(kSpillPartitions));
}

// Coarse on purpose: the budget is a simulation knob, not a malloc
// audit. Group slots hold empty states, so they cost the flat 56 bytes.
double GroupTable::GroupBytes(const std::string& key,
                              const Group& group) const {
  double bytes = static_cast<double>(key.size()) + 48;
  for (const AggState& state : group.states) {
    bytes += 56 + static_cast<double>(state.udx_state.size());
  }
  return bytes;
}

Status GroupTable::Charge(const std::string& key, const Group& group) {
  resident_bytes_ += GroupBytes(key, group);
  if (resident_bytes_ > spill_->budget_bytes) return SpillResident();
  return Status::OK();
}

// Pushes every resident group into its partition's run; runs keep
// chronological order within a partition.
Status GroupTable::SpillResident() {
  if (groups_.empty()) return Status::OK();
  if (runs_.empty()) runs_.resize(kSpillPartitions);
  double bytes = 0;
  const auto spilled = static_cast<int64_t>(groups_.size());
  for (auto& [key, group] : groups_) {
    bytes += GroupBytes(key, group);
    runs_[SpillPartitionOf(key)].emplace_back(key, std::move(group));
  }
  groups_.clear();
  resident_bytes_ = 0;
  if (spill_->charge_write) {
    FABRIC_RETURN_IF_ERROR(spill_->charge_write(bytes));
  }
  if (spill_->on_spill) spill_->on_spill(bytes, spilled);
  return Status::OK();
}

Status GroupTable::Finish(bool scalar_aggregate) {
  if (!runs_.empty()) {
    // The resident remainder goes out too, so every group flows through
    // the runs; each partition then merges back in turn, later entries
    // folding into the first.
    FABRIC_RETURN_IF_ERROR(SpillResident());
    for (auto& run : runs_) {
      if (run.empty()) continue;
      double bytes = 0;
      for (auto& [key, group] : run) {
        bytes += GroupBytes(key, group);
        auto [it, inserted] = groups_.try_emplace(key);
        if (inserted) {
          it->second = std::move(group);
          continue;
        }
        for (size_t i = 0; i < calls_->size(); ++i) {
          FABRIC_RETURN_IF_ERROR(Merge((*calls_)[i], group.states[i],
                                       &it->second.states[i]));
        }
      }
      run.clear();
      if (spill_->charge_read) {
        FABRIC_RETURN_IF_ERROR(spill_->charge_read(bytes));
      }
    }
  }
  if (scalar_aggregate && groups_.empty()) {
    groups_[""].states.resize(calls_->size());
  }
  return Status::OK();
}

Status GroupTable::AppendFinal(const Group& group, Row* out) const {
  for (size_t i = 0; i < calls_->size(); ++i) {
    const AggCall& call = (*calls_)[i];
    if (call.group_pos >= 0) {
      out->push_back(group.keys[call.group_pos]);
      continue;
    }
    FABRIC_ASSIGN_OR_RETURN(Value v, Finalize(call, group.states[i]));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace fabric::exec
