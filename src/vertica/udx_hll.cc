#include "vertica/udx_hll.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hll.h"
#include "common/string_util.h"
#include "storage/value.h"
#include "vertica/database.h"

namespace fabric::vertica {
namespace {

using storage::Value;

// Extra-argument handling shared by the sketching aggregates: one
// optional constant integer precision.
Result<int> PrecisionFrom(const std::string& fn,
                          const std::vector<Value>& extra) {
  if (extra.empty()) return hll::kDefaultPrecision;
  if (extra.size() > 1) {
    return InvalidArgumentError(
        StrCat(fn, " takes at most one precision argument"));
  }
  if (extra[0].type() != storage::DataType::kInt64) {
    return InvalidArgumentError(
        StrCat(fn, " precision must be an integer constant"));
  }
  const int precision = static_cast<int>(extra[0].int64_value());
  if (!hll::ValidPrecision(precision)) {
    return InvalidArgumentError(
        StrCat(fn, " precision must be in [", hll::kMinPrecision, ", ",
               hll::kMaxPrecision, "], got ", precision));
  }
  return precision;
}

// APPROXIMATE_COUNT_DISTINCT (`estimate`) and HLL_SKETCH: the shared
// sketch lifecycle plus the precision argument handed to init.
sql::AggregateUdx SketchingAggregate(const std::string& fn, bool estimate) {
  sql::AggregateUdx udx;
  static_cast<exec::AggUdx&>(udx) = exec::HllSketchUdx(estimate);
  udx.output_type =
      estimate ? storage::DataType::kInt64 : storage::DataType::kVarchar;
  udx.init = [fn](const std::vector<Value>& extra) -> Result<std::string> {
    FABRIC_ASSIGN_OR_RETURN(int precision, PrecisionFrom(fn, extra));
    FABRIC_ASSIGN_OR_RETURN(hll::Sketch sketch,
                            hll::Sketch::Create(precision));
    return sketch.ToRawState();
  };
  return udx;
}

}  // namespace

void RegisterHllFunctions(Database* db) {
  db->RegisterAggregateFunction(
      "APPROXIMATE_COUNT_DISTINCT",
      SketchingAggregate("APPROXIMATE_COUNT_DISTINCT", /*estimate=*/true));
  db->RegisterAggregateFunction(
      "HLL_SKETCH", SketchingAggregate("HLL_SKETCH", /*estimate=*/false));
  {
    // Union of previously serialized sketches. The state starts empty
    // ("no sketch yet") because the precision comes from the inputs.
    sql::AggregateUdx udx;
    udx.output_type = storage::DataType::kVarchar;
    udx.init = [](const std::vector<Value>& extra) -> Result<std::string> {
      if (!extra.empty()) {
        return InvalidArgumentError(
            "HLL_UNION_AGG takes exactly one sketch argument");
      }
      return std::string();
    };
    udx.update = [](const Value& input, std::string* state) -> Status {
      if (input.type() != storage::DataType::kVarchar) {
        return InvalidArgumentError(
            "HLL_UNION_AGG expects serialized sketches (VARCHAR)");
      }
      FABRIC_ASSIGN_OR_RETURN(hll::Sketch sketch,
                              hll::Sketch::Deserialize(input.varchar_value()));
      return hll::MergeRawStates(sketch.ToRawState(), state);
    };
    udx.merge = hll::MergeRawStates;
    udx.finalize = [](const std::string& state) -> Result<Value> {
      // SQL aggregate of zero non-null inputs: NULL, matching MIN/MAX.
      if (state.empty()) return Value::Null();
      FABRIC_ASSIGN_OR_RETURN(hll::Sketch sketch,
                              hll::Sketch::FromRawState(state));
      return Value::Varchar(sketch.Serialize());
    };
    db->RegisterAggregateFunction("HLL_UNION_AGG", std::move(udx));
  }
  db->RegisterScalarFunction(
      "HLL_ESTIMATE",
      [](const std::vector<Value>& args,
         const std::map<std::string, Value>&) -> Result<Value> {
        if (args.size() != 1) {
          return InvalidArgumentError("HLL_ESTIMATE(sketch)");
        }
        if (args[0].is_null()) return Value::Null();
        if (args[0].type() != storage::DataType::kVarchar) {
          return InvalidArgumentError(
              "HLL_ESTIMATE expects a serialized sketch (VARCHAR)");
        }
        FABRIC_ASSIGN_OR_RETURN(
            hll::Sketch sketch,
            hll::Sketch::Deserialize(args[0].varchar_value()));
        return Value::Int64(sketch.Estimate());
      });
}

}  // namespace fabric::vertica
