// Microbenchmarks (google-benchmark) for the fabric's hot paths: ring
// hashing, columnar encodings, Tuple Mover mergeout, the Avro batch
// codec, SQL parsing, the sim engine's per-wake and per-spawn cost, the
// flow simulator's re-rating step, the vectorized scan engine
// (predicate kernels on encoded data vs the decode-then-filter
// baseline; first vs repeat scans of a ROS container), the compiled
// pipeline over scan lanes, the equi-join kernel, and value formatting
// behind group/join keys and SQL text.
// These measure real host CPU (not virtual time) — the code the
// simulation actually executes.

#include <algorithm>
#include <functional>
#include <variant>

#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "exec/hash_aggregate.h"
#include "exec/join.h"
#include "exec/pipeline.h"
#include "vertica/pipeline.h"
#include "vertica/sql_eval.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "connector/avro.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "storage/column_cursor.h"
#include "storage/encoding.h"
#include "storage/scan_kernels.h"
#include "storage/schema.h"
#include "storage/segment_store.h"
#include "vertica/sql_parser.h"

namespace fabric {
namespace {

void BM_RingHashRow(benchmark::State& state) {
  int cols = static_cast<int>(state.range(0));
  Rng rng(1);
  storage::Row row;
  std::vector<int> indices;
  for (int c = 0; c < cols; ++c) {
    row.push_back(storage::Value::Float64(rng.NextDouble()));
    indices.push_back(c);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::RowSegmentationHash(row, indices));
  }
}
BENCHMARK(BM_RingHashRow)->Arg(2)->Arg(10)->Arg(100);

void BM_EncodeColumn(benchmark::State& state) {
  auto encoding = static_cast<storage::Encoding>(state.range(0));
  Rng rng(2);
  std::vector<storage::Value> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back(storage::Value::Int64(rng.NextInt64(0, 15)));
  }
  for (auto _ : state) {
    auto chunk =
        storage::EncodeColumnAs(storage::DataType::kInt64, encoding,
                                values);
    benchmark::DoNotOptimize(chunk);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EncodeColumn)
    ->Arg(static_cast<int>(storage::Encoding::kPlain))
    ->Arg(static_cast<int>(storage::Encoding::kRle))
    ->Arg(static_cast<int>(storage::Encoding::kDictionary));

// The auto-chooser on 4096 values shaped so each encoding wins: uniform
// floats (PLAIN, arg 0), sorted low-cardinality ints (RLE, arg 1) and
// shuffled short strings from a small set (DICTIONARY, arg 2).
void BM_EncodeColumnAuto(benchmark::State& state) {
  int shape = static_cast<int>(state.range(0));
  Rng rng(5);
  storage::DataType type = shape == 0   ? storage::DataType::kFloat64
                           : shape == 1 ? storage::DataType::kInt64
                                        : storage::DataType::kVarchar;
  std::vector<storage::Value> values;
  for (int i = 0; i < 4096; ++i) {
    if (shape == 0) {
      values.push_back(storage::Value::Float64(rng.NextDouble()));
    } else if (shape == 1) {
      values.push_back(storage::Value::Int64(i / 256));
    } else {
      values.push_back(storage::Value::Varchar(
          StrCat("page", rng.NextInt64(0, 31))));
    }
  }
  for (auto _ : state) {
    auto chunk = storage::EncodeColumn(type, values);
    benchmark::DoNotOptimize(chunk);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EncodeColumnAuto)->Arg(0)->Arg(1)->Arg(2);

// One ROS container of 1500 rows x `cols` uniform floats: the per-save
// encode cost of a D1-style S2V load.
void BM_RosContainerCreate(benchmark::State& state) {
  int cols = static_cast<int>(state.range(0));
  std::vector<storage::ColumnDef> defs;
  for (int c = 0; c < cols; ++c) {
    defs.push_back({StrCat("c", c), storage::DataType::kFloat64});
  }
  storage::Schema schema(std::move(defs));
  Rng rng(6);
  std::vector<storage::Row> rows(1500);
  for (storage::Row& row : rows) {
    for (int c = 0; c < cols; ++c) {
      row.push_back(storage::Value::Float64(rng.NextDouble()));
    }
  }
  const double raw_bytes = storage::ProfileRows(rows).raw_bytes;
  for (auto _ : state) {
    auto container = storage::RosContainer::CreateFromColumns(
        schema, storage::FromRows(schema, rows).value(), raw_bytes,
        /*pending_txn=*/1);
    benchmark::DoNotOptimize(container);
  }
  state.SetItemsProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_RosContainerCreate)->Arg(16)->Arg(100);

// One mergeout of 8 committed DIRECT containers, shaped like one
// bulk_ingest save of 8 partitions. Arg 0 picks the store: 0 is 16
// uniform-float columns (1500 rows), 1 a clickstream of sorted ints and
// low-cardinality strings (3000 rows). Arg 1 picks the design: 0 keeps
// insertion order, 1 sorts on the first two columns.
void BM_MergeRosContainers(benchmark::State& state) {
  const bool click = state.range(0) == 1;
  std::vector<storage::ColumnDef> defs;
  if (click) {
    defs = {{"user_id", storage::DataType::kInt64},
            {"ts", storage::DataType::kInt64},
            {"page", storage::DataType::kVarchar},
            {"action", storage::DataType::kVarchar},
            {"dwell_ms", storage::DataType::kInt64}};
  } else {
    for (int c = 0; c < 16; ++c) {
      defs.push_back({StrCat("c", c), storage::DataType::kFloat64});
    }
  }
  storage::Schema schema(std::move(defs));
  storage::PhysicalDesign design;
  if (state.range(1) == 1) design.sort_columns = {0, 1};
  storage::SegmentStore base(schema, design);
  Rng rng(8);
  const int rows_per_container = click ? 375 : 188;
  int64_t user = 0;
  int64_t ts = 1'600'000'000;
  for (storage::TxnId txn = 1; txn <= 8; ++txn) {
    std::vector<storage::Row> rows;
    for (int i = 0; i < rows_per_container; ++i) {
      storage::Row row;
      if (click) {
        if (rng.NextBool(0.1)) user += 1 + rng.NextInt64(0, 2);
        ts += rng.NextInt64(0, 4);
        row = {storage::Value::Int64(user), storage::Value::Int64(ts),
               storage::Value::Varchar(StrCat("page", rng.NextInt64(0, 11))),
               storage::Value::Varchar(StrCat("act", rng.NextInt64(0, 3))),
               storage::Value::Int64(rng.NextInt64(0, 99))};
      } else {
        for (int c = 0; c < 16; ++c) {
          row.push_back(storage::Value::Float64(rng.NextDouble()));
        }
      }
      rows.push_back(std::move(row));
    }
    FABRIC_CHECK_OK(base.InsertPending(
        txn, storage::FromRows(base.schema(), rows).value(),
        /*direct=*/true));
    base.CommitTxn(txn, txn);
  }
  const std::vector<int> all = {0, 1, 2, 3, 4, 5, 6, 7};
  storage::SegmentStore store(schema, design);
  for (auto _ : state) {
    state.PauseTiming();
    store.CopyContentsFrom(base);
    state.ResumeTiming();
    auto merged = store.MergeRosContainers(all);
    FABRIC_CHECK_OK(merged.status());
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * 8 * rows_per_container);
}
BENCHMARK(BM_MergeRosContainers)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void BM_DecodeColumn(benchmark::State& state) {
  Rng rng(3);
  std::vector<storage::Value> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back(storage::Value::Float64(rng.NextDouble()));
  }
  auto chunk = storage::EncodeColumn(storage::DataType::kFloat64, values);
  for (auto _ : state) {
    auto decoded = storage::DecodeColumn(*chunk);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DecodeColumn);

void BM_AvroBatchRoundTrip(benchmark::State& state) {
  int cols = static_cast<int>(state.range(0));
  std::vector<storage::ColumnDef> defs;
  for (int c = 0; c < cols; ++c) {
    defs.push_back({StrCat("c", c), storage::DataType::kFloat64});
  }
  storage::Schema schema(std::move(defs));
  Rng rng(4);
  std::vector<storage::Row> rows;
  for (int i = 0; i < 256; ++i) {
    storage::Row row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(storage::Value::Float64(rng.NextDouble()));
    }
    rows.push_back(std::move(row));
  }
  for (auto _ : state) {
    std::string encoded = connector::AvroEncodeBatch(schema, rows);
    auto decoded = connector::AvroDecodeBatch(schema, encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_AvroBatchRoundTrip)->Arg(2)->Arg(100);

void BM_SqlParse(benchmark::State& state) {
  const char* sql =
      "SELECT c0, c1, COUNT(*) AS n FROM d1 WHERE HASH(c0, c1) >= "
      "-9223372036854775808 AND HASH(c0, c1) < 42 AND c5 > 0.5 "
      "GROUP BY c0, c1 ORDER BY n DESC LIMIT 100 AT EPOCH 7";
  for (auto _ : state) {
    auto statement = vertica::sql::Parse(sql);
    benchmark::DoNotOptimize(statement);
  }
}
BENCHMARK(BM_SqlParse);

// ------------------------------------------------ vectorized scan engine

// Column data shaped for the requested encoding: long runs for RLE,
// shuffled low-cardinality for dictionary, full-range random for plain
// (so the auto-chooser in EncodeColumn would pick the same encoding).
std::vector<storage::Value> ScanBenchValues(storage::Encoding encoding,
                                            int rows) {
  Rng rng(7);
  std::vector<storage::Value> values;
  values.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    int64_t v;
    switch (encoding) {
      case storage::Encoding::kRle:
        v = (i / 256) % 16;
        break;
      case storage::Encoding::kDictionary:
        v = rng.NextInt64(0, 15);
        break;
      default:
        v = rng.NextInt64(0, int64_t{1} << 30);
        break;
    }
    values.push_back(storage::Value::Int64(v));
  }
  return values;
}

constexpr int kScanRows = 4096;

// `c < 8` evaluated by the predicate kernels on the encoded form: once
// per run (RLE), once per distinct value (dictionary), tight loop
// (plain). Compare with BM_FilterDecodeBaseline on the same chunk.
void BM_FilterEncodedKernel(benchmark::State& state) {
  auto encoding = static_cast<storage::Encoding>(state.range(0));
  auto chunk =
      storage::EncodeColumnAs(storage::DataType::kInt64, encoding,
                              ScanBenchValues(encoding, kScanRows));
  FABRIC_CHECK_OK(chunk.status());
  storage::CompareTerm term;
  term.op = storage::CompareOp::kLt;
  term.number = 8;
  for (auto _ : state) {
    auto column = storage::DecodeColumnBatches(*chunk);
    FABRIC_CHECK_OK(column.status());
    storage::SelectionVector sel;
    size_t matched = 0;
    for (const storage::ColumnBatch& batch : (*column)->batches) {
      sel.resize(batch.length);
      for (uint32_t i = 0; i < batch.length; ++i) sel[i] = batch.base + i;
      storage::FilterCompare(term, **column, batch, &sel);
      matched += sel.size();
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_FilterEncodedKernel)
    ->Arg(static_cast<int>(storage::Encoding::kPlain))
    ->Arg(static_cast<int>(storage::Encoding::kRle))
    ->Arg(static_cast<int>(storage::Encoding::kDictionary));

// The pre-engine scan path: decode every row to a boxed Value, then
// filter with Value::Compare. Kept compiled as the baseline the engine's
// >= 3x throughput claim is measured against.
void BM_FilterDecodeBaseline(benchmark::State& state) {
  auto encoding = static_cast<storage::Encoding>(state.range(0));
  auto chunk =
      storage::EncodeColumnAs(storage::DataType::kInt64, encoding,
                              ScanBenchValues(encoding, kScanRows));
  FABRIC_CHECK_OK(chunk.status());
  storage::Value literal = storage::Value::Int64(8);
  for (auto _ : state) {
    auto decoded = storage::DecodeColumn(*chunk);
    FABRIC_CHECK_OK(decoded.status());
    size_t matched = 0;
    for (const storage::Value& v : *decoded) {
      if (v.is_null()) continue;
      auto c = v.Compare(literal);
      if (c.ok() && *c < 0) ++matched;
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_FilterDecodeBaseline)
    ->Arg(static_cast<int>(storage::Encoding::kPlain))
    ->Arg(static_cast<int>(storage::Encoding::kRle))
    ->Arg(static_cast<int>(storage::Encoding::kDictionary));

// Late materialization: filter to ~1/16 of an RLE column, then gather
// only the survivors into a typed lane.
void BM_GatherSelected(benchmark::State& state) {
  auto chunk = storage::EncodeColumnAs(
      storage::DataType::kInt64, storage::Encoding::kRle,
      ScanBenchValues(storage::Encoding::kRle, kScanRows));
  FABRIC_CHECK_OK(chunk.status());
  storage::CompareTerm term;
  term.op = storage::CompareOp::kEq;
  term.number = 3;
  for (auto _ : state) {
    auto column = storage::DecodeColumnBatches(*chunk);
    FABRIC_CHECK_OK(column.status());
    storage::SelectionVector sel;
    storage::Lanes out(storage::DataType::kInt64);
    for (const storage::ColumnBatch& batch : (*column)->batches) {
      sel.resize(batch.length);
      for (uint32_t i = 0; i < batch.length; ++i) sel[i] = batch.base + i;
      storage::FilterCompare(term, **column, batch, &sel);
      size_t out_base = out.size();
      out.Resize(out_base + sel.size());
      storage::GatherColumn(**column, batch, sel, &out, out_base);
    }
    benchmark::DoNotOptimize(out.values.ints.data());
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_GatherSelected);

// Whole-store filtered scan (SegmentStore::Scan): container pruning,
// kernels, selection-vector materialization — per column encoding.
void BM_SegmentStoreScan(benchmark::State& state) {
  auto encoding = static_cast<storage::Encoding>(state.range(0));
  storage::Schema schema({{"c0", storage::DataType::kInt64},
                          {"c1", storage::DataType::kFloat64}});
  std::vector<storage::Value> keys = ScanBenchValues(encoding, kScanRows);
  Rng rng(8);
  std::vector<storage::Row> rows;
  rows.reserve(kScanRows);
  for (int i = 0; i < kScanRows; ++i) {
    rows.push_back({keys[i], storage::Value::Float64(rng.NextDouble())});
  }
  storage::SegmentStore store(schema);
  FABRIC_CHECK_OK(store.InsertPending(
      1, storage::FromRows(store.schema(), rows).value(),
      /*direct=*/true));
  store.CommitTxn(1, 1);
  storage::ScanPredicate predicate;
  predicate.compares.push_back(
      {0, storage::CompareOp::kLt, false, 8, ""});
  storage::ScanSpec spec;
  spec.as_of = 1;
  spec.predicate = &predicate;
  for (auto _ : state) {
    storage::ScanStats stats;
    auto out = store.Scan(spec, &stats);
    FABRIC_CHECK_OK(out.status());
    benchmark::DoNotOptimize(out->num_rows);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_SegmentStoreScan)
    ->Arg(static_cast<int>(storage::Encoding::kPlain))
    ->Arg(static_cast<int>(storage::Encoding::kRle))
    ->Arg(static_cast<int>(storage::Encoding::kDictionary));

// A committed three-column store (RLE int key, random float, short
// varchar) and the filter-plus-gather scan the ROS cold/warm pair runs.
// The filter keeps 1/16 of the rows, so column decode, not boxing the
// survivors, dominates a first scan.
struct RosScanFixture {
  static constexpr int kRows = 16384;
  storage::SegmentStore store{
      storage::Schema({{"k", storage::DataType::kInt64},
                       {"x", storage::DataType::kFloat64},
                       {"s", storage::DataType::kVarchar}})};
  storage::ScanPredicate predicate;
  storage::ScanSpec spec;

  RosScanFixture() {
    std::vector<storage::Value> keys =
        ScanBenchValues(storage::Encoding::kRle, kRows);
    Rng rng(9);
    std::vector<storage::Row> rows;
    rows.reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      rows.push_back({keys[i], storage::Value::Float64(rng.NextDouble()),
                      storage::Value::Varchar(StrCat("s", i % 97))});
    }
    FABRIC_CHECK_OK(store.InsertPending(
        1, storage::FromRows(store.schema(), rows).value(),
        /*direct=*/true));
    store.CommitTxn(1, 1);
    predicate.compares.push_back({0, storage::CompareOp::kEq, false, 3, ""});
    spec.as_of = 1;
    spec.predicate = &predicate;
  }

  size_t Scan(const storage::SegmentStore& target) const {
    storage::ScanStats stats;
    auto out = target.Scan(spec, &stats);
    FABRIC_CHECK_OK(out.status());
    return out->num_rows;
  }
};

// First scan of a container: every iteration scans a fresh copy (a
// copied container starts without decoded columns), so each pays the
// one-time column decode. The copy itself is not timed.
void BM_RosScanCold(benchmark::State& state) {
  RosScanFixture fixture;
  for (auto _ : state) {
    state.PauseTiming();
    storage::SegmentStore fresh = fixture.store;
    state.ResumeTiming();
    benchmark::DoNotOptimize(fixture.Scan(fresh));
  }
  state.SetItemsProcessed(state.iterations() * RosScanFixture::kRows);
}
BENCHMARK(BM_RosScanCold)->UseRealTime();

// Repeat scans of one container: after the first, the filter and the
// gather read the container's cached decoded columns.
void BM_RosScanWarm(benchmark::State& state) {
  RosScanFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.Scan(fixture.store));
  }
  state.SetItemsProcessed(state.iterations() * RosScanFixture::kRows);
}
BENCHMARK(BM_RosScanWarm)->UseRealTime();

void BM_FlowRerate(benchmark::State& state) {
  // Measures the water-filling recompute triggered by flow churn with N
  // concurrent flows across shared links.
  int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    net::Network network(&engine);
    net::LinkId shared = network.AddLink("shared", 1e9);
    for (int i = 0; i < flows; ++i) {
      net::LinkId own = network.AddLink("own", 1e8);
      engine.Spawn("f", [&network, own, shared](sim::Process& self) {
        (void)network.Transfer(self, {own, shared}, 1e6);
      });
    }
    Status status = engine.Run();
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowRerate)->Arg(8)->Arg(64)->Arg(256);

// ------------------------------------------------------------ sim engine

// Per-wake cost: N processes each sleep 1000 times, so every event is one
// switch into a process and one back out.
void BM_SimWake(benchmark::State& state) {
  const int processes = static_cast<int>(state.range(0));
  constexpr int kWakes = 1000;
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < processes; ++i) {
      engine.Spawn("sleeper", [](sim::Process& self) {
        for (int w = 0; w < kWakes; ++w) FABRIC_CHECK_OK(self.Sleep(1));
      });
    }
    FABRIC_CHECK_OK(engine.Run());
  }
  state.SetItemsProcessed(state.iterations() * processes * kWakes);
}
BENCHMARK(BM_SimWake)->Arg(2)->Arg(64)->UseRealTime();

// Per-spawn cost: a process that spawns a child and finishes, N deep, so
// spawns, first runs and completions alternate as they do in task fleets.
void BM_SimSpawn(benchmark::State& state) {
  const int processes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    int spawned = 0;
    std::function<void(sim::Process&)> body = [&](sim::Process&) {
      if (++spawned < processes) engine.Spawn("child", body);
    };
    engine.Spawn("child", body);
    FABRIC_CHECK_OK(engine.Run());
  }
  state.SetItemsProcessed(state.iterations() * processes);
}
BENCHMARK(BM_SimSpawn)->Arg(1000)->UseRealTime();

// Per-request cost of the fair-share re-rating on a 24-node fabric (an
// egress and an ingress link per node, plus idle links) with N staggered
// flows: every arrival and completion requests a re-rate of the rest, and
// the requests of one instant share one water-filling.
void RunRecomputeFabric(int flows) {
  sim::Engine engine;
  net::Network network(&engine);
  std::vector<net::LinkId> egress;
  std::vector<net::LinkId> ingress;
  for (int node = 0; node < 24; ++node) {
    egress.push_back(network.AddLink("egress", 1.25e8));
    ingress.push_back(network.AddLink("ingress", 1.25e8));
  }
  for (int idle = 0; idle < 11; ++idle) network.AddLink("idle", 1e9);
  for (int i = 0; i < flows; ++i) {
    std::vector<net::LinkId> path = {egress[i % 24],
                                     ingress[(i * 7 + 1) % 24]};
    engine.Spawn("flow", [&network, path, i](sim::Process& self) {
      FABRIC_CHECK_OK(network.Transfer(self, path, 1e6 * (i + 1)));
    });
  }
  FABRIC_CHECK_OK(engine.Run());
}

void BM_NetworkRecompute(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  double recomputes = 0;
  {
    // One metrics-only traced run counts the recomputes; the timed runs
    // below are untraced, like production.
    obs::Tracer tracer([] { return 0.0; }, {.capture_events = false});
    obs::ScopedTracer scope(&tracer);
    RunRecomputeFabric(flows);
    recomputes = tracer.metrics().counter("net.recomputes");
  }
  for (auto _ : state) RunRecomputeFabric(flows);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(recomputes));
}
BENCHMARK(BM_NetworkRecompute)->Arg(16)->Arg(128)->UseRealTime();

// --------------------------------------------------- pipeline compiler

// The interpreter-residual hot path both ways: a depth-d arithmetic
// predicate evaluated per row through the SQL interpreter vs lowered
// once into exec kernels and run over the rows' typed lanes. The arg is
// the expression depth (extra multiply-add levels around the column).
storage::Schema PipelineSchema() {
  return storage::Schema({{"id", storage::DataType::kInt64},
                          {"score", storage::DataType::kFloat64},
                          {"name", storage::DataType::kVarchar}});
}

std::vector<storage::Row> PipelineRows(int n) {
  Rng rng(11);
  std::vector<storage::Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back({storage::Value::Int64(i),
                    storage::Value::Float64(rng.NextDouble()),
                    storage::Value::Varchar(rng.NextString(8))});
  }
  return rows;
}

std::string DeepPredicateSql(int depth) {
  std::string expr = "score";
  for (int d = 0; d < depth; ++d) {
    expr = StrCat("(", expr, " * 1.01 + 0.003)");
  }
  return StrCat(expr, " < 0.7 AND id % 5 <> 0");
}

void BM_PredicateInterpreted(benchmark::State& state) {
  const storage::Schema schema = PipelineSchema();
  const auto rows = PipelineRows(4096);
  auto expr = vertica::sql::ParseExpression(
      DeepPredicateSql(static_cast<int>(state.range(0))));
  FABRIC_CHECK_OK(expr.status());
  for (auto _ : state) {
    size_t kept = 0;
    for (const storage::Row& row : rows) {
      vertica::sql::EvalContext context;
      context.schema = &schema;
      context.row = &row;
      auto match = vertica::sql::EvalPredicate(**expr, context);
      FABRIC_CHECK_OK(match.status());
      kept += *match ? 1 : 0;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_PredicateInterpreted)->Arg(1)->Arg(4)->Arg(8);

void BM_PredicateCompiled(benchmark::State& state) {
  const storage::Schema schema = PipelineSchema();
  const auto rows = PipelineRows(4096);
  auto expr = vertica::sql::ParseExpression(
      DeepPredicateSql(static_cast<int>(state.range(0))));
  FABRIC_CHECK_OK(expr.status());
  auto program = vertica::LowerExpr(**expr, schema);
  FABRIC_CHECK(program.has_value()) << "predicate did not compile";
  const storage::LaneRows input = storage::LaneRows::FromRows(schema, rows);
  exec::EvalState eval_state;
  std::vector<uint32_t> active(rows.size());
  for (size_t i = 0; i < active.size(); ++i) {
    active[i] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t> out;
  for (auto _ : state) {
    out.clear();
    bool handled =
        exec::RunFilter(*program, input, active, &eval_state, &out);
    FABRIC_CHECK(handled) << "compiled predicate bailed";
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_PredicateCompiled)->Arg(1)->Arg(4)->Arg(8);

// A full interpreter-residual SELECT body (filter + projected
// expressions) the two ways the executor runs it.
constexpr const char* kSelectSql =
    "SELECT id * 2 + 1, score / 2.5, UPPER(name), LENGTH(name) "
    "FROM t WHERE score < 0.7 AND id % 5 <> 0";

void BM_SelectInterpreted(benchmark::State& state) {
  const storage::Schema schema = PipelineSchema();
  const auto rows = PipelineRows(4096);
  auto statement = vertica::sql::Parse(kSelectSql);
  FABRIC_CHECK_OK(statement.status());
  const auto& select = std::get<vertica::sql::SelectStmt>(*statement);
  for (auto _ : state) {
    std::vector<storage::Row> out;
    for (const storage::Row& row : rows) {
      vertica::sql::EvalContext context;
      context.schema = &schema;
      context.row = &row;
      auto match = vertica::sql::EvalPredicate(*select.where, context);
      FABRIC_CHECK_OK(match.status());
      if (!*match) continue;
      storage::Row projected;
      for (const auto& item : select.items) {
        auto value = vertica::sql::Eval(*item.expr, context);
        FABRIC_CHECK_OK(value.status());
        projected.push_back(*std::move(value));
      }
      out.push_back(std::move(projected));
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_SelectInterpreted);

void BM_SelectCompiled(benchmark::State& state) {
  const storage::Schema schema = PipelineSchema();
  const auto rows = PipelineRows(4096);
  auto statement = vertica::sql::Parse(kSelectSql);
  FABRIC_CHECK_OK(statement.status());
  const auto& select = std::get<vertica::sql::SelectStmt>(*statement);
  auto compiled =
      vertica::LowerSelect(select, schema, nullptr, nullptr);
  FABRIC_CHECK(compiled.has_value()) << "select did not compile";
  const storage::LaneRows input = storage::LaneRows::FromRows(schema, rows);
  for (auto _ : state) {
    auto out = exec::RunCompiledSelect(compiled->select, input);
    FABRIC_CHECK(out.has_value()) << "compiled select bailed";
    benchmark::DoNotOptimize(out->lanes->num_rows);
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_SelectCompiled);

// A pushed-down GROUP BY as the executor runs it: the filtered scan of
// an 8 000-row ROS store into lanes, then the compiled aggregate over
// them ("SELECT region, COUNT(*), SUM(amount) ... WHERE item < 60 GROUP
// BY region").
void BM_ScanGroupBy(benchmark::State& state) {
  constexpr int kRows = 8000;
  const storage::Schema schema({{"id", storage::DataType::kInt64},
                                {"item", storage::DataType::kInt64},
                                {"region", storage::DataType::kInt64},
                                {"amount", storage::DataType::kInt64}});
  Rng rng(12);
  std::vector<storage::Row> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({storage::Value::Int64(i),
                    storage::Value::Int64(rng.NextInt64(0, 99)),
                    storage::Value::Int64(rng.NextInt64(0, 9)),
                    storage::Value::Int64(rng.NextInt64(1, 1000))});
  }
  storage::SegmentStore store(schema);
  FABRIC_CHECK_OK(store.InsertPending(
      1, storage::FromRows(store.schema(), rows).value(),
      /*direct=*/true));
  store.CommitTxn(1, 1);
  storage::ScanPredicate predicate;
  predicate.compares.push_back({1, storage::CompareOp::kLt, false, 60, ""});
  const std::vector<int> projection = {1, 2, 3};
  storage::ScanSpec spec;
  spec.as_of = 1;
  spec.predicate = &predicate;
  spec.cost_columns = &projection;
  spec.projection = &projection;
  auto statement = vertica::sql::Parse(
      "SELECT region, COUNT(*), SUM(amount) FROM t GROUP BY region");
  FABRIC_CHECK_OK(statement.status());
  const auto& select = std::get<vertica::sql::SelectStmt>(*statement);
  auto compiled = vertica::LowerSelect(select, schema, nullptr, nullptr);
  FABRIC_CHECK(compiled.has_value()) << "group by did not compile";
  for (auto _ : state) {
    storage::ScanStats stats;
    auto scanned = store.Scan(spec, &stats);
    FABRIC_CHECK_OK(scanned.status());
    auto out = exec::RunCompiledSelect(compiled->select, *scanned);
    FABRIC_CHECK(out.has_value()) << "compiled group by bailed";
    benchmark::DoNotOptimize(out->rows.size());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanGroupBy);

// --------------------------------------------------------- equi-join

// The equi-join kernel on an 8 000-row fact side and a 1 000-row
// dimension side. Arg 0: INTEGER = INTEGER keys (typed integer hash);
// arg 1: INTEGER = FLOAT keys (the mixed-type display-string path).
void BM_EquiJoin(benchmark::State& state) {
  const bool mixed = state.range(0) != 0;
  Rng rng(13);
  std::vector<storage::Row> facts;
  for (int i = 0; i < 8000; ++i) {
    facts.push_back({storage::Value::Int64(rng.NextInt64(0, 999)),
                     storage::Value::Int64(rng.NextInt64(1, 1000))});
  }
  std::vector<storage::Row> dims;
  for (int i = 0; i < 1000; ++i) {
    dims.push_back({mixed ? storage::Value::Float64(i)
                          : storage::Value::Int64(i),
                    storage::Value::Int64(i % 17)});
  }
  const storage::LaneRows left = storage::LaneRows::FromRows(
      storage::Schema({{"item", storage::DataType::kInt64},
                       {"amount", storage::DataType::kInt64}}),
      facts);
  const storage::LaneRows right = storage::LaneRows::FromRows(
      storage::Schema({{"item_id", mixed ? storage::DataType::kFloat64
                                         : storage::DataType::kInt64},
                       {"category", storage::DataType::kInt64}}),
      dims);
  const std::vector<int> both = {0, 1};
  for (auto _ : state) {
    storage::LaneRows out = exec::EquiJoin(left, 0, both, right, 0, both);
    FABRIC_CHECK(out.num_rows == facts.size()) << "every fact joins once";
    benchmark::DoNotOptimize(out.num_rows);
  }
  state.SetItemsProcessed(state.iterations() * facts.size());
}
BENCHMARK(BM_EquiJoin)->Arg(0)->Arg(1);

// ------------------------------------------------ value formatting

// The per-row key formatter (Value::AppendDisplayString) behind every
// GROUP BY, join and shuffle key, appending into one reused buffer.
void BM_ValueDisplayInt64(benchmark::State& state) {
  Rng rng(5);
  std::vector<storage::Value> values;
  for (int i = 0; i < 1024; ++i) {
    values.push_back(
        storage::Value::Int64(rng.NextInt64(-1000000, 1000000)));
  }
  std::string buf;
  for (auto _ : state) {
    for (const storage::Value& v : values) {
      buf.clear();
      v.AppendDisplayString(&buf);
      benchmark::DoNotOptimize(buf.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_ValueDisplayInt64);

void BM_ValueDisplayFloat64(benchmark::State& state) {
  Rng rng(6);
  std::vector<storage::Value> values;
  for (int i = 0; i < 1024; ++i) {
    values.push_back(storage::Value::Float64(rng.NextDouble() * 1000));
  }
  std::string buf;
  for (auto _ : state) {
    for (const storage::Value& v : values) {
      buf.clear();
      v.AppendDisplayString(&buf);
      benchmark::DoNotOptimize(buf.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_ValueDisplayFloat64);

// One GROUP BY block through the shared group table: 1024 rows keyed by
// an INTEGER column with 12 distinct groups, COUNT(*) and SUM(score).
void BM_GroupTableAdd(benchmark::State& state) {
  Rng rng(7);
  std::vector<storage::Row> rows;
  for (int i = 0; i < 1024; ++i) {
    rows.push_back({storage::Value::Int64(rng.NextInt64(0, 11) * 1000003),
                    storage::Value::Float64(rng.NextDouble())});
  }
  auto call = [](exec::AggFn fn) {
    exec::AggCall c;
    c.fn = fn;
    return c;
  };
  const std::vector<exec::AggCall> calls = {call(exec::AggFn::kCount),
                                            call(exec::AggFn::kSum)};
  const std::vector<int> key_cols = {0};
  const storage::Value one = storage::Value::Int64(1);
  for (auto _ : state) {
    exec::GroupTable table(&calls);
    for (const storage::Row& row : rows) {
      Status status =
          table.Add(row, key_cols, [&](exec::GroupTable::Group& group) {
            FABRIC_RETURN_IF_ERROR(
                exec::Update(calls[0], one, &group.states[0]));
            return exec::Update(calls[1], row[1], &group.states[1]);
          });
      FABRIC_CHECK_OK(status);
    }
    FABRIC_CHECK_OK(table.Finish(/*scalar_aggregate=*/false));
    benchmark::DoNotOptimize(table.groups().size());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_GroupTableAdd);

// A V2S partition query rendered the way V2SRelation does: ring bounds
// as signed integers, a pushed filter literal and the snapshot epoch.
void BM_StrCatSql(benchmark::State& state) {
  Rng rng(8);
  const std::string hash_call = StrCat("HASH(", "id, name", ")");
  for (auto _ : state) {
    const auto lower = static_cast<int64_t>(rng.NextUint64());
    const auto upper = static_cast<int64_t>(rng.NextUint64());
    std::string where = StrCat(hash_call, " >= ", lower, " AND ", hash_call,
                               " < ", upper, " AND score < ",
                               rng.NextDouble());
    std::string sql = StrCat("SELECT id, score FROM clicks WHERE ", where,
                             " AT EPOCH ", rng.NextInt64(1, 100000));
    benchmark::DoNotOptimize(sql.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StrCatSql);

}  // namespace
}  // namespace fabric

BENCHMARK_MAIN();
