#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "bench/bench_common.h"
#include "connector/failover.h"
#include "connector/model_deploy.h"
#include "mllib/mllib.h"
#include "report.h"
#include "vertica/wm/multiplexer.h"

namespace fabricbench {
namespace {

namespace obs = fabric::obs;
using fabric::Result;
using fabric::Rng;
using fabric::Status;
using fabric::StrCat;
using fabric::bench::Fabric;
using fabric::bench::FabricOptions;
using fabric::sim::Process;
using fabric::spark::ColumnPredicate;
using fabric::spark::DataFrame;
using fabric::spark::SaveMode;
using fabric::storage::DataType;
using fabric::storage::Row;
using fabric::storage::Schema;
using fabric::storage::Value;
using fabric::vertica::QueryResult;
using fabric::vertica::Session;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------------ rig

// One fresh fabric for one round. Traced rounds install a second,
// event-capturing tracer over the fabric's metrics-only one; it is
// declared after the fabric so it is uninstalled and destroyed first.
class Rig {
 public:
  Rig(const FabricOptions& options, bool traced)
      : fabric_(std::make_unique<Fabric>(options)) {
    if (traced) {
      capture_ = std::make_unique<obs::Tracer>(
          [engine = fabric_->engine()] { return engine->now(); },
          obs::Tracer::Options{.capture_events = true});
      install_.emplace(capture_.get());
    }
  }

  Fabric& fabric() { return *fabric_; }
  obs::Tracer& tracer() { return capture_ ? *capture_ : *fabric_->tracer(); }
  double now() const { return fabric_->engine()->now(); }

  // Runs `body` as the driver process through one sim::Engine::Run call
  // and returns the host milliseconds that call took. Aborts the
  // benchmark if the simulation itself fails.
  double Drive(Probe& probe, const std::function<void(Process&)>& body) {
    bool finished = false;
    fabric_->engine()->Spawn("bench-driver", [&](Process& driver) {
      body(driver);
      finished = true;
    });
    double start = probe.NowMs();
    uint64_t span = probe.BeginRun();
    Status status = fabric_->engine()->Run();
    probe.EndRun(span);
    double host_ms = probe.NowMs() - start;
    FABRIC_CHECK(status.ok()) << status.ToString();
    FABRIC_CHECK(finished) << "driver did not finish";
    return host_ms;
  }

 private:
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<obs::Tracer> capture_;
  std::optional<obs::ScopedTracer> install_;
};

// A console session (co-located client: no network cost) for staging,
// system-table reads and output checks. Aborts on failure: none of these
// are measured operations.
std::unique_ptr<Session> Console(Process& self, Fabric& fabric) {
  auto session = fabric.db()->Connect(self, 0, nullptr);
  FABRIC_CHECK_OK(session.status());
  return std::move(*session);
}

QueryResult MustExec(Process& self, Session& session, const std::string& sql) {
  auto result = session.Execute(self, sql);
  FABRIC_CHECK(result.ok()) << sql << ": " << result.status().ToString();
  return std::move(*result);
}

double Num(const Value& value) {
  if (value.is_null()) return std::nan("");
  switch (value.type()) {
    case DataType::kInt64:
      return static_cast<double>(value.int64_value());
    case DataType::kFloat64:
      return value.float64_value();
    case DataType::kBool:
      return value.bool_value() ? 1 : 0;
    case DataType::kVarchar:
      break;
  }
  return std::nan("");
}

// Order-independent checksum of a row multiset: the wrapping sum of a
// per-row FNV-1a hash over each value's type and bits.
uint64_t RowHash(const Row& row) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  for (const Value& value : row) {
    unsigned char tag = value.is_null() ? 0xff
                                        : static_cast<unsigned char>(
                                              value.type());
    mix(&tag, 1);
    if (value.is_null()) continue;
    switch (value.type()) {
      case DataType::kInt64: {
        int64_t v = value.int64_value();
        mix(&v, sizeof(v));
        break;
      }
      case DataType::kFloat64: {
        double v = value.float64_value();
        mix(&v, sizeof(v));
        break;
      }
      case DataType::kBool: {
        unsigned char v = value.bool_value() ? 1 : 0;
        mix(&v, 1);
        break;
      }
      case DataType::kVarchar:
        mix(value.varchar_value().data(), value.varchar_value().size());
        break;
    }
  }
  return hash;
}

uint64_t Checksum(const std::vector<Row>& rows) {
  uint64_t sum = 0;
  for (const Row& row : rows) sum += RowHash(row);
  return sum;
}

// Sums the v_monitor storage and Tuple Mover tables.
SysTables ReadSysTables(Process& self, Session& console) {
  SysTables sys;
  QueryResult containers = MustExec(
      self, console,
      "SELECT raw_bytes, encoded_bytes FROM v_monitor.storage_containers");
  sys.ros_containers += static_cast<double>(containers.rows.size());
  for (const Row& row : containers.rows) {
    sys.raw_bytes += Num(row[0]);
    sys.encoded_bytes += Num(row[1]);
  }
  QueryResult projections = MustExec(
      self, console,
      "SELECT containers, raw_bytes, encoded_bytes "
      "FROM v_monitor.projection_storage");
  for (const Row& row : projections.rows) {
    sys.ros_containers += Num(row[0]);
    sys.raw_bytes += Num(row[1]);
    sys.encoded_bytes += Num(row[2]);
  }
  QueryResult tm = MustExec(
      self, console, "SELECT operation, bytes FROM v_monitor.tuple_mover");
  for (const Row& row : tm.rows) {
    const std::string& op = row[0].varchar_value();
    if (op == "moveout") sys.moveout_bytes_paper += Num(row[1]);
    if (op == "mergeout") sys.mergeout_bytes_paper += Num(row[1]);
  }
  return sys;
}

// Brackets the timed phase: system tables and metrics before it, and
// after it the same plus the trace events it produced.
class PhaseCapture {
 public:
  PhaseCapture(Rig& rig, Probe& probe, bool traced, Capture* capture)
      : rig_(rig), probe_(probe), traced_(traced), capture_(capture) {
    rig_.Drive(probe_, [&](Process& self) {
      auto console = Console(self, rig_.fabric());
      capture_->sys_before = ReadSysTables(self, *console);
      FABRIC_CHECK_OK(console->Close(self));
    });
    capture_->data_scale = rig_.fabric().data_scale();
    capture_->before = rig_.tracer().metrics();
    auto* compiler = rig_.fabric().db()->pipeline_compiler();
    hits_ = compiler->cache_hits();
    misses_ = compiler->cache_misses();
    event_mark_ = rig_.tracer().events().size();
    start_vs_ = rig_.now();
    probe_.set_enabled(traced_);
  }

  double start_vs() const { return start_vs_; }

  // Ends the timed phase; returns its virtual makespan.
  double Finish() {
    probe_.set_enabled(false);
    double makespan = rig_.now() - start_vs_;
    capture_->after = rig_.tracer().metrics();
    auto* compiler = rig_.fabric().db()->pipeline_compiler();
    capture_->cache_hits = static_cast<double>(compiler->cache_hits() - hits_);
    capture_->cache_misses =
        static_cast<double>(compiler->cache_misses() - misses_);
    const auto& events = rig_.tracer().events();
    capture_->events.assign(events.begin() + event_mark_, events.end());
    rig_.Drive(probe_, [&](Process& self) {
      auto console = Console(self, rig_.fabric());
      capture_->sys_after = ReadSysTables(self, *console);
      FABRIC_CHECK_OK(console->Close(self));
    });
    return makespan;
  }

 private:
  Rig& rig_;
  Probe& probe_;
  bool traced_;
  Capture* capture_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  size_t event_mark_ = 0;
  double start_vs_ = 0;
};

// Times a closed-loop op: one driver call through one Engine::Run.
OpSample DriveOp(Rig& rig, Probe& probe, double phase_start,
                 const std::string& kind,
                 const std::function<Status(Process&, int64_t*)>& body) {
  OpSample op;
  op.kind = kind;
  op.due_vs = rig.now() - phase_start;
  op.start_vs = op.due_vs;
  Status status;
  double done = 0;
  op.host_ms = rig.Drive(probe, [&](Process& driver) {
    status = body(driver, &op.real_rows);
    done = driver.Now();
  });
  op.done_vs = done - phase_start;
  op.ok = status.ok();
  if (!op.ok) {
    std::fprintf(stderr, "op %s failed: %s\n", kind.c_str(),
                 status.ToString().c_str());
  }
  return op;
}

Status SaveS2V(Probe& probe, Process& driver, const DataFrame& frame,
               const std::string& table, int partitions,
               const std::string& pool = "") {
  auto writer = frame.Write();
  writer.Format(fabric::connector::kVerticaSourceName)
      .Option("table", table)
      .Option("numpartitions", partitions)
      .Mode(SaveMode::kOverwrite);
  if (!pool.empty()) writer.Option("resource_pool", pool);
  return Traced(probe, "connector.s2v", driver.id(),
                [&] { return writer.Save(driver); });
}

Result<DataFrame> LoadV2S(Probe& probe, Process& driver, Fabric& fabric,
                          const std::string& table, int partitions,
                          const std::string& pool = "") {
  auto reader = fabric.spark()->Read();
  reader.Format(fabric::connector::kVerticaSourceName)
      .Option("table", table)
      .Option("numpartitions", partitions);
  if (!pool.empty()) reader.Option("resource_pool", pool);
  return Traced(probe, "connector.v2s", driver.id(),
                [&] { return reader.Load(driver); });
}

Result<std::vector<Row>> Collect(Probe& probe, Process& driver,
                                 const DataFrame& frame) {
  return Traced(probe, "spark.collect", driver.id(),
                [&] { return frame.Collect(driver); });
}

Result<std::unique_ptr<Session>> Connect(Probe& probe, Process& self,
                                         Fabric& fabric, int node) {
  return Traced(probe, "vertica.connect", self.id(), [&] {
    return fabric::connector::ConnectWithFailover(
        self, fabric.db(), node, &fabric.cluster()->driver_host());
  });
}

Result<QueryResult> Execute(Probe& probe, Process& self, Session& session,
                            const char* span, const std::string& sql) {
  return Traced(probe, span, self.id(),
                [&] { return session.Execute(self, sql); });
}

// Renders result rows as "a|b|c" lines for comparison with references.
std::string RenderRows(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "|";
      double v = Num(row[i]);
      out += std::isnan(v) ? row[i].ToDisplayString() : Fmt(v);
    }
    out += "\n";
  }
  return out;
}

std::string RenderNums(const std::vector<std::vector<double>>& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "|";
      out += Fmt(row[i]);
    }
    out += "\n";
  }
  return out;
}

// Grouped COUNT/SUM reference: key -> (count, sum), rendered in key order.
using GroupRef = std::map<int64_t, std::pair<int64_t, int64_t>>;

std::vector<std::vector<double>> GroupRows(const GroupRef& groups) {
  std::vector<std::vector<double>> rows;
  for (const auto& [key, agg] : groups) {
    rows.push_back({static_cast<double>(key),
                    static_cast<double>(agg.first),
                    static_cast<double>(agg.second)});
  }
  return rows;
}

std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      double x = Num(a[i]), y = Num(b[i]);
      if (x != y) return x < y;
    }
    return a.size() < b.size();
  });
  return rows;
}

void CheckEqual(std::vector<std::string>* errors, const std::string& what,
                const std::string& got, const std::string& want) {
  if (got == want) return;
  errors->push_back(StrCat(what, ": got [", got.substr(0, 200),
                           "] want [", want.substr(0, 200), "]"));
}

// Fisher-Yates with the benchmark's seeded generator.
template <typename T>
void Shuffle(std::vector<T>* items, Rng& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.NextUint64(i)]);
  }
}

// =========================================================== bulk_ingest
//
// S2V saves of two tables whose encodings differ: a D1-style wide table
// of uniform floats (plain encoding wins) and a clickstream table of
// sorted ints and low-cardinality short strings (RLE and dictionary
// win). The write path, storage encode and the Tuple Mover do the work.

constexpr int kWideRows = 1500;
constexpr int kWideCols = 16;
constexpr int kClickRows = 3000;
constexpr int kIngestChunks = 6;  // each chunk: one wide + one click save
constexpr int kIngestPartitions = 8;
constexpr int kWarmupRows = 200;

const char* const kPages[] = {"home",   "search", "cart",  "item",
                              "help",   "login",  "promo", "deals",
                              "orders", "wish",   "about", "news"};
const char* const kActions[] = {"view", "click", "scroll", "buy"};

Schema ClickSchema() {
  return Schema({{"user_id", DataType::kInt64},
                 {"ts", DataType::kInt64},
                 {"page", DataType::kVarchar},
                 {"action", DataType::kVarchar},
                 {"dwell_ms", DataType::kInt64}});
}

std::vector<Row> ClickRows(int n, Rng& rng) {
  std::vector<Row> rows;
  rows.reserve(n);
  int64_t user = static_cast<int64_t>(rng.NextUint64(1000));
  int64_t ts = 1'600'000'000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.1)) user += 1 + static_cast<int64_t>(rng.NextUint64(3));
    ts += static_cast<int64_t>(rng.NextUint64(5));
    rows.push_back({Value::Int64(user), Value::Int64(ts),
                    Value::Varchar(kPages[rng.NextUint64(12)]),
                    Value::Varchar(kActions[rng.NextUint64(4)]),
                    Value::Int64(static_cast<int64_t>(rng.NextUint64(100)))});
  }
  return rows;
}

class BulkIngest : public Workload {
 public:
  explicit BulkIngest(uint64_t seed) {
    Rng rng(seed);
    warmup_.push_back({"warmup", "warm_wide",
                       fabric::bench::D1Schema(kWideCols),
                       fabric::bench::D1Rows(kWarmupRows, kWideCols,
                                             rng.NextUint64())});
    Rng warm_rng = rng.Fork();
    warmup_.push_back({"warmup", "warm_click", ClickSchema(),
                       ClickRows(kWarmupRows, warm_rng)});
    for (int k = 0; k < kIngestChunks; ++k) {
      chunks_.push_back({"s2v_wide", StrCat("wide_", k),
                         fabric::bench::D1Schema(kWideCols),
                         fabric::bench::D1Rows(kWideRows, kWideCols,
                                               rng.NextUint64())});
      Rng click_rng = rng.Fork();
      chunks_.push_back({"s2v_click", StrCat("click_", k), ClickSchema(),
                         ClickRows(kClickRows, click_rng)});
    }
  }

  RoundResult RunRound(Probe& probe, bool traced) override {
    RoundResult result;
    Clock::time_point setup_start = Clock::now();
    Rig rig(FabricOptions{}, traced);
    // Warm the save path with a small table of each shape (the first
    // save also creates the connector's permanent job-status table).
    rig.Drive(probe, [&](Process& driver) {
      for (const Chunk& chunk : warmup_) {
        auto frame = rig.fabric().spark()->CreateDataFrame(
            chunk.schema, chunk.rows, kIngestPartitions);
        FABRIC_CHECK_OK(frame.status());
        FABRIC_CHECK_OK(SaveS2V(probe, driver, *frame, chunk.table,
                                kIngestPartitions));
      }
    });
    result.setup_s = SecondsSince(setup_start);

    PhaseCapture phase(rig, probe, traced, &result.capture);
    double host_ms = 0;
    for (const Chunk& chunk : chunks_) {
      auto frame = rig.fabric().spark()->CreateDataFrame(
          chunk.schema, chunk.rows, kIngestPartitions);
      FABRIC_CHECK_OK(frame.status());
      OpSample op = DriveOp(
          rig, probe, phase.start_vs(), chunk.kind,
          [&](Process& driver, int64_t* rows) {
            *rows = static_cast<int64_t>(chunk.rows.size());
            return SaveS2V(probe, driver, *frame, chunk.table,
                           kIngestPartitions);
          });
      host_ms += op.host_ms;
      result.ops.push_back(std::move(op));
    }
    result.host_s = host_ms / 1e3;
    result.virtual_s = phase.Finish();

    // Read-back outside the timed phase: row count and checksum.
    rig.Drive(probe, [&](Process& self) {
      auto console = Console(self, rig.fabric());
      for (const Chunk& chunk : chunks_) {
        QueryResult back =
            MustExec(self, *console, StrCat("SELECT * FROM ", chunk.table));
        CheckEqual(&result.errors, StrCat(chunk.table, " rows"),
                   StrCat(back.rows.size()), StrCat(chunk.rows.size()));
        CheckEqual(&result.errors, StrCat(chunk.table, " checksum"),
                   StrCat(Checksum(back.rows)), StrCat(Checksum(chunk.rows)));
      }
      FABRIC_CHECK_OK(console->Close(self));
    });
    return result;
  }

 private:
  struct Chunk {
    std::string kind;
    std::string table;
    Schema schema;
    std::vector<Row> rows;
  };
  std::vector<Chunk> warmup_;
  std::vector<Chunk> chunks_;
};

// ========================================================= analytics_read
//
// Read-mostly analytics over tables staged in setup (projections built,
// Tuple Mover quiet, compile cache warm): one driver runs a closed loop
// of a seeded op mix. Scans, SQL execution, projections, the shuffle and
// V2S do the work; the write path and the Tuple Mover do almost none.

constexpr int kFactRows = 8000;
constexpr int kUsers = 400;
constexpr int kItems = 200;
constexpr int kRegions = 12;
constexpr int kZones = 3;
constexpr int kCategories = 10;
constexpr int kReadPartitions = 8;
constexpr int kInsertBatch = 500;
// Most literals repeat from a small hot set (compile-cache hits); the
// rest are fresh (misses).
constexpr int kHotLiterals = 3;
constexpr double kFreshLiteralShare = 0.2;
const char kModelName[] = "bench_model";

struct Fact {
  int64_t id, user, item, region, amount;
  double x1, x2;
};

enum class ReadOp { kGroupBy, kMergeJoin, kHashJoin, kScore, kV2SFilter,
                    kV2SGroupBy };
constexpr int kReadOpKinds = 6;
const char* const kReadOpNames[] = {"sql_groupby", "merge_join", "hash_join",
                                    "pmml_score",  "v2s_filter",
                                    "v2s_groupby"};
// Ops of each kind per round, in ReadOp order.
constexpr int kReadOpCounts[] = {30, 18, 18, 18, 18, 18};

struct ReadCall {
  ReadOp op;
  int64_t literal;
};

class AnalyticsRead : public Workload {
 public:
  explicit AnalyticsRead(uint64_t seed) {
    Rng rng(seed);
    // Every user owns the same number of facts, so a user_id = literal
    // op returns the same number of rows whichever user a seed picks.
    std::vector<int64_t> users;
    for (int i = 0; i < kFactRows; ++i) users.push_back(i % kUsers);
    Shuffle(&users, rng);
    for (int i = 0; i < kFactRows; ++i) {
      facts_.push_back(
          {i, users[i], static_cast<int64_t>(rng.NextUint64(kItems)),
           static_cast<int64_t>(rng.NextUint64(kRegions)),
           1 + static_cast<int64_t>(rng.NextUint64(1000)), rng.NextDouble(),
           rng.NextDouble()});
    }
    for (int i = 0; i < kItems; ++i) {
      item_category_.push_back(
          static_cast<int64_t>(rng.NextUint64(kCategories)));
    }
    for (int i = 0; i < kRegions; ++i) {
      region_zone_.push_back(static_cast<int64_t>(rng.NextUint64(kZones)));
    }
    model_.feature_names = {"x1", "x2"};
    model_.weights = {rng.NextDouble() * 4 - 2, rng.NextDouble() * 4 - 2};
    model_.intercept = rng.NextDouble();
    for (int k = 0; k < kReadOpKinds; ++k) {
      for (int h = 0; h < kHotLiterals; ++h) {
        hot_[k].push_back(FreshLiteral(static_cast<ReadOp>(k), rng));
      }
    }
    // Fixed op counts in a seeded order, so that seeds differ in order
    // and literals but not in how much of each kind of work they do.
    for (int k = 0; k < kReadOpKinds; ++k) {
      for (int i = 0; i < kReadOpCounts[k]; ++i) {
        ReadOp op = static_cast<ReadOp>(k);
        int64_t literal = rng.NextBool(kFreshLiteralShare)
                              ? FreshLiteral(op, rng)
                              : hot_[k][rng.NextUint64(kHotLiterals)];
        calls_.push_back({op, literal});
      }
    }
    Shuffle(&calls_, rng);
  }

  RoundResult RunRound(Probe& probe, bool traced) override {
    RoundResult result;
    Clock::time_point setup_start = Clock::now();
    Rig rig(FabricOptions{}, traced);
    rig.Drive(probe, [&](Process& driver) { Stage(rig.fabric(), driver); });
    // Warm the compile cache with every hot literal.
    for (int k = 0; k < kReadOpKinds; ++k) {
      for (int64_t literal : hot_[k]) {
        std::vector<std::string> ignored;
        RunCall(rig, probe, 0, {static_cast<ReadOp>(k), literal}, &ignored);
      }
    }
    result.setup_s = SecondsSince(setup_start);

    PhaseCapture phase(rig, probe, traced, &result.capture);
    result.capture.projections = {"facts_by_item", "items_by_item"};
    double host_ms = 0;
    for (const ReadCall& call : calls_) {
      OpSample op =
          RunCall(rig, probe, phase.start_vs(), call, &result.errors);
      host_ms += op.host_ms;
      result.ops.push_back(std::move(op));
    }
    result.host_s = host_ms / 1e3;
    result.virtual_s = phase.Finish();
    return result;
  }

 private:
  // Range predicates keep about half of the rows (+-5%) whatever the
  // literal, so seeds differ in plans' literals but not in their work.
  static int64_t FreshLiteral(ReadOp op, Rng& rng) {
    switch (op) {
      case ReadOp::kGroupBy:
      case ReadOp::kHashJoin:
        return kItems * 9 / 20 +
               static_cast<int64_t>(rng.NextUint64(kItems / 10));
      case ReadOp::kMergeJoin:
      case ReadOp::kV2SGroupBy:
        return 450 + static_cast<int64_t>(rng.NextUint64(100));
      case ReadOp::kScore:
      case ReadOp::kV2SFilter:
        return static_cast<int64_t>(rng.NextUint64(kUsers));
    }
    return 0;
  }

  void Stage(Fabric& fabric, Process& self) {
    auto console = Console(self, fabric);
    MustExec(self, *console,
             "CREATE TABLE facts (id INTEGER, user_id INTEGER, item INTEGER, "
             "region INTEGER, amount INTEGER, x1 FLOAT, x2 FLOAT) "
             "SEGMENTED BY HASH(id) ALL NODES");
    MustExec(self, *console,
             "CREATE TABLE items (item_id INTEGER, category INTEGER) "
             "SEGMENTED BY HASH(item_id) ALL NODES");
    MustExec(self, *console,
             "CREATE TABLE regions (region_id INTEGER, zone INTEGER) "
             "UNSEGMENTED ALL NODES");
    for (size_t i = 0; i < facts_.size(); i += kInsertBatch) {
      std::string values;
      for (size_t j = i; j < std::min(facts_.size(), i + kInsertBatch); ++j) {
        const Fact& f = facts_[j];
        values += StrCat(j > i ? ", " : "", "(", f.id, ", ", f.user, ", ",
                         f.item, ", ", f.region, ", ", f.amount, ", ",
                         Value::Float64(f.x1).ToDisplayString(), ", ",
                         Value::Float64(f.x2).ToDisplayString(), ")");
      }
      MustExec(self, *console, StrCat("INSERT INTO facts VALUES ", values));
    }
    std::string items;
    for (int i = 0; i < kItems; ++i) {
      items += StrCat(i ? ", " : "", "(", i, ", ", item_category_[i], ")");
    }
    MustExec(self, *console, StrCat("INSERT INTO items VALUES ", items));
    std::string regions;
    for (int i = 0; i < kRegions; ++i) {
      regions += StrCat(i ? ", " : "", "(", i, ", ", region_zone_[i], ")");
    }
    MustExec(self, *console, StrCat("INSERT INTO regions VALUES ", regions));
    // Co-sorted, co-segmented layouts on the join key: the merge join.
    MustExec(self, *console,
             "CREATE PROJECTION facts_by_item AS SELECT item, region, "
             "amount FROM facts ORDER BY item SEGMENTED BY HASH(item)");
    MustExec(self, *console,
             "CREATE PROJECTION items_by_item AS SELECT item_id, category "
             "FROM items ORDER BY item_id SEGMENTED BY HASH(item_id)");
    fabric::connector::RegisterPmmlPredict(fabric.db());
    FABRIC_CHECK_OK(fabric::connector::DeployPmmlModel(
        self, fabric.db(), &fabric.cluster()->driver_host(),
        model_.ToPmml(kModelName)));
    FABRIC_CHECK_OK(console->Close(self));
    // Let the Tuple Mover drain the staged WOS before anything is timed.
    while (fabric.db()->TotalWosBatches() > 0) {
      FABRIC_CHECK_OK(self.Sleep(1.0));
    }
  }

  OpSample RunCall(Rig& rig, Probe& probe, double phase_start,
                   const ReadCall& call, std::vector<std::string>* errors) {
    Fabric& fabric = rig.fabric();
    const int64_t lit = call.literal;
    std::string got, want;
    OpSample op = DriveOp(
        rig, probe, phase_start, kReadOpNames[static_cast<int>(call.op)],
        [&](Process& driver, int64_t* rows) -> Status {
          if (call.op == ReadOp::kV2SFilter ||
              call.op == ReadOp::kV2SGroupBy) {
            return RunSpark(fabric, probe, driver, call, rows, &got, &want);
          }
          FABRIC_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                                  Connect(probe, driver, fabric, 0));
          std::string sql;
          const char* span = "vertica.execute.select";
          switch (call.op) {
            case ReadOp::kGroupBy:
              sql = StrCat(
                  "SELECT region, COUNT(*), SUM(amount) FROM facts "
                  "WHERE item < ", lit, " GROUP BY region ORDER BY region");
              want = RenderNums(GroupRows(Group(
                  [&](const Fact& f) { return f.item < lit; },
                  [](const Fact& f) { return f.region; })));
              break;
            case ReadOp::kMergeJoin:
              span = "vertica.execute.join";
              sql = StrCat(
                  "SELECT category, COUNT(*), SUM(amount) FROM facts JOIN "
                  "items ON item = item_id WHERE amount > ", lit,
                  " GROUP BY category ORDER BY category");
              want = RenderNums(GroupRows(Group(
                  [&](const Fact& f) { return f.amount > lit; },
                  [&](const Fact& f) { return item_category_[f.item]; })));
              break;
            case ReadOp::kHashJoin:
              span = "vertica.execute.join";
              sql = StrCat(
                  "SELECT zone, COUNT(*), SUM(amount) FROM facts JOIN "
                  "regions ON region = region_id WHERE item < ", lit,
                  " GROUP BY zone ORDER BY zone");
              want = RenderNums(GroupRows(Group(
                  [&](const Fact& f) { return f.item < lit; },
                  [&](const Fact& f) { return region_zone_[f.region]; })));
              break;
            case ReadOp::kScore:
              span = "vertica.execute.score";
              sql = StrCat("SELECT id, PMMLPredict(x1, x2 USING PARAMETERS "
                           "model_name='", kModelName,
                           "') FROM facts WHERE user_id = ", lit,
                           " ORDER BY id");
              break;
            default:
              break;
          }
          auto result = Execute(probe, driver, *session, span, sql);
          Status closed = session->Close(driver);
          FABRIC_RETURN_IF_ERROR(result.status());
          FABRIC_RETURN_IF_ERROR(closed);
          *rows = static_cast<int64_t>(result->rows.size());
          if (call.op == ReadOp::kScore) {
            ScoreCheck(result->rows, lit, &got, &want);
          } else {
            got = RenderRows(result->rows);
          }
          return Status::OK();
        });
    CheckEqual(errors, StrCat(op.kind, "(", lit, ")"), got, want);
    return op;
  }

  Status RunSpark(Fabric& fabric, Probe& probe, Process& driver,
                  const ReadCall& call, int64_t* rows, std::string* got,
                  std::string* want) {
    const int64_t lit = call.literal;
    FABRIC_ASSIGN_OR_RETURN(
        DataFrame facts,
        LoadV2S(probe, driver, fabric, "facts", kReadPartitions));
    if (call.op == ReadOp::kV2SFilter) {
      // Filter and column pruning both push into the partition queries.
      FABRIC_ASSIGN_OR_RETURN(
          DataFrame picked,
          facts.Filter(ColumnPredicate{"user_id", ColumnPredicate::Op::kEq,
                                       Value::Int64(lit)})
              .Select({"id", "amount"}));
      FABRIC_ASSIGN_OR_RETURN(std::vector<Row> out,
                              Collect(probe, driver, picked));
      *rows = static_cast<int64_t>(out.size());
      *got = RenderRows(SortedRows(std::move(out)));
      std::vector<std::vector<double>> ref;
      for (const Fact& f : facts_) {
        if (f.user == lit) {
          ref.push_back({static_cast<double>(f.id),
                         static_cast<double>(f.amount)});
        }
      }
      *want = RenderNums(ref);
      return Status::OK();
    }
    // GROUP BY a column the table is not segmented on: no aggregate
    // pushdown, so the partials cross a Spark shuffle.
    FABRIC_ASSIGN_OR_RETURN(
        auto grouped,
        facts.Filter(ColumnPredicate{"amount", ColumnPredicate::Op::kGe,
                                     Value::Int64(lit)})
            .GroupBy({"region"}));
    FABRIC_ASSIGN_OR_RETURN(
        DataFrame agg, grouped.Agg({fabric::spark::AggCount(),
                                    fabric::spark::AggSum("amount")}));
    FABRIC_ASSIGN_OR_RETURN(std::vector<Row> out,
                            Collect(probe, driver, agg));
    *rows = static_cast<int64_t>(out.size());
    *got = RenderRows(SortedRows(std::move(out)));
    *want = RenderNums(GroupRows(
        Group([&](const Fact& f) { return f.amount >= lit; },
              [](const Fact& f) { return f.region; })));
    return Status::OK();
  }

  // In-database PMML scores must agree with the Spark-side model.
  void ScoreCheck(const std::vector<Row>& rows, int64_t user,
                  std::string* got, std::string* want) const {
    std::vector<std::vector<double>> expected;
    for (const Fact& f : facts_) {
      if (f.user == user) {
        expected.push_back({static_cast<double>(f.id),
                            model_.Predict({f.x1, f.x2})});
      }
    }
    std::vector<std::vector<double>> seen;
    for (size_t i = 0; i < rows.size(); ++i) {
      double id = Num(rows[i][0]);
      double score = Num(rows[i][1]);
      // Scores agreeing to 1e-9 are rendered as the reference's value,
      // so the comparison below reports only real disagreements.
      if (i < expected.size() && id == expected[i][0] &&
          std::abs(score - expected[i][1]) <=
              1e-9 * std::max(1.0, std::abs(expected[i][1]))) {
        score = expected[i][1];
      }
      seen.push_back({id, score});
    }
    *got = RenderNums(seen);
    *want = RenderNums(expected);
  }

  template <typename Pred, typename Key>
  GroupRef Group(Pred pred, Key key) const {
    GroupRef groups;
    for (const Fact& f : facts_) {
      if (!pred(f)) continue;
      auto& agg = groups[key(f)];
      agg.first += 1;
      agg.second += f.amount;
    }
    return groups;
  }

  std::vector<Fact> facts_;
  std::vector<int64_t> item_category_;
  std::vector<int64_t> region_zone_;
  fabric::mllib::RegressionModel model_;
  std::vector<int64_t> hot_[kReadOpKinds];
  std::vector<ReadCall> calls_;
};

// ========================================================== mixed_tenants
//
// The bench_concurrency three-class mix under the workload manager
// (three pools, busy Tuple Mover, no node kills), as an open loop in
// virtual time: sessions are due on a seeded, jittered schedule at one
// fixed rate, multiplexed over a modest lane pool. Admission, session
// connect, sim process hand-off and Tuple Mover bookkeeping dominate.

constexpr int kTenantSessions = 240;
constexpr int kTenantLanes = 24;
// Sessions due per virtual second. The three pools complete about 2.8
// sessions per virtual second; at 2 the queues build (tail latency is
// several times the median) but drain, and no session fails.
constexpr double kArrivalRate = 2.0;
constexpr int kFactsRows = 240;
constexpr int kLoadRows = 40;

fabric::vertica::wm::WorkloadConfig ThreePools() {
  using fabric::vertica::wm::PoolConfig;
  fabric::vertica::wm::WorkloadConfig config;
  PoolConfig general;
  general.name = "general";
  general.max_concurrency = 4;
  general.memory_budget = 64 << 20;
  config.pools.push_back(general);
  PoolConfig etl;
  etl.name = "etl";
  etl.cascade_to = "general";
  etl.priority = 0;
  etl.max_concurrency = 2;
  etl.memory_budget = 32 << 20;
  config.pools.push_back(etl);
  PoolConfig dashboard;
  dashboard.name = "dashboard";
  dashboard.cascade_to = "general";
  dashboard.priority = 10;
  dashboard.max_concurrency = 4;
  dashboard.memory_budget = 16 << 20;
  config.pools.push_back(dashboard);
  PoolConfig adhoc;
  adhoc.name = "adhoc";
  adhoc.cascade_to = "general";
  adhoc.priority = 5;
  adhoc.max_concurrency = 2;
  adhoc.memory_budget = 16 << 20;
  adhoc.queue_timeout = 600;
  config.pools.push_back(adhoc);
  return config;
}

fabric::vertica::TupleMoverConfig BusyTm() {
  fabric::vertica::TupleMoverConfig tm;
  tm.moveout_interval = 0.05;
  tm.mergeout_interval = 0.1;
  tm.strata_min_containers = 2;
  tm.ahm_interval = 0.25;
  tm.retention_epochs = 8;
  return tm;
}

enum class Tenant { kDashboard, kV2SAgg, kS2VLoad };
const char* const kTenantNames[] = {"dashboard_sql", "v2s_agg", "s2v_load"};

struct TenantSession {
  Tenant tenant;
  double due = 0;  // virtual seconds after the phase start
  std::vector<Row> load;  // s2v_load: the rows it saves
};

class MixedTenants : public Workload {
 public:
  explicit MixedTenants(uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < kFactsRows; ++i) {
      facts_.push_back({Value::Int64(static_cast<int64_t>(rng.NextUint64(12))),
                        Value::Int64(i),
                        Value::Int64(static_cast<int64_t>(
                            rng.NextUint64(1000)))});
    }
    for (Tenant tenant :
         {Tenant::kDashboard, Tenant::kV2SAgg, Tenant::kS2VLoad}) {
      TenantSession warm;
      warm.tenant = tenant;
      for (int r = 0; r < kLoadRows; ++r) {
        warm.load.push_back({Value::Int64(r), Value::Int64(r)});
      }
      warmup_.push_back(std::move(warm));
    }
    // The classes take turns and session i is due at a seeded point of
    // the i-th 1/rate slot, so every seed offers the same load in the
    // same shape; seeds differ in timing jitter and data.
    for (int i = 0; i < kTenantSessions; ++i) {
      TenantSession session;
      session.tenant = static_cast<Tenant>(i % 3);
      session.due = (i + rng.NextDouble()) / kArrivalRate;
      if (session.tenant == Tenant::kS2VLoad) {
        for (int r = 0; r < kLoadRows; ++r) {
          session.load.push_back(
              {Value::Int64(r), Value::Int64(static_cast<int64_t>(
                                    rng.NextUint64(1'000'000)))});
        }
      }
      sessions_.push_back(std::move(session));
    }
    GroupRef groups;
    for (const Row& row : facts_) {
      auto& agg = groups[row[0].int64_value()];
      agg.first += 1;
      agg.second += row[2].int64_value();
    }
    want_groups_ = RenderNums(GroupRows(groups));
  }

  RoundResult RunRound(Probe& probe, bool traced) override {
    RoundResult result;
    Clock::time_point setup_start = Clock::now();
    FabricOptions options;
    options.workload = ThreePools();
    options.tuple_mover = BusyTm();
    Rig rig(options, traced);
    rig.Drive(probe, [&](Process& driver) {
      Stage(rig.fabric(), driver);
      // Warm every tenant's path once, one session after another.
      for (const TenantSession& warm : warmup_) {
        int64_t rows = 0;
        std::string answer;
        FABRIC_CHECK_OK(RunTenant(rig.fabric(), probe, driver, warm, 0,
                                  "load_warm", &rows, &answer));
      }
    });
    result.setup_s = SecondsSince(setup_start);

    PhaseCapture phase(rig, probe, traced, &result.capture);
    const double start = phase.start_vs();
    std::vector<OpSample> ops(sessions_.size());
    std::vector<std::string> answers(sessions_.size());
    Fabric& fabric = rig.fabric();
    fabric::vertica::wm::Multiplexer mux(
        fabric.engine(), {.lanes = kTenantLanes, .name = "tenants"});
    for (size_t i = 0; i < sessions_.size(); ++i) {
      const TenantSession& spec = sessions_[i];
      fabric::vertica::wm::Multiplexer::SessionSpec entry;
      entry.start = start + spec.due;
      entry.body = [&, i](Process& self, int, int) -> Status {
        OpSample& op = ops[i];
        op.kind = kTenantNames[static_cast<int>(sessions_[i].tenant)];
        op.due_vs = sessions_[i].due;
        op.start_vs = self.Now() - start;
        double host_start = probe.NowMs();
        Status status =
            RunTenant(fabric, probe, self, sessions_[i],
                      static_cast<int>(i) % fabric.db()->num_nodes(),
                      StrCat("load_", i), &op.real_rows, &answers[i]);
        op.host_ms = probe.NowMs() - host_start;
        op.done_vs = self.Now() - start;
        op.ok = status.ok();
        return self.CheckAlive();
      };
      mux.AddSession(std::move(entry));
    }
    result.host_s = rig.Drive(probe, [&](Process& driver) {
                      mux.Launch();
                      FABRIC_CHECK_OK(mux.Join(driver));
                    }) /
                    1e3;
    result.virtual_s = phase.Finish();
    result.ops = std::move(ops);

    // Dashboard and V2S answers, then every completed load's rows.
    rig.Drive(probe, [&](Process& self) {
      auto console = Console(self, fabric);
      for (size_t i = 0; i < sessions_.size(); ++i) {
        if (!result.ops[i].ok) continue;
        const TenantSession& spec = sessions_[i];
        if (spec.tenant != Tenant::kS2VLoad) {
          CheckEqual(&result.errors, StrCat(result.ops[i].kind, " #", i),
                     answers[i], want_groups_);
          continue;
        }
        QueryResult back = MustExec(self, *console,
                                    StrCat("SELECT * FROM load_", i));
        CheckEqual(&result.errors, StrCat("load_", i, " rows"),
                   StrCat(back.rows.size(), ":", Checksum(back.rows)),
                   StrCat(spec.load.size(), ":", Checksum(spec.load)));
      }
      FABRIC_CHECK_OK(console->Close(self));
    });
    return result;
  }

 private:
  void Stage(Fabric& fabric, Process& self) {
    auto console = Console(self, fabric);
    MustExec(self, *console,
             "CREATE TABLE facts (region INTEGER, item INTEGER, "
             "sales INTEGER) SEGMENTED BY HASH(region) ALL NODES");
    std::string values;
    for (size_t i = 0; i < facts_.size(); ++i) {
      values += StrCat(i ? ", " : "", "(", facts_[i][0].int64_value(), ", ",
                       facts_[i][1].int64_value(), ", ",
                       facts_[i][2].int64_value(), ")");
    }
    MustExec(self, *console, StrCat("INSERT INTO facts VALUES ", values));
    FABRIC_CHECK_OK(console->Close(self));
  }

  // Runs one tenant session entering at `node`; s2v_load saves into
  // `table`.
  Status RunTenant(Fabric& fabric, Probe& probe, Process& self,
                   const TenantSession& spec, int node,
                   const std::string& table, int64_t* rows,
                   std::string* answer) {
    switch (spec.tenant) {
      case Tenant::kDashboard: {
        FABRIC_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                                Connect(probe, self, fabric, node));
        session->set_resource_pool("dashboard");
        auto result = Execute(probe, self, *session,
                              "vertica.execute.select",
                              "SELECT region, COUNT(*), SUM(sales) FROM "
                              "facts GROUP BY region ORDER BY region");
        Status closed = session->Close(self);
        FABRIC_RETURN_IF_ERROR(result.status());
        FABRIC_RETURN_IF_ERROR(closed);
        *rows = static_cast<int64_t>(result->rows.size());
        *answer = RenderRows(result->rows);
        return Status::OK();
      }
      case Tenant::kV2SAgg: {
        // Grouping covers the segmentation column: the aggregate pushes
        // down and runs under the adhoc pool inside Vertica.
        FABRIC_ASSIGN_OR_RETURN(
            DataFrame facts, LoadV2S(probe, self, fabric, "facts", 2, "adhoc"));
        FABRIC_ASSIGN_OR_RETURN(auto grouped, facts.GroupBy({"region"}));
        FABRIC_ASSIGN_OR_RETURN(
            DataFrame agg, grouped.Agg({fabric::spark::AggCount(),
                                        fabric::spark::AggSum("sales")}));
        FABRIC_ASSIGN_OR_RETURN(std::vector<Row> out,
                                Collect(probe, self, agg));
        *rows = static_cast<int64_t>(out.size());
        *answer = RenderRows(SortedRows(std::move(out)));
        return Status::OK();
      }
      case Tenant::kS2VLoad: {
        FABRIC_ASSIGN_OR_RETURN(
            DataFrame frame,
            fabric.spark()->CreateDataFrame(
                Schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}}),
                spec.load, 2));
        *rows = static_cast<int64_t>(spec.load.size());
        return SaveS2V(probe, self, frame, table, 2, "etl");
      }
    }
    return Status::OK();
  }

  std::vector<Row> facts_;
  std::vector<TenantSession> warmup_;
  std::vector<TenantSession> sessions_;
  std::string want_groups_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "bulk_ingest") return std::make_unique<BulkIngest>(seed);
  if (name == "analytics_read") return std::make_unique<AnalyticsRead>(seed);
  if (name == "mixed_tenants") return std::make_unique<MixedTenants>(seed);
  return nullptr;
}

}  // namespace fabricbench
