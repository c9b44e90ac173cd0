#ifndef FABRIC_BENCH_BENCH_COMMON_H_
#define FABRIC_BENCH_BENCH_COMMON_H_

// Shared harness for the paper-reproduction benchmarks (Section 4). Each
// bench binary builds a fresh fabric per measurement: a Vertica cluster,
// a Spark cluster (2x the Vertica nodes, Section 4.1's ratio) and
// optionally an HDFS cluster, all on one simulated network. Workloads
// carry a data_scale so a few tens of thousands of real rows stand in
// for the paper's 100M-1.46B rows; reported seconds are virtual time.

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/jdbc_source.h"
#include "common/cost_model.h"
#include "common/random.h"
#include "common/string_util.h"
#include "connector/default_source.h"
#include "hdfs/hdfs.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "spark/dataframe.h"
#include "vertica/database.h"
#include "vertica/session.h"

namespace fabric::bench {

// Default down-scaling: one real row stands in for this many paper rows.
inline constexpr double kDefaultRealRows = 20000;

struct FabricOptions {
  int vertica_nodes = 4;
  int spark_workers = 8;  // the paper's 2x ratio
  double paper_rows = 100e6;
  double real_rows = kDefaultRealRows;
  CostModel cost;  // data_scale is derived below
  bool with_hdfs = false;
  int hdfs_nodes = 4;
  // Tuple Mover knobs for the Vertica cluster (bench_tm contrasts the
  // managed and unmanaged storage paths).
  vertica::TupleMoverConfig tuple_mover;
  // Pipeline-compilation toggles (bench_pipeline contrasts the compiled
  // vectorized paths against the row-at-a-time interpreters they
  // replace; virtual time is identical, host wall-clock is not).
  bool compile_pipelines = true;
  bool fuse_map_stages = true;
  // Named resource pools for the workload manager (bench_concurrency
  // contrasts pooled admission against the legacy flat semaphore).
  // Empty = WM off.
  vertica::wm::WorkloadConfig workload;
  // Per-node client session cap (0 keeps the database default).
  int max_client_sessions = 0;
  // Spark per-task hash-operator memory budget, bytes (0 = unlimited;
  // see SparkCluster::Options::task_memory_bytes).
  double spark_task_memory_bytes = 0;
};

// One self-contained simulated fabric.
class Fabric {
 public:
  explicit Fabric(FabricOptions options) : options_(options) {
    options_.cost.data_scale =
        options_.paper_rows / options_.real_rows;
    engine_ = std::make_unique<sim::Engine>();
    // Metrics-only tracer: benches want the counters in BENCH_*.json but
    // must not materialize multi-million-event traces.
    tracer_ = std::make_unique<obs::Tracer>(
        [engine = engine_.get()] { return engine->now(); },
        obs::Tracer::Options{.capture_events = false});
    install_.emplace(tracer_.get());
    network_ = std::make_unique<net::Network>(engine_.get());
    vertica::Database::Options vopts;
    vopts.num_nodes = options_.vertica_nodes;
    vopts.cost = options_.cost;
    vopts.tuple_mover = options_.tuple_mover;
    vopts.compile_pipelines = options_.compile_pipelines;
    vopts.workload = options_.workload;
    if (options_.max_client_sessions > 0) {
      vopts.max_client_sessions = options_.max_client_sessions;
    }
    db_ = std::make_unique<vertica::Database>(engine_.get(),
                                              network_.get(), vopts);
    spark::SparkCluster::Options sopts;
    sopts.num_workers = options_.spark_workers;
    sopts.cost = options_.cost;
    sopts.fuse_map_stages = options_.fuse_map_stages;
    sopts.task_memory_bytes = options_.spark_task_memory_bytes;
    cluster_ = std::make_unique<spark::SparkCluster>(engine_.get(),
                                                     network_.get(), sopts);
    session_ = std::make_unique<spark::SparkSession>(cluster_.get());
    connector::RegisterVerticaSource(session_.get(), db_.get());
    baselines::RegisterJdbcSource(session_.get(), db_.get());
    if (options_.with_hdfs) {
      hdfs_ = std::make_unique<hdfs::HdfsCluster>(
          engine_.get(), network_.get(),
          hdfs::HdfsCluster::Options{options_.hdfs_nodes, options_.cost});
      hdfs::RegisterHdfsSource(session_.get(), hdfs_.get());
    }
  }

  sim::Engine* engine() { return engine_.get(); }
  obs::Tracer* tracer() { return tracer_.get(); }
  net::Network* network() { return network_.get(); }
  vertica::Database* db() { return db_.get(); }
  spark::SparkCluster* cluster() { return cluster_.get(); }
  spark::SparkSession* spark() { return session_.get(); }
  hdfs::HdfsCluster* hdfs() { return hdfs_.get(); }
  const FabricOptions& options() const { return options_; }
  double data_scale() const { return options_.cost.data_scale; }

  // Runs `body` as the Spark driver and returns the virtual seconds it
  // took. Aborts the bench on simulation failure. Host wall-clock spent
  // executing the simulation is accumulated separately (host_wall_ms) —
  // it tracks the engine's real CPU cost, which the vectorized scan path
  // exists to shrink, and never feeds back into virtual time.
  double RunTimed(const std::function<void(sim::Process&)>& body) {
    double elapsed = -1;
    auto wall_start = std::chrono::steady_clock::now();
    engine_->Spawn("bench-driver", [&](sim::Process& driver) {
      double start = driver.Now();
      body(driver);
      elapsed = driver.Now() - start;
    });
    Status status = engine_->Run();
    host_wall_ms_ +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    FABRIC_CHECK(status.ok()) << status.ToString();
    FABRIC_CHECK(elapsed >= 0) << "driver did not finish";
    return elapsed;
  }

  // Host milliseconds spent inside RunTimed so far.
  double host_wall_ms() const { return host_wall_ms_; }

 private:
  FabricOptions options_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<obs::Tracer> tracer_;
  // Declared after tracer_ so uninstall happens before the tracer dies.
  std::optional<obs::ScopedTracer> install_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<vertica::Database> db_;
  std::unique_ptr<spark::SparkCluster> cluster_;
  std::unique_ptr<spark::SparkSession> session_;
  std::unique_ptr<hdfs::HdfsCluster> hdfs_;
  double host_wall_ms_ = 0;
};

// ------------------------------------------------------------- datasets

// Dataset D1 (Section 4.1): `cols` float columns of uniform [0,1) values.
// The paper's D1 is 100 cols x 100M rows (~140 GB csv / 80 GB binary).
inline storage::Schema D1Schema(int cols = 100) {
  std::vector<storage::ColumnDef> defs;
  for (int c = 0; c < cols; ++c) {
    defs.push_back({StrCat("c", c), storage::DataType::kFloat64});
  }
  return storage::Schema(std::move(defs));
}

inline std::vector<storage::Row> D1Rows(int real_rows, int cols = 100,
                                        uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<storage::Row> rows;
  rows.reserve(real_rows);
  for (int i = 0; i < real_rows; ++i) {
    storage::Row row;
    row.reserve(cols);
    for (int c = 0; c < cols; ++c) {
      row.push_back(storage::Value::Float64(rng.NextDouble()));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Dataset D2 (Section 4.1): tweet_id (long) + tweet_text (~90 B string);
// 1.46B rows at paper scale.
inline storage::Schema D2Schema() {
  return storage::Schema({{"tweet_id", storage::DataType::kInt64},
                          {"tweet_text", storage::DataType::kVarchar}});
}

inline std::vector<storage::Row> D2Rows(int real_rows, uint64_t seed = 43) {
  Rng rng(seed);
  std::vector<storage::Row> rows;
  rows.reserve(real_rows);
  for (int i = 0; i < real_rows; ++i) {
    rows.push_back(
        {storage::Value::Int64(static_cast<int64_t>(rng.NextUint64())),
         storage::Value::Varchar(
             rng.NextString(60 + static_cast<int>(rng.NextUint64(60))))});
  }
  return rows;
}

// ------------------------------------------------------------- actions

// Saves rows into Vertica via S2V (the experiments stage their data this
// way, Section 4.1) and returns the virtual duration.
inline double SaveViaS2V(Fabric& fabric, const storage::Schema& schema,
                         std::vector<storage::Row> rows,
                         const std::string& table, int partitions) {
  return fabric.RunTimed([&](sim::Process& driver) {
    auto df = fabric.spark()->CreateDataFrame(schema, std::move(rows),
                                              partitions);
    FABRIC_CHECK_OK(df.status());
    FABRIC_CHECK_OK(df->Write()
                        .Format(connector::kVerticaSourceName)
                        .Option("table", table)
                        .Option("numpartitions", partitions)
                        .Mode(spark::SaveMode::kOverwrite)
                        .Save(driver));
  });
}

// Loads `table` into Spark via V2S (full materialization at the workers,
// like the paper's load measurements) and returns the duration.
inline double LoadViaV2S(Fabric& fabric, const std::string& table,
                         int partitions) {
  return fabric.RunTimed([&](sim::Process& driver) {
    auto df = fabric.spark()
                  ->Read()
                  .Format(connector::kVerticaSourceName)
                  .Option("table", table)
                  .Option("numpartitions", partitions)
                  .Load(driver);
    FABRIC_CHECK_OK(df.status());
    auto rows = df->Materialize(driver);
    FABRIC_CHECK_OK(rows.status());
  });
}

// -------------------------------------------------------------- output

// Machine-readable companion to the stdout tables: one JSON record per
// measurement, each carrying the fabric's full metrics snapshot (the
// counters/gauges/histograms the obs layer accumulated during the run).
// Written to BENCH_<name>.json in the working directory on destruction.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() { Write(); }

  // Records one measurement. Call after the fabric ran its workload and
  // before it is destroyed; `fields` become top-level JSON keys. Every
  // sample also carries the host wall-clock the simulation burned
  // (`wall_ms`) and the host-side scan throughput derived from it
  // (`host_real_rows_scanned_per_sec`: real rows the host scanned per
  // host second, i.e. `vertica.rows_scanned` — a paper-scale counter —
  // divided by the data scale and by wall seconds). Both are reported
  // alongside the virtual-time figures they must not move.
  void AddSample(Fabric& fabric,
                 std::vector<std::pair<std::string, double>> fields) {
    double wall_ms = fabric.host_wall_ms();
    fields.emplace_back("wall_ms", wall_ms);
    double real_rows_scanned =
        fabric.tracer()->metrics().counter("vertica.rows_scanned") /
        fabric.data_scale();
    fields.emplace_back(
        "host_real_rows_scanned_per_sec",
        wall_ms > 0 ? real_rows_scanned / (wall_ms / 1000.0) : 0);
    std::string json = "{";
    for (const auto& [key, value] : fields) {
      json += obs::JsonString(key);
      json += ":";
      json += obs::JsonNumber(value);
      json += ",";
    }
    json += "\"metrics\":";
    json += fabric.tracer()->metrics().ToJson();
    json += "}";
    samples_.push_back(std::move(json));
  }

  void Write() {
    if (written_) return;
    written_ = true;
    std::string path = StrCat("BENCH_", name_, ".json");
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return;
    }
    std::fprintf(file, "{\"bench\":%s,\"samples\":[\n",
                 obs::JsonString(name_).c_str());
    for (size_t i = 0; i < samples_.size(); ++i) {
      std::fprintf(file, "%s%s\n", samples_[i].c_str(),
                   i + 1 < samples_.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    std::fclose(file);
    std::printf("wrote %s (%zu samples)\n", path.c_str(), samples_.size());
  }

 private:
  std::string name_;
  std::vector<std::string> samples_;
  bool written_ = false;
};

inline void PrintHeader(const std::string& title,
                        const std::string& paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper reference: %s\n", paper_reference.c_str());
  std::printf("(virtual seconds from the simulated 2x-1GbE fabric; see\n");
  std::printf(" DESIGN.md for the substitution and calibration story)\n");
  std::printf("==============================================================\n");
}

}  // namespace fabric::bench

#endif  // FABRIC_BENCH_BENCH_COMMON_H_
