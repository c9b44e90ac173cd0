#ifndef FABRIC_SPARK_CLUSTER_H_
#define FABRIC_SPARK_CLUSTER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/random.h"
#include "common/result.h"
#include "net/host.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/waitable.h"

namespace fabric::spark {

class SparkCluster;

namespace shuffle {
class ShuffleManager;
}  // namespace shuffle

// Context handed to the body of a running task attempt.
struct TaskContext {
  SparkCluster* cluster = nullptr;
  int task = 0;      // partition index
  int attempt = 0;   // 0 = original, >0 = retry or speculative duplicate
  int worker = 0;    // worker the attempt is running on
  bool speculative = false;
  sim::Process* process = nullptr;

  const net::Host& worker_host() const;
  // Charges `seconds` of CPU on this worker, sharing its cores fairly.
  Status Compute(double seconds) const;
};

// Decides whether (and when) to kill task attempts — the adversary that
// exercises the connector's exactly-once machinery. Implementations must
// be deterministic given their seed.
class FailureInjector {
 public:
  virtual ~FailureInjector() = default;

  // Called when an attempt starts; a returned value kills the attempt
  // that many virtual seconds later (if still running).
  virtual std::optional<double> PlanKill(const std::string& job, int task,
                                         int attempt) = 0;
};

// Kills each attempt with probability p at a random fraction of
// `typical_duration`, up to `max_kills` total.
class RandomFailureInjector : public FailureInjector {
 public:
  RandomFailureInjector(uint64_t seed, double kill_probability,
                        double typical_duration, int max_kills = 1 << 30)
      : rng_(seed),
        kill_probability_(kill_probability),
        typical_duration_(typical_duration),
        max_kills_(max_kills) {}

  std::optional<double> PlanKill(const std::string& job, int task,
                                 int attempt) override;

  int kills_planned() const { return kills_planned_; }

 private:
  Rng rng_;
  double kill_probability_;
  double typical_duration_;
  int max_kills_;
  int kills_planned_ = 0;
};

// Kills exactly the scripted (task, attempt) pairs after a fixed delay.
class ScriptedFailureInjector : public FailureInjector {
 public:
  ScriptedFailureInjector& KillAttempt(int task, int attempt,
                                       double after_seconds);

  std::optional<double> PlanKill(const std::string& job, int task,
                                 int attempt) override;

 private:
  struct Entry {
    int task;
    int attempt;
    double after;
  };
  std::vector<Entry> entries_;
};

// A Spark cluster: a driver plus N workers, each with an external NIC and
// a CPU pool, running a batch task scheduler with slot-based dispatch,
// bounded task retry and optional speculative execution (Section 2.1.2).
class SparkCluster {
 public:
  struct Options {
    int num_workers = 8;
    CostModel cost;
    bool speculation = true;
    // A running task becomes a speculation candidate once this fraction
    // of tasks has finished and its runtime exceeds the multiplier times
    // the median successful runtime (Spark's defaults).
    double speculation_quantile = 0.75;
    double speculation_multiplier = 1.5;
    int max_task_failures = 4;
    // How many times a reducer re-polls a missing/lost shuffle block
    // before surfacing a fetch failure (which triggers map-stage
    // re-execution), and the backoff between polls.
    int shuffle_fetch_retries = 3;
    double shuffle_fetch_backoff = 0.05;
    // Deterministic transient fetch-failure injection: each fetch
    // attempt fails with this probability (seeded), exercising the
    // per-fetch retry path without losing any blocks.
    double shuffle_flaky_fetch_rate = 0;
    uint64_t shuffle_flaky_fetch_seed = 7;
    // Fuse the map stage of a combining shuffle: a pushable
    // filter/select chain between the scan and the exchange is lowered
    // into vector kernels (src/exec) and surviving rows fold straight
    // into the partial-aggregate table, never materializing the
    // per-stage intermediate row vectors. Cost charges, traces and
    // results are identical to the unfused path (which remains the
    // fallback whenever a stage is not compilable).
    bool fuse_map_stages = true;
    // Per-task memory budget for hash operators (map-side combine,
    // reduce-side merge, hash-join build), bytes; 0 = unlimited. Over
    // budget the operator spills partitioned runs to the worker's
    // simulated local disk and merges them back — results are
    // byte-identical to the unbudgeted run (see exec::SpillPolicy).
    double task_memory_bytes = 0;
  };

  // Result of one job.
  struct JobStats {
    int tasks = 0;
    int attempts_launched = 0;
    int attempts_failed = 0;
    int speculative_launched = 0;
    double makespan = 0;
  };

  SparkCluster(sim::Engine* engine, net::Network* network, Options options);
  ~SparkCluster();

  sim::Engine* engine() const { return engine_; }
  net::Network* network() const { return network_; }
  const Options& options() const { return options_; }
  const CostModel& cost() const { return options_.cost; }

  int num_workers() const { return options_.num_workers; }
  const net::Host& worker_host(int worker) const { return workers_[worker]; }
  const net::Host& driver_host() const { return driver_; }
  int total_slots() const {
    return options_.num_workers * options_.cost.spark_slots_per_worker;
  }

  // Installs the failure adversary (nullptr disables). Not owned.
  void set_failure_injector(FailureInjector* injector) {
    injector_ = injector;
  }

  // Runs `num_tasks` independent tasks through the scheduler, blocking
  // the calling (driver) process until the job succeeds or is aborted.
  // `body` is the task closure: it must be safe to run the same task
  // index multiple times concurrently (speculation!). Returns ABORTED
  // after a task exhausts max_task_failures.
  Result<JobStats> RunJob(sim::Process& driver, const std::string& name,
                          int num_tasks,
                          std::function<Status(TaskContext&)> body);

  // Telemetry across all jobs.
  int64_t total_attempts() const { return total_attempts_; }

  // The cluster-wide shuffle block store (map outputs + fetch service).
  shuffle::ShuffleManager* shuffle_manager() const { return shuffle_.get(); }

 private:
  struct JobState;

  void LaunchAttempt(std::shared_ptr<JobState> job, int task,
                     bool speculative);
  void MaybeSpeculate(const std::shared_ptr<JobState>& job);
  void RearmSpeculation(const std::shared_ptr<JobState>& job);

  sim::Engine* engine_;
  net::Network* network_;
  Options options_;
  net::Host driver_;
  std::vector<net::Host> workers_;
  std::unique_ptr<sim::Semaphore> slots_;
  std::unique_ptr<shuffle::ShuffleManager> shuffle_;
  FailureInjector* injector_ = nullptr;
  int64_t total_attempts_ = 0;
  int64_t job_counter_ = 0;
  // Round-robin worker assignment cursor.
  int next_worker_ = 0;
};

}  // namespace fabric::spark

#endif  // FABRIC_SPARK_CLUSTER_H_
