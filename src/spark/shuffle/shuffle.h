#ifndef FABRIC_SPARK_SHUFFLE_SHUFFLE_H_
#define FABRIC_SPARK_SHUFFLE_SHUFFLE_H_

// The cluster-wide shuffle service: map tasks commit hash-partitioned
// blocks into a per-worker block store; reduce tasks fetch every map's
// block for their partition over the network (or the local disk when
// colocated). Fetches retry with backoff; a block lost to an executor
// kill eventually surfaces a typed fetch failure, which the staged
// executor (exec.h) answers by re-running the lost map tasks from
// lineage — Spark's stage-resubmission protocol.

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "spark/cluster.h"
#include "storage/schema.h"

namespace fabric::spark::shuffle {

// Marker embedded in fetch-failure statuses; the executor's recovery
// loop keys on it (cf. the Vertica engine's typed HISTORY_PURGED).
inline constexpr char kFetchFailedMarker[] = "SHUFFLE_FETCH_FAILED";

bool IsFetchFailure(const Status& status);

class ShuffleManager {
 public:
  explicit ShuffleManager(SparkCluster* cluster) : cluster_(cluster) {}

  // Registers a new shuffle: `num_maps` producers, `num_reduces`
  // hash partitions. Returns its id.
  int Register(int num_maps, int num_reduces);

  // Map outputs that still need (re-)execution: never committed, or
  // committed on an executor that has since been killed.
  std::vector<int> MissingMaps(int shuffle) const;

  // Publishes map `map`'s partitioned blocks, produced on `worker`.
  // First commit wins unless the previous copy was lost — duplicate
  // commits from speculative or retried attempts are dropped, so
  // downstream fetches observe exactly one copy. Returns whether this
  // commit was the one registered.
  bool CommitMapOutput(int shuffle, int map, int worker,
                       std::vector<std::vector<storage::Row>> blocks);

  // Fetches reduce partition `reduce` from every map output, charging
  // the network (remote) or disk (local) for each block. Retries a
  // missing/lost/flaky block up to Options::shuffle_fetch_retries times
  // with backoff, then fails with a status carrying kFetchFailedMarker.
  // Blocks arrive concatenated in map order.
  Result<std::vector<storage::Row>> FetchPartition(TaskContext& task,
                                                   int shuffle, int reduce);

  // Simulates losing executor `worker`: every committed map output it
  // holds is dropped (across all shuffles). In-flight and future fetches
  // of those blocks fail over to stage re-execution.
  void KillExecutor(int worker);

  int executors_killed() const { return executors_killed_; }

 private:
  struct MapOutput {
    bool committed = false;
    bool lost = false;
    int worker = -1;
    std::vector<std::vector<storage::Row>> blocks;  // one per reduce
    std::vector<double> block_bytes;                // scaled wire bytes
  };
  struct State {
    int num_maps = 0;
    int num_reduces = 0;
    std::vector<MapOutput> maps;
  };

  SparkCluster* cluster_;
  std::vector<State> shuffles_;
  int executors_killed_ = 0;
  std::unique_ptr<Rng> flaky_rng_;  // lazily seeded from Options
};

}  // namespace fabric::spark::shuffle

#endif  // FABRIC_SPARK_SHUFFLE_SHUFFLE_H_
