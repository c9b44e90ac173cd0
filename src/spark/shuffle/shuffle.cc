#include "spark/shuffle/shuffle.h"

#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "storage/profile.h"

namespace fabric::spark::shuffle {

bool IsFetchFailure(const Status& status) {
  return !status.ok() &&
         status.message().find(kFetchFailedMarker) != std::string::npos;
}

int ShuffleManager::Register(int num_maps, int num_reduces) {
  FABRIC_CHECK(num_maps > 0 && num_reduces > 0);
  State state;
  state.num_maps = num_maps;
  state.num_reduces = num_reduces;
  state.maps.resize(num_maps);
  shuffles_.push_back(std::move(state));
  obs::IncrCounter("spark.shuffle.registered");
  return static_cast<int>(shuffles_.size()) - 1;
}

std::vector<int> ShuffleManager::MissingMaps(int shuffle) const {
  const State& state = shuffles_[shuffle];
  std::vector<int> missing;
  for (int m = 0; m < state.num_maps; ++m) {
    const MapOutput& out = state.maps[m];
    if (!out.committed || out.lost) missing.push_back(m);
  }
  return missing;
}

bool ShuffleManager::CommitMapOutput(
    int shuffle, int map, int worker,
    std::vector<std::vector<storage::Row>> blocks) {
  MapOutput& out = shuffles_[shuffle].maps[map];
  if (out.committed && !out.lost) return false;  // duplicate attempt
  out.committed = true;
  out.lost = false;
  out.worker = worker;
  out.blocks = std::move(blocks);
  out.block_bytes.clear();
  const double scale = cluster_->cost().data_scale;
  for (const auto& block : out.blocks) {
    out.block_bytes.push_back(
        storage::ProfileRows(block).ScaleBy(scale).raw_bytes);
  }
  obs::IncrCounter("spark.shuffle.map_outputs");
  obs::TraceEvent("spark", "shuffle.commit",
                  {{"shuffle", shuffle}, {"map", map}, {"worker", worker}});
  return true;
}

Result<std::vector<storage::Row>> ShuffleManager::FetchPartition(
    TaskContext& task, int shuffle, int reduce) {
  // Index rather than hold references across blocking calls: shuffles_
  // may grow (and reallocate) while this task sleeps or transfers.
  const int maps = shuffles_[shuffle].num_maps;
  const SparkCluster::Options& options = cluster_->options();
  if (options.shuffle_flaky_fetch_rate > 0 && flaky_rng_ == nullptr) {
    flaky_rng_ = std::make_unique<Rng>(options.shuffle_flaky_fetch_seed);
  }
  std::vector<storage::Row> out;
  for (int m = 0; m < maps; ++m) {
    bool fetched = false;
    for (int attempt = 0; !fetched; ++attempt) {
      const MapOutput& mo = shuffles_[shuffle].maps[m];
      bool ready = mo.committed && !mo.lost;
      bool flaky = ready && flaky_rng_ != nullptr &&
                   flaky_rng_->NextBool(options.shuffle_flaky_fetch_rate);
      if (ready && !flaky) {
        const int source = mo.worker;
        const double bytes = mo.block_bytes[reduce];
        if (bytes > 0) {
          if (source != task.worker) {
            FABRIC_RETURN_IF_ERROR(cluster_->network()->Transfer(
                *task.process,
                {cluster_->worker_host(source).ext_egress,
                 task.worker_host().ext_ingress},
                bytes));
          } else if (task.worker_host().has_disk()) {
            // Local fetch: the block is read back off this worker's disk.
            FABRIC_RETURN_IF_ERROR(cluster_->network()->Transfer(
                *task.process, {task.worker_host().disk}, bytes));
          }
          obs::IncrCounter("spark.shuffle.bytes", bytes);
        }
        // The transfer blocked in virtual time; the executor may have
        // died under it. Only consume the block if it is still there —
        // otherwise fall through to the retry/fail path.
        const MapOutput& now = shuffles_[shuffle].maps[m];
        if (now.committed && !now.lost && now.worker == source) {
          const auto& block = now.blocks[reduce];
          out.insert(out.end(), block.begin(), block.end());
          fetched = true;
        }
        continue;
      }
      if (attempt >= options.shuffle_fetch_retries) {
        obs::IncrCounter("spark.shuffle.fetch_failures");
        obs::TraceEvent("spark", "shuffle.fetch_failed",
                        {{"shuffle", shuffle}, {"map", m}, {"reduce", reduce}});
        return FailedPreconditionError(
            StrCat(kFetchFailedMarker, ": shuffle ", shuffle, " map ", m,
                   " reduce ", reduce, mo.lost ? " (executor lost)"
                                               : " (not committed)"));
      }
      obs::IncrCounter("spark.shuffle.fetch_retries");
      FABRIC_RETURN_IF_ERROR(
          task.process->Sleep(options.shuffle_fetch_backoff * (attempt + 1)));
    }
  }
  return out;
}

void ShuffleManager::KillExecutor(int worker) {
  ++executors_killed_;
  int blocks_lost = 0;
  for (State& state : shuffles_) {
    for (MapOutput& out : state.maps) {
      if (out.committed && !out.lost && out.worker == worker) {
        out.lost = true;
        out.blocks.clear();
        out.block_bytes.clear();
        ++blocks_lost;
      }
    }
  }
  obs::IncrCounter("spark.shuffle.executors_killed");
  obs::IncrCounter("spark.shuffle.map_outputs_lost", blocks_lost);
  obs::TraceEvent("spark", "shuffle.executor_lost",
                  {{"worker", worker}, {"map_outputs_lost", blocks_lost}});
}

}  // namespace fabric::spark::shuffle
