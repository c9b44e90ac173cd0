#ifndef FABRIC_SPARK_SHUFFLE_EXEC_H_
#define FABRIC_SPARK_SHUFFLE_EXEC_H_

// Staged execution over plans with exchanges. Before a job whose plan
// reads shuffled data runs, every exchange's map stage must have
// committed its blocks; when an executor kill loses blocks, the
// consuming job surfaces a fetch failure and the lost map tasks are
// re-executed from lineage (Spark's stage resubmission) before the job
// is retried — results are exactly-once regardless of failures.

#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "spark/cluster.h"
#include "spark/dataframe.h"
#include "spark/shuffle/aggregate.h"

namespace fabric::spark::shuffle {

// True when the plan tree contains an exchange (wide dependency).
bool HasExchange(const Plan& plan);

// Spill policy bound to one running task attempt: budget from the
// cluster's task_memory_bytes, runs billed against the worker's local
// disk, spill events traced and counted (spark.spills /
// spark.spill_bytes). An unlimited cluster yields an inert policy.
exec::SpillPolicy TaskSpillPolicy(const TaskContext& task);

// Runs `body` over `num_tasks` tasks with all of the plan's shuffle
// dependencies satisfied: registers/executes missing map stages first
// (post-order, so nested shuffles resolve inner-first), then runs the
// job, resubmitting lost map stages and retrying on fetch failures.
// Plans without exchanges go straight to the scheduler.
Result<SparkCluster::JobStats> RunPlanJob(
    sim::Process& driver, SparkCluster* cluster, const std::string& name,
    const std::shared_ptr<const Plan>& plan, int num_tasks,
    std::function<Status(TaskContext&)> body);

}  // namespace fabric::spark::shuffle

#endif  // FABRIC_SPARK_SHUFFLE_EXEC_H_
