#ifndef FABRICBENCH_WORKLOADS_H_
#define FABRICBENCH_WORKLOADS_H_

// The benchmark's three workloads. Each round of a workload builds a
// fresh fabric (bench/bench_common.h) and stages its inputs, runs a fixed
// timed phase that is generated from the seed, then checks the answers
// against references computed from the generated inputs. Because every
// round starts from the same fabric state, every round must reproduce
// the first one's virtual time and counters exactly.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "probe.h"

namespace fabricbench {

// One operation of a timed phase. Times are relative to the phase start.
struct OpSample {
  std::string kind;
  double due_vs = 0;    // virtual seconds: when the op was due to start
  double start_vs = 0;  // virtual seconds: when it started running
  double done_vs = 0;   // virtual seconds: when it completed
  double host_ms = 0;   // host milliseconds from start to completion
  bool ok = true;
  int64_t real_rows = 0;  // real rows the op saved or delivered
};

// Readings of the v_monitor system tables, taken around the timed phase.
struct SysTables {
  double ros_containers = 0;  // ROS containers over all tables,
                              // projections and copies
  double raw_bytes = 0;       // real (unscaled) bytes in those containers
  double encoded_bytes = 0;
  double moveout_bytes_paper = 0;  // Tuple Mover, paper-scale bytes
  double mergeout_bytes_paper = 0;
};

// What the round recorded for the per-layer report.
struct Capture {
  fabric::obs::Metrics before;  // metrics at the timed phase's start
  fabric::obs::Metrics after;   // and at its end
  SysTables sys_before;
  SysTables sys_after;
  double cache_hits = 0;    // pipeline-compiler cache, timed phase only
  double cache_misses = 0;
  std::vector<std::string> projections;  // names for projection_scans
  double data_scale = 1;
  // Trace events recorded during the timed phase (traced rounds only).
  std::vector<fabric::obs::Event> events;
};

struct RoundResult {
  int run = 0;                // the round's index in the run
  double calibration_ms = 0;  // CalibrationProbeMs() around the round
  double setup_s = 0;    // host seconds: fabric built and inputs staged
  double host_s = 0;     // host seconds of the timed phase
  double virtual_s = 0;  // virtual makespan of the timed phase
  std::vector<OpSample> ops;
  Capture capture;
  std::vector<std::string> errors;  // failed output checks
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Runs one round on a fresh fabric. When `traced`, the round records
  // trace events and benchmark-side spans into `probe`.
  virtual RoundResult RunRound(Probe& probe, bool traced) = 0;
};

// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace fabricbench

#endif  // FABRICBENCH_WORKLOADS_H_
