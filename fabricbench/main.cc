// The fabricbench binary. Runs one workload for a given time and
// prints its metrics; the last line of stdout is one JSON object.
//
//   fabricbench --workload <bulk_ingest|analytics_read|mixed_tenants>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--spans-out <file>] [--fingerprint-dir <dir>]
//
// Host times are reported at a reference machine speed (calibrate.h).
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// alternate untraced and traced rounds and report the per-layer metrics,
// including the tracing overhead. Every round builds a fresh fabric, so
// every round must repeat the first one's deterministic outcome; with
// --fingerprint-dir that outcome must also match earlier runs of the
// same workload and seed.

#include <sched.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "calibrate.h"
#include "probe.h"
#include "report.h"
#include "workloads.h"

namespace {

using fabricbench::Metric;
using fabricbench::RoundResult;

// Rounds per run at least: several setups for the setup_s median, and
// in traced runs two rounds of each kind.
constexpr int kMinRounds = 3;
// Stop starting rounds past this much wall time, whatever --seconds says.
constexpr double kMaxRunSeconds = 120;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
  std::string fingerprint_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else if (key == "--fingerprint-dir") {
      args->fingerprint_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Compares `fingerprint` with the one stored by an earlier run of the
// same binary, workload and seed; stores it when there is none.
bool MatchesEarlierRuns(const Args& args, const std::string& fingerprint) {
  if (args.fingerprint_dir.empty()) return true;
  namespace fs = std::filesystem;
  fs::create_directories(args.fingerprint_dir);
  fs::path path = fs::path(args.fingerprint_dir) /
                  (args.workload + "_" + std::to_string(args.seed) + ".txt");
  if (fs::exists(path)) {
    std::ifstream in(path);
    std::string stored((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    return stored == fingerprint;
  }
  std::ofstream(path) << fingerprint;
  return true;
}

// The engine runs one sim process at a time, each on its own host
// thread, so a round needs one CPU. All threads of a round are pinned to
// one CPU (every sim thread is created during the round and inherits the
// mask), so process hand-offs are same-core switches rather than
// cross-core wake-ups, whose cost depends on where the scheduler puts
// each thread. Rounds rotate over the allowed CPUs, so one CPU slowed by
// a noisy neighbour affects a minority of the rounds and not the median.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }

  // Pins the calling thread, and so every thread it creates, to the
  // `slot`-th allowed CPU (cyclically).
  void Pin(int slot) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[static_cast<size_t>(slot) % cpus_.size()], &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) {
      std::perror("sched_setaffinity");
    }
  }

 private:
  std::vector<int> cpus_;
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>] "
                 "[--fingerprint-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  auto workload = fabricbench::MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  CpuRotation cpus;
  auto run_start = std::chrono::steady_clock::now();
  fabricbench::Probe probe(run_start);
  std::vector<RoundResult> untraced, traced;
  std::vector<std::string> errors;
  std::string first_fingerprint;
  long long attempted = 0, failed = 0;
  for (int round = 0;; ++round) {
    // Traced runs alternate, so both kinds see the same machine state.
    bool trace_round = args.trace && round % 2 == 1;
    // A traced round runs on the same CPU as the untraced one before it.
    cpus.Pin(args.trace ? round / 2 : round);
    probe.set_run(round);
    double probe_before = fabricbench::CalibrationProbeMs();
    RoundResult result = workload->RunRound(probe, trace_round);
    result.run = round;
    result.calibration_ms =
        (probe_before + fabricbench::CalibrationProbeMs()) / 2;
    for (const std::string& e : result.errors) {
      errors.push_back("round " + std::to_string(round) + ": " + e);
    }
    std::string fingerprint = fabricbench::Fingerprint(result);
    if (round == 0) {
      first_fingerprint = fingerprint;
    } else if (fingerprint != first_fingerprint) {
      errors.push_back("round " + std::to_string(round) +
                       ": virtual time or counters drifted from round 0");
    }
    for (const auto& op : result.ops) {
      ++attempted;
      if (!op.ok) ++failed;
    }
    std::printf("round %d%s: setup %.3f s, timed %.3f s host (unscaled), "
                "%.6g s virtual, %zu ops, probe %.1f ms\n",
                round, trace_round ? " (traced)" : "", result.setup_s,
                result.host_s, result.virtual_s, result.ops.size(),
                result.calibration_ms);
    std::fflush(stdout);
    // Only the first traced round's events are reported; later rounds'
    // are dropped to bound memory.
    if (trace_round && !traced.empty()) {
      std::vector<fabric::obs::Event>().swap(result.capture.events);
    }
    (trace_round ? traced : untraced).push_back(std::move(result));

    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - run_start)
                         .count();
    bool enough = static_cast<int>(untraced.size()) >= kMinRounds &&
                  (!args.trace || static_cast<int>(traced.size()) >= 2);
    double per_round = elapsed / (round + 1);
    if ((enough && elapsed >= args.seconds) ||
        (enough && elapsed + per_round > kMaxRunSeconds) ||
        !errors.empty()) {
      break;
    }
  }
  if (errors.empty() && !MatchesEarlierRuns(args, first_fingerprint)) {
    errors.push_back(
        "virtual time or counters differ from an earlier run of this seed");
  }

  if (!args.spans_out.empty() && args.trace) {
    std::ofstream(args.spans_out) << fabricbench::SpansJson(probe.spans());
  }

  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    }
    std::printf("%s\n",
                fabricbench::ResultJson(false, attempted, failed, {}).c_str());
    return 1;
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = fabricbench::PerLayerMetrics(traced, untraced, probe.spans());
    PrintMetrics("per-layer metrics (traced rounds):", metrics);
  } else {
    metrics = fabricbench::EndToEndMetrics(untraced, PeakRssMb());
    PrintMetrics("end-to-end metrics:", metrics);
  }
  std::printf("%s\n",
              fabricbench::ResultJson(true, attempted, failed, metrics)
                  .c_str());
  return 0;
}
