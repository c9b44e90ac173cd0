#ifndef FABRICBENCH_REPORT_H_
#define FABRICBENCH_REPORT_H_

// Turns the rounds of one run into the benchmark's named metrics.

#include <string>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace fabricbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note;  // printed next to the value, not in the JSON
};

// End-to-end metrics, from untraced rounds only.
std::vector<Metric> EndToEndMetrics(const std::vector<RoundResult>& rounds,
                                    double peak_rss_mb);

// Per-layer metrics: counters and virtual time from the first traced
// round, host-time spans as medians over the traced rounds, and the
// tracing overhead against the untraced rounds.
std::vector<Metric> PerLayerMetrics(const std::vector<RoundResult>& traced,
                                    const std::vector<RoundResult>& untraced,
                                    const std::vector<Span>& spans);

// Everything about a round that must repeat exactly for one seed: the
// virtual makespan, every op's virtual timeline and row count, every
// reported counter and the system-table readings.
std::string Fingerprint(const RoundResult& round);

// The final output line.
std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics);

std::string SpansJson(const std::vector<Span>& spans);

// Exact, locale-independent rendering of a double ("1e999" for +inf).
std::string Fmt(double value);

}  // namespace fabricbench

#endif  // FABRICBENCH_REPORT_H_
