#ifndef FABRICBENCH_STATS_H_
#define FABRICBENCH_STATS_H_

// Summary statistics the benchmark reports: medians, tail percentiles
// that are backed by enough samples, latency lists in which failures
// count as infinite, span self time, and ratios that carry their base.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

namespace fabricbench {

// A tail percentile is only reported when at least this many samples lie
// beyond it; with fewer samples the estimate is one or two outliers.
inline constexpr size_t kSamplesBeyondTail = 10;

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

// A nearest-rank percentile: `value` is the sorted sample at 1-based rank
// ceil(fraction * n), so `fraction` of the samples are <= value.
struct Percentile {
  double fraction = 0;
  double value = 0;
  size_t samples = 0;
};

// The highest nearest-rank percentile, at most `want` (e.g. 0.99), that
// has at least kSamplesBeyondTail samples beyond it. nullopt when there
// are too few samples for any such percentile.
inline std::optional<Percentile> TailPercentile(std::vector<double> values,
                                                double want) {
  size_t n = values.size();
  if (n <= kSamplesBeyondTail) return std::nullopt;
  std::sort(values.begin(), values.end());
  // The 1-based rank of `want`, then lowered until ten samples follow it.
  size_t rank = static_cast<size_t>(std::ceil(want * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n - kSamplesBeyondTail);
  return Percentile{static_cast<double>(rank) / static_cast<double>(n),
                    values[rank - 1], n};
}

// Latency samples in which every failed operation counts as infinitely
// late, so a failure can never improve a percentile.
inline std::vector<double> LatenciesCountingFailures(
    std::vector<double> completed, size_t failed) {
  completed.insert(completed.end(), failed,
                   std::numeric_limits<double>::infinity());
  return completed;
}

// Total length of the union of [start, end) intervals.
inline double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

// A span's self time: its duration minus the part of [start, end) that
// its children cover (children may overlap each other, e.g. interleaved
// sim processes; covered time is counted once).
inline double SelfTime(double start, double end,
                       const std::vector<std::pair<double, double>>& children) {
  std::vector<std::pair<double, double>> clipped;
  clipped.reserve(children.size());
  for (const auto& [s, e] : children) {
    clipped.emplace_back(std::max(s, start), std::min(e, end));
  }
  return (end - start) - UnionLength(std::move(clipped));
}

// A ratio reported together with the count it is taken over. An empty
// base gives 0, never NaN.
struct Ratio {
  double part = 0;
  double base = 0;
  double value() const { return base > 0 ? part / base : 0; }
};

}  // namespace fabricbench

#endif  // FABRICBENCH_STATS_H_
