// Tests of the benchmark's own helpers (stats.h, report.h).

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "report.h"
#include "stats.h"

namespace fabricbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, and exactly ten samples lie beyond it.
  auto p = TailPercentile(Range(1000), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->value, 990);
  EXPECT_DOUBLE_EQ(p->fraction, 0.99);
  EXPECT_EQ(p->samples, 1000u);
}

TEST(TailPercentile, LowersThePercentileForSmallSamples) {
  // 100 samples: p99 would leave one sample beyond it; the highest
  // percentile with ten beyond is p90.
  auto p = TailPercentile(Range(100), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->value, 90);
  EXPECT_DOUBLE_EQ(p->fraction, 0.90);
  // Asking for less than the limit gives exactly what was asked.
  auto median = TailPercentile(Range(100), 0.5);
  ASSERT_TRUE(median.has_value());
  EXPECT_DOUBLE_EQ(median->value, 50);
}

TEST(TailPercentile, NeedsMoreThanTenSamples) {
  EXPECT_FALSE(TailPercentile(Range(10), 0.99).has_value());
  auto p = TailPercentile(Range(11), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->value, 1);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(Latencies, FailuresCountAsInfinite) {
  std::vector<double> values(20, 1.0);
  auto all = LatenciesCountingFailures(values, 11);
  ASSERT_EQ(all.size(), 31u);
  // With 11 failures the tail lands on a failure: infinitely late.
  auto p = TailPercentile(all, 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(std::isinf(p->value));
  // A failure never improves the median.
  EXPECT_GE(Median(LatenciesCountingFailures({1, 2, 3}, 1)),
            Median({1, 2, 3}));
  EXPECT_EQ(Fmt(std::numeric_limits<double>::infinity()), "1e999");
}

TEST(SelfTime, SubtractsCoveredChildTimeOnce) {
  // Parent [0, 10); children [1, 3) and [2, 5) overlap (interleaved sim
  // processes) and [8, 12) sticks out of the parent.
  EXPECT_DOUBLE_EQ(SelfTime(0, 10, {{1, 3}, {2, 5}, {8, 12}}), 10 - 4 - 2);
  EXPECT_DOUBLE_EQ(SelfTime(0, 10, {}), 10);
  EXPECT_DOUBLE_EQ(UnionLength({{0, 1}, {1, 2}, {5, 6}}), 3);
}

TEST(Ratio, CarriesItsBase) {
  Ratio r{3, 12};
  EXPECT_DOUBLE_EQ(r.value(), 0.25);
  EXPECT_DOUBLE_EQ(r.base, 12);
  // An empty base reads 0, never NaN, and the base says why.
  Ratio empty{0, 0};
  EXPECT_DOUBLE_EQ(empty.value(), 0);
  EXPECT_DOUBLE_EQ(empty.base, 0);
}

}  // namespace
}  // namespace fabricbench
