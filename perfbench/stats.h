// Sample statistics of the repository benchmark: nearest-rank
// percentiles with the "ten samples beyond" rule, and shares that keep
// their numerator and denominator.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The 1-based nearest rank of the `percent`-th percentile of `n`
/// samples: the smallest rank r with r >= percent / 100 * n, and at
/// least 1. Integer arithmetic, so 95 % of 200 is rank 190 exactly.
size_t NearestRank(size_t n, int percent);

/// Samples ranked after the `percent`-th percentile of `n` samples. The
/// benchmark reports a percentile only with at least ten of them.
inline size_t SamplesBeyond(size_t n, int percent) {
  return n - NearestRank(n, percent);
}

/// The smallest sample count whose `percent`-th percentile has at least
/// `beyond` samples after it.
size_t MinSamplesFor(int percent, size_t beyond);

/// The `percent`-th percentile (nearest rank) of ascending, non-empty
/// `sorted` samples.
double Percentile(const std::vector<double>& sorted, int percent);

/// Percentiles of one latency sample. p45/p55 and p90/p99 flank the
/// reported p50 and p95, so a percentile sitting on a seam between
/// request classes of different cost shows as a jump.
struct LatencySummary {
  size_t count = 0;
  double p45 = 0;
  double p50 = 0;
  double p55 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
  size_t beyond_p95 = 0;
};

/// Summarizes a non-empty sample.
LatencySummary Summarize(std::vector<double> samples);

/// Median of a non-empty sample (the mean of the middle two for an even
/// count).
double Median(std::vector<double> values);

/// A ratio that keeps its base, so it is printed with it.
struct Share {
  uint64_t numerator = 0;
  uint64_t denominator = 0;

  /// 0 for an empty base: no attempts means no useful outcomes either.
  double value() const {
    return denominator == 0 ? 0.0
                            : static_cast<double>(numerator) /
                                  static_cast<double>(denominator);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
