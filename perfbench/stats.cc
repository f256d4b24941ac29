#include "stats.h"

#include <algorithm>

namespace perfbench {

size_t NearestRank(size_t n, int percent) {
  const size_t rank =
      (static_cast<size_t>(percent) * n + 99) / 100;  // ceil(p * n / 100)
  return std::max<size_t>(rank, 1);
}

size_t MinSamplesFor(int percent, size_t beyond) {
  size_t n = 1;
  while (SamplesBeyond(n, percent) < beyond) ++n;
  return n;
}

double Percentile(const std::vector<double>& sorted, int percent) {
  return sorted[NearestRank(sorted.size(), percent) - 1];
}

LatencySummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary summary;
  summary.count = samples.size();
  summary.p45 = Percentile(samples, 45);
  summary.p50 = Percentile(samples, 50);
  summary.p55 = Percentile(samples, 55);
  summary.p90 = Percentile(samples, 90);
  summary.p95 = Percentile(samples, 95);
  summary.p99 = Percentile(samples, 99);
  summary.beyond_p95 = SamplesBeyond(samples.size(), 95);
  return summary;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace perfbench
