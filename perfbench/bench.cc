#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.h"
#include "stats.h"

namespace perfbench {

size_t TimedOps(const std::string& workload, int seconds) {
  // Nominal timed operations per second at the parent of the benchmark
  // (4-core x86 VM, Release build).
  const size_t rate = workload == "serve_fresh"   ? 35
                      : workload == "serve_churn" ? 2400
                                                  : 270;
  return std::max(rate * static_cast<size_t>(seconds) / kReplays,
                  MinSamplesFor(95, 10));
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // process image that exec replaced, which for a child of the Python
  // runner is the interpreter's.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
