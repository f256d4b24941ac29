// Shared types of the benchmark program: what one workload run produces
// and how it is reported.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for persisted serving state (inside the checkout).
  std::string state_dir;
  /// Where the traced run writes its spans; empty = not written.
  std::string trace_out;
};

/// One pass over a workload's seeded trace. The untraced pass replays
/// set-up and timed phase several times, each time on fresh state; the
/// traced pass plays them once.
struct PassOutcome {
  /// Wall time of each replay's set-up.
  std::vector<double> setup_s;
  /// Wall time of each replay's timed phase.
  std::vector<double> timed_s;
  /// Latency of every timed operation, per replay, in trace order.
  std::vector<std::vector<double>> latency_ms;
  /// Request class of every timed operation ("batch_probe", ...).
  std::vector<std::string> op_class;
  double peak_rss_mb = 0;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t degraded = 0;
  uint64_t deadline_trips = 0;
  /// Whether every replay produced the same deterministic results.
  bool replays_agree = true;
  /// Deterministic results (answers and counts) of the last replay,
  /// compared with the traced pass: name -> rendered value.
  std::map<std::string, std::string> deterministic;
  /// Traced passes: the layer counters summed over the timed phase.
  std::map<std::string, uint64_t> counts;

  /// Starts a replay: a fresh latency row, and the per-operation classes
  /// and failure counts are taken anew.
  void BeginReplay() {
    latency_ms.emplace_back();
    op_class.clear();
    attempted = errors = degraded = deadline_trips = 0;
  }
};

struct WorkloadResult {
  PassOutcome untraced;
  /// The traced pass and a second one over the same trace, whose counts
  /// must agree with the first; only with RunConfig::trace.
  PassOutcome traced;
  PassOutcome traced_again;
  /// Per-layer metrics of the traced pass (every kLayerMetrics name).
  std::map<std::string, double> layer;
  /// Per-layer metrics this workload cannot reach from outside the
  /// program, with the reason.
  std::map<std::string, std::string> unreachable;
  /// Numerators and denominators of the shares, and other report lines.
  std::vector<std::string> notes;
  /// Wrong answers and failed self-checks; any entry fails the run.
  std::vector<std::string> problems;
};

/// Timed operations of a run of `seconds` at the workload's nominal
/// rate, never fewer than a p95 with ten samples beyond it needs.
size_t TimedOps(const std::string& workload, int seconds);

/// Fills WorkloadResult::layer from a traced pass: self times and counts
/// per timed operation, and shares, which it also notes with their bases.
class LayerReport {
 public:
  LayerReport(const PassOutcome& traced, const std::vector<Span>& spans,
              WorkloadResult* result);

  /// Self time of the spans named `span`, per timed operation.
  double Ms(const char* span) const;
  /// A traced-pass count (0 if never counted), in total or per operation.
  uint64_t Count(const std::string& name) const;
  double Per(const std::string& name) const;

  void Set(const char* metric, double value) { result_->layer[metric] = value; }
  void SetShare(const char* metric, uint64_t numerator, uint64_t denominator);
  /// A metric the workload cannot reach from outside the program: 0, with
  /// the reason.
  void Unreached(const char* metric, const char* why);

  /// Adds trace.overhead_share against the untraced pass and notes the
  /// self-time share of every span name.
  void Finish(const PassOutcome& untraced);

 private:
  const PassOutcome& traced_;
  std::map<std::string, int64_t> self_ns_;
  WorkloadResult* result_;
};

WorkloadResult RunServeWorkload(const RunConfig& config);
WorkloadResult RunCorpusWorkload(const RunConfig& config);

// --- Small shared helpers ---------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Timed-phase replays of the untraced pass; every end-to-end metric is a
/// median over them.
constexpr int kReplays = 3;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
