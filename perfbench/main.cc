// The repository benchmark program.
//
//   perfbench --workload serve_fresh|serve_churn|check_corpus --seed N
//             --seconds S --trace 0|1 --state-dir DIR [--trace-out FILE]
//             [--pin-seed N --pin-seconds S --pin-hash HEX] [--print-hash]
//
// Runs one workload in-process from one closed-loop client thread, checks
// every answer, prints a report and, as its last line, one JSON object:
// the end-to-end metrics with --trace 0, the per-layer metrics of a
// separate traced pass over the same seeded trace with --trace 1.
// --seconds sets the number of timed operations at the workload's nominal
// rate, spread over the replays, so the same seed and seconds always replay
// the same operations.
// With --pin-*, the inputs generated for the pinned seed must hash to the
// pinned value, or the run stops before measuring anything.

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "base/strings.h"
#include "bench.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using car::StrCat;

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// The per-layer metrics every traced run reports, in BENCHMARK.json
/// order.
const std::vector<LayerMetric> kLayerMetrics = {
    {"serve.codec_ms", "ms"},
    {"serve.open_ms", "ms"},
    {"serve.lookup_hit_share", "ratio"},
    {"serve.warm_open_share", "ratio"},
    {"serve.evictions", "count/op"},
    {"persist.spill_ms", "ms"},
    {"persist.restores", "count/op"},
    {"persist.restore_share", "ratio"},
    {"persist.spills", "count/op"},
    {"persist.spill_ineligible", "count/op"},
    {"reasoner.batch_ms", "ms"},
    {"reasoner.probes", "count/op"},
    {"reasoner.memo_hit_share", "ratio"},
    {"reasoner.lazy_conclusive_share", "ratio"},
    {"reasoner.fallbacks", "count/op"},
    {"reasoner.base_builds", "count/op"},
    {"reasoner.refinement_rounds", "count/op"},
    {"analysis.closure_hit_share", "ratio"},
    {"analysis.cluster_local", "count/op"},
    {"frontend.parse_ms", "ms"},
    {"frontend.bytes_parsed", "B/op"},
    {"expansion.build_ms", "ms"},
    {"expansion.compounds", "count/op"},
    {"expansion.materialized", "count/op"},
    {"solver.solve_ms", "ms"},
    {"solver.lp_solves", "count/op"},
    {"solver.warm_share", "ratio"},
    {"solver.fixpoint_rounds", "count/op"},
    {"math.pivots", "count/op"},
    {"math.pivots_per_lp", "ratio"},
    {"math.scalar_promotions", "count/op"},
    {"math.fill", "ratio"},
    {"semantics.spurious_witnesses", "count/op"},
    {"semantics.blocking_constraints", "count/op"},
    {"semantics.certificate_closures", "count/op"},
    {"trace.overhead_share", "ratio"},
};

/// Hash of the inputs the workload generates for (seed, timed ops).
uint64_t WorkloadInputHash(const std::string& workload, uint64_t seed,
                           size_t timed_ops) {
  if (workload == "check_corpus") {
    return HashInputs(MakeCorpus(seed, timed_ops));
  }
  return HashInputs(workload == "serve_fresh"
                        ? MakeServeFresh(seed, timed_ops)
                        : MakeServeChurn(seed, timed_ops));
}

struct Args {
  RunConfig config;
  bool pinned = false;
  uint64_t pin_seed = 0;
  int pin_seconds = 0;
  uint64_t pin_hash = 0;
  bool print_hash = false;
};

/// Decimal, or hexadecimal with --pin-hash's "0x" prefix.
bool ParseUint(const std::string& text, int base, uint64_t* out) {
  if (text.empty() || !std::isxdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, base);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

/// Accepts "--name value" and "--name=value".
bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--print-hash") {
      args->print_hash = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) return false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      values[arg.substr(2)] = argv[++i];
    } else {
      return false;
    }
  }
  uint64_t number = 0;
  for (const auto& [name, value] : values) {
    if (name == "workload") {
      args->config.workload = value;
    } else if (name == "state-dir") {
      args->config.state_dir = value;
    } else if (name == "trace-out") {
      args->config.trace_out = value;
    } else if (!ParseUint(value, name == "pin-hash" ? 16 : 10, &number)) {
      return false;
    } else if (name == "seed") {
      args->config.seed = number;
    } else if (name == "seconds" && number >= 1 && number <= 3600) {
      args->config.seconds = static_cast<int>(number);
    } else if (name == "trace" && number <= 1) {
      args->config.trace = number == 1;
    } else if (name == "pin-seed") {
      args->pin_seed = number;
      args->pinned = true;
    } else if (name == "pin-seconds" && number >= 1 && number <= 3600) {
      args->pin_seconds = static_cast<int>(number);
    } else if (name == "pin-hash") {
      args->pin_hash = number;
    } else {
      return false;
    }
  }
  const std::string& w = args->config.workload;
  if (w != "serve_fresh" && w != "serve_churn" && w != "check_corpus") {
    return false;
  }
  if (args->pinned && args->pin_seconds == 0) return false;
  // Persisted serving state lives in a directory the caller owns.
  return args->print_hash || w == "check_corpus" ||
         !args->config.state_dir.empty();
}

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, value);
  return buffer;
}

/// Full precision, so no two measurements print alike by rounding.
std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json;
  for (const Metric& metric : metrics) {
    if (!json.empty()) json += ", ";
    json += StrCat("\"", metric.name, "\": {\"value\": ",
                   Number(metric.value), ", \"unit\": \"", metric.unit,
                   "\"}");
  }
  return StrCat("{", json, "}");
}

/// Request-class shares and latencies, so a percentile that slides onto a
/// seam between classes of different cost shows in the report.
void PrintClasses(const std::vector<std::string>& op_class,
                  const std::vector<double>& latency_ms) {
  std::map<std::string, std::vector<double>> by_class;
  double total_ms = 0;
  for (size_t i = 0; i < op_class.size(); ++i) {
    by_class[op_class[i]].push_back(latency_ms[i]);
    total_ms += latency_ms[i];
  }
  for (const auto& [name, samples] : by_class) {
    double class_ms = 0;
    for (double ms : samples) class_ms += ms;
    const LatencySummary s = Summarize(samples);
    std::printf("  class %-16s %6zu ops (%5.1f%% of ops, %5.1f%% of time)  "
                "p50 %.3f ms  p95 %.3f ms\n",
                name.c_str(), s.count,
                100.0 * static_cast<double>(s.count) /
                    static_cast<double>(op_class.size()),
                100.0 * class_ms / total_ms, s.p50, s.p95);
  }
}

/// Names whose values differ between two maps, or that only one has.
template <typename Value>
std::vector<std::string> Differences(const std::map<std::string, Value>& a,
                                     const std::map<std::string, Value>& b) {
  std::vector<std::string> names;
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second != value) names.push_back(name);
  }
  for (const auto& [name, value] : b) {
    if (a.count(name) == 0) names.push_back(name);
  }
  return names;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_fresh|serve_churn|"
                 "check_corpus --seed N --seconds S --trace 0|1 "
                 "--state-dir DIR [--trace-out FILE] [--pin-seed N "
                 "--pin-seconds S --pin-hash HEX] [--print-hash]\n");
    return 2;
  }
  const RunConfig& config = args.config;
  const size_t ops = TimedOps(config.workload, config.seconds);
  if (args.print_hash) {
    std::printf("%s\n",
                Hex(WorkloadInputHash(config.workload, config.seed, ops))
                    .c_str());
    return 0;
  }
  if (args.pinned) {
    const uint64_t hash = WorkloadInputHash(
        config.workload, args.pin_seed,
        TimedOps(config.workload, args.pin_seconds));
    if (hash != args.pin_hash) {
      std::fprintf(stderr,
                   "perfbench: %s inputs for pinned seed %" PRIu64
                   " hash to %s, pinned %s: the workload generator or the "
                   "printer changed what is measured\n",
                   config.workload.c_str(), args.pin_seed, Hex(hash).c_str(),
                   Hex(args.pin_hash).c_str());
      return 3;
    }
  }

  std::printf("perfbench %s: seed %" PRIu64 ", %zu timed operations asked "
              "(%d s nominal), trace %d\n",
              config.workload.c_str(), config.seed, ops, config.seconds,
              config.trace ? 1 : 0);
  std::printf("inputs hash %s\n",
              Hex(WorkloadInputHash(config.workload, config.seed, ops))
                  .c_str());
  std::fflush(stdout);

  WorkloadResult result = config.workload == "check_corpus"
                              ? RunCorpusWorkload(config)
                              : RunServeWorkload(config);
  const PassOutcome& pass = result.untraced;
  if (!pass.replays_agree) {
    result.problems.push_back("replays of the same trace disagree");
  }

  // The machine's speed drifts in bursts of a fraction of a second. Each
  // operation's latency is its median over the replays, and the rate is
  // the median of the replays' rates, so one slow burst moves neither.
  std::vector<double> latency_ms(pass.latency_ms.front().size());
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    std::vector<double> samples;
    for (const std::vector<double>& replay : pass.latency_ms) {
      samples.push_back(replay[i]);
    }
    latency_ms[i] = Median(samples);
  }
  std::vector<double> rates;
  for (double seconds : pass.timed_s) {
    rates.push_back(static_cast<double>(latency_ms.size()) / seconds);
  }
  const LatencySummary latency = Summarize(latency_ms);
  if (latency.beyond_p95 < 10) {
    result.problems.push_back(
        StrCat("only ", latency.beyond_p95, " samples beyond p95"));
  }
  // A serving deadline trip is a degraded batch; count it once.
  const uint64_t failed =
      pass.errors + pass.degraded +
      (config.workload == "check_corpus" ? pass.deadline_trips : 0);

  std::string setups;
  std::string timed;
  for (double s : pass.setup_s) setups += StrCat(" ", Number(s));
  for (double s : pass.timed_s) timed += StrCat(" ", Number(s));
  std::printf("%d replays; set-up s:%s; timed phase s:%s\n", kReplays,
              setups.c_str(), timed.c_str());
  std::printf("latency ms (per-operation median over replays): p45 %.4f  "
              "p50 %.4f  p55 %.4f  p90 %.4f  p95 %.4f  p99 %.4f  (n=%zu, "
              "%zu beyond p95)\n",
              latency.p45, latency.p50, latency.p55, latency.p90, latency.p95,
              latency.p99, latency.count, latency.beyond_p95);
  PrintClasses(pass.op_class, latency_ms);
  std::printf("failed_share %s (%" PRIu64 " failed / %" PRIu64
              " attempted: %" PRIu64 " errors, %" PRIu64
              " degraded, %" PRIu64 " deadline trips)\n",
              Number(static_cast<double>(failed) /
                     static_cast<double>(pass.attempted))
                  .c_str(),
              failed, pass.attempted, pass.errors, pass.degraded,
              pass.deadline_trips);

  const std::vector<Metric> end_to_end = {
      {"p50_ms", latency.p50, "ms"},
      {"p95_ms", latency.p95, "ms"},
      {"throughput_per_s", Median(rates), "1/s"},
      {"setup_s", Median(pass.setup_s), "s"},
      {"peak_rss_mb", pass.peak_rss_mb, "MB"},
  };
  std::printf("end-to-end metrics (untraced pass):\n");
  for (const Metric& metric : end_to_end) {
    std::printf("  %-18s %s %s\n", metric.name.c_str(),
                Number(metric.value).c_str(), metric.unit.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }

  std::vector<Metric> per_layer;
  if (config.trace) {
    const std::vector<std::string> differ = Differences(
        result.untraced.deterministic, result.traced.deterministic);
    std::printf("traced pass: %zu answers and counts compared with the "
                "untraced pass, %zu differ\n",
                result.untraced.deterministic.size(), differ.size());
    for (size_t i = 0; i < differ.size() && i < 10; ++i) {
      result.problems.push_back(
          StrCat("traced pass differs from untraced: ", differ[i]));
    }
    const std::vector<std::string> unrepeated =
        Differences(result.traced.counts, result.traced_again.counts);
    std::printf("second traced pass: %zu layer counts compared, %zu "
                "differ\n",
                result.traced.counts.size(), unrepeated.size());
    for (const std::string& name : unrepeated) {
      result.problems.push_back(
          StrCat("layer count does not repeat across traced passes: ", name));
    }
    std::printf("per-layer metrics (traced pass, per timed operation):\n");
    for (const LayerMetric& metric : kLayerMetrics) {
      auto it = result.layer.find(metric.name);
      if (it == result.layer.end()) {
        result.problems.push_back(StrCat("no value for ", metric.name));
        continue;
      }
      per_layer.push_back({metric.name, it->second, metric.unit});
      auto why = result.unreachable.find(metric.name);
      std::printf("  %-32s %s %s%s\n", metric.name,
                  Number(it->second).c_str(), metric.unit,
                  why == result.unreachable.end()
                      ? ""
                      : StrCat("  [not reached: ", why->second, "]").c_str());
    }
  }

  for (const std::string& problem : result.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              result.problems.empty() ? "true" : "false", pass.attempted,
              failed, MetricsJson(config.trace ? per_layer : end_to_end)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
