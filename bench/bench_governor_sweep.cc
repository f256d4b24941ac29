// EXP-L driver: unknown-rate vs deadline for the resource governor.
//
// Workload: dense single-cluster schemas of growing cluster size
// (GenerateClusteredSchema, dense = true) — the worst case for compound
// enumeration, with per-schema decision cost spanning ~4 orders of
// magnitude. For each wall-clock deadline the governed CheckSchema is run
// on every schema; the driver reports how many runs degrade to
// Verdict::kUnknown, which limit kind tripped, and the aggregate partial
// work at the trips. This is a plain main (not google-benchmark): each
// cell is one timed governed run, not a steady-state microbenchmark.
//
// Usage: bench_governor_sweep [--threads=N]

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/exec_context.h"
#include "base/rng.h"
#include "bench_harness.h"
#include "reasoner/reasoner.h"
#include "workloads/generators.h"

namespace car {
namespace {

int Main(int argc, char** argv) {
  const int num_threads = bench::ParseFlags(argc, argv, 1, nullptr).threads;

  // Full (ungoverned) CheckSchema cost grows ~12x per size step on this
  // workload: ~1 ms at size 5 up to ~90 s at size 9 — the deadline range
  // below slices through the middle of that span.
  constexpr int kMinCluster = 5;
  constexpr int kMaxCluster = 9;
  std::vector<Schema> schemas;
  for (int size = kMinCluster; size <= kMaxCluster; ++size) {
    Rng rng(7);
    ClusteredParams params;
    params.num_clusters = 1;
    params.cluster_size = size;
    params.dense = true;
    schemas.push_back(GenerateClusteredSchema(&rng, params));
  }

  const uint64_t kDeadlinesMs[] = {1, 2, 5, 10, 20, 50,
                               100, 200, 500, 1000, 2000, 5000};
  std::printf("EXP-L: unknown-rate vs deadline (dense clusters %d..%d, "
              "threads=%d)\n\n",
              kMinCluster, kMaxCluster, num_threads);
  std::printf("| deadline (ms) | unknown | decided | unknown rate | "
              "trip phases | median compounds at trip |\n");
  std::printf("|---|---|---|---|---|---|\n");
  for (uint64_t deadline_ms : kDeadlinesMs) {
    int unknown = 0;
    int sat = 0;
    std::map<std::string, int> trip_phases;
    std::vector<uint64_t> compounds_at_trip;
    for (const Schema& schema : schemas) {
      ExecContext exec;
      exec.SetDeadlineAfter(std::chrono::milliseconds(deadline_ms));
      ReasonerOptions options;
      options.num_threads = num_threads;
      options.exec = &exec;
      Reasoner reasoner(&schema, options);
      auto report = reasoner.CheckSchema();
      if (!report.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      if (report->verdict == Verdict::kUnknown) {
        ++unknown;
        ++trip_phases[report->limit.phase];
        compounds_at_trip.push_back(report->progress.compounds_enumerated);
      } else {
        ++sat;
      }
    }
    const uint64_t median = bench::Percentile(compounds_at_trip, 50);
    std::string phases;
    for (const auto& [phase, n] : trip_phases) {
      if (!phases.empty()) phases += ", ";
      phases += phase + ":" + std::to_string(n);
    }
    std::printf("| %4llu | %d | %d | %.0f%% | %s | %llu |\n",
                static_cast<unsigned long long>(deadline_ms), unknown, sat,
                100.0 * unknown / static_cast<double>(schemas.size()),
                phases.empty() ? "-" : phases.c_str(),
                static_cast<unsigned long long>(median));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
