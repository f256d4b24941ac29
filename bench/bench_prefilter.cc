// EXP-Q driver: the static-analysis prefilter tiers of the incremental
// implication engine.
//
// Workload: chain, clustered and hierarchy schemas probed with a
// deterministic mix of implication queries. Each cell answers the same
// batch three ways — from-scratch Reasoner (the oracle), an untiered
// IncrementalSession (prefilter off), and a tiered one (prefilter on) —
// and requires all three answer vectors to be identical. The JSON record
// carries the wall-clock of the two sessions and the per-tier
// short-circuit fractions (closure hits, cluster-local solves, memo hits
// and full probes over the batch), which is what the CI smoke gate
// checks: answers_identical, and tiered latency no worse than untiered.
//
// Usage: bench_prefilter [--threads=N] [--smoke] [--out=FILE]
//   --smoke  reduced workload for CI: two cells, one batch size

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_json.h"
#include "reasoner/incremental.h"
#include "reasoner/reasoner.h"
#include "workloads/generators.h"
#include "workloads/query_batch.h"

namespace car {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int Main(int argc, char** argv) {
  int num_threads = 1;
  bool smoke = false;
  std::string out_path = "BENCH_prefilter.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      num_threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  // Hierarchies are the prefilter's demonstration regime: the isa trees
  // give the closure tables many certifiable inclusion/disjointness
  // facts, so tier-0 answers a large slice of the batch without any LP.
  // Clustered schemas are the tier-2 regime — a probe's dependency
  // closure is one cluster, a fraction of the schema — and chains keep
  // the engine honest on workloads where the tiers rarely engage.
  struct Cell {
    std::string name;
    enum { kChain, kClustered, kHierarchy } family;
    ChainParams chain_params;
    ClusteredParams clustered_params;
    HierarchyParams hierarchy_params;
  };
  std::vector<Cell> cells;
  if (smoke) {
    cells.push_back({"hierarchy-16", Cell::kHierarchy, {}, {}, {16, 2}});
    cells.push_back({"clustered-8x4", Cell::kClustered, {}, {8, 4, 2,
                                                             false}, {}});
  } else {
    cells.push_back({"hierarchy-16", Cell::kHierarchy, {}, {}, {16, 2}});
    cells.push_back({"hierarchy-24", Cell::kHierarchy, {}, {}, {24, 3}});
    cells.push_back({"clustered-6x3", Cell::kClustered, {}, {6, 3, 2,
                                                             false}, {}});
    cells.push_back({"clustered-8x4", Cell::kClustered, {}, {8, 4, 2,
                                                             false}, {}});
    cells.push_back({"chain-12x3", Cell::kChain, {12, 3}, {}, {}});
  }
  std::vector<int> batch_sizes =
      smoke ? std::vector<int>{32} : std::vector<int>{16, 64};

  bench::JsonLinesFile out(out_path);
  if (!out.ok()) {
    std::fprintf(stderr, "cannot open '%s'\n", out_path.c_str());
    return 1;
  }

  std::printf("EXP-Q: prefilter tiers, tiered vs untiered incremental "
              "sessions (threads=%d%s)\n\n",
              num_threads, smoke ? ", smoke" : "");
  std::printf("| schema | batch | untiered (ms) | tiered (ms) | speedup | "
              "closure | cluster-local | probes |\n");
  std::printf("|---|---|---|---|---|---|---|---|\n");

  bool all_identical = true;
  bool all_no_slower = true;
  for (const Cell& cell : cells) {
    Rng schema_rng(11);
    Schema schema;
    switch (cell.family) {
      case Cell::kChain:
        schema = GenerateChainSchema(cell.chain_params);
        break;
      case Cell::kClustered:
        schema = GenerateClusteredSchema(&schema_rng,
                                         cell.clustered_params);
        break;
      case Cell::kHierarchy:
        schema = GenerateHierarchy(&schema_rng, cell.hierarchy_params);
        break;
    }
    for (int batch_size : batch_sizes) {
      Rng query_rng(1000 + batch_size);
      std::vector<ImplicationQuery> queries =
          GenerateImplicationBatch(schema, &query_rng, batch_size,
                                   /*distinct=*/true);

      ReasonerOptions oracle_options;
      oracle_options.num_threads = num_threads;
      Reasoner oracle(&schema, oracle_options);
      auto oracle_answers = oracle.RunImplicationBatch(queries);
      if (!oracle_answers.ok()) {
        std::fprintf(stderr, "oracle: %s\n",
                     oracle_answers.status().ToString().c_str());
        return 1;
      }

      ReasonerOptions untiered_options = oracle_options;
      untiered_options.prefilter = false;
      IncrementalSession untiered(&schema, untiered_options);
      auto untiered_start = std::chrono::steady_clock::now();
      auto untiered_answers = untiered.RunImplicationBatch(queries);
      double untiered_ms = MillisSince(untiered_start);
      if (!untiered_answers.ok()) {
        std::fprintf(stderr, "untiered: %s\n",
                     untiered_answers.status().ToString().c_str());
        return 1;
      }

      ReasonerOptions tiered_options = oracle_options;
      tiered_options.prefilter = true;
      IncrementalSession tiered(&schema, tiered_options);
      auto tiered_start = std::chrono::steady_clock::now();
      auto tiered_answers = tiered.RunImplicationBatch(queries);
      double tiered_ms = MillisSince(tiered_start);
      if (!tiered_answers.ok()) {
        std::fprintf(stderr, "tiered: %s\n",
                     tiered_answers.status().ToString().c_str());
        return 1;
      }

      bool identical = oracle_answers.value() == untiered_answers.value() &&
                       oracle_answers.value() == tiered_answers.value();
      all_identical = all_identical && identical;
      all_no_slower = all_no_slower && tiered_ms <= untiered_ms;

      IncrementalStats stats = tiered.stats();
      double batch = static_cast<double>(queries.size());
      double closure_fraction = stats.closure_hits / batch;
      double cluster_fraction = stats.cluster_local / batch;
      double probe_fraction = stats.probes / batch;
      double speedup = tiered_ms > 0 ? untiered_ms / tiered_ms : 0.0;
      std::printf(
          "| %s | %zu | %.1f | %.1f | %.2fx | %.0f%% | %.0f%% | %.0f%% "
          "|%s\n",
          cell.name.c_str(), queries.size(), untiered_ms, tiered_ms,
          speedup, 100 * closure_fraction, 100 * cluster_fraction,
          100 * probe_fraction, identical ? "" : "  ANSWERS DIFFER (bug!)");
      std::fflush(stdout);

      bench::JsonRecord record;
      record.Add("bench", "prefilter")
          .Add("schema", cell.name)
          .Add("num_classes", static_cast<int>(schema.num_classes()))
          .Add("batch", static_cast<int>(queries.size()))
          .Add("threads", num_threads)
          .Add("smoke", smoke)
          .Add("untiered_ms", untiered_ms)
          .Add("tiered_ms", tiered_ms)
          .Add("speedup", speedup)
          .Add("closure_hits", stats.closure_hits)
          .Add("cluster_local", stats.cluster_local)
          .Add("memo_hits", stats.memo_hits)
          .Add("probes", stats.probes)
          .Add("closure_fraction", closure_fraction)
          .Add("cluster_local_fraction", cluster_fraction)
          .Add("probe_fraction", probe_fraction)
          .Add("answers_identical", identical);
      out.Write(record);
    }
  }

  std::printf("\nanswers identical across all cells: %s\n",
              all_identical ? "yes" : "NO (bug!)");
  std::printf("tiered no slower than untiered in every cell: %s\n",
              all_no_slower ? "yes" : "no");
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
