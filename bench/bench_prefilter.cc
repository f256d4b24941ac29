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
// and full probes over the batch).
//
// Usage: bench_prefilter [--threads=N] [--out=FILE]

#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_harness.h"
#include "reasoner/incremental.h"
#include "reasoner/reasoner.h"
#include "workloads/generators.h"
#include "workloads/query_batch.h"

namespace car {
namespace {

int Main(int argc, char** argv) {
  const bench::Flags flags =
      bench::ParseFlags(argc, argv, 1, "BENCH_prefilter.json");

  // Hierarchies are the prefilter's demonstration regime: the isa trees
  // give the closure tables many certifiable inclusion/disjointness
  // facts, so tier-0 answers a large slice of the batch without any LP.
  // Clustered schemas are the tier-2 regime — a probe's dependency
  // closure is one cluster, a fraction of the schema — and chains keep
  // the engine honest on workloads where the tiers rarely engage. Batch
  // 32 on hierarchy-16 and clustered-8x4 are the cells whose tiered <=
  // untiered relation CI holds; on chain-12x3 the two sit at 1.0x.
  struct Cell {
    std::string name;
    enum { kChain, kClustered, kHierarchy } family;
    ChainParams chain_params;
    ClusteredParams clustered_params;
    HierarchyParams hierarchy_params;
    std::vector<int> batch_sizes = {16, 64};
  };
  const std::vector<Cell> cells = {
      {"hierarchy-16", Cell::kHierarchy, {}, {}, {16, 2}, {16, 32, 64}},
      {"hierarchy-24", Cell::kHierarchy, {}, {}, {24, 3}},
      {"clustered-6x3", Cell::kClustered, {}, {6, 3, 2, false}, {}},
      {"clustered-8x4", Cell::kClustered, {}, {8, 4, 2, false}, {},
       {16, 32, 64}},
      {"chain-12x3", Cell::kChain, {12, 3}, {}, {}},
  };

  bench::JsonLinesFile out(flags.out_path);
  if (!out.ok()) return 1;

  std::printf("EXP-Q: prefilter tiers, tiered vs untiered incremental "
              "sessions (threads=%d)\n\n",
              flags.threads);
  std::printf("| schema | batch | untiered (ms) | tiered (ms) | speedup | "
              "closure | cluster-local | probes |\n");
  std::printf("|---|---|---|---|---|---|---|---|\n");

  bool all_identical = true;
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
    for (int batch_size : cell.batch_sizes) {
      Rng query_rng(1000 + batch_size);
      std::vector<ImplicationQuery> queries =
          GenerateImplicationBatch(schema, &query_rng, batch_size,
                                   /*distinct=*/true);

      ReasonerOptions oracle_options;
      oracle_options.num_threads = flags.threads;
      Reasoner oracle(&schema, oracle_options);
      auto oracle_answers = oracle.RunImplicationBatch(queries);
      if (!oracle_answers.ok()) {
        std::fprintf(stderr, "oracle: %s\n",
                     oracle_answers.status().ToString().c_str());
        return 1;
      }

      // The two sessions take turns answering the batch from fresh state
      // and each keeps its best time; the answers and stats never change.
      ReasonerOptions untiered_options = oracle_options;
      untiered_options.prefilter = false;
      ReasonerOptions tiered_options = oracle_options;
      tiered_options.prefilter = true;
      Result<std::vector<bool>> untiered_answers = std::vector<bool>();
      Result<std::vector<bool>> tiered_answers = std::vector<bool>();
      IncrementalStats stats;
      const auto [untiered_ms, tiered_ms] = bench::BestMsInTurn(
          [&] {
            IncrementalSession untiered(&schema, untiered_options);
            bench::Stopwatch watch;
            untiered_answers = untiered.RunImplicationBatch(queries);
            return watch.ElapsedMs();
          },
          [&] {
            IncrementalSession tiered(&schema, tiered_options);
            bench::Stopwatch watch;
            tiered_answers = tiered.RunImplicationBatch(queries);
            const double ms = watch.ElapsedMs();
            stats = tiered.stats();
            return ms;
          });
      if (!untiered_answers.ok()) {
        std::fprintf(stderr, "untiered: %s\n",
                     untiered_answers.status().ToString().c_str());
        return 1;
      }
      if (!tiered_answers.ok()) {
        std::fprintf(stderr, "tiered: %s\n",
                     tiered_answers.status().ToString().c_str());
        return 1;
      }

      bool identical = oracle_answers.value() == untiered_answers.value() &&
                       oracle_answers.value() == tiered_answers.value();
      all_identical = all_identical && identical;

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
          .Add("threads", flags.threads)
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

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: tiered or untiered answers differ from "
                         "from-scratch\n");
    return 1;
  }
  std::printf("\nwrote %s\n", flags.out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
