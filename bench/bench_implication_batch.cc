// EXP-I driver: incremental vs from-scratch implication batches.
//
// Workload: clustered schemas (GenerateClusteredSchema) probed with a
// deterministic mix of isa / disjointness / cardinality / participation
// implication queries. For each (schema, batch size) cell the same batch
// is answered twice — by the from-scratch engine (one full expansion +
// Ψ solve per query) and by the incremental session (one base solve,
// then per-probe expansion deltas, warm-started LP re-solves, and the
// canonical-form memo) — and the answers are required to be identical.
// Wall-clock times, speedups, the session statistics and each engine's
// simplex pivots (the cold path and the resumed path) land as one
// JSON-lines record per cell in BENCH_implication_batch.json.
//
// This is a plain main (not google-benchmark): each cell is one timed
// batch, the quantity of interest being the end-to-end ratio, not a
// steady-state microbenchmark.
//
// Usage: bench_implication_batch [--threads=N] [--out=FILE]

#include <cstdio>
#include <string>
#include <vector>

#include "base/exec_context.h"
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
      bench::ParseFlags(argc, argv, 1, "BENCH_implication_batch.json");

  // Two schema families. Chain schemas (GenerateChainSchema) are the
  // demonstration regime of the incremental engine: the base disequation
  // system is deep (many pivots from scratch) while each probe's delta is
  // small, so warm starts pay off by an order of magnitude. Clustered
  // schemas have much larger per-probe deltas (the query class joins many
  // compounds), the adversarial end where the delta assembly itself,
  // not pivoting, bounds the gain. The two small schemas at batch 8 are
  // the cells whose incremental <= from-scratch relation CI holds.
  struct Cell {
    std::string name;
    bool chain = false;
    ChainParams chain_params;
    ClusteredParams clustered_params;
    std::vector<int> batch_sizes = {4, 16, 64};
  };
  const std::vector<Cell> cells = {
      {"chain-6x2", true, {6, 2}, {}, {8}},
      {"clustered-2x3", false, {}, {2, 3, 2, false}, {8}},
      {"chain-12x3", true, {12, 3}, {}},
      {"chain-16x3", true, {16, 3}, {}},
      {"chain-20x4", true, {20, 4}, {}},
      {"clustered-4x4", false, {}, {4, 4, 2, false}},
      {"clustered-6x4", false, {}, {6, 4, 2, false}},
      {"clustered-3x5", false, {}, {3, 5, 2, false}},
  };

  bench::JsonLinesFile out(flags.out_path);
  if (!out.ok()) return 1;

  std::printf("EXP-I: incremental vs from-scratch implication batches "
              "(threads=%d)\n\n",
              flags.threads);
  std::printf("| schema | batch | from-scratch (ms) | incremental (ms) | "
              "speedup | warm starts | fallbacks |\n");
  std::printf("|---|---|---|---|---|---|---|\n");

  bool all_identical = true;
  for (const Cell& cell : cells) {
    Rng schema_rng(11);
    Schema schema = cell.chain
                        ? GenerateChainSchema(cell.chain_params)
                        : GenerateClusteredSchema(&schema_rng,
                                                  cell.clustered_params);
    for (int batch_size : cell.batch_sizes) {
      // Distinct queries only: the claim is about deltas and warm
      // starts, not about the memo absorbing duplicates.
      Rng query_rng(1000 + batch_size);
      std::vector<ImplicationQuery> queries =
          GenerateImplicationBatch(schema, &query_rng, batch_size,
                                   /*distinct=*/true);

      // The engines take turns answering the batch from fresh state and
      // each keeps its best time; the answers, stats and pivot counts
      // never change. Each run gets its own unlimited governor, which
      // only counts: its pivots are the cold solves' (from scratch) or
      // the base solve's plus every resumed probe's (incremental).
      ReasonerOptions options;
      options.num_threads = flags.threads;
      Result<std::vector<bool>> scratch_answers = std::vector<bool>();
      Result<std::vector<bool>> incremental_answers = std::vector<bool>();
      IncrementalStats stats;
      uint64_t scratch_pivots = 0;
      uint64_t incremental_pivots = 0;
      const auto [scratch_ms, incremental_ms] = bench::BestMsInTurn(
          [&] {
            ExecContext exec;
            ReasonerOptions governed = options;
            governed.exec = &exec;
            Reasoner scratch(&schema, governed);
            bench::Stopwatch watch;
            scratch_answers = scratch.RunImplicationBatch(queries);
            const double ms = watch.ElapsedMs();
            scratch_pivots = exec.progress().pivots_executed;
            return ms;
          },
          [&] {
            ExecContext exec;
            ReasonerOptions governed = options;
            governed.exec = &exec;
            IncrementalSession session(&schema, governed);
            bench::Stopwatch watch;
            incremental_answers = session.RunImplicationBatch(queries);
            const double ms = watch.ElapsedMs();
            stats = session.stats();
            incremental_pivots = exec.progress().pivots_executed;
            return ms;
          });
      if (!scratch_answers.ok()) {
        std::fprintf(stderr, "from-scratch: %s\n",
                     scratch_answers.status().ToString().c_str());
        return 1;
      }
      if (!incremental_answers.ok()) {
        std::fprintf(stderr, "incremental: %s\n",
                     incremental_answers.status().ToString().c_str());
        return 1;
      }
      bool identical =
          scratch_answers.value() == incremental_answers.value();
      all_identical = all_identical && identical;

      double speedup =
          incremental_ms > 0 ? scratch_ms / incremental_ms : 0.0;
      std::printf("| %s | %zu | %.1f | %.1f | %.2fx | %llu | %llu |%s\n",
                  cell.name.c_str(), queries.size(), scratch_ms,
                  incremental_ms, speedup,
                  static_cast<unsigned long long>(stats.warm_starts),
                  static_cast<unsigned long long>(stats.fallbacks),
                  identical ? "" : "  ANSWERS DIFFER (bug!)");
      std::fflush(stdout);

      bench::JsonRecord record;
      record.Add("bench", "implication_batch")
          .Add("schema", cell.name)
          .Add("num_classes", static_cast<int>(schema.num_classes()))
          .Add("batch", static_cast<int>(queries.size()))
          .Add("threads", flags.threads)
          .Add("from_scratch_ms", scratch_ms)
          .Add("incremental_ms", incremental_ms)
          .Add("speedup", speedup)
          .Add("answers_identical", identical)
          .Add("from_scratch_pivots", scratch_pivots)
          .Add("incremental_pivots", incremental_pivots)
          .Add("probes", stats.probes)
          .Add("warm_starts", stats.warm_starts)
          .Add("fallbacks", stats.fallbacks)
          .Add("memo_hits", stats.memo_hits)
          .Add("memo_misses", stats.memo_misses)
          .Add("clusters_reused", stats.clusters_reused)
          .Add("clusters_reenumerated", stats.clusters_reenumerated);
      out.Write(record);
    }
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: incremental answers differ from from-scratch\n");
    return 1;
  }
  std::printf("\nwrote %s\n", flags.out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
