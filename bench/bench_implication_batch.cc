// EXP-I driver: incremental vs from-scratch implication batches.
//
// Workload: clustered schemas (GenerateClusteredSchema) probed with a
// deterministic mix of isa / disjointness / cardinality / participation
// implication queries. For each (schema, batch size) cell the same batch
// is answered twice — by the from-scratch engine (one full expansion +
// Ψ solve per query) and by the incremental session (one base solve,
// then per-probe expansion deltas, warm-started LP re-solves, and the
// canonical-form memo) — and the answers are required to be identical.
// Wall-clock times, speedups and the session statistics land as one
// JSON-lines record per cell in BENCH_implication_batch.json.
//
// This is a plain main (not google-benchmark): each cell is one timed
// batch, the quantity of interest being the end-to-end ratio, not a
// steady-state microbenchmark.
//
// Usage: bench_implication_batch [--threads=N] [--smoke] [--out=FILE]
//   --smoke  tiny workload for CI: one small schema, batch of 8

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
  std::string out_path = "BENCH_implication_batch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      num_threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  // Two schema families. Chain schemas (GenerateChainSchema) are the
  // demonstration regime of the incremental engine: the base disequation
  // system is deep (many pivots from scratch) while each probe's delta is
  // small, so warm starts pay off by an order of magnitude. Clustered
  // schemas have much larger per-probe deltas (the query class joins many
  // compounds), the adversarial end where the delta assembly itself,
  // not pivoting, bounds the gain.
  struct Cell {
    std::string name;
    bool chain = false;
    ChainParams chain_params;
    ClusteredParams clustered_params;
  };
  std::vector<Cell> cells;
  if (smoke) {
    cells.push_back({"chain-6x2", true, {6, 2}, {}});
    cells.push_back({"clustered-2x3", false, {}, {2, 3, 2, false}});
  } else {
    cells.push_back({"chain-12x3", true, {12, 3}, {}});
    cells.push_back({"chain-16x3", true, {16, 3}, {}});
    cells.push_back({"chain-20x4", true, {20, 4}, {}});
    cells.push_back({"clustered-4x4", false, {}, {4, 4, 2, false}});
    cells.push_back({"clustered-6x4", false, {}, {6, 4, 2, false}});
    cells.push_back({"clustered-3x5", false, {}, {3, 5, 2, false}});
  }
  std::vector<int> batch_sizes =
      smoke ? std::vector<int>{8} : std::vector<int>{4, 16, 64};

  bench::JsonLinesFile out(out_path);
  if (!out.ok()) {
    std::fprintf(stderr, "cannot open '%s'\n", out_path.c_str());
    return 1;
  }

  std::printf("EXP-I: incremental vs from-scratch implication batches "
              "(threads=%d%s)\n\n",
              num_threads, smoke ? ", smoke" : "");
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
    for (int batch_size : batch_sizes) {
      // Distinct queries only: the claim is about deltas and warm
      // starts, not about the memo absorbing duplicates.
      Rng query_rng(1000 + batch_size);
      std::vector<ImplicationQuery> queries =
          GenerateImplicationBatch(schema, &query_rng, batch_size,
                                   /*distinct=*/true);

      ReasonerOptions scratch_options;
      scratch_options.num_threads = num_threads;
      Reasoner scratch(&schema, scratch_options);
      auto scratch_start = std::chrono::steady_clock::now();
      auto scratch_answers = scratch.RunImplicationBatch(queries);
      double scratch_ms = MillisSince(scratch_start);
      if (!scratch_answers.ok()) {
        std::fprintf(stderr, "from-scratch: %s\n",
                     scratch_answers.status().ToString().c_str());
        return 1;
      }

      IncrementalSession session(&schema, scratch_options);
      auto incremental_start = std::chrono::steady_clock::now();
      auto incremental_answers = session.RunImplicationBatch(queries);
      double incremental_ms = MillisSince(incremental_start);
      if (!incremental_answers.ok()) {
        std::fprintf(stderr, "incremental: %s\n",
                     incremental_answers.status().ToString().c_str());
        return 1;
      }
      bool identical =
          scratch_answers.value() == incremental_answers.value();
      all_identical = all_identical && identical;

      IncrementalStats stats = session.stats();
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
          .Add("threads", num_threads)
          .Add("smoke", smoke)
          .Add("from_scratch_ms", scratch_ms)
          .Add("incremental_ms", incremental_ms)
          .Add("speedup", speedup)
          .Add("answers_identical", identical)
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
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
