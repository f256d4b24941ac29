// EXP-N driver: the sparse integer-row pivot kernel against the dense
// rational oracle.
//
// Workload: the Ψ LP phase (SolvePsi) on chain schemas, clustered
// schemas, and truncated prefixes of examples/schemas/dense_blowup.car,
// solved once per tableau kernel:
//
//   dense-rational  dense rows of BigInt-backed Rationals (the
//                   pre-optimization kernel, the baseline and oracle),
//   sparse          compressed sparse integer rows, int64 numerators over
//                   one denominator per row (production).
//
// Both kernels are exact and follow the identical Bland pivot sequence,
// so every cell asserts bit-identical solutions (support, per-class
// verdicts, integer certificate, pivot counts) across kernels AND across
// the sparse kernel at 1/2/8 threads; the run fails if any differ. Times,
// the speedup factor, promotion counts (rows moved to BigInt form) and
// tableau fill land as one JSON-lines record per cell in
// BENCH_pivot_kernel.json.
//
// This is a plain main (not google-benchmark): each cell is a handful of
// end-to-end SolvePsi calls, the quantity of interest being the
// dense-vs-sparse wall-time ratio.
//
// Usage: bench_pivot_kernel [--threads=N] [--out=FILE]
//   --threads=N  restrict the sparse-kernel thread sweep to just N (N > 0)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_harness.h"
#include "expansion/expansion.h"
#include "frontend/parser.h"
#include "solver/solve.h"
#include "workloads/generators.h"

namespace car {
namespace {

/// Everything SolvePsi computes that the exactness contract promises is
/// kernel- and thread-independent, pivot trajectory included.
bool SameSolution(const PsiSolution& a, const PsiSolution& b) {
  return a.cc_active == b.cc_active && a.ca_active == b.ca_active &&
         a.cr_active == b.cr_active &&
         a.class_satisfiable == b.class_satisfiable &&
         a.certificate.cc_count == b.certificate.cc_count &&
         a.certificate.ca_count == b.certificate.ca_count &&
         a.certificate.cr_count == b.certificate.cr_count &&
         a.fixpoint_rounds == b.fixpoint_rounds &&
         a.lp_solves == b.lp_solves && a.total_pivots == b.total_pivots;
}

/// One kernel configuration of a cell: the last solution it returned and
/// its best wall time.
struct KernelRun {
  SimplexKernel kernel;
  int threads;
  PsiSolution solution = {};
  double best_ms = 0;
};

/// Solves once with the run's kernel and thread count and keeps the best
/// time; false, after saying why, when the solve fails.
bool SolveOnce(const Expansion& expansion, int rep, KernelRun* run) {
  PsiSolverOptions options;
  options.kernel = run->kernel;
  options.num_threads = run->threads;
  bench::Stopwatch watch;
  auto solution = SolvePsi(expansion, options);
  const double ms = watch.ElapsedMs();
  if (!solution.ok()) {
    std::fprintf(stderr, "SolvePsi(%s): %s\n",
                 SimplexKernelToString(run->kernel),
                 solution.status().ToString().c_str());
    return false;
  }
  if (rep == 0 || ms < run->best_ms) run->best_ms = ms;
  run->solution = std::move(solution.value());
  return true;
}

/// The first `num_classes` class blocks of dense_blowup.car: a dense
/// one-cluster schema whose expansion (not its disequation system) is
/// the blowup, clipped to an expandable size. Returns an empty string if
/// the example file is unavailable.
std::string TruncatedDenseBlowup(int num_classes) {
#ifdef CAR_EXAMPLES_DIR
  std::ifstream file(std::string(CAR_EXAMPLES_DIR) + "/dense_blowup.car");
  if (!file) return "";
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string text = buffer.str();
  size_t position = 0;
  for (int i = 0; i < num_classes; ++i) {
    position = text.find("endclass", position);
    if (position == std::string::npos) return text;
    position += std::strlen("endclass");
  }
  return text.substr(0, position) + "\n";
#else
  (void)num_classes;
  return "";
#endif
}

int Main(int argc, char** argv) {
  const bench::Flags flags =
      bench::ParseFlags(argc, argv, 0, "BENCH_pivot_kernel.json");
  const std::vector<int> thread_sweep =
      flags.threads > 0 ? std::vector<int>{flags.threads}
                        : std::vector<int>{1, 2, 8};

  // Chain schemas are the LP-heavy regime (Ψ_S rows grow with the chain
  // while each row touches a constant number of unknowns — high
  // sparsity); clustered schemas add block structure; the dense_blowup
  // prefix is the expansion-heavy extreme whose Ψ system is nearly
  // empty (fill and promotions should both be ~0 there). The three
  // smallest cells are the ones whose sparse <= dense-rational relation
  // CI holds.
  struct Cell {
    std::string name;
    enum { kChain, kClustered, kDenseBlowup } family;
    ChainParams chain;
    ClusteredParams clustered;
    int blowup_classes = 0;
  };
  const std::vector<Cell> cells = {
      {"chain-10x3", Cell::kChain, {10, 3}, {}, 0},
      {"clustered-2x3", Cell::kClustered, {}, {2, 3, 2, false}, 0},
      {"dense-blowup-8", Cell::kDenseBlowup, {}, {}, 8},
      {"chain-16x3", Cell::kChain, {16, 3}, {}, 0},
      {"chain-24x3", Cell::kChain, {24, 3}, {}, 0},
      {"chain-32x4", Cell::kChain, {32, 4}, {}, 0},
      {"clustered-4x4", Cell::kClustered, {}, {4, 4, 2, false}, 0},
      {"clustered-6x4", Cell::kClustered, {}, {6, 4, 2, false}, 0},
      {"dense-blowup-12", Cell::kDenseBlowup, {}, {}, 12},
  };

  bench::JsonLinesFile out(flags.out_path);
  if (!out.ok()) return 1;

  std::printf("EXP-N: pivot kernels on the Psi LP phase\n\n");
  std::printf("| schema | dense-rational (ms) | sparse (ms) | speedup | "
              "fill | promotions |\n");
  std::printf("|---|---|---|---|---|---|\n");

  bool all_identical = true;
  for (const Cell& cell : cells) {
    // The expansion borrows the schema, so the schema must outlive it.
    Schema schema;
    if (cell.family == Cell::kDenseBlowup) {
      std::string text = TruncatedDenseBlowup(cell.blowup_classes);
      if (text.empty()) {
        std::fprintf(stderr, "skipping %s: example file unavailable\n",
                     cell.name.c_str());
        continue;
      }
      auto parsed = ParseSchema(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", cell.name.c_str(),
                     parsed.status().ToString().c_str());
        return 1;
      }
      schema = std::move(parsed.value());
    } else if (cell.family == Cell::kChain) {
      schema = GenerateChainSchema(cell.chain);
    } else {
      Rng rng(11);
      schema = GenerateClusteredSchema(&rng, cell.clustered);
    }
    auto built = BuildExpansion(schema);
    if (!built.ok()) {
      std::fprintf(stderr, "%s: %s\n", cell.name.c_str(),
                   built.status().ToString().c_str());
      return 1;
    }
    Expansion expansion = std::move(built.value());

    // Dense-rational, then the production kernel swept over thread
    // counts: certificate post-processing parallelizes, the answer
    // must not change. The configurations take turns, rep by rep, so a
    // slow stretch of the machine lands on all of them alike; each keeps
    // its best time (the minimum smooths scheduler noise in the tiny
    // cells). Stats come from the first sweep entry; the sparse time is
    // the best across the sweep (the LP itself is sequential either way).
    std::vector<KernelRun> runs = {{SimplexKernel::kDenseRational, 1}};
    for (int threads : thread_sweep) {
      runs.push_back({SimplexKernel::kSparse, threads});
    }
    for (int rep = 0; rep < bench::kTimedReps; ++rep) {
      for (KernelRun& run : runs) {
        if (!SolveOnce(expansion, rep, &run)) return 1;
      }
    }
    const KernelRun& dense_rational = runs[0];
    double sparse_ms = runs[1].best_ms;
    bool identical = true;
    for (size_t i = 1; i < runs.size(); ++i) {
      identical =
          identical && SameSolution(dense_rational.solution, runs[i].solution);
      sparse_ms = std::min(sparse_ms, runs[i].best_ms);
    }
    all_identical = all_identical && identical;

    const PsiSolution& stats = runs[1].solution;
    double total_speedup =
        sparse_ms > 0 ? dense_rational.best_ms / sparse_ms : 0.0;
    double fill = stats.peak_tableau_cells > 0
                      ? static_cast<double>(stats.peak_tableau_nonzeros) /
                            static_cast<double>(stats.peak_tableau_cells)
                      : 0.0;
    std::printf(
        "| %s | %.2f | %.2f | %.2fx | %.3f | %llu |%s\n", cell.name.c_str(),
        dense_rational.best_ms, sparse_ms, total_speedup, fill,
        static_cast<unsigned long long>(stats.scalar_promotions),
        identical ? "" : "  ANSWERS DIFFER (bug!)");
    std::fflush(stdout);

    bench::JsonRecord record;
    record.Add("bench", "pivot_kernel")
        .Add("schema", cell.name)
        .Add("threads_swept", static_cast<int>(thread_sweep.size()))
        .Add("dense_rational_ms", dense_rational.best_ms)
        .Add("sparse_ms", sparse_ms)
        .Add("speedup_total", total_speedup)
        .Add("answers_identical", identical)
        .Add("lp_solves", static_cast<uint64_t>(stats.lp_solves))
        .Add("pivots", static_cast<uint64_t>(stats.total_pivots))
        .Add("lp_variables", static_cast<uint64_t>(stats.largest_lp_variables))
        .Add("lp_constraints",
             static_cast<uint64_t>(stats.largest_lp_constraints))
        .Add("scalar_promotions", stats.scalar_promotions)
        .Add("peak_tableau_nonzeros", stats.peak_tableau_nonzeros)
        .Add("peak_tableau_cells", stats.peak_tableau_cells)
        .Add("fill", fill);
    out.Write(record);
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: kernels returned different solutions\n");
    return 1;
  }
  std::printf("\nwrote %s\n", flags.out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
