// EXP-T driver: lazy (counterexample-guided) vs eager expansion on
// dense schemas.
//
// Workload: the dense-blowup family (GenerateDenseBlowupSchema) — one
// chaff cluster whose 2^chaff subsets are all consistent, plus a small
// attribute-bearing core so the verdict needs real Ψ content. For each
// cell the full CheckSchema verdict is computed eagerly (when the cell
// is within the eager enumeration cap) and lazily at 1/2/8 threads; all
// comparable verdicts are required to be identical, classwise. The lazy
// run must conclude from a strict subset of the compound classes; the
// interesting ratio is wall-clock end-to-end, so this is a plain main
// (not google-benchmark) like the other differential drivers.
//
// The largest cell (chaff=22) is the dense_blowup.car regime: 2^22
// subsets, beyond the eager cap — eager cannot answer at all and the
// cell records the lazy verdict alone (eager_completed=false).
//
// Usage: bench_lazy_expansion [--threads=N] [--out=FILE]
//
// Output: one JSON-lines record per cell in BENCH_lazy_expansion.json;
// bench/check_bench.py holds lazy <= eager on the two smallest cells.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "reasoner/reasoner.h"
#include "workloads/generators.h"

namespace car {
namespace {

int Main(int argc, char** argv) {
  const bench::Flags flags =
      bench::ParseFlags(argc, argv, 1, "BENCH_lazy_expansion.json");

  struct Cell {
    std::string name;
    DenseBlowupParams params;
  };
  const std::vector<Cell> cells = {
      {"dense-8+3", {8, 3, 2}},
      {"dense-10+3", {10, 3, 2}},
      {"dense-12+4", {12, 4, 2}},
      {"dense-14+4", {14, 4, 2}},
      {"dense-16+4", {16, 4, 2}},
      // The dense_blowup.car regime: past the eager enumeration cap.
      {"dense-22+4", {22, 4, 2}},
  };

  bench::JsonLinesFile out(flags.out_path);
  if (!out.ok()) return 1;

  std::printf("EXP-T: lazy (CEGAR) vs eager expansion on dense schemas "
              "(threads=%d)\n\n",
              flags.threads);
  std::printf("| schema | eager (ms) | lazy (ms) | speedup | materialized "
              "| total | rounds | fallbacks |\n");
  std::printf("|---|---|---|---|---|---|---|---|\n");

  bool all_identical = true;
  for (const Cell& cell : cells) {
    Schema schema = GenerateDenseBlowupSchema(cell.params);

    bench::LazyVsEager run;
    if (!bench::RunLazyVsEager(schema, flags.threads, &run)) return 1;
    const SatReport& report = *run.lazy;
    const bool eager_completed = run.eager.ok();
    // Analytic full-expansion size (test-verified exact): beyond-cap
    // cells would otherwise report 0 — as if there were nothing to
    // avoid — exactly where the avoided work is largest.
    const uint64_t compounds_total = DenseBlowupCompoundCount(cell.params);
    all_identical = all_identical && run.identical;
    const uint64_t materialized = report.compounds_materialized;
    const uint64_t rounds = report.refinement_rounds;
    const uint64_t fallbacks = report.lazy ? 0 : 1;

    double speedup = (eager_completed && run.lazy_ms > 0)
                         ? run.eager_ms / run.lazy_ms
                         : 0.0;
    std::printf("| %s | %s | %.2f | %s | %llu | %llu | %llu | %llu |%s\n",
                cell.name.c_str(),
                eager_completed ? std::to_string(run.eager_ms).c_str()
                                : "n/a (cap)",
                run.lazy_ms,
                eager_completed ? (std::to_string(speedup) + "x").c_str()
                                : "-",
                static_cast<unsigned long long>(materialized),
                static_cast<unsigned long long>(compounds_total),
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(fallbacks),
                run.identical ? "" : "  ANSWERS DIFFER (bug!)");
    std::fflush(stdout);

    bench::JsonRecord record;
    record.Add("bench", "lazy_expansion")
        .Add("schema", cell.name)
        .Add("num_classes", static_cast<int>(schema.num_classes()))
        .Add("threads", flags.threads)
        .Add("eager_completed", eager_completed)
        .Add("eager_ms", eager_completed ? run.eager_ms : 0.0)
        .Add("lazy_ms", run.lazy_ms);
    // A speedup only exists where eager completed; on beyond-cap cells
    // the field is OMITTED (not zero) so downstream aggregation cannot
    // mistake "eager could not run" for "lazy was infinitely slower".
    if (eager_completed) record.Add("speedup", speedup);
    record.Add("answers_identical", run.identical)
        .Add("compounds_materialized", materialized)
        .Add("compounds_total", compounds_total)
        .Add("refinement_rounds", rounds)
        .Add("fallbacks", fallbacks);
    out.Write(record);
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: lazy answers differ from eager\n");
    return 1;
  }
  std::printf("\nwrote %s\n", flags.out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
