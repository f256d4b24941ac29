// EXP-U driver: lazy UNSAT via infeasibility certificates vs eager
// expansion on dense unsatisfiable schemas.
//
// Workload: the dense-unsat family (GenerateDenseUnsatSchema) — the
// dense-blowup chaff cluster (2^chaff consistent subsets, no Ψ content)
// plus a pairwise-disjoint core chain whose terminal cardinality
// contradiction makes every core class unsatisfiable. The eager path
// must enumerate the chaff before it can say anything; the lazy engine
// probes the exhausted core targets, learns Farkas certificates as
// blocking constraints, and concludes UNSAT from their closure after
// materializing a sliver of the expansion. For each cell the eager
// CheckSchema runs when the cell is within the enumeration cap, and the
// lazy engine runs at 1/2/8 threads; all comparable verdicts must be
// identical classwise.
//
// The largest cell (unsat-22+4) is the headline regime: 2^22 subsets,
// beyond the eager cap — eager cannot answer at all while lazy returns
// a conclusive UNSAT with zero fallbacks (gated in CI).
//
// Usage: bench_lazy_unsat [--threads=N] [--out=FILE]
//
// Output: one JSON-lines record per cell in BENCH_lazy_unsat.json;
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
      bench::ParseFlags(argc, argv, 1, "BENCH_lazy_unsat.json");

  struct Cell {
    std::string name;
    DenseUnsatParams params;
  };
  const std::vector<Cell> cells = {
      {"unsat-8+3", {8, 3, 2}},
      {"unsat-10+3", {10, 3, 2}},
      {"unsat-12+4", {12, 4, 2}},
      {"unsat-14+4", {14, 4, 2}},
      {"unsat-16+4", {16, 4, 2}},
      // Past the eager enumeration cap: eager cannot answer at all.
      {"unsat-22+4", {22, 4, 2}},
  };

  bench::JsonLinesFile out(flags.out_path);
  if (!out.ok()) return 1;

  std::printf("EXP-U: lazy UNSAT (blocking constraints) vs eager expansion "
              "on dense unsat schemas (threads=%d)\n\n",
              flags.threads);
  std::printf("| schema | eager (ms) | lazy (ms) | speedup | materialized "
              "| total | blocked | closures | fallbacks |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|\n");

  bool all_identical = true;
  bool beyond_cap_concluded = false;
  for (const Cell& cell : cells) {
    Schema schema = GenerateDenseUnsatSchema(cell.params);

    bench::LazyVsEager run;
    if (!bench::RunLazyVsEager(schema, flags.threads, &run)) return 1;
    const SatReport& report = *run.lazy;
    const bool eager_completed = run.eager.ok();
    // Analytic full-expansion size (test-verified exact), reported even
    // where the eager build tripped before counting.
    const uint64_t compounds_total = DenseUnsatCompoundCount(cell.params);
    all_identical = all_identical && run.identical;
    const uint64_t materialized = report.compounds_materialized;
    const uint64_t rounds = report.refinement_rounds;
    const uint64_t blocked = report.blocking_constraints;
    const uint64_t closures = report.certificate_closures;
    const bool lazy_conclusive = report.lazy;
    const bool verdict_unsat = report.verdict == Verdict::kUnsat;
    const uint64_t fallbacks = lazy_conclusive ? 0 : 1;
    if (!eager_completed && lazy_conclusive && verdict_unsat &&
        fallbacks == 0) {
      beyond_cap_concluded = true;
    }

    double speedup = (eager_completed && run.lazy_ms > 0)
                         ? run.eager_ms / run.lazy_ms
                         : 0.0;
    std::printf(
        "| %s | %s | %.2f | %s | %llu | %llu | %llu | %llu | %llu |%s\n",
        cell.name.c_str(),
        eager_completed ? std::to_string(run.eager_ms).c_str() : "n/a (cap)",
        run.lazy_ms,
        eager_completed ? (std::to_string(speedup) + "x").c_str() : "-",
        static_cast<unsigned long long>(materialized),
        static_cast<unsigned long long>(compounds_total),
        static_cast<unsigned long long>(blocked),
        static_cast<unsigned long long>(closures),
        static_cast<unsigned long long>(fallbacks),
        run.identical ? "" : "  ANSWERS DIFFER (bug!)");
    std::fflush(stdout);

    bench::JsonRecord record;
    record.Add("bench", "lazy_unsat")
        .Add("schema", cell.name)
        .Add("num_classes", static_cast<int>(schema.num_classes()))
        .Add("threads", flags.threads)
        .Add("eager_completed", eager_completed)
        .Add("eager_ms", eager_completed ? run.eager_ms : 0.0)
        .Add("lazy_ms", run.lazy_ms);
    // No speedup field on beyond-cap cells: "eager could not run" must
    // not aggregate as a zero ratio.
    if (eager_completed) record.Add("speedup", speedup);
    record.Add("answers_identical", run.identical)
        .Add("lazy_conclusive", lazy_conclusive)
        .Add("verdict_unsat", verdict_unsat)
        .Add("compounds_materialized", materialized)
        .Add("compounds_total", compounds_total)
        .Add("blocking_constraints", blocked)
        .Add("certificate_closures", closures)
        .Add("refinement_rounds", rounds)
        .Add("fallbacks", fallbacks);
    out.Write(record);
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: lazy answers differ from eager\n");
    return 1;
  }
  if (!beyond_cap_concluded) {
    std::fprintf(stderr,
                 "FAIL: no cell where eager tripped its cap but lazy "
                 "concluded UNSAT without fallback\n");
    return 1;
  }
  std::printf("\nwrote %s\n", flags.out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
