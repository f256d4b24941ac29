// EXP-S driver: cold rebuild vs snapshot restore of the warm state.
//
// Workload: three generated schema families (chain, clustered,
// hierarchy). For each schema a cold IncrementalSession pays the base
// expansion + Ψ solve and answers a deterministic query batch; the warm
// state is then serialized through the persistent snapshot codec
// (persist/snapshot_format.h) and restored into a brand-new session,
// which answers the identical batch. The restored session must produce
// bit-identical answers with ZERO base builds (base_restores == 1,
// base_builds == 0) — a single differing answer or a sneaky cold
// rebuild fails the run.
//
// The quantities of interest are the cold wall-clock (build + answer
// batch), the restore wall-clock (deserialize + answer the same batch),
// the serialize cost, and the snapshot size. One JSON-lines record per
// schema lands in BENCH_snapshot.json; bench/check_bench.py holds
// restore <= cold.
//
// Usage: bench_snapshot [--threads=N] [--out=FILE]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_harness.h"
#include "query_pool.h"
#include "reasoner/incremental.h"
#include "reasoner/query_text.h"
#include "reasoner/reasoner.h"
#include "workloads/generators.h"

namespace car {
namespace {

struct Cell {
  std::string name;
  std::unique_ptr<Schema> schema;
};

int Main(int argc, char** argv) {
  const bench::Flags flags =
      bench::ParseFlags(argc, argv, 1, "BENCH_snapshot.json");
  const int pool_size = 64;

  std::vector<Cell> cells;
  {
    Rng rng(23);
    cells.push_back({"chain", std::make_unique<Schema>(
        GenerateChainSchema({12, 2}))});
    cells.push_back({"clustered", std::make_unique<Schema>(
        GenerateClusteredSchema(&rng, {2, 3, 2, false}))});
    cells.push_back({"hierarchy", std::make_unique<Schema>(
        GenerateHierarchy(&rng, {15, 1, 3}))});
  }

  bench::JsonLinesFile out(flags.out_path);
  if (!out.ok()) return 1;

  std::printf("EXP-S: cold rebuild vs snapshot restore (threads=%d)\n\n",
              flags.threads);
  std::printf("| schema | queries | cold (ms) | save (ms) | restore (ms) "
              "| speedup | bytes |\n");
  std::printf("|---|---|---|---|---|---|---|\n");

  bool all_ok = true;
  for (Cell& cell : cells) {
    Rng rng(911);
    std::vector<std::string> pool =
        bench::MakeQueryPool(*cell.schema, &rng, pool_size);
    std::vector<ImplicationQuery> queries;
    for (const std::string& line : pool) {
      auto query =
          ParseQueryTokens(*cell.schema, TokenizeQueryLine(line));
      if (!query.ok()) {
        std::fprintf(stderr, "query parse: %s\n",
                     query.status().ToString().c_str());
        return 1;
      }
      queries.push_back(std::move(query.value()));
    }

    ReasonerOptions options;
    options.num_threads = flags.threads;

    // Cold: build the base (expansion + Ψ solve) and answer the batch.
    IncrementalSession cold(cell.schema.get(), options);
    bench::Stopwatch cold_watch;
    auto cold_answers = cold.RunImplicationBatch(queries);
    const double cold_ms = cold_watch.ElapsedMs();
    if (!cold_answers.ok()) {
      std::fprintf(stderr, "cold batch: %s\n",
                   cold_answers.status().ToString().c_str());
      return 1;
    }

    // Serialize the warm state through the persistent codec.
    bench::Stopwatch save_watch;
    auto bytes = cold.Serialize();
    const double save_ms = save_watch.ElapsedMs();
    if (!bytes.ok()) {
      std::fprintf(stderr, "serialize: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }

    // Restore: a brand-new session adopts the snapshot and answers the
    // identical batch. The memo carries over, so every query is a memo
    // hit; base_builds must stay zero.
    IncrementalSession restored(cell.schema.get(), options);
    bench::Stopwatch restore_watch;
    Status adopted = restored.Deserialize(bytes.value());
    if (!adopted.ok()) {
      std::fprintf(stderr, "deserialize: %s\n",
                   adopted.ToString().c_str());
      return 1;
    }
    auto restored_answers = restored.RunImplicationBatch(queries);
    const double restore_ms = restore_watch.ElapsedMs();
    if (!restored_answers.ok()) {
      std::fprintf(stderr, "restored batch: %s\n",
                   restored_answers.status().ToString().c_str());
      return 1;
    }

    const IncrementalStats stats = restored.stats();
    const bool answers_identical =
        cold_answers.value() == restored_answers.value();
    const bool no_rebuild =
        stats.base_builds == 0 && stats.base_restores == 1;
    if (!answers_identical) {
      std::fprintf(stderr, "ANSWER MISMATCH on '%s'\n", cell.name.c_str());
    }
    if (!no_rebuild) {
      std::fprintf(stderr,
                   "'%s' restored session rebuilt cold (builds=%llu, "
                   "restores=%llu)\n",
                   cell.name.c_str(),
                   static_cast<unsigned long long>(stats.base_builds),
                   static_cast<unsigned long long>(stats.base_restores));
    }
    all_ok = all_ok && answers_identical && no_rebuild;

    const double speedup = restore_ms > 0 ? cold_ms / restore_ms : 0.0;
    std::printf("| %s | %zu | %.2f | %.2f | %.2f | %.2fx | %zu |\n",
                cell.name.c_str(), queries.size(), cold_ms, save_ms,
                restore_ms, speedup, bytes.value().size());

    bench::JsonRecord record;
    record.Add("bench", "snapshot")
        .Add("schema", cell.name)
        .Add("threads", flags.threads)
        .Add("queries", static_cast<uint64_t>(queries.size()))
        .Add("cold_ms", cold_ms)
        .Add("save_ms", save_ms)
        .Add("restore_ms", restore_ms)
        .Add("speedup", speedup)
        .Add("snapshot_bytes", static_cast<uint64_t>(bytes.value().size()))
        .Add("answers_identical", answers_identical)
        .Add("base_builds", stats.base_builds)
        .Add("base_restores", stats.base_restores);
    out.Write(record);
  }

  std::printf("\nwrote %s\n", flags.out_path.c_str());
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: restore not equivalent — see messages "
                         "above\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
