// Seeded inputs of the three benchmark workloads. The program under test
// only ever sees what these functions generate: schema texts printed by
// libcar's printer and textual implication queries.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/schema.h"

namespace perfbench {

/// One schema a tenant can serve.
struct Variant {
  /// The generated schema; the answer key is computed on it.
  std::unique_ptr<car::Schema> schema;
  /// PrintSchema(*schema): the text shipped to the server.
  std::string text;
};

struct Tenant {
  std::string name;
  std::vector<Variant> variants;
};

/// One client request of a serving trace.
struct ServeOp {
  enum class Kind { kOpen, kMutate, kQuery };
  Kind kind = Kind::kQuery;
  int tenant = 0;
  /// The variant the request opens, mutates to, or queries.
  int variant = 0;
  /// kQuery only: the batch's query lines.
  std::vector<std::string> queries;
};

struct ServeInputs {
  std::vector<Tenant> tenants;
  /// Set-up requests: each served tenant's open and first cold batch.
  std::vector<ServeOp> setup;
  /// The timed requests, in order.
  std::vector<ServeOp> timed;
  /// Session-cache capacity the server is configured with.
  uint64_t max_sessions = 64;
  /// Whether the server persists warm state (car_serve --state-dir).
  bool persistent = false;
};

/// Long-lived chain tenants that only get new questions: every query is
/// canonically distinct from everything its session has seen.
ServeInputs MakeServeFresh(uint64_t seed, size_t timed_ops);

/// More tenants than cache slots, skewed popularity, open/mutate visits
/// followed by short bursts that repeat a small per-session query pool.
ServeInputs MakeServeChurn(uint64_t seed, size_t timed_ops);

/// What a generator family documents about its schemas' satisfiability.
enum class DocumentedAnswer {
  kNone,
  /// Every class is satisfiable.
  kAllSatisfiable,
  /// The core classes (named E<i>) are unsatisfiable, all others
  /// satisfiable (GenerateDenseUnsatSchema).
  kCoreUnsatisfiable,
};

struct CorpusEntry {
  std::string family;
  /// Family and size, e.g. "dense_unsat-8+3".
  std::string label;
  std::string text;
  DocumentedAnswer documented = DocumentedAnswer::kNone;
};

struct CorpusInputs {
  std::vector<CorpusEntry> entries;
  /// The timed checks, as indexes into `entries`: whole passes over the
  /// corpus, each in its own seeded order, at least as many as asked for.
  std::vector<int> order;
};

/// A seeded corpus mixing dense clustered, dense_blowup, dense_unsat,
/// chain, hierarchy and small random general schemas.
CorpusInputs MakeCorpus(uint64_t seed, size_t timed_ops);

/// FNV-1a over everything the program would be sent.
uint64_t HashInputs(const ServeInputs& inputs);
uint64_t HashInputs(const CorpusInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
