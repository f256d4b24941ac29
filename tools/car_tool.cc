// car_tool — the command-line front end of libcar.
//
//   car_tool [--threads=N] check <schema-file>
//                                        validate + satisfiability report
//   car_tool print <schema-file>         canonical pretty-print
//   car_tool stats <schema-file>         fragment, clusters, expansion sizes
//   car_tool model <schema-file>         synthesize & dump a database state
//   car_tool lint <schema-file>          static schema analysis: paper-
//                                        derived diagnostics (isa cycles,
//                                        inherited cardinality
//                                        contradictions, unsatisfiable
//                                        classes, dead relations,
//                                        redundant isa edges) with source
//                                        spans; --format=json for tooling,
//                                        --werror promotes warnings
//   car_tool reify <schema-file>         print the Theorem-4.5 reification
//   car_tool implications <schema-file> <class>
//                                        implied superclasses, disjointness
//                                        and cardinality bounds for a class
//   car_tool query <schema-file> --queries=<file>
//                                        batch implication queries from a
//                                        file, answered by the incremental
//                                        engine (one base solve + expansion
//                                        deltas + warm-started LPs + memo);
//                                        --from-scratch opts out
//   car_tool snapshot save <schema-file> <state-dir>
//                                        build a warm session (running
//                                        --queries first if given) and
//                                        persist it durably
//   car_tool snapshot load <schema-file> <state-dir>
//                                        restore the persisted warm state
//                                        and report it (answers --queries
//                                        warm if given)
//   car_tool snapshot verify <schema-file> <state-dir>
//                                        full offline integrity check of
//                                        the persisted snapshot (header,
//                                        checksums, decode, fingerprint,
//                                        restorability); prints the reason
//                                        a file would be quarantined
//   (snapshot commands address the tenant named by --tenant=, default
//   "default"; car_tool --version prints the snapshot format version and
//   ABI fingerprint)
//
// --threads=N runs phase 1/phase 2 and implication batches on N worker
// threads (0 = hardware concurrency); results are bit-identical to the
// default serial execution (--threads=1).
//
// Resource governance: --deadline-ms=, --memory-budget-mb= and
// --work-budget= bound the run. A tripped limit yields the UNKNOWN
// verdict (exit 2) with a structured one-line report instead of an
// error. CAR_FAULT_INJECT=<n> (environment) deterministically injects a
// trip at the n-th work charge, for testing.
//
// Exit codes: 0 success (for `check`: all classes satisfiable),
// 1 (`check` only): schema valid but some class is unsatisfiable,
// 2 verdict unknown (a deadline/budget/limit tripped before the answer),
// 3 usage or processing error.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "core/car.h"
#include "persist/snapshot_format.h"
#include "persist/snapshot_store.h"
#include "reasoner/incremental.h"
#include "reasoner/query_text.h"
#include "reasoner/unrestricted.h"
#include "semantics/dump.h"

namespace car {
namespace {

constexpr int kExitSat = 0;
constexpr int kExitUnsat = 1;
constexpr int kExitUnknown = 2;
constexpr int kExitError = 3;

/// Worker threads for everything parallelizable; set by --threads.
int g_num_threads = 1;
/// Query file for the `query` command; set by --queries=.
std::string g_queries_path;
/// Lazy (counterexample-guided) expansion; set by --lazy-expansion.
bool g_lazy_expansion = false;
/// Answer the `query` batch from scratch instead of incrementally.
bool g_from_scratch = false;
/// Output format of the `lint` command ("text" or "json"); --format=.
std::string g_format = "text";
/// Tenant the `snapshot` commands address; --tenant=.
std::string g_tenant = "default";
/// Promote lint warnings to errors (exit-code relevant); --werror.
bool g_werror = false;
/// Governor settings; 0 = unlimited. Set by the --deadline-ms=,
/// --memory-budget-mb= and --work-budget= flags.
uint64_t g_deadline_ms = 0;
uint64_t g_memory_budget_mb = 0;
uint64_t g_work_budget = 0;

/// The tool-wide execution context, configured from the flags above (and
/// the CAR_FAULT_INJECT environment knob) at startup. Always attached, so
/// every command degrades to the UNKNOWN verdict instead of an error when
/// a limit trips.
ExecContext g_exec;

void ConfigureExecContext() {
  if (g_deadline_ms > 0) {
    g_exec.SetDeadlineAfter(std::chrono::milliseconds(g_deadline_ms));
  }
  if (g_memory_budget_mb > 0) {
    g_exec.SetMemoryBudget(g_memory_budget_mb * 1024 * 1024);
  }
  if (g_work_budget > 0) {
    g_exec.SetWorkBudget(g_work_budget);
  }
  const char* inject = std::getenv("CAR_FAULT_INJECT");
  if (inject != nullptr && *inject != '\0') {
    g_exec.InjectTripAfter(std::strtoull(inject, nullptr, 10));
  }
}

/// Prints the UNKNOWN verdict line for a tripped governor and returns
/// kExitUnknown; returns kExitError when the failure was not the
/// governor's doing. Only deterministic LimitReport fields are printed
/// (never the progress counters), so governed aborts produce
/// bit-identical output for every --threads value.
int ReportFailure(const char* stage, const Status& status) {
  if (g_exec.tripped()) {
    std::cout << "UNKNOWN: " << g_exec.report().ToString() << "\n";
    return kExitUnknown;
  }
  std::cerr << stage << ": " << status << "\n";
  return kExitError;
}

int Usage() {
  std::cerr
      << "usage: car_tool [options] <command> <schema-file> [args]\n"
         "commands:\n"
         "  check <file>                validate + satisfiability report\n"
         "  print <file>                canonical pretty-print\n"
         "  stats <file>                fragment, clusters, expansion\n"
         "  lint <file>                 static analysis diagnostics\n"
         "                              (--format=text|json, --werror)\n"
         "  model <file>                synthesize a database state\n"
         "  reify <file>                reify n-ary relations (Thm 4.5)\n"
         "  implications <file> <class> implied facts about one class\n"
         "  snapshot save <file> <dir>  persist a warm session snapshot\n"
         "  snapshot load <file> <dir>  restore + report the snapshot\n"
         "  snapshot verify <file> <dir> offline snapshot integrity check\n"
         "  query <file> --queries=<qf> batch implication queries; one\n"
         "                              query per line:\n"
         "                                isa A B\n"
         "                                disjoint A B\n"
         "                                min-card A att N\n"
         "                                max-card A att N|inf\n"
         "                                min-part A Rel role N\n"
         "                                max-part A Rel role N|inf\n"
         "                              (att may be inv:att; '#' comments\n"
         "                              and blank lines are skipped)\n"
         "options:\n"
         "  --queries=<file>            query file for the `query` command\n"
         "  --from-scratch              `query` only: disable the\n"
         "                              incremental engine\n"
         "  --lazy-expansion            counterexample-guided expansion:\n"
         "                              answer over a materialized subset\n"
         "                              of the compounds when conclusive,\n"
         "                              eager fallback otherwise (answers\n"
         "                              identical; see DESIGN.md §5i)\n"
         "  --format=text|json          `lint` only: output format\n"
         "  --werror                    `lint` only: treat warnings as\n"
         "                              errors\n"
         "  --tenant=NAME               `snapshot` only: tenant name\n"
         "                              (default \"default\")\n"
         "  --version                   print snapshot format/ABI, exit\n"
         "  --threads=N                 worker threads (1 = serial,\n"
         "                              0 = hardware concurrency)\n"
         "  --deadline-ms=N             abort after N milliseconds\n"
         "  --memory-budget-mb=N        bound tracked allocations to N MiB\n"
         "  --work-budget=N             bound abstract work units to N\n"
         "exit codes:\n"
         "  0  success; for `check`: every class satisfiable; for\n"
         "     `lint`: no errors (warnings and notes allowed)\n"
         "  1  `check`: some class is unsatisfiable; `lint`: at least\n"
         "     one error-severity diagnostic (with --werror: or warning)\n"
         "  2  unknown: a deadline/budget/limit tripped first\n"
         "     (a one-line `UNKNOWN: limit=... phase=... count=...`\n"
         "     report is printed on stdout)\n"
         "  3  usage or processing error\n";
  return kExitError;
}

ReasonerOptions MakeReasonerOptions() {
  ReasonerOptions options;
  options.num_threads = g_num_threads;
  options.exec = &g_exec;
  options.lazy_expansion = g_lazy_expansion;
  return options;
}

ExpansionOptions MakeExpansionOptions() {
  ExpansionOptions options;
  options.num_threads = g_num_threads;
  options.exec = &g_exec;
  return options;
}

Result<Schema> Load(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return NotFound(StrCat("cannot open '", path, "'"));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseSchema(buffer.str());
}

int Check(Schema& schema) {
  Reasoner reasoner(&schema, MakeReasonerOptions());
  auto report = reasoner.CheckSchema();
  if (!report.ok()) return ReportFailure("error", report.status());
  if (report->verdict == Verdict::kUnknown) {
    std::cout << "UNKNOWN: " << report->limit.ToString() << "\n";
    return kExitUnknown;
  }
  std::cout << schema.Summary() << "\n";
  if (g_lazy_expansion) {
    // Under --lazy-expansion, num_compound_classes counts the compounds
    // the answering engine actually held: the materialized subset when
    // the lazy engine concluded (report->lazy), the full expansion when
    // it fell back to eager (refinement-rounds/materialized then count
    // the abandoned lazy attempt).
    std::cout << "lazy: " << (report->lazy ? "conclusive" : "fallback")
              << " refinement-rounds=" << report->refinement_rounds
              << " compounds-materialized=" << report->compounds_materialized
              << " compounds-total=" << report->num_compound_classes
              << " blocking-constraints=" << report->blocking_constraints
              << " certificate-closures=" << report->certificate_closures
              << "\n";
  }
  if (report->verdict == Verdict::kSat) {
    std::cout << "OK: all classes satisfiable\n";
    return kExitSat;
  }
  for (ClassId c : report->unsatisfiable_classes) {
    std::cout << "UNSATISFIABLE: " << schema.ClassName(c) << "\n";
  }
  return kExitUnsat;
}

int Stats(Schema& schema) {
  std::cout << schema.Summary() << "\n";
  std::cout << "union-free: " << (schema.IsUnionFree() ? "yes" : "no")
            << "\nnegation-free: "
            << (schema.IsNegationFree() ? "yes" : "no")
            << "\nmax arity: " << schema.MaxArity() << "\n";

  PairTables tables = BuildPairTables(schema);
  ClusterPartition clusters = ComputeClusters(schema, tables);
  std::cout << "preselection: " << tables.num_inclusion_pairs()
            << " inclusions, " << tables.num_disjoint_pairs()
            << " disjoint pairs; " << clusters.Summary(schema) << "\n";

  auto expansion = BuildExpansion(schema, MakeExpansionOptions());
  if (!expansion.ok()) {
    return ReportFailure("expansion", expansion.status());
  }
  std::cout << expansion->Summary() << "\n";

  PsiSolverOptions solver_options;
  solver_options.num_threads = g_num_threads;
  solver_options.exec = &g_exec;
  auto finite = SolvePsi(*expansion, solver_options);
  if (!finite.ok()) {
    return ReportFailure("solver", finite.status());
  }
  auto unrestricted = CheckUnrestrictedSatisfiability(*expansion);
  if (!unrestricted.ok()) {
    return ReportFailure("unrestricted", unrestricted.status());
  }
  int finite_only = 0;
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    if (unrestricted->IsClassSatisfiable(c) &&
        !finite->IsClassSatisfiable(c)) {
      ++finite_only;
      std::cout << "finite-model effect: " << schema.ClassName(c)
                << " is satisfiable only over infinite universes\n";
    }
  }
  std::cout << "LP solves: " << finite->lp_solves
            << ", pivots: " << finite->total_pivots
            << ", finite-model effects: " << finite_only << "\n";
  return kExitSat;
}

int Model(Schema& schema) {
  auto expansion = BuildExpansion(schema, MakeExpansionOptions());
  if (!expansion.ok()) {
    return ReportFailure("expansion", expansion.status());
  }
  PsiSolverOptions solver_options;
  solver_options.num_threads = g_num_threads;
  solver_options.exec = &g_exec;
  auto solution = SolvePsi(*expansion, solver_options);
  if (!solution.ok()) {
    return ReportFailure("solver", solution.status());
  }
  auto model = SynthesizeModel(*expansion, *solution);
  if (!model.ok()) {
    return ReportFailure("synthesis", model.status());
  }
  DumpOptions options;
  options.max_facts_per_extension = 32;
  std::cout << DumpInterpretation(model->model, options);
  ModelCheckResult verdict = CheckModel(schema, model->model);
  std::cout << (verdict.is_model ? "verified: model\n"
                                 : "verified: NOT A MODEL (bug!)\n");
  return verdict.is_model ? kExitSat : kExitError;
}

int Reify(Schema& schema) {
  auto reified = ReifyNonBinaryRelations(schema);
  if (!reified.ok()) {
    return ReportFailure("reify", reified.status());
  }
  std::cout << PrintSchema(reified->schema);
  std::cerr << "(" << reified->num_reified << " relation(s) reified)\n";
  return kExitSat;
}

int Implications(Schema& schema, const std::string& class_name) {
  ClassId target = schema.LookupClass(class_name);
  if (target == kInvalidId) {
    std::cerr << "unknown class '" << class_name << "'\n";
    return kExitError;
  }
  Reasoner reasoner(&schema, MakeReasonerOptions());
  auto satisfiable = reasoner.IsClassSatisfiable(target);
  if (!satisfiable.ok()) {
    return ReportFailure("error", satisfiable.status());
  }
  std::cout << class_name << " is "
            << (satisfiable.value() ? "satisfiable" : "UNSATISFIABLE")
            << "\n";

  // The per-class sweep is one batch of independent auxiliary-schema
  // checks: isa and disjointness against every other class.
  std::vector<ImplicationQuery> queries;
  std::vector<ClassId> others;
  for (ClassId other = 0; other < schema.num_classes(); ++other) {
    if (other == target) continue;
    others.push_back(other);
    ImplicationQuery isa;
    isa.kind = ImplicationQuery::Kind::kIsa;
    isa.class_id = target;
    isa.formula = ClassFormula::OfClass(other);
    queries.push_back(std::move(isa));
    ImplicationQuery disjoint;
    disjoint.kind = ImplicationQuery::Kind::kDisjoint;
    disjoint.class_id = target;
    disjoint.other = other;
    queries.push_back(std::move(disjoint));
  }
  auto answers = reasoner.RunImplicationBatch(queries);
  if (!answers.ok()) {
    return ReportFailure("error", answers.status());
  }
  for (size_t i = 0; i < others.size(); ++i) {
    if ((*answers)[2 * i]) {
      std::cout << "  implied superclass: " << schema.ClassName(others[i])
                << "\n";
    }
    if ((*answers)[2 * i + 1]) {
      std::cout << "  implied disjoint:   " << schema.ClassName(others[i])
                << "\n";
    }
  }

  for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
    for (bool inverse : {false, true}) {
      AttributeTerm term = inverse ? AttributeTerm::Inverse(a)
                                   : AttributeTerm::Direct(a);
      auto bounds = reasoner.ImpliedCardinalityBounds(target, term);
      if (!bounds.ok()) continue;
      if (bounds.value() == Cardinality::Unbounded()) continue;
      std::cout << "  implied cardinality: "
                << (inverse ? StrCat("(inv ", schema.AttributeName(a), ")")
                            : schema.AttributeName(a))
                << " : " << bounds.value().ToString() << "\n";
    }
  }
  return kExitSat;
}

/// `lint <file>`: runs the static analyzer with the lint passes enabled
/// and prints every diagnostic, sorted by source position. Exit code 0
/// when no error-severity diagnostic was found, 1 otherwise; --werror
/// promotes warnings to errors before that decision.
int Lint(Schema& schema, const std::string& path) {
  AnalyzerOptions options;
  options.lint = true;
  SchemaAnalysis analysis = AnalyzeSchema(schema, options);
  std::vector<Diagnostic> diagnostics = std::move(analysis.diagnostics);
  if (g_werror) {
    for (Diagnostic& diagnostic : diagnostics) {
      if (diagnostic.severity == DiagnosticSeverity::kWarning) {
        diagnostic.severity = DiagnosticSeverity::kError;
      }
    }
    SortDiagnostics(&diagnostics);
  }
  DiagnosticCounts counts = CountDiagnostics(diagnostics);
  if (g_format == "json") {
    std::cout << "{\"file\":\"" << path << "\",\"diagnostics\":[";
    for (size_t i = 0; i < diagnostics.size(); ++i) {
      if (i > 0) std::cout << ",";
      std::cout << RenderDiagnosticJson(diagnostics[i], path);
    }
    std::cout << "],\"errors\":" << counts.errors
              << ",\"warnings\":" << counts.warnings
              << ",\"notes\":" << counts.notes << "}\n";
  } else {
    for (const Diagnostic& diagnostic : diagnostics) {
      std::cout << RenderDiagnosticText(diagnostic, path) << "\n";
    }
    std::cout << "lint: " << counts.errors << " error(s), "
              << counts.warnings << " warning(s), " << counts.notes
              << " note(s)\n";
  }
  return counts.errors > 0 ? kExitUnsat : kExitSat;
}

int Query(Schema& schema) {
  if (g_queries_path.empty()) {
    std::cerr << "`query` needs --queries=<file>\n";
    return kExitError;
  }
  std::ifstream file(g_queries_path);
  if (!file) {
    std::cerr << "cannot open '" << g_queries_path << "'\n";
    return kExitError;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::vector<std::string> lines;
  auto parsed = ParseQueryText(schema, buffer.str(), &lines);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return kExitError;
  }
  std::vector<ImplicationQuery> queries = std::move(parsed.value());

  ReasonerOptions options = MakeReasonerOptions();
  options.incremental = !g_from_scratch;
  Reasoner reasoner(&schema, options);
  auto answers = reasoner.RunImplicationBatch(queries);
  if (!answers.ok()) return ReportFailure("error", answers.status());
  for (size_t i = 0; i < lines.size(); ++i) {
    std::cout << lines[i] << ": "
              << ((*answers)[i] ? "implied" : "not-implied") << "\n";
  }
  // The session statistics are deterministic for every --threads value
  // (the memo pass is serial; warm-start counts follow the deterministic
  // fixpoint; promotion sums and fill maxima are commutative over the
  // single-threaded per-probe solves), so they are safe to print on
  // stdout.
  if (const IncrementalSession* session = reasoner.incremental_session()) {
    IncrementalStats stats = session->stats();
    std::cout << "incremental: queries=" << stats.queries
              << " closure-hits=" << stats.closure_hits
              << " cluster-local=" << stats.cluster_local
              << " memo-hits=" << stats.memo_hits
              << " memo-misses=" << stats.memo_misses
              << " probes=" << stats.probes
              << " warm-starts=" << stats.warm_starts
              << " fallbacks=" << stats.fallbacks
              << " scalar-promotions=" << stats.scalar_promotions
              << " peak-tableau-nnz=" << stats.peak_tableau_nonzeros
              << " peak-tableau-cells=" << stats.peak_tableau_cells << "\n";
    if (g_lazy_expansion) {
      std::cout << "lazy: hits=" << stats.lazy_hits
                << " refinement-rounds=" << stats.lazy_refinement_rounds
                << " compounds-materialized="
                << stats.lazy_compounds_materialized
                << " blocking-constraints=" << stats.lazy_blocking_constraints
                << " certificate-closures=" << stats.lazy_certificate_closures
                << " spurious-witnesses=" << stats.spurious_witnesses << "\n";
    }
  }
  return kExitSat;
}

/// Reads and parses the --queries file; nullopt (after printing the
/// diagnostic) on failure.
std::optional<std::vector<ImplicationQuery>> LoadQueryFile(
    const Schema& schema, std::vector<std::string>* lines) {
  std::ifstream file(g_queries_path);
  if (!file) {
    std::cerr << "cannot open '" << g_queries_path << "'\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  auto parsed = ParseQueryText(schema, buffer.str(), lines);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return std::nullopt;
  }
  return std::move(parsed.value());
}

/// `snapshot save <file> <dir>`: builds a warm session (answering the
/// --queries batch first when given, so their memoized answers persist
/// too) and stores its snapshot durably for --tenant.
int SnapshotSave(Schema& schema, const std::string& dir) {
  IncrementalSession session(&schema, MakeReasonerOptions());
  if (!g_queries_path.empty()) {
    std::vector<std::string> lines;
    auto queries = LoadQueryFile(schema, &lines);
    if (!queries.has_value()) return kExitError;
    auto answers = session.RunImplicationBatch(*queries);
    if (!answers.ok()) return ReportFailure("query", answers.status());
  }
  auto bytes = session.Serialize();
  if (!bytes.ok()) return ReportFailure("snapshot", bytes.status());
  auto store = persist::SnapshotStore::Open(dir);
  if (!store.ok()) {
    std::cerr << "snapshot store: " << store.status() << "\n";
    return kExitError;
  }
  Status saved = (*store)->Save(g_tenant, *bytes);
  if (!saved.ok()) {
    std::cerr << "snapshot save: " << saved << "\n";
    return kExitError;
  }
  std::cout << "saved " << bytes->size() << " byte(s) for tenant '"
            << g_tenant << "' to " << dir << "/"
            << persist::SnapshotStore::FileName(g_tenant)
            << " (schema fingerprint " << std::hex
            << SchemaFingerprint(schema) << std::dec << ")\n";
  return kExitSat;
}

/// What `snapshot load` and `snapshot verify` report of a decoded
/// snapshot once it has restored.
struct SnapshotCounts {
  size_t compound_classes = 0;
  bool has_psi = false;
  size_t memo_entries = 0;
};

SnapshotCounts CountsOf(const persist::WarmSnapshot& snapshot) {
  return {snapshot.expansion.compound_classes.size(), snapshot.has_psi,
          snapshot.memo.size()};
}

std::ostream& operator<<(std::ostream& out, const SnapshotCounts& counts) {
  return out << counts.compound_classes << " compound class(es), "
             << (counts.has_psi ? "solved psi snapshot" : "no psi") << ", "
             << counts.memo_entries << " memoized answer(s)";
}

/// `snapshot load <file> <dir>`: restores --tenant's snapshot against
/// the live schema and reports what came back; with --queries, answers
/// the batch on the restored (warm) session.
int SnapshotLoad(Schema& schema, const std::string& dir) {
  auto store = persist::SnapshotStore::Open(dir);
  if (!store.ok()) {
    std::cerr << "snapshot store: " << store.status() << "\n";
    return kExitError;
  }
  const uint64_t fingerprint = SchemaFingerprint(schema);
  auto bytes = (*store)->Load(g_tenant, fingerprint);
  if (!bytes.ok()) {
    std::cerr << "snapshot load: " << bytes.status() << "\n";
    return kExitError;
  }
  // One decode: the counts printed below are read before Restore takes
  // the snapshot.
  auto decoded = persist::DecodeSnapshot(*bytes);
  if (!decoded.ok()) {
    std::cerr << "snapshot restore: " << decoded.status() << "\n";
    return kExitError;
  }
  const SnapshotCounts counts = CountsOf(*decoded);
  IncrementalSession session(&schema, MakeReasonerOptions());
  Status restored = session.Restore(std::move(decoded).value());
  if (!restored.ok()) {
    std::cerr << "snapshot restore: " << restored << "\n";
    return kExitError;
  }
  std::cout << "restored tenant '" << g_tenant << "': " << counts << "\n";
  if (!g_queries_path.empty()) {
    std::vector<std::string> lines;
    auto queries = LoadQueryFile(schema, &lines);
    if (!queries.has_value()) return kExitError;
    auto answers = session.RunImplicationBatch(*queries);
    if (!answers.ok()) return ReportFailure("query", answers.status());
    for (size_t i = 0; i < lines.size(); ++i) {
      std::cout << lines[i] << ": "
                << ((*answers)[i] ? "implied" : "not-implied") << "\n";
    }
    IncrementalStats stats = session.stats();
    std::cout << "warm: memo-hits=" << stats.memo_hits
              << " memo-misses=" << stats.memo_misses
              << " base-restores=" << stats.base_restores
              << " base-builds=" << stats.base_builds << "\n";
  }
  return kExitSat;
}

/// `snapshot verify <file> <dir>`: the operator's "why would this file
/// be quarantined" tool. Runs the full offline integrity ladder —
/// header triage, per-section checksums, total decode, schema
/// fingerprint, restorability against the live schema — and prints the
/// first failing step. Never modifies or quarantines anything.
int SnapshotVerify(Schema& schema, const std::string& dir) {
  const std::string path =
      dir + "/" + persist::SnapshotStore::FileName(g_tenant);
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::cerr << "verify: cannot open '" << path << "'\n";
    return kExitError;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string bytes = buffer.str();
  auto header = persist::PeekSnapshotHeader(bytes);
  if (!header.ok()) {
    std::cout << "CORRUPT (header): " << header.status().message() << "\n";
    return kExitError;
  }
  std::cout << "header: format=" << header->format_version << " abi="
            << std::hex << header->abi_fingerprint << " schema="
            << header->schema_fingerprint << std::dec << " extents="
            << header->num_classes << "/" << header->num_attributes << "/"
            << header->num_relations << "\n";
  auto decoded = persist::DecodeSnapshot(bytes);
  if (!decoded.ok()) {
    std::cout << "CORRUPT (payload): " << decoded.status().message()
              << "\n";
    return kExitError;
  }
  if (header->schema_fingerprint != SchemaFingerprint(schema)) {
    std::cout << "STALE: snapshot was built for a different schema\n";
    return kExitError;
  }
  const SnapshotCounts counts = CountsOf(*decoded);
  IncrementalSession session(&schema, MakeReasonerOptions());
  Status restored = session.Restore(std::move(decoded).value());
  if (!restored.ok()) {
    std::cout << "UNRESTORABLE: " << restored.message() << "\n";
    return kExitError;
  }
  std::cout << "OK: " << bytes.size() << " byte(s), " << counts << "\n";
  return kExitSat;
}

/// Parses `--name=<uint64>` into `*value`; returns false (after printing
/// a diagnostic) on malformed input.
bool ParseUint64Flag(const std::string& arg, size_t prefix_len,
                     uint64_t* value) {
  try {
    size_t consumed = 0;
    std::string text = arg.substr(prefix_len);
    unsigned long long parsed = std::stoull(text, &consumed);
    if (consumed != text.size() || text.empty()) throw std::exception();
    *value = parsed;
    return true;
  } catch (...) {
    std::cerr << "bad flag value '" << arg << "'\n";
    return false;
  }
}

int Run(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      try {
        g_num_threads = std::stoi(arg.substr(10));
      } catch (...) {
        std::cerr << "bad --threads value '" << arg << "'\n";
        return Usage();
      }
      if (g_num_threads < 0) return Usage();
      continue;
    }
    if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseUint64Flag(arg, 14, &g_deadline_ms)) return Usage();
      continue;
    }
    if (arg.rfind("--memory-budget-mb=", 0) == 0) {
      if (!ParseUint64Flag(arg, 19, &g_memory_budget_mb)) return Usage();
      continue;
    }
    if (arg.rfind("--work-budget=", 0) == 0) {
      if (!ParseUint64Flag(arg, 14, &g_work_budget)) return Usage();
      continue;
    }
    if (arg.rfind("--queries=", 0) == 0) {
      g_queries_path = arg.substr(10);
      continue;
    }
    if (arg == "--from-scratch") {
      g_from_scratch = true;
      continue;
    }
    if (arg == "--lazy-expansion") {
      g_lazy_expansion = true;
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      g_format = arg.substr(9);
      if (g_format != "text" && g_format != "json") {
        std::cerr << "bad --format value '" << arg << "'\n";
        return Usage();
      }
      continue;
    }
    if (arg == "--werror") {
      g_werror = true;
      continue;
    }
    if (arg.rfind("--tenant=", 0) == 0) {
      g_tenant = arg.substr(9);
      if (g_tenant.empty()) return Usage();
      continue;
    }
    if (arg == "--version") {
      std::cout << "car_tool snapshot-format="
                << persist::kSnapshotFormatVersion << " abi-fingerprint="
                << std::hex << persist::SnapshotAbiFingerprint() << std::dec
                << "\n";
      return kExitSat;
    }
    args.push_back(std::move(arg));
  }
  if (args.size() < 2) return Usage();
  ConfigureExecContext();
  const std::string& command = args[0];
  if (command == "snapshot") {
    // snapshot <save|load|verify> <schema-file> <state-dir>
    if (args.size() < 4) return Usage();
    auto schema = Load(args[2]);
    if (!schema.ok()) {
      std::cerr << "error: " << schema.status() << "\n";
      return kExitError;
    }
    if (args[1] == "save") return SnapshotSave(*schema, args[3]);
    if (args[1] == "load") return SnapshotLoad(*schema, args[3]);
    if (args[1] == "verify") return SnapshotVerify(*schema, args[3]);
    return Usage();
  }
  auto schema = Load(args[1]);
  if (!schema.ok()) {
    std::cerr << "error: " << schema.status() << "\n";
    return kExitError;
  }
  if (command == "check") return Check(*schema);
  if (command == "print") {
    std::cout << PrintSchema(*schema);
    return kExitSat;
  }
  if (command == "stats") return Stats(*schema);
  if (command == "model") return Model(*schema);
  if (command == "reify") return Reify(*schema);
  if (command == "implications") {
    if (args.size() < 3) return Usage();
    return Implications(*schema, args[2]);
  }
  if (command == "query") return Query(*schema);
  if (command == "lint") return Lint(*schema, args[1]);
  return Usage();
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Run(argc, argv); }
