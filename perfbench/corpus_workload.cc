// check_corpus: `car_tool check` run in-process over a seeded corpus —
// ParseSchema, then Reasoner::CheckSchema with car_tool's defaults
// (eager expansion, one thread) under a per-check deadline far above the
// slowest check.
//
// The traced pass walks the same pipeline through the public functions
// Reasoner::CheckSchema runs (the fingerprint print, BuildExpansion, then
// SolvePsi, with the options the Reasoner constructor derives), because
// Reasoner::GetExpansion builds the expansion and solves Ψ in one step and
// would not separate the two layers.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/exec_context.h"
#include "base/hashing.h"
#include "base/strings.h"
#include "bench.h"
#include "expansion/expansion.h"
#include "frontend/parser.h"
#include "frontend/printer.h"
#include "reasoner/reasoner.h"
#include "solver/naive_solve.h"
#include "solver/solve.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using car::StrCat;

/// Far above the slowest check (tens of milliseconds): a stall shows as
/// a deadline trip instead of a hung run.
constexpr std::chrono::milliseconds kCheckDeadline{30000};
/// SolvePsiNaive tries every support subset; it joins the answer key
/// only below this many constrained compound classes.
constexpr int kNaiveMaxConstrained = 10;

/// What one check decided, and the deterministic counts behind it.
struct CheckRecord {
  bool decided = false;
  bool deadline = false;
  std::string error;
  std::vector<bool> satisfiable;
  size_t compound_classes = 0;
  size_t compound_attributes = 0;
  size_t compound_relations = 0;
  size_t lp_solves = 0;
  size_t fixpoint_rounds = 0;
  car::ProgressSnapshot progress;
  // Traced checks only.
  uint64_t scalar_promotions = 0;
  uint64_t peak_nonzeros = 0;
  uint64_t peak_cells = 0;

  std::string Describe() const {
    if (!decided) return StrCat(deadline ? "deadline " : "error ", error);
    std::string bits;
    for (bool sat : satisfiable) bits += sat ? '1' : '0';
    return StrCat(bits, " cc=", compound_classes, " ca=",
                  compound_attributes, " cr=", compound_relations,
                  " lp=", lp_solves, " rounds=", fixpoint_rounds,
                  " pivots=", progress.pivots_executed,
                  " enumerated=", progress.compounds_enumerated);
  }
};

/// The reasoner options of `car_tool check`, governed by `exec`.
car::ReasonerOptions CheckOptions(car::ExecContext* exec) {
  car::ReasonerOptions options;
  options.exec = exec;
  return options;
}

CheckRecord CheckUntraced(const CorpusEntry& entry) {
  CheckRecord record;
  auto schema = car::ParseSchema(entry.text);
  if (!schema.ok()) {
    record.error = schema.status().ToString();
    return record;
  }
  car::ExecContext exec;
  exec.SetDeadlineAfter(kCheckDeadline);
  car::Reasoner reasoner(&schema.value(), CheckOptions(&exec));
  auto report = reasoner.CheckSchema();
  if (!report.ok()) {
    record.error = report.status().ToString();
    return record;
  }
  if (report->verdict == car::Verdict::kUnknown) {
    record.deadline = report->limit.kind == car::LimitKind::kDeadline;
    record.error = report->limit.ToString();
    return record;
  }
  record.decided = true;
  record.satisfiable = report->class_satisfiable;
  record.compound_classes = report->num_compound_classes;
  record.compound_attributes = report->num_compound_attributes;
  record.compound_relations = report->num_compound_relations;
  record.lp_solves = report->lp_solves;
  record.fixpoint_rounds = report->fixpoint_rounds;
  record.progress = exec.progress();
  return record;
}

CheckRecord CheckTraced(const CorpusEntry& entry, Tracer* tracer,
                        uint64_t id) {
  CheckRecord record;
  ScopedSpan root(tracer, "check", id);
  auto schema = [&] {
    ScopedSpan span(tracer, "frontend.parse", id);
    return car::ParseSchema(entry.text);
  }();
  if (!schema.ok()) {
    record.error = schema.status().ToString();
    return record;
  }
  {
    // Reasoner::Prepare fingerprints the printed schema before it expands.
    ScopedSpan span(tracer, "reasoner.prepare", id);
    static_cast<void>(car::Fnv1a64(car::PrintSchema(*schema)));
  }
  car::ExecContext exec;
  exec.SetDeadlineAfter(kCheckDeadline);
  // Reasoner's constructor hands its governor to both stages.
  const car::ReasonerOptions options = CheckOptions(&exec);
  car::ExpansionOptions expansion_options = options.expansion;
  expansion_options.exec = &exec;
  car::PsiSolverOptions solver_options = options.solver;
  solver_options.exec = &exec;
  auto stage_failed = [&](const car::Status& status) {
    record.deadline = exec.tripped() &&
                      exec.report().kind == car::LimitKind::kDeadline;
    record.error =
        exec.tripped() ? exec.report().ToString() : status.ToString();
    return record;
  };
  auto expansion = [&] {
    ScopedSpan span(tracer, "expansion.build", id);
    return car::BuildExpansion(*schema, expansion_options);
  }();
  if (!expansion.ok()) return stage_failed(expansion.status());
  auto solution = [&] {
    ScopedSpan span(tracer, "solver.solve", id);
    return car::SolvePsi(*expansion, solver_options);
  }();
  if (!solution.ok()) return stage_failed(solution.status());
  record.decided = true;
  record.satisfiable = solution->class_satisfiable;
  record.compound_classes = expansion->compound_classes.size();
  record.compound_attributes = expansion->compound_attributes.size();
  record.compound_relations = expansion->compound_relations.size();
  record.lp_solves = solution->lp_solves;
  record.fixpoint_rounds = solution->fixpoint_rounds;
  record.progress = exec.progress();
  record.scalar_promotions = solution->scalar_promotions;
  record.peak_nonzeros = solution->peak_tableau_nonzeros;
  record.peak_cells = solution->peak_tableau_cells;
  return record;
}

struct CorpusPass {
  PassOutcome outcome;
  std::optional<CorpusInputs> inputs;
  std::vector<CheckRecord> records;
  std::vector<Span> spans;
};

void Account(const CorpusInputs& inputs, int entry, const CheckRecord& record,
             Clock::time_point start, PassOutcome* outcome) {
  outcome->latency_ms.back().push_back(MillisSince(start));
  outcome->op_class.push_back(inputs.entries[entry].family);
  ++outcome->attempted;
  if (!record.decided) {
    ++(record.deadline ? outcome->deadline_trips : outcome->errors);
  }
}

void RecordChecks(const CorpusPass& pass,
                  std::map<std::string, std::string>* out) {
  for (size_t i = 0; i < pass.records.size(); ++i) {
    (*out)[StrCat("check.", i)] = pass.records[i].Describe();
  }
}

CorpusPass RunUntracedPass(const RunConfig& config, size_t ops) {
  CorpusPass pass;
  std::vector<std::string> first_replay;
  for (int replay = 0; replay < kReplays; ++replay) {
    pass.inputs.reset();
    pass.records.clear();
    const Clock::time_point setup_start = Clock::now();
    pass.inputs = MakeCorpus(config.seed, ops);
    // Warm-up: one check per schema, the corpus' analogue of a tenant's
    // first cold batch.
    for (const CorpusEntry& entry : pass.inputs->entries) {
      CheckUntraced(entry);
    }
    pass.outcome.setup_s.push_back(SecondsSince(setup_start));

    pass.outcome.BeginReplay();
    const Clock::time_point timed_start = Clock::now();
    for (int entry : pass.inputs->order) {
      const Clock::time_point start = Clock::now();
      CheckRecord record = CheckUntraced(pass.inputs->entries[entry]);
      Account(*pass.inputs, entry, record, start, &pass.outcome);
      pass.records.push_back(std::move(record));
    }
    pass.outcome.timed_s.push_back(SecondsSince(timed_start));
    // Later replays reuse memory the allocator kept from earlier ones; the
    // first replay's peak is that of a process that ran the workload once.
    if (replay == 0) pass.outcome.peak_rss_mb = PeakRssMb();

    std::vector<std::string> replay_results;
    for (const CheckRecord& record : pass.records) {
      replay_results.push_back(record.Describe());
    }
    if (replay == 0) {
      first_replay = std::move(replay_results);
    } else if (replay_results != first_replay) {
      pass.outcome.replays_agree = false;
    }
  }
  RecordChecks(pass, &pass.outcome.deterministic);
  return pass;
}

/// `write_trace`: whether this pass writes its spans to config.trace_out.
CorpusPass RunTracedPass(const RunConfig& config, size_t ops,
                         bool write_trace) {
  CorpusPass pass;
  pass.inputs = MakeCorpus(config.seed, ops);
  for (const CorpusEntry& entry : pass.inputs->entries) {
    CheckTraced(entry, nullptr, 0);
  }
  Tracer tracer;
  pass.outcome.BeginReplay();
  const Clock::time_point timed_start = Clock::now();
  uint64_t id = 0;
  for (int entry : pass.inputs->order) {
    const Clock::time_point start = Clock::now();
    CheckRecord record =
        CheckTraced(pass.inputs->entries[entry], &tracer, ++id);
    Account(*pass.inputs, entry, record, start, &pass.outcome);
    pass.records.push_back(std::move(record));
  }
  pass.outcome.timed_s.push_back(SecondsSince(timed_start));
  pass.spans = tracer.spans();
  std::map<std::string, uint64_t>& counts = pass.outcome.counts;
  for (size_t i = 0; i < pass.records.size(); ++i) {
    const CheckRecord& record = pass.records[i];
    counts["bytes_parsed"] +=
        pass.inputs->entries[pass.inputs->order[i]].text.size();
    counts["compounds"] += record.progress.compounds_enumerated;
    counts["lp_solves"] += record.progress.lp_solves;
    counts["warm_starts"] += record.progress.warm_starts;
    counts["fixpoint_rounds"] += record.fixpoint_rounds;
    counts["pivots"] += record.progress.pivots_executed;
    counts["scalar_promotions"] += record.scalar_promotions;
    counts["peak_nonzeros"] += record.peak_nonzeros;
    counts["peak_cells"] += record.peak_cells;
  }
  if (write_trace && !config.trace_out.empty() &&
      !tracer.WriteJsonLines(config.trace_out)) {
    pass.outcome.deterministic["trace_out"] = "unwritable";
  }
  RecordChecks(pass, &pass.outcome.deterministic);
  return pass;
}

/// The answer key of one corpus schema, from paths other than car_tool's
/// default engine: the stage functions run directly with the
/// dense-rational simplex kernel (the differential oracle), the family's
/// documented answer, and for small random schemas the [CL94] support
/// enumeration SolvePsiNaive. Every path that applies must agree;
/// `*naive_checked` counts the SolvePsiNaive cross-checks. Empty on
/// failure, with the reason in `problems`.
std::vector<bool> AnswerKey(const CorpusEntry& entry, int* naive_checked,
                            std::vector<std::string>* problems) {
  auto schema = car::ParseSchema(entry.text);
  auto expansion = schema.ok() ? car::BuildExpansion(*schema)
                               : car::Result<car::Expansion>(schema.status());
  if (!expansion.ok()) {
    problems->push_back(StrCat(entry.label, ": answer key failed: ",
                               expansion.status().message()));
    return {};
  }
  car::PsiSolverOptions reference_options;
  reference_options.kernel = car::SimplexKernel::kDenseRational;
  auto reference = car::SolvePsi(*expansion, reference_options);
  if (!reference.ok()) {
    problems->push_back(StrCat(entry.label, ": reference solve failed: ",
                               reference.status().message()));
    return {};
  }
  std::vector<bool> key = reference->class_satisfiable;

  if (entry.documented != DocumentedAnswer::kNone) {
    for (car::ClassId c = 0; c < schema->num_classes(); ++c) {
      const bool core = schema->ClassName(c).front() == 'E';
      const bool expected =
          entry.documented == DocumentedAnswer::kAllSatisfiable || !core;
      if (key[c] != expected) {
        problems->push_back(StrCat(entry.label, ": reference answer for ",
                                   schema->ClassName(c),
                                   " contradicts the documented answer"));
        return {};
      }
    }
  }
  if (entry.family == "random") {
    car::NaiveSolverOptions naive_options;
    naive_options.max_constrained_compound_classes = kNaiveMaxConstrained;
    auto naive = car::SolvePsiNaive(*expansion, naive_options);
    if (naive.ok()) {
      ++*naive_checked;
      if (naive->class_satisfiable != key) {
        problems->push_back(StrCat(
            entry.label, ": SolvePsiNaive disagrees with the reference"));
        return {};
      }
    }
  }
  return key;
}

void CheckAnswers(const CorpusPass& pass, WorkloadResult* result) {
  const CorpusInputs& inputs = *pass.inputs;
  std::vector<std::vector<bool>> keys;
  int naive_checked = 0;
  for (const CorpusEntry& entry : inputs.entries) {
    keys.push_back(AnswerKey(entry, &naive_checked, &result->problems));
  }
  uint64_t wrong = 0;
  for (size_t i = 0; i < pass.records.size(); ++i) {
    const CheckRecord& record = pass.records[i];
    const int entry = inputs.order[i];
    if (!record.decided || keys[entry].empty()) continue;
    if (record.satisfiable != keys[entry] && ++wrong <= 5) {
      result->problems.push_back(StrCat(
          "wrong verdict on ", inputs.entries[entry].label, " (check ", i,
          ")"));
    }
  }
  if (wrong > 5) {
    result->problems.push_back(StrCat(wrong, " wrong verdicts in total"));
  }
  result->notes.push_back(StrCat(
      "verdicts checked against the answer key: ", pass.records.size(), " (",
      wrong, " wrong); key schemas cross-checked by SolvePsiNaive: ",
      naive_checked));
}

void SelfCheck(const CorpusPass& pass, WorkloadResult* result) {
  for (size_t i = 0; i < pass.records.size(); ++i) {
    if (!pass.records[i].decided) {
      result->problems.push_back(StrCat(
          "self-check: check_corpus left ",
          pass.inputs->entries[pass.inputs->order[i]].label,
          " undecided: ", pass.records[i].error));
      return;
    }
  }
}

void LayerMetrics(const CorpusPass& traced, const CorpusPass& untraced,
                  WorkloadResult* result) {
  LayerReport r(traced.outcome, traced.spans, result);
  const char* no_serving =
      "check_corpus calls no serving, session, persistence or lazy layer (0 "
      "by construction)";
  for (const char* name :
       {"serve.codec_ms", "serve.open_ms", "serve.lookup_hit_share",
        "serve.warm_open_share", "serve.evictions", "persist.spill_ms",
        "persist.restores", "persist.restore_share", "persist.spills",
        "persist.spill_ineligible", "reasoner.batch_ms", "reasoner.probes",
        "reasoner.memo_hit_share", "reasoner.lazy_conclusive_share",
        "reasoner.fallbacks", "reasoner.base_builds",
        "reasoner.refinement_rounds", "analysis.closure_hit_share",
        "analysis.cluster_local", "expansion.materialized",
        "semantics.spurious_witnesses", "semantics.blocking_constraints",
        "semantics.certificate_closures"}) {
    r.Unreached(name, no_serving);
  }
  r.Set("frontend.parse_ms", r.Ms("frontend.parse"));
  r.Set("frontend.bytes_parsed", r.Per("bytes_parsed"));
  r.Set("expansion.build_ms", r.Ms("expansion.build"));
  r.Set("expansion.compounds", r.Per("compounds"));
  r.Set("solver.solve_ms", r.Ms("solver.solve"));
  r.Set("solver.lp_solves", r.Per("lp_solves"));
  r.SetShare("solver.warm_share", r.Count("warm_starts"),
             r.Count("lp_solves"));
  r.Set("solver.fixpoint_rounds", r.Per("fixpoint_rounds"));
  r.Set("math.pivots", r.Per("pivots"));
  r.SetShare("math.pivots_per_lp", r.Count("pivots"), r.Count("lp_solves"));
  r.Set("math.scalar_promotions", r.Per("scalar_promotions"));
  r.SetShare("math.fill", r.Count("peak_nonzeros"), r.Count("peak_cells"));
  r.Finish(untraced.outcome);
}

}  // namespace

WorkloadResult RunCorpusWorkload(const RunConfig& config) {
  const size_t ops = TimedOps(config.workload, config.seconds);
  WorkloadResult result;
  CorpusPass untraced = RunUntracedPass(config, ops);
  result.untraced = untraced.outcome;
  CheckAnswers(untraced, &result);
  SelfCheck(untraced, &result);
  if (config.trace) {
    CorpusPass traced = RunTracedPass(config, ops, /*write_trace=*/true);
    result.traced = traced.outcome;
    result.traced_again =
        RunTracedPass(config, ops, /*write_trace=*/false).outcome;
    LayerMetrics(traced, untraced, &result);
  }
  return result;
}

}  // namespace perfbench
