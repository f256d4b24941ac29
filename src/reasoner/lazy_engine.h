#ifndef CAR_REASONER_LAZY_ENGINE_H_
#define CAR_REASONER_LAZY_ENGINE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "analysis/analyzer.h"
#include "base/result.h"
#include "expansion/expansion.h"
#include "expansion/lazy_enum.h"
#include "model/schema.h"
#include "solver/incremental_psi.h"
#include "solver/solve.h"

namespace car {

/// Tuning of the lazy (counterexample-guided) expansion engine. The
/// defaults favor dense schemas: small batches cover quickly when the
/// include-first stream order front-loads maximal compounds, and the
/// caps bound the engine's own work well below one eager build before it
/// gives up and falls back.
struct LazyExpansionOptions {
  /// Compounds materialized per advanced stream per round.
  size_t batch_per_class = 8;
  /// Solve rounds (seed round included) before declaring inconclusive.
  size_t max_rounds = 8;
  /// Materialization cap on what a run adds beyond the base it was
  /// handed; reaching it declares inconclusive.
  size_t max_materialized = 4096;
};

/// What one lazy run reports. `conclusive` is the contract: when false,
/// NOTHING may be concluded and the caller must run the eager path —
/// answers, when present, are bit-identical to eager's by construction
/// (coverage implies full-expansion support by zero-extension;
/// unsatisfiability is only claimed on sound static certificates or on
/// exhausted empty streams).
struct LazyOutcome {
  bool conclusive = false;
  /// True when the final solution failed witness validation (the run is
  /// then inconclusive and the failure was counted on the governor).
  bool spurious_witness = false;
  /// Sized to the schema's class count; meaningful at the queried
  /// targets only.
  std::vector<bool> class_satisfiable;

  // Observability: what the run materialized and solved.
  size_t refinement_rounds = 0;
  /// Size of the partial expansion the run ended on, frozen base included.
  size_t compounds_materialized = 0;
  /// How many of those the caller's frozen base supplied (0 when the run
  /// seeded itself): the run's own materialization is the difference.
  size_t base_compounds = 0;
  size_t compound_attributes = 0;
  size_t compound_relations = 0;
  /// LP solves of every kind, and the warm ones among them (the
  /// ResumeMaximize rounds of the partial-Ψ fixpoint; the rest are cold
  /// seed solves and UNSAT probes).
  size_t lp_solves = 0;
  size_t warm_starts = 0;
  size_t fixpoint_rounds = 0;
  /// UNSAT-side counters: infeasibility certificates learned from
  /// infeasible probes (each one blocks its partial system for every
  /// later round), and certificates whose dual zero-extension closed —
  /// i.e. lazy UNSAT verdicts concluded without the eager expansion.
  size_t blocking_constraints = 0;
  size_t certificate_closures = 0;
};

/// The frozen partial materialization a lazy run resumes from: the
/// materialized compounds, their assembled partial expansion, and the Ψ
/// base solved over it. Read-only once built, so concurrent runs share
/// one. A run either seeds its own (the compounds of its first round) or
/// is handed one; an IncrementalSession builds one on its first lazy
/// probe (BuildLazySessionBase) and hands it to every lazy probe, so
/// each probe solves only the compounds it adds beyond it.
struct LazyBase {
  RefinementLedger ledger;
  /// AssembleExpansion over ledger's compounds, for the schema they were
  /// streamed from.
  Expansion expansion;
  /// Solved Ψ base over `expansion`; a session base always carries one.
  /// Without it (a run's own seed) the run solves one itself on first
  /// contact with a constrained compound, so all-unconstrained runs never
  /// pay an LP.
  std::optional<IncrementalPsiBase> psi;
};

/// Builds the session-level base of `schema`: the stream of every class
/// advanced by lazy_options.batch_per_class, in class order, assembled,
/// and its Ψ base solved (PrepareIncrementalPsi, trimmed). Depends only
/// on the schema and the options, never on which probe asked first.
/// Requires ExpansionOptions::strategy == kPruned. Errors are governor
/// trips and internal failures; the caller publishes nothing then.
Result<LazyBase> BuildLazySessionBase(const Schema& schema,
                                      const ExpansionOptions& expansion_options,
                                      const PsiSolverOptions& solver_options,
                                      const LazyExpansionOptions& lazy_options);

/// Decides satisfiability of the `targets` classes lazily:
///
///   base: with `base` null, the run seeds itself — the compounds of the
///     seed round below are assembled and frozen as its base. A non-null
///     `base` (streamed from a schema `schema` extends, e.g. a session's
///     base schema for an aux-extended probe) is used instead when every
///     one of its compounds is a compound of `schema`'s pruned expansion
///     (IsPrunedCompound); otherwise the run seeds itself as if none had
///     been given;
///   seed: per-class compound streams over the pruned enumeration's
///     decision tree (expansion/lazy_enum), opened for the dependency
///     closure of the targets, each advanced by one batch; statically
///     certified-unsat targets (analysis) are answered immediately and a
///     target whose exhausted stream delivered nothing is unsatisfiable
///     outright (no compound of the full expansion contains it);
///   solve: the materialized compounds beyond the frozen base form a
///     delta (PopulateDeltaExtensions) and run through the warm-started
///     acceptability fixpoint (SolvePsiOverDelta resuming the base's
///     snapshot);
///   refine: targets not covered by an active compound advance their
///     streams (and their direct dependencies') by another batch, the
///     delta grows, and the solve repeats — each round warm-starts from
///     the same clean base snapshot;
///   unsat probes: an uncovered target whose own stream is exhausted is
///     probed with a raw feasibility LP over the partial system plus
///     "Σ Var(C̄ ∋ target) >= 1"; an infeasible probe's Farkas
///     certificate (validated exactly, then learned as a blocking
///     constraint and re-seated in later rounds) concludes UNSAT when
///     its dual zero-extension is closed under the absent columns
///     (semantics/certificate_check), and otherwise contributes its
///     violating classes as the next round's materialization hints
///     (adaptive batching);
///   conclude: when every open target is covered, the final solution is
///     validated as a semantic witness; only then are the answers
///     reported. Coverage in a partial expansion implies coverage in the
///     full one (solutions zero-extend), so positive answers are exact.
///
/// Returns an error only for governor trips and internal failures — the
/// eager path's statuses, so callers degrade identically.
/// `analysis` may be null (the engine then runs the static pass itself,
/// lint off). Requires ExpansionOptions::strategy == kPruned; any other
/// configuration returns an inconclusive outcome.
Result<LazyOutcome> RunLazyExpansion(const Schema& schema,
                                     const std::vector<ClassId>& targets,
                                     const SchemaAnalysis* analysis,
                                     const ExpansionOptions& expansion_options,
                                     const PsiSolverOptions& solver_options,
                                     const LazyExpansionOptions& lazy_options,
                                     const LazyBase* base = nullptr);

}  // namespace car

#endif  // CAR_REASONER_LAZY_ENGINE_H_
