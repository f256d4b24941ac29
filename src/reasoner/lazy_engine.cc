#include "reasoner/lazy_engine.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "expansion/expansion_delta.h"
#include "expansion/lazy_enum.h"
#include "semantics/certificate_check.h"
#include "semantics/witness_check.h"
#include "solver/incremental_psi.h"

namespace car {

namespace {

/// The dependency closure of the open targets under the analyzer's
/// depends_on adjacency — the classes whose streams the seed opens.
std::vector<ClassId> DependencyClosure(const SchemaAnalysis& analysis,
                                       const std::vector<ClassId>& roots) {
  std::vector<char> visited(analysis.depends_on.size(), 0);
  std::vector<ClassId> frontier = roots;
  for (ClassId c : roots) visited[c] = 1;
  while (!frontier.empty()) {
    ClassId c = frontier.back();
    frontier.pop_back();
    for (ClassId d : analysis.depends_on[c]) {
      if (visited[d]) continue;
      visited[d] = 1;
      frontier.push_back(d);
    }
  }
  std::vector<ClassId> closure;
  for (size_t c = 0; c < visited.size(); ++c) {
    if (visited[c]) closure.push_back(static_cast<ClassId>(c));
  }
  return closure;
}

/// Maps the solve's seed+delta indexing onto the canonically assembled
/// expansion and validates the result as a semantic witness. Any mapping
/// mismatch (a compound/attribute/relation of one side missing from the
/// other) is itself a spurious witness: the delta-grown artifacts must
/// agree exactly with a from-scratch assembly of the same compound set.
bool ValidateAsWitness(const Schema& schema, const Expansion& canonical,
                       const std::vector<const CompoundClass*>& global_cc,
                       const std::vector<const CompoundAttribute*>& global_ca,
                       const std::vector<const CompoundRelation*>& global_cr,
                       const PartialPsiResult& partial) {
  const size_t total_cc = global_cc.size();
  if (canonical.compound_classes.size() != total_cc ||
      canonical.compound_attributes.size() != global_ca.size() ||
      canonical.compound_relations.size() != global_cr.size()) {
    return false;
  }
  std::vector<int> cc_map(total_cc, -1);
  for (size_t g = 0; g < total_cc; ++g) {
    int canon = canonical.IndexOfCompoundClass(*global_cc[g]);
    if (canon < 0) return false;
    cc_map[g] = canon;
  }

  PsiWitness witness;
  witness.cc_active.assign(total_cc, false);
  witness.cc_value.assign(total_cc, Rational());
  for (size_t g = 0; g < total_cc; ++g) {
    witness.cc_active[cc_map[g]] = partial.cc_active[g];
    witness.cc_value[cc_map[g]] = partial.cc_value[g];
  }

  std::map<std::tuple<AttributeId, int, int>, int> ca_index;
  for (size_t j = 0; j < canonical.compound_attributes.size(); ++j) {
    const CompoundAttribute& ca = canonical.compound_attributes[j];
    ca_index[{ca.attribute, ca.from, ca.to}] = static_cast<int>(j);
  }
  witness.ca_active.assign(global_ca.size(), false);
  witness.ca_value.assign(global_ca.size(), Rational());
  for (size_t j = 0; j < global_ca.size(); ++j) {
    const CompoundAttribute& ca = *global_ca[j];
    auto it = ca_index.find(
        {ca.attribute, cc_map[ca.from], cc_map[ca.to]});
    if (it == ca_index.end()) return false;
    witness.ca_active[it->second] = partial.ca_active[j];
    witness.ca_value[it->second] = partial.ca_value[j];
  }

  std::map<std::pair<RelationId, std::vector<int>>, int> cr_index;
  for (size_t j = 0; j < canonical.compound_relations.size(); ++j) {
    const CompoundRelation& cr = canonical.compound_relations[j];
    cr_index[{cr.relation, cr.components}] = static_cast<int>(j);
  }
  witness.cr_active.assign(global_cr.size(), false);
  witness.cr_value.assign(global_cr.size(), Rational());
  for (size_t j = 0; j < global_cr.size(); ++j) {
    const CompoundRelation& cr = *global_cr[j];
    std::vector<int> mapped;
    mapped.reserve(cr.components.size());
    for (int component : cr.components) mapped.push_back(cc_map[component]);
    auto it = cr_index.find({cr.relation, std::move(mapped)});
    if (it == cr_index.end()) return false;
    witness.cr_active[it->second] = partial.cr_active[j];
    witness.cr_value[it->second] = partial.cr_value[j];
  }

  return ValidatePsiWitness(schema, canonical, witness).valid;
}

/// A validated infeasibility certificate stored by stable row identity
/// (semantics/certificate_check), so it can be re-seated onto a later
/// round's re-indexed, larger probe system — the learned "blocking
/// constraint". The probe row has no PsiRowKey; its multiplier is kept
/// separately.
struct LearnedCertificate {
  std::map<PsiRowKey, Rational> multipliers;
  Rational probe_multiplier;
};

LearnedCertificate LearnCertificate(const Expansion& partial,
                                    const InfeasibilityCertificate& nu) {
  LearnedCertificate learned;
  std::vector<PsiRowKey> keys = PsiRowKeys(partial);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!nu.row_multipliers[i].is_zero()) {
      learned.multipliers.emplace(std::move(keys[i]), nu.row_multipliers[i]);
    }
  }
  learned.probe_multiplier = nu.row_multipliers.back();
  return learned;
}

/// Re-seats a learned certificate onto a new probe system over a grown
/// partial expansion: stored multipliers land on their rows by key, rows
/// the growth added get zero. The result may no longer be valid (newly
/// materialized columns can break the combined-coefficient condition),
/// so the caller re-validates exactly before reusing it — an invalid
/// re-seat just means this round pays the probe LP again.
InfeasibilityCertificate ReseatCertificate(const Expansion& partial,
                                           const LearnedCertificate& learned) {
  std::vector<PsiRowKey> keys = PsiRowKeys(partial);
  InfeasibilityCertificate nu;
  nu.row_multipliers.assign(keys.size() + 1, Rational());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = learned.multipliers.find(keys[i]);
    if (it != learned.multipliers.end()) nu.row_multipliers[i] = it->second;
  }
  nu.row_multipliers.back() = learned.probe_multiplier;
  return nu;
}

/// Advances `stream` by up to `batch` compounds into `ledger`, counting
/// the ones it had not materialized yet.
Status AdvanceInto(LazyCompoundStream* stream, size_t batch, ExecContext* exec,
                   RefinementLedger* ledger) {
  return stream->Advance(batch, exec, [&](const CompoundClass& compound) {
    if (ledger->Add(compound) && exec != nullptr) {
      exec->CountCompoundsMaterialized(1);
    }
  });
}

}  // namespace

Result<LazyBase> BuildLazySessionBase(
    const Schema& schema, const ExpansionOptions& expansion_options,
    const PsiSolverOptions& solver_options,
    const LazyExpansionOptions& lazy_options) {
  CAR_RETURN_IF_ERROR(schema.Validate());
  if (expansion_options.strategy != ExpansionStrategy::kPruned) {
    return FailedPrecondition(
        "lazy session bases require the pruned expansion strategy");
  }
  ExecContext* exec = expansion_options.exec;
  CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));
  const ExpansionPreamble preamble =
      BuildExpansionPreamble(schema, expansion_options);
  LazyBase base;
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const int cluster = preamble.partition.cluster_of[c];
    LazyCompoundStream stream(schema, preamble.tables,
                              preamble.partition.clusters[cluster], c);
    CAR_RETURN_IF_ERROR(AdvanceInto(&stream, lazy_options.batch_per_class,
                                    exec, &base.ledger));
  }
  base.ledger.SealRound();
  CAR_ASSIGN_OR_RETURN(
      base.expansion,
      AssembleExpansion(schema, base.ledger.Compounds(), expansion_options));
  CAR_ASSIGN_OR_RETURN(base.psi,
                       PrepareIncrementalPsi(base.expansion, solver_options));
  return base;
}

Result<LazyOutcome> RunLazyExpansion(
    const Schema& schema, const std::vector<ClassId>& targets,
    const SchemaAnalysis* analysis, const ExpansionOptions& expansion_options,
    const PsiSolverOptions& solver_options,
    const LazyExpansionOptions& lazy_options, const LazyBase* base) {
  // Validate first, as BuildExpansion does, so routing through the lazy
  // engine never changes error statuses.
  CAR_RETURN_IF_ERROR(schema.Validate());

  LazyOutcome out;
  const int num_classes = schema.num_classes();
  out.class_satisfiable.assign(num_classes, false);
  if (expansion_options.strategy != ExpansionStrategy::kPruned) {
    return out;  // Inconclusive: only the pruned decision tree streams.
  }
  ExecContext* exec = expansion_options.exec;
  CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));

  std::optional<SchemaAnalysis> local_analysis;
  if (analysis == nullptr) {
    AnalyzerOptions analyzer_options;
    analyzer_options.lint = false;
    local_analysis = AnalyzeSchema(schema, analyzer_options);
    analysis = &*local_analysis;
  }

  // Static certificates answer their targets outright (sound: a
  // certified class is unsatisfiable in every model, and the eager
  // reasoner agrees by the analyzer's soundness contract).
  std::vector<ClassId> open;
  for (ClassId c : targets) {
    if (analysis->class_unsat[c]) {
      out.class_satisfiable[c] = false;
    } else if (std::find(open.begin(), open.end(), c) == open.end()) {
      open.push_back(c);
    }
  }
  std::sort(open.begin(), open.end());
  if (open.empty()) {
    out.conclusive = true;
    return out;
  }

  const ExpansionPreamble preamble =
      BuildExpansionPreamble(schema, expansion_options);

  // A caller's base is resumed only when every compound of it belongs to
  // this schema's pruned expansion — the base-prefix condition
  // ExtendExpansionWithAuxClass checks for the eager base. Otherwise the
  // run seeds itself, exactly as without one.
  if (base != nullptr) {
    const std::vector<CompoundClass>& compounds =
        base->expansion.compound_classes;
    // Index 0 is the empty compound every assembled expansion starts with.
    for (size_t i = 1; i < compounds.size(); ++i) {
      if (!IsPrunedCompound(schema, preamble, compounds[i])) {
        base = nullptr;
        break;
      }
    }
  }
  if (base != nullptr) out.base_compounds = base->ledger.size();

  // One stream per class in the dependency closure of the open targets.
  // Certificate-driven refinement may open further streams later, so the
  // closure list grows with them.
  std::vector<std::unique_ptr<LazyCompoundStream>> stream_of(num_classes);
  std::vector<ClassId> closure = DependencyClosure(*analysis, open);
  for (ClassId c : closure) {
    const int cluster = preamble.partition.cluster_of[c];
    stream_of[c] = std::make_unique<LazyCompoundStream>(
        schema, preamble.tables, preamble.partition.clusters[cluster], c);
  }

  RefinementLedger ledger =
      base != nullptr ? base->ledger : RefinementLedger();
  auto advance = [&](ClassId c, size_t batch) -> Status {
    return AdvanceInto(stream_of[c].get(), batch, exec, &ledger);
  };

  // --- Seed.
  for (ClassId c : closure) {
    CAR_RETURN_IF_ERROR(advance(c, lazy_options.batch_per_class));
  }
  // A target whose exhausted stream delivered nothing is contained in NO
  // compound of the full expansion: unsatisfiable, exactly as eager
  // would report it.
  open.erase(std::remove_if(open.begin(), open.end(),
                            [&](ClassId c) {
                              return stream_of[c]->exhausted() &&
                                     stream_of[c]->delivered() == 0;
                            }),
             open.end());
  ledger.SealRound();
  if (open.empty()) {
    out.conclusive = true;
    out.compounds_materialized = ledger.size();
    return out;
  }

  // Without a base to resume, this run's seed becomes its frozen base.
  std::optional<LazyBase> own_base;
  if (base == nullptr) {
    own_base.emplace();
    own_base->ledger = ledger;
    CAR_ASSIGN_OR_RETURN(
        own_base->expansion,
        AssembleExpansion(schema, ledger.Compounds(), expansion_options));
    base = &*own_base;
  }
  const Expansion& seed = base->expansion;
  const size_t num_seed_cc = seed.compound_classes.size();

  // The warm-start snapshot: the base's own when it carries one,
  // otherwise solved here on first contact with a constrained compound —
  // rounds of an all-unconstrained run (dense tautology clusters) never
  // pay an LP at all.
  const IncrementalPsiBase* psi_base =
      base->psi.has_value() ? &*base->psi : nullptr;
  std::optional<IncrementalPsiBase> own_psi;

  // UNSAT-side state: one learned blocking constraint per probed target,
  // and the predicate the closure checker (and probe gating) runs on —
  // "is every compound containing this class materialized?", i.e. the
  // class's pinned stream exists and is exhausted.
  std::map<ClassId, LearnedCertificate> learned_certificates;
  const std::function<bool(ClassId)> all_compounds_materialized =
      [&](ClassId c) {
        return c >= 0 && c < num_classes && stream_of[c] != nullptr &&
               stream_of[c]->exhausted();
      };

  for (size_t round = 0;; ++round) {
    CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));
    if (round > 0) {
      out.refinement_rounds = round;
      if (exec != nullptr) exec->CountRefinementRounds(1);
    }

    // Cumulative delta against the frozen base.
    ExpansionDelta delta;
    delta.new_compound_classes = ledger.CompoundsNotIn(base->ledger);
    if (delta.HasNewCompounds()) {
      CAR_RETURN_IF_ERROR(
          PopulateDeltaExtensions(schema, seed, expansion_options, &delta));
    }

    std::vector<const CompoundClass*> global_cc;
    global_cc.reserve(num_seed_cc + delta.new_compound_classes.size());
    for (const CompoundClass& c : seed.compound_classes) {
      global_cc.push_back(&c);
    }
    for (const CompoundClass& c : delta.new_compound_classes) {
      global_cc.push_back(&c);
    }
    std::vector<const CompoundAttribute*> global_ca;
    for (const CompoundAttribute& a : seed.compound_attributes) {
      global_ca.push_back(&a);
    }
    for (const CompoundAttribute& a : delta.new_compound_attributes) {
      global_ca.push_back(&a);
    }
    std::vector<const CompoundRelation*> global_cr;
    for (const CompoundRelation& r : seed.compound_relations) {
      global_cr.push_back(&r);
    }
    for (const CompoundRelation& r : delta.new_compound_relations) {
      global_cr.push_back(&r);
    }

    PartialPsiResult partial;
    const bool any_constrained = !seed.natt.empty() || !seed.nrel.empty() ||
                                 !delta.new_natt.empty() ||
                                 !delta.new_nrel.empty();
    if (!any_constrained) {
      // Every unknown occurs in no disequation: all active, trivially.
      partial.cc_active.assign(global_cc.size(), true);
      partial.cc_value.assign(global_cc.size(), Rational());
      partial.ca_active.assign(global_ca.size(), true);
      partial.ca_value.assign(global_ca.size(), Rational());
      partial.cr_active.assign(global_cr.size(), true);
      partial.cr_value.assign(global_cr.size(), Rational());
    } else {
      if (psi_base == nullptr) {
        CAR_ASSIGN_OR_RETURN(own_psi,
                             PrepareIncrementalPsi(seed, solver_options));
        psi_base = &*own_psi;
        ++out.lp_solves;
      }
      CAR_ASSIGN_OR_RETURN(
          partial, SolvePsiOverDelta(seed, *psi_base, delta, solver_options));
      out.lp_solves += partial.lp_solves;
      out.warm_starts += partial.lp_solves;
      out.fixpoint_rounds += partial.fixpoint_rounds;
    }

    // Coverage: a target contained in an active compound of the partial
    // expansion is satisfiable in the full schema (partial solutions
    // zero-extend to full ones). Re-checked from scratch every round —
    // coverage is monotone in theory, so a regression would mean a
    // solver defect, and the concluding witness validation still guards
    // the final answer.
    std::vector<ClassId> uncovered;
    for (ClassId c : open) {
      bool covered = false;
      for (size_t i = 0; i < global_cc.size() && !covered; ++i) {
        covered = partial.cc_active[i] && global_cc[i]->Contains(c);
      }
      if (!covered) uncovered.push_back(c);
    }

    // --- UNSAT-side probes (DESIGN.md §5j). An uncovered target whose
    // own stream is exhausted can never be covered by refinement alone,
    // so ask the opposite question: is the raw partial system plus
    // "Σ Var(C̄ ∋ target) >= 1" already infeasible? The Farkas
    // certificate of an infeasible probe — validated exactly, learned as
    // a blocking constraint, re-seated in later rounds before paying
    // another LP — concludes UNSAT when its dual zero-extension is
    // closed under the absent columns; otherwise its violating classes
    // become this round's materialization hints. Gating on exhaustion
    // keeps satisfiable dense runs at zero probe cost (their target
    // streams never exhaust) and is itself the first closure condition.
    std::vector<ClassId> certificate_hints;
    if (!uncovered.empty()) {
      std::vector<ClassId> eligible;
      for (ClassId c : uncovered) {
        if (all_compounds_materialized(c)) eligible.push_back(c);
      }
      if (!eligible.empty()) {
        CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));
        CAR_ASSIGN_OR_RETURN(
            Expansion partial_expansion,
            AssembleExpansion(schema, ledger.Compounds(), expansion_options));
        std::vector<ClassId> concluded;
        for (ClassId c : eligible) {
          CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));
          UnsatProbe probe = BuildUnsatProbe(partial_expansion, c);
          const InfeasibilityCertificate* certificate = nullptr;
          InfeasibilityCertificate reseated;
          auto learned_it = learned_certificates.find(c);
          if (learned_it != learned_certificates.end()) {
            reseated = ReseatCertificate(partial_expansion,
                                         learned_it->second);
            if (ValidateInfeasibilityCertificate(probe.psi.system,
                                                 reseated)) {
              certificate = &reseated;
            }
          }
          std::optional<LpResult> lp;
          if (certificate == nullptr) {
            CAR_ASSIGN_OR_RETURN(lp,
                                 SolveUnsatProbe(probe, solver_options));
            ++out.lp_solves;
            if (lp->outcome != LpOutcome::kInfeasible) continue;
            if (!lp->infeasibility_certificate.has_value() ||
                !ValidateInfeasibilityCertificate(
                    probe.psi.system, *lp->infeasibility_certificate)) {
              // Extraction defect: never conclude from an unvalidated
              // certificate — this target degrades to the eager path.
              continue;
            }
            certificate = &*lp->infeasibility_certificate;
            learned_certificates[c] =
                LearnCertificate(partial_expansion, *certificate);
            ++out.blocking_constraints;
            if (exec != nullptr) exec->CountBlockingConstraints(1);
          }
          CertificateClosureResult closure_check = CheckCertificateClosure(
              schema, partial_expansion, c, *certificate,
              all_compounds_materialized);
          if (closure_check.closed) {
            // Sound lazy UNSAT: out.class_satisfiable[c] stays false.
            ++out.certificate_closures;
            if (exec != nullptr) exec->CountCertificateClosures(1);
            concluded.push_back(c);
          } else {
            certificate_hints.insert(certificate_hints.end(),
                                     closure_check.refinement_hints.begin(),
                                     closure_check.refinement_hints.end());
          }
        }
        auto is_concluded = [&](ClassId c) {
          return std::find(concluded.begin(), concluded.end(), c) !=
                 concluded.end();
        };
        open.erase(std::remove_if(open.begin(), open.end(), is_concluded),
                   open.end());
        uncovered.erase(
            std::remove_if(uncovered.begin(), uncovered.end(), is_concluded),
            uncovered.end());
        if (open.empty()) {
          out.conclusive = true;
          out.compounds_materialized = ledger.size();
          out.compound_attributes = global_ca.size();
          out.compound_relations = global_cr.size();
          return out;
        }
      }
    }

    if (uncovered.empty()) {
      CAR_ASSIGN_OR_RETURN(
          Expansion canonical,
          AssembleExpansion(schema, ledger.Compounds(), expansion_options));
      if (!ValidateAsWitness(schema, canonical, global_cc, global_ca,
                             global_cr, partial)) {
        out.spurious_witness = true;
        if (exec != nullptr) exec->CountSpuriousWitnesses(1);
        return out;  // Inconclusive: the eager fallback answers.
      }
      for (ClassId c : open) out.class_satisfiable[c] = true;
      out.conclusive = true;
      out.compounds_materialized = ledger.size();
      out.compound_attributes = global_ca.size();
      out.compound_relations = global_cr.size();
      return out;
    }

    // Refine or give up.
    if (round + 1 >= lazy_options.max_rounds ||
        ledger.size() - out.base_compounds >=
            lazy_options.max_materialized) {
      out.compounds_materialized = ledger.size();
      return out;  // Inconclusive.
    }
    const size_t ledger_before = ledger.size();
    size_t delivered_before = 0;
    size_t delivered_after = 0;
    for (ClassId c : closure) delivered_before += stream_of[c]->delivered();
    for (ClassId c : uncovered) {
      CAR_RETURN_IF_ERROR(advance(c, lazy_options.batch_per_class));
      for (ClassId d : analysis->depends_on[c]) {
        if (stream_of[d] != nullptr) {
          CAR_RETURN_IF_ERROR(advance(d, lazy_options.batch_per_class));
        }
      }
    }
    // Adaptive refinement: the violating classes of non-closed
    // certificates drive materialization directly, opening streams the
    // dependency closure never reached when necessary — the next round's
    // probe system gains exactly the columns that broke the closure.
    std::sort(certificate_hints.begin(), certificate_hints.end());
    certificate_hints.erase(
        std::unique(certificate_hints.begin(), certificate_hints.end()),
        certificate_hints.end());
    for (ClassId h : certificate_hints) {
      if (h < 0 || h >= num_classes) continue;
      if (stream_of[h] == nullptr) {
        const int cluster = preamble.partition.cluster_of[h];
        stream_of[h] = std::make_unique<LazyCompoundStream>(
            schema, preamble.tables, preamble.partition.clusters[cluster], h);
        closure.push_back(h);
      }
      CAR_RETURN_IF_ERROR(advance(h, lazy_options.batch_per_class));
    }
    for (ClassId c : closure) delivered_after += stream_of[c]->delivered();
    if (ledger.size() == ledger_before &&
        delivered_after == delivered_before) {
      // Every relevant stream is exhausted: the partial expansion cannot
      // grow towards the uncovered targets. Inconclusive — an uncovered
      // target here is NOT provably unsatisfiable (compounds outside the
      // materialized set could still lend support in the full system).
      out.compounds_materialized = ledger.size();
      return out;
    }
    ledger.SealRound();
  }
}

}  // namespace car
