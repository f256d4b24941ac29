#include "reasoner/reasoner.h"

#include <map>

#include "base/strings.h"
#include "base/thread_pool.h"
#include "math/simplex.h"
#include "reasoner/incremental.h"
#include "solver/psi.h"

namespace car {

namespace {

/// Feasibility of the restricted Ψ_S with the given unknowns forced
/// >= 1: "can this counted pair/tuple population be strictly positive in
/// a model?". The caller passes the counted unknown *and* the unknowns of
/// its endpoint compound classes: an acceptable solution needs those
/// positive as well, and conversely any feasible point here plus the
/// maximal-support solution is acceptable (solutions of the homogeneous
/// system add).
Result<bool> FeasibleWithUnitLowerBounds(const PsiSystem& psi,
                                         const std::vector<int>& variables,
                                         ExecContext* exec) {
  LinearSystem system = psi.system;
  for (int variable : variables) {
    LinearConstraint at_least_one;
    at_least_one.expr.Add(variable, Rational(1));
    at_least_one.relation = Relation::kGreaterEqual;
    at_least_one.rhs = Rational(1);
    system.AddConstraint(std::move(at_least_one));
  }
  SimplexSolver::Options simplex_options;
  simplex_options.exec = exec;
  CAR_ASSIGN_OR_RETURN(LpResult lp,
                       SimplexSolver(simplex_options).CheckFeasible(system));
  return lp.outcome == LpOutcome::kOptimal;
}

/// Runs the collected LP feasibility probes (each a set of unknowns
/// forced >= 1), possibly in parallel, and reports whether any probe is
/// feasible. The answer is a disjunction, hence independent of probe
/// order; errors are reported for the lowest-indexed failing probe.
Result<bool> AnyProbeFeasible(const PsiSystem& psi,
                              const std::vector<std::vector<int>>& probes,
                              int num_threads, ExecContext* exec) {
  std::vector<Result<bool>> outcomes(probes.size(), Result<bool>(false));
  ParallelForOptions parallel;
  parallel.num_threads = num_threads;
  parallel.cancel = exec;
  ParallelFor(probes.size(), parallel,
              [&psi, &probes, &outcomes, exec](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  Status charge = GovChargeWork(exec, 1, "implication");
                  if (!charge.ok()) {
                    outcomes[i] = std::move(charge);
                    return;
                  }
                  outcomes[i] =
                      FeasibleWithUnitLowerBounds(psi, probes[i], exec);
                }
              });
  // A trip skips chunks, leaving default-false outcome slots; surface the
  // trip rather than fold a partial disjunction into an answer.
  CAR_RETURN_IF_ERROR(GovCheck(exec, "implication"));
  bool any = false;
  for (const Result<bool>& outcome : outcomes) {
    CAR_RETURN_IF_ERROR(outcome.status());
    any = any || outcome.value();
  }
  return any;
}

/// The successor (participation) counts that violate a minimum or maximum
/// query bound: at most bound-1 below a minimum, at least bound+1 above a
/// maximum.
Cardinality ViolatedBound(const ImplicationQuery& query) {
  if (query.kind == ImplicationQuery::Kind::kMinCardinality ||
      query.kind == ImplicationQuery::Kind::kMinParticipation) {
    return Cardinality(0, query.bound - 1);
  }
  return Cardinality::AtLeast(query.bound + 1);
}

Status CheckClassId(const Schema& schema, ClassId id) {
  if (id >= 0 && id < schema.num_classes()) return Status::Ok();
  return NotFound(StrCat("class id ", id, " out of range"));
}

}  // namespace

Status ValidateImplicationQuery(const Schema& schema,
                                const ImplicationQuery& query) {
  CAR_RETURN_IF_ERROR(CheckClassId(schema, query.class_id));
  switch (query.kind) {
    case ImplicationQuery::Kind::kIsa:
      for (const ClassClause& clause : query.formula.clauses()) {
        for (const ClassLiteral& literal : clause.literals()) {
          CAR_RETURN_IF_ERROR(CheckClassId(schema, literal.class_id));
        }
      }
      return Status::Ok();
    case ImplicationQuery::Kind::kDisjoint:
      return CheckClassId(schema, query.other);
    case ImplicationQuery::Kind::kMinCardinality:
    case ImplicationQuery::Kind::kMaxCardinality:
      if (query.term.attribute < 0 ||
          query.term.attribute >= schema.num_attributes()) {
        return NotFound(
            StrCat("attribute id ", query.term.attribute, " out of range"));
      }
      return Status::Ok();
    case ImplicationQuery::Kind::kMinParticipation:
    case ImplicationQuery::Kind::kMaxParticipation:
      return schema.ValidateRoleOf(query.relation, query.role);
  }
  return Internal("unknown implication query kind");
}

bool IsTriviallyImplied(const ImplicationQuery& query) {
  switch (query.kind) {
    case ImplicationQuery::Kind::kMinCardinality:
    case ImplicationQuery::Kind::kMinParticipation:
      return query.bound == 0;
    case ImplicationQuery::Kind::kMaxCardinality:
    case ImplicationQuery::Kind::kMaxParticipation:
      return query.bound == Cardinality::kInfinity;
    default:
      return false;
  }
}

Result<bool> DecideImplication(const Schema& schema,
                               const ImplicationQuery& query,
                               const AuxSatisfiableFn& aux_satisfiable) {
  if (IsTriviallyImplied(query)) return true;
  // Satisfiability of a fresh auxiliary class with `definition`, added to
  // a private copy of the schema.
  auto satisfiable = [&schema, &aux_satisfiable](
                         ClassDefinition definition) -> Result<bool> {
    Schema extended = schema;
    std::string name = "__car_query";
    int suffix = 0;
    while (extended.LookupClass(name) != kInvalidId) {
      name = StrCat("__car_query_", ++suffix);
    }
    const ClassId aux = extended.InternClass(name);
    definition.class_id = aux;
    *extended.mutable_class_definition(aux) = std::move(definition);
    return aux_satisfiable(extended, aux);
  };
  // A C-instance violating the queried property.
  ClassDefinition violating;
  violating.isa = ClassFormula::OfClass(query.class_id);
  switch (query.kind) {
    case ImplicationQuery::Kind::kIsa:
      // C ⊑ γ1 ∧ ... ∧ γn iff C ⊑ γj for every clause. C ⊑ L1 ∨ ... ∨ Lm
      // iff the auxiliary class (C ∧ ¬L1 ∧ ... ∧ ¬Lm) is unsatisfiable.
      for (const ClassClause& clause : query.formula.clauses()) {
        ClassDefinition violates_clause = violating;
        for (const ClassLiteral& literal : clause.literals()) {
          violates_clause.isa.AddClause(ClassClause::Of(literal.Complement()));
        }
        CAR_ASSIGN_OR_RETURN(bool refuted,
                             satisfiable(std::move(violates_clause)));
        if (refuted) return false;
      }
      return true;
    case ImplicationQuery::Kind::kDisjoint:
      violating.isa.AndWith(ClassFormula::OfClass(query.other));
      break;
    case ImplicationQuery::Kind::kMinCardinality:
    case ImplicationQuery::Kind::kMaxCardinality:
      violating.attributes.push_back(
          {.term = query.term, .cardinality = ViolatedBound(query)});
      break;
    case ImplicationQuery::Kind::kMinParticipation:
    case ImplicationQuery::Kind::kMaxParticipation:
      violating.participations.push_back({.relation = query.relation,
                                          .role = query.role,
                                          .cardinality = ViolatedBound(query)});
      break;
    default:
      return Internal("unknown implication query kind");
  }
  CAR_ASSIGN_OR_RETURN(bool refuted, satisfiable(std::move(violating)));
  return !refuted;
}

Result<std::vector<bool>> DecideImplicationBatch(
    const Schema& schema, const std::vector<const ImplicationQuery*>& queries,
    const AuxSatisfiableFn& aux_satisfiable, int num_threads,
    ExecContext* exec) {
  // Queries are independent (each probe extends a private copy of the
  // schema), so they run concurrently; answers land in per-query slots,
  // making the result order-insensitive.
  std::vector<Result<bool>> outcomes(queries.size(), Result<bool>(false));
  ParallelForOptions parallel;
  parallel.num_threads = num_threads;
  parallel.cancel = exec;
  ParallelFor(queries.size(), parallel, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Status charge = GovChargeWork(exec, 1, "implication");
      if (!charge.ok()) {
        outcomes[i] = std::move(charge);
        return;
      }
      outcomes[i] = DecideImplication(schema, *queries[i], aux_satisfiable);
      if (exec != nullptr) exec->CountQueries(1);
    }
  });
  // Concurrent queries interleave pipeline phases, so the phase recorded
  // at a trip would depend on the schedule; normalize it to the batch's
  // own phase so tripped batches report identically for every thread
  // count.
  if (exec != nullptr && exec->tripped()) {
    exec->OverridePhaseOnTrip("implication");
  }
  // Skipped chunks leave default-false slots; surface the trip instead.
  CAR_RETURN_IF_ERROR(GovCheck(exec, "implication"));
  std::vector<bool> answers;
  answers.reserve(outcomes.size());
  for (const Result<bool>& outcome : outcomes) {
    CAR_RETURN_IF_ERROR(outcome.status());
    answers.push_back(outcome.value());
  }
  return answers;
}

void FanOutToStages(ReasonerOptions* options) {
  if (options->num_threads != 1) {
    options->expansion.num_threads = options->num_threads;
    options->solver.num_threads = options->num_threads;
  }
  options->expansion.exec = options->exec;
  options->solver.exec = options->exec;
}

const char* VerdictToString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSat:
      return "sat";
    case Verdict::kUnsat:
      return "unsat";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "invalid";
}

Reasoner::Reasoner(const Schema* schema, ReasonerOptions options)
    : schema_(schema), options_(std::move(options)) {
  CAR_CHECK(schema != nullptr);
  FanOutToStages(&options_);
}

Reasoner::~Reasoner() = default;

Status Reasoner::Prepare() {
  if (solution_.has_value()) return Status::Ok();
  CAR_ASSIGN_OR_RETURN(Expansion expansion,
                       BuildExpansion(*schema_, options_.expansion));
  CAR_ASSIGN_OR_RETURN(PsiSolution solution,
                       SolvePsi(expansion, options_.solver));
  expansion_ = std::move(expansion);
  solution_ = std::move(solution);
  return Status::Ok();
}

IncrementalSession* Reasoner::GetIncrementalSession() {
  if (incremental_ == nullptr) {
    incremental_ = std::make_unique<IncrementalSession>(schema_, options_);
  }
  return incremental_.get();
}

Result<const Expansion*> Reasoner::GetExpansion() {
  CAR_RETURN_IF_ERROR(Prepare());
  return &*expansion_;
}

Result<const PsiSolution*> Reasoner::GetSolution() {
  CAR_RETURN_IF_ERROR(Prepare());
  return &*solution_;
}

Result<bool> Reasoner::IsClassSatisfiable(ClassId class_id) {
  if (class_id < 0 || class_id >= schema_->num_classes()) {
    return NotFound(StrCat("class id ", class_id, " out of range"));
  }
  if (options_.lazy_expansion) {
    CAR_ASSIGN_OR_RETURN(
        LazyOutcome lazy,
        RunLazyExpansion(*schema_, {class_id}, nullptr, options_.expansion,
                         options_.solver, options_.lazy));
    if (lazy.conclusive) return static_cast<bool>(lazy.class_satisfiable[class_id]);
    // Inconclusive: fall through to the eager path.
  }
  CAR_RETURN_IF_ERROR(Prepare());
  return solution_->IsClassSatisfiable(class_id);
}

Result<bool> Reasoner::IsClassSatisfiable(std::string_view class_name) {
  ClassId id = schema_->LookupClass(class_name);
  if (id == kInvalidId) {
    return NotFound(StrCat("unknown class '", class_name, "'"));
  }
  return IsClassSatisfiable(id);
}

Result<SatReport> Reasoner::CheckSchema() {
  if (options_.lazy_expansion) {
    std::vector<ClassId> targets(schema_->num_classes());
    for (ClassId c = 0; c < schema_->num_classes(); ++c) targets[c] = c;
    Result<LazyOutcome> lazy =
        RunLazyExpansion(*schema_, targets, nullptr, options_.expansion,
                         options_.solver, options_.lazy);
    if (!lazy.ok()) {
      // Same graceful degradation as the eager path below.
      if (options_.exec != nullptr && options_.exec->tripped()) {
        SatReport report;
        report.verdict = Verdict::kUnknown;
        report.limit = options_.exec->report();
        report.progress = options_.exec->progress();
        return report;
      }
      return lazy.status();
    }
    if (lazy->conclusive) {
      SatReport report;
      report.lazy = true;
      report.class_satisfiable.assign(lazy->class_satisfiable.begin(),
                                      lazy->class_satisfiable.end());
      for (ClassId c = 0; c < schema_->num_classes(); ++c) {
        if (!report.class_satisfiable[c]) {
          report.unsatisfiable_classes.push_back(c);
        }
      }
      report.verdict = report.unsatisfiable_classes.empty() ? Verdict::kSat
                                                            : Verdict::kUnsat;
      report.num_compound_classes = lazy->compounds_materialized;
      report.num_compound_attributes = lazy->compound_attributes;
      report.num_compound_relations = lazy->compound_relations;
      report.lp_solves = lazy->lp_solves;
      report.fixpoint_rounds = lazy->fixpoint_rounds;
      report.refinement_rounds = lazy->refinement_rounds;
      report.compounds_materialized = lazy->compounds_materialized;
      report.blocking_constraints = lazy->blocking_constraints;
      report.certificate_closures = lazy->certificate_closures;
      if (options_.exec != nullptr) {
        report.progress = options_.exec->progress();
      }
      return report;
    }
    // Inconclusive: fall through to the eager path.
  }
  Status prepared = Prepare();
  if (!prepared.ok()) {
    // Graceful degradation: a governed run whose limit tripped yields a
    // kUnknown report with the structured LimitReport and the partial
    // statistics instead of an error. Ungoverned runs (and genuine
    // failures unrelated to the governor) keep the error status.
    if (options_.exec != nullptr && options_.exec->tripped()) {
      SatReport report;
      report.verdict = Verdict::kUnknown;
      report.limit = options_.exec->report();
      report.progress = options_.exec->progress();
      return report;
    }
    return prepared;
  }
  SatReport report;
  report.class_satisfiable = solution_->class_satisfiable;
  for (ClassId c = 0; c < schema_->num_classes(); ++c) {
    if (!solution_->class_satisfiable[c]) {
      report.unsatisfiable_classes.push_back(c);
    }
  }
  report.verdict = report.unsatisfiable_classes.empty() ? Verdict::kSat
                                                        : Verdict::kUnsat;
  report.num_compound_classes = expansion_->compound_classes.size();
  report.num_compound_attributes = expansion_->compound_attributes.size();
  report.num_compound_relations = expansion_->compound_relations.size();
  report.lp_solves = solution_->lp_solves;
  report.fixpoint_rounds = solution_->fixpoint_rounds;
  if (options_.exec != nullptr) report.progress = options_.exec->progress();
  return report;
}

AuxSatisfiableFn Reasoner::FromScratchOracle() const {
  return [this](const Schema& extended, ClassId aux) -> Result<bool> {
    if (options_.lazy_expansion) {
      CAR_ASSIGN_OR_RETURN(
          LazyOutcome lazy,
          RunLazyExpansion(extended, {aux}, nullptr, options_.expansion,
                           options_.solver, options_.lazy));
      if (lazy.conclusive) {
        return static_cast<bool>(lazy.class_satisfiable[aux]);
      }
      // Inconclusive: fall through to the eager probe.
    }
    CAR_ASSIGN_OR_RETURN(Expansion expansion,
                         BuildExpansion(extended, options_.expansion));
    CAR_ASSIGN_OR_RETURN(PsiSolution solution,
                         SolvePsi(expansion, options_.solver));
    return solution.IsClassSatisfiable(aux);
  };
}

Result<bool> Reasoner::DecideFromScratch(const ImplicationQuery& query) {
  CAR_RETURN_IF_ERROR(ValidateImplicationQuery(*schema_, query));
  return DecideImplication(*schema_, query, FromScratchOracle());
}

Result<bool> Reasoner::ImpliesIsa(ClassId subclass,
                                  const ClassFormula& formula) {
  return DecideFromScratch({.kind = ImplicationQuery::Kind::kIsa,
                            .class_id = subclass,
                            .formula = formula});
}

Result<bool> Reasoner::ImpliesDisjoint(ClassId a, ClassId b) {
  return DecideFromScratch(
      {.kind = ImplicationQuery::Kind::kDisjoint, .class_id = a, .other = b});
}

Result<bool> Reasoner::ImpliesMinCardinality(ClassId class_id,
                                             AttributeTerm term,
                                             uint64_t min) {
  return DecideFromScratch({.kind = ImplicationQuery::Kind::kMinCardinality,
                            .class_id = class_id,
                            .term = term,
                            .bound = min});
}

Result<bool> Reasoner::ImpliesMaxCardinality(ClassId class_id,
                                             AttributeTerm term,
                                             uint64_t max) {
  return DecideFromScratch({.kind = ImplicationQuery::Kind::kMaxCardinality,
                            .class_id = class_id,
                            .term = term,
                            .bound = max});
}

Result<bool> Reasoner::ImpliesMinParticipation(ClassId class_id,
                                               RelationId relation,
                                               RoleId role, uint64_t min) {
  return DecideFromScratch({.kind = ImplicationQuery::Kind::kMinParticipation,
                            .class_id = class_id,
                            .relation = relation,
                            .role = role,
                            .bound = min});
}

Result<bool> Reasoner::ImpliesMaxParticipation(ClassId class_id,
                                               RelationId relation,
                                               RoleId role, uint64_t max) {
  return DecideFromScratch({.kind = ImplicationQuery::Kind::kMaxParticipation,
                            .class_id = class_id,
                            .relation = relation,
                            .role = role,
                            .bound = max});
}

Result<bool> Reasoner::ImpliesRoleTyping(RelationId relation, RoleId role,
                                         const ClassFormula& formula) {
  CAR_RETURN_IF_ERROR(schema_->ValidateRoleOf(relation, role));
  const RelationDefinition* definition =
      schema_->relation_definition(relation);
  const int role_index = definition->RoleIndex(role);
  CAR_RETURN_IF_ERROR(Prepare());

  std::vector<int> active;
  for (size_t i = 0; i < solution_->cc_active.size(); ++i) {
    if (solution_->cc_active[i]) active.push_back(static_cast<int>(i));
  }
  const int arity = definition->arity();
  double combination_estimate = 1;
  for (int k = 0; k < arity; ++k) {
    combination_estimate *= static_cast<double>(active.size());
  }
  if (combination_estimate > 4e6) {
    return GovRecordTrip(options_.exec, LimitKind::kMaxCandidates,
                         "implication", 4'000'000,
                         static_cast<uint64_t>(combination_estimate));
  }

  // Index of the counted compound relations of this relation.
  std::map<std::vector<int>, int> counted;
  for (size_t i = 0; i < expansion_->compound_relations.size(); ++i) {
    const CompoundRelation& cr = expansion_->compound_relations[i];
    if (cr.relation == relation) {
      counted.emplace(cr.components, static_cast<int>(i));
    }
  }
  PsiSystem psi =
      BuildPsiSystem(*expansion_, solution_->cc_active, solution_->ca_active,
                     solution_->cr_active);

  // Enumerate candidate component vectors over the active support,
  // collecting the counted violating shapes; their LP feasibility probes
  // run as a parallel sweep afterwards.
  std::vector<std::vector<int>> probes;
  std::vector<int> components(arity);
  std::vector<size_t> odometer(arity, 0);
  while (true) {
    for (int k = 0; k < arity; ++k) components[k] = active[odometer[k]];
    std::vector<const CompoundClass*> views;
    views.reserve(arity);
    for (int index : components) {
      views.push_back(&expansion_->compound_classes[index]);
    }
    if (IsConsistentCompoundRelation(*schema_, *definition, views) &&
        !views[role_index]->Realizes(formula)) {
      // A tuple of this shape would violate the candidate typing; can it
      // occur? Free (uncounted) shapes always can; counted ones are
      // checked against Ψ_S.
      bool constrained = false;
      for (int k = 0; k < arity; ++k) {
        if (expansion_->nrel.count({relation, k, components[k]}) > 0) {
          constrained = true;
          break;
        }
      }
      if (!constrained) return false;
      auto it = counted.find(components);
      CAR_CHECK(it != counted.end())
          << "constrained compound relation missing from the expansion";
      std::vector<int> forced = {psi.cr_var[it->second]};
      for (int index : components) forced.push_back(psi.cc_var[index]);
      probes.push_back(std::move(forced));
    }
    // Advance the odometer.
    int k = 0;
    while (k < arity && ++odometer[k] == active.size()) {
      odometer[k] = 0;
      ++k;
    }
    if (k == arity) break;
  }
  CAR_ASSIGN_OR_RETURN(bool possible,
                       AnyProbeFeasible(psi, probes, options_.num_threads,
                                        options_.exec));
  return !possible;
}

Result<bool> Reasoner::ImpliesAttributeRange(AttributeTerm term,
                                             const ClassFormula& formula) {
  if (term.attribute < 0 || term.attribute >= schema_->num_attributes()) {
    return NotFound(StrCat("attribute id ", term.attribute, " out of range"));
  }
  CAR_RETURN_IF_ERROR(Prepare());

  std::vector<int> active;
  for (size_t i = 0; i < solution_->cc_active.size(); ++i) {
    if (solution_->cc_active[i]) active.push_back(static_cast<int>(i));
  }
  std::map<std::pair<int, int>, int> counted;
  for (size_t i = 0; i < expansion_->compound_attributes.size(); ++i) {
    const CompoundAttribute& ca = expansion_->compound_attributes[i];
    if (ca.attribute == term.attribute) {
      counted.emplace(std::make_pair(ca.from, ca.to), static_cast<int>(i));
    }
  }
  PsiSystem psi =
      BuildPsiSystem(*expansion_, solution_->cc_active, solution_->ca_active,
                     solution_->cr_active);

  // Collect the counted violating pairs; their LP feasibility probes run
  // as a parallel sweep afterwards.
  std::vector<std::vector<int>> probes;
  for (int from : active) {
    for (int to : active) {
      if (!IsConsistentCompoundAttribute(
              *schema_, term.attribute, expansion_->compound_classes[from],
              expansion_->compound_classes[to])) {
        continue;
      }
      // The "successor" side of a direct term is the pair's target; for
      // an inverse term it is the source.
      const CompoundClass& successor =
          expansion_->compound_classes[term.inverse ? from : to];
      if (successor.Realizes(formula)) continue;
      bool constrained =
          expansion_->natt.count({AttributeTerm::Direct(term.attribute),
                                  from}) > 0 ||
          expansion_->natt.count({AttributeTerm::Inverse(term.attribute),
                                  to}) > 0;
      if (!constrained) return false;
      auto it = counted.find({from, to});
      CAR_CHECK(it != counted.end())
          << "constrained compound attribute missing from the expansion";
      probes.push_back(
          {psi.ca_var[it->second], psi.cc_var[from], psi.cc_var[to]});
    }
  }
  CAR_ASSIGN_OR_RETURN(bool possible,
                       AnyProbeFeasible(psi, probes, options_.num_threads,
                                        options_.exec));
  return !possible;
}

Result<Cardinality> Reasoner::ImpliedCardinalityBounds(
    ClassId class_id, AttributeTerm term, uint64_t search_limit) {
  // Largest implied minimum in [0, search_limit] by binary search
  // (implication of a minimum is downward monotone in the bound).
  uint64_t lo = 0;
  uint64_t hi = search_limit;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo + 1) / 2;
    CAR_ASSIGN_OR_RETURN(bool implied,
                         ImpliesMinCardinality(class_id, term, mid));
    if (implied) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  uint64_t implied_min = lo;

  // Smallest implied maximum in [0, search_limit], or unbounded.
  CAR_ASSIGN_OR_RETURN(bool bounded,
                       ImpliesMaxCardinality(class_id, term, search_limit));
  uint64_t implied_max = Cardinality::kInfinity;
  if (bounded) {
    lo = 0;
    hi = search_limit;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      CAR_ASSIGN_OR_RETURN(bool implied,
                           ImpliesMaxCardinality(class_id, term, mid));
      if (implied) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    implied_max = lo;
  }
  if (implied_max != Cardinality::kInfinity && implied_min > implied_max) {
    // Only possible when the class is unsatisfiable (every bound holds
    // vacuously); normalize.
    return Cardinality::Exactly(0);
  }
  return Cardinality(implied_min, implied_max);
}

Result<bool> Reasoner::RunImplicationQuery(const ImplicationQuery& query) {
  if (options_.incremental) {
    return GetIncrementalSession()->RunImplicationQuery(query);
  }
  return DecideFromScratch(query);
}

Result<std::vector<bool>> Reasoner::RunImplicationBatch(
    const std::vector<ImplicationQuery>& queries) {
  if (options_.incremental) {
    return GetIncrementalSession()->RunImplicationBatch(queries);
  }
  std::vector<const ImplicationQuery*> validated;
  validated.reserve(queries.size());
  for (const ImplicationQuery& query : queries) {
    CAR_RETURN_IF_ERROR(ValidateImplicationQuery(*schema_, query));
    validated.push_back(&query);
  }
  return DecideImplicationBatch(*schema_, validated, FromScratchOracle(),
                                options_.num_threads, options_.exec);
}

}  // namespace car
