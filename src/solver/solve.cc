#include "solver/solve.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "base/thread_pool.h"
#include "solver/psi.h"

namespace car {

namespace {

/// Deactivates compound attributes and relations with any inactive
/// compound-class endpoint (the acceptability propagation). Returns true
/// if anything changed.
bool PropagateDeactivation(const Expansion& expansion,
                           const std::vector<bool>& cc_active,
                           std::vector<bool>* ca_active,
                           std::vector<bool>* cr_active) {
  bool changed = false;
  for (size_t i = 0; i < expansion.compound_attributes.size(); ++i) {
    if (!(*ca_active)[i]) continue;
    const CompoundAttribute& ca = expansion.compound_attributes[i];
    if (!cc_active[ca.from] || !cc_active[ca.to]) {
      (*ca_active)[i] = false;
      changed = true;
    }
  }
  for (size_t i = 0; i < expansion.compound_relations.size(); ++i) {
    if (!(*cr_active)[i]) continue;
    const CompoundRelation& cr = expansion.compound_relations[i];
    for (int component : cr.components) {
      if (!cc_active[component]) {
        (*cr_active)[i] = false;
        changed = true;
        break;
      }
    }
  }
  return changed;
}

}  // namespace

Result<PsiSolution> SolvePsi(const Expansion& expansion,
                             const PsiSolverOptions& options) {
  PsiSolution solution;
  solution.cc_active.assign(expansion.compound_classes.size(), true);
  // Compound classes that appear in no Natt/Nrel entry have unconstrained
  // unknowns: they are always supportable and need no t-gadget (their
  // certificate count is fixed to 1 below). This keeps the support LP at
  // the size of the *constrained* part of the system.
  std::vector<bool> cc_constrained(expansion.compound_classes.size(), false);
  for (const auto& [key, cardinality] : expansion.natt) {
    (void)cardinality;
    cc_constrained[key.second] = true;
  }
  for (const auto& [key, cardinality] : expansion.nrel) {
    (void)cardinality;
    cc_constrained[std::get<2>(key)] = true;
  }
  solution.ca_active.assign(expansion.compound_attributes.size(), true);
  solution.cr_active.assign(expansion.compound_relations.size(), true);

  ExecContext* exec = options.exec;
  SimplexSolver::Options simplex_options;
  simplex_options.max_pivots = options.max_pivots;
  simplex_options.exec = exec;
  simplex_options.kernel = options.kernel;
  SimplexSolver simplex(simplex_options);

  std::vector<Rational> final_values;
  PsiSystem final_psi;

  while (true) {
    CAR_RETURN_IF_ERROR(GovCheck(exec, "solver"));
    ++solution.fixpoint_rounds;
    PropagateDeactivation(expansion, solution.cc_active, &solution.ca_active,
                          &solution.cr_active);

    PsiSystem psi = BuildPsiSystem(expansion, solution.cc_active,
                                   solution.ca_active, solution.cr_active);

    // Support-maximization variables: t_C̄ <= Var(C̄), t_C̄ <= 1, maximize
    // the sum of all t. At the optimum, t_C̄ = 1 exactly on the maximal
    // support and Var(C̄) >= 1 there.
    LinearExpr objective;
    std::vector<size_t> supported;  // Constrained active cc indices.
    std::vector<LinearConstraint> gadgets;
    for (size_t i = 0; i < solution.cc_active.size(); ++i) {
      if (!solution.cc_active[i] || !cc_constrained[i]) continue;
      supported.push_back(i);
      AppendSupportGadget(psi.system.AddVariable(), psi.cc_var[i], &gadgets,
                          &objective);
    }
    for (LinearConstraint& row : gadgets) {
      psi.system.AddConstraint(std::move(row));
    }

    solution.largest_lp_variables =
        std::max(solution.largest_lp_variables,
                 static_cast<size_t>(psi.system.num_variables()));
    solution.largest_lp_constraints =
        std::max(solution.largest_lp_constraints,
                 psi.system.constraints().size());

    CAR_ASSIGN_OR_RETURN(LpResult lp, simplex.Maximize(psi.system, objective));
    ++solution.lp_solves;
    if (exec != nullptr) exec->CountLpSolves(1);
    solution.total_pivots += lp.pivots;
    solution.scalar_promotions += lp.scalar_promotions;
    solution.peak_tableau_nonzeros =
        std::max(solution.peak_tableau_nonzeros, lp.tableau_nonzeros);
    solution.peak_tableau_cells =
        std::max(solution.peak_tableau_cells, lp.tableau_cells);
    CAR_CHECK(lp.outcome == LpOutcome::kOptimal)
        << "support LP must have an optimum (outcome: "
        << LpOutcomeToString(lp.outcome) << ")";

    // New support: compound classes whose unknown is strictly positive.
    bool shrank = false;
    for (size_t cc_index : supported) {
      const Rational& value = lp.values[psi.cc_var[cc_index]];
      if (!value.is_positive()) {
        solution.cc_active[cc_index] = false;
        shrank = true;
      }
    }
    if (!shrank) {
      final_values = std::move(lp.values);
      final_psi = std::move(psi);
      break;
    }
  }

  // Derive per-class satisfiability from the surviving compound classes.
  const Schema& schema = *expansion.schema;
  solution.class_satisfiable.assign(schema.num_classes(), false);
  for (size_t i = 0; i < expansion.compound_classes.size(); ++i) {
    if (!solution.cc_active[i]) continue;
    for (ClassId member : expansion.compound_classes[i].members()) {
      solution.class_satisfiable[member] = true;
    }
  }

  // Integer certificate: scale the final rational solution by the least
  // common multiple of all denominators. Ψ_S is homogeneous, so the scaled
  // vector is still a solution, and every active Var(C̄) >= 1 stays >= 1.
  // Whole-number values add nothing to the LCM and scale by one
  // multiplication.
  //
  // LCM is associative and commutative, so the chunked parallel reduction
  // yields the same value as the serial sweep regardless of merge order.
  std::vector<int> all_variables;
  all_variables.reserve(final_psi.cc_var.size() + final_psi.ca_var.size() +
                        final_psi.cr_var.size());
  all_variables.insert(all_variables.end(), final_psi.cc_var.begin(),
                       final_psi.cc_var.end());
  all_variables.insert(all_variables.end(), final_psi.ca_var.begin(),
                       final_psi.ca_var.end());
  all_variables.insert(all_variables.end(), final_psi.cr_var.begin(),
                       final_psi.cr_var.end());
  ParallelForOptions parallel;
  parallel.num_threads = options.num_threads;
  parallel.min_chunk = 64;
  parallel.cancel = exec;
  CAR_RETURN_IF_ERROR(GovCheck(exec, "solver"));
  BigInt lcm(1);
  std::mutex lcm_mutex;
  ParallelFor(all_variables.size(), parallel,
              [&](size_t begin, size_t end) {
                BigInt local(1);
                for (size_t i = begin; i < end; ++i) {
                  int variable = all_variables[i];
                  if (variable < 0 || final_values[variable].is_integer()) {
                    continue;
                  }
                  local = BigInt::Lcm(local,
                                      final_values[variable].denominator());
                }
                std::lock_guard<std::mutex> lock(lcm_mutex);
                lcm = BigInt::Lcm(lcm, local);
              });
  // A trip during the LCM reduction means skipped chunks and a short
  // LCM; bail out before the is_integer() check below could fire on it.
  CAR_RETURN_IF_ERROR(GovCheck(exec, "solver"));

  auto scaled = [&lcm, &final_values](int variable) {
    if (variable < 0) return BigInt(0);
    const Rational& value = final_values[variable];
    if (value.is_integer()) return value.numerator() * lcm;
    BigInt quotient;
    BigInt remainder;
    BigInt::DivMod(lcm, value.denominator(), &quotient, &remainder);
    CAR_CHECK(remainder.is_zero());
    return value.numerator() * quotient;
  };
  // Scaling is an independent exact multiplication per unknown; each
  // parallel iteration writes its own preallocated slot.
  solution.certificate.cc_count.assign(final_psi.cc_var.size(), BigInt(0));
  solution.certificate.ca_count.assign(final_psi.ca_var.size(), BigInt(0));
  solution.certificate.cr_count.assign(final_psi.cr_var.size(), BigInt(0));
  ParallelFor(final_psi.cc_var.size(), parallel,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  BigInt count = scaled(final_psi.cc_var[i]);
                  // Unconstrained active compound classes carry no
                  // t-gadget; give them the population 1 they are
                  // entitled to (their unknown occurs in no disequation).
                  if (solution.cc_active[i] && !cc_constrained[i] &&
                      count.is_zero()) {
                    count = BigInt(1);
                  }
                  solution.certificate.cc_count[i] = std::move(count);
                }
              });
  ParallelFor(final_psi.ca_var.size(), parallel,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  solution.certificate.ca_count[i] =
                      scaled(final_psi.ca_var[i]);
                }
              });
  ParallelFor(final_psi.cr_var.size(), parallel,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  solution.certificate.cr_count[i] =
                      scaled(final_psi.cr_var[i]);
                }
              });
  // A trip during certificate post-processing leaves partially scaled
  // counts behind; fail the solve rather than return them.
  CAR_RETURN_IF_ERROR(GovCheck(exec, "solver"));
  return solution;
}

}  // namespace car
