#include "solver/incremental_psi.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace car {

UnsatProbe BuildUnsatProbe(const Expansion& partial, ClassId target) {
  UnsatProbe probe;
  probe.target = target;
  probe.psi = BuildFullPsiSystem(partial);
  LinearConstraint row;
  for (size_t i = 0; i < partial.compound_classes.size(); ++i) {
    if (!partial.compound_classes[i].Contains(target)) continue;
    row.expr.Add(probe.psi.cc_var[i], Rational(1));
  }
  row.relation = Relation::kGreaterEqual;
  row.rhs = Rational(1);
  probe.probe_row = probe.psi.system.constraints().size();
  probe.psi.system.AddConstraint(std::move(row));
  return probe;
}

Result<LpResult> SolveUnsatProbe(const UnsatProbe& probe,
                                 const PsiSolverOptions& options) {
  SimplexSolver::Options solver_options;
  solver_options.max_pivots = options.max_pivots;
  solver_options.exec = options.exec;
  solver_options.kernel = SimplexKernel::kSparse;
  solver_options.extract_certificate = true;
  return SimplexSolver(solver_options).CheckFeasible(probe.psi.system);
}

Result<IncrementalPsiBase> BuildIncrementalPsiBaseStructure(
    const Expansion& expansion, const PsiSolverOptions& options) {
  ExecContext* exec = options.exec;
  CAR_RETURN_IF_ERROR(GovCheck(exec, "solver"));

  IncrementalPsiBase base;
  base.psi = BuildFullPsiSystem(expansion);

  base.cc_constrained.assign(expansion.compound_classes.size(), false);
  for (const auto& [key, cardinality] : expansion.natt) {
    (void)cardinality;
    base.cc_constrained[key.second] = true;
  }
  for (const auto& [key, cardinality] : expansion.nrel) {
    (void)cardinality;
    base.cc_constrained[std::get<2>(key)] = true;
  }

  // Recover the constraint-list position of every Natt/Nrel bound row by
  // replaying the builder's emission order: Natt entries in map order,
  // then Nrel entries in map order, each contributing its lower row (iff
  // min > 0) then its upper row (iff the max is finite).
  int row = 0;
  for (const auto& [key, cardinality] : expansion.natt) {
    std::pair<int, int> rows(-1, -1);
    if (cardinality.min() > 0) rows.first = row++;
    if (cardinality.has_finite_max()) rows.second = row++;
    base.natt_rows.emplace(key, rows);
  }
  for (const auto& [key, cardinality] : expansion.nrel) {
    std::pair<int, int> rows(-1, -1);
    if (cardinality.min() > 0) rows.first = row++;
    if (cardinality.has_finite_max()) rows.second = row++;
    base.nrel_rows.emplace(key, rows);
  }
  CAR_CHECK_EQ(static_cast<size_t>(row),
               base.psi.system.constraints().size());

  // Support t-gadgets, exactly as SolvePsi emits them for the all-active
  // round.
  base.t_var.assign(expansion.compound_classes.size(), -1);
  std::vector<LinearConstraint> gadgets;
  for (size_t i = 0; i < expansion.compound_classes.size(); ++i) {
    if (!base.cc_constrained[i]) continue;
    base.t_var[i] = base.psi.system.AddVariable();
    AppendSupportGadget(base.t_var[i], base.psi.cc_var[i], &gadgets,
                        &base.objective);
  }
  for (LinearConstraint& row : gadgets) {
    base.psi.system.AddConstraint(std::move(row));
  }
  return base;
}

Result<IncrementalPsiBase> PrepareIncrementalPsi(
    const Expansion& expansion, const PsiSolverOptions& options) {
  ExecContext* exec = options.exec;
  CAR_ASSIGN_OR_RETURN(IncrementalPsiBase base,
                       BuildIncrementalPsiBaseStructure(expansion, options));

  SimplexSolver::Options simplex_options;
  simplex_options.max_pivots = options.max_pivots;
  simplex_options.exec = exec;
  CAR_ASSIGN_OR_RETURN(LpResult lp,
                       SimplexSolver(simplex_options)
                           .SolveForSnapshot(base.psi.system, base.objective,
                                             &base.snapshot));
  if (exec != nullptr) exec->CountLpSolves(1);
  CAR_CHECK(lp.outcome == LpOutcome::kOptimal)
      << "support LP must have an optimum (outcome: "
      << LpOutcomeToString(lp.outcome) << ")";
  base.base_pivots = lp.pivots;
  base.base_scalar_promotions = lp.scalar_promotions;
  base.base_tableau_nonzeros = lp.tableau_nonzeros;
  base.base_tableau_cells = lp.tableau_cells;
  // The base outlives its solve (session state, or a lazy run's frozen
  // seed); the pivots' merge headroom would otherwise stay resident.
  base.snapshot.ShrinkToFit();
  return base;
}

Result<PartialPsiResult> SolvePsiOverDelta(const Expansion& base,
                                           const IncrementalPsiBase& psi_base,
                                           const ExpansionDelta& delta,
                                           const PsiSolverOptions& options) {
  ExecContext* exec = options.exec;

  PartialPsiResult result;
  const int num_base_cc = static_cast<int>(base.compound_classes.size());
  const int num_base_ca = static_cast<int>(base.compound_attributes.size());
  const int num_base_cr = static_cast<int>(base.compound_relations.size());
  const int num_new_cc = static_cast<int>(delta.new_compound_classes.size());
  const int num_new_ca =
      static_cast<int>(delta.new_compound_attributes.size());
  const int num_new_cr =
      static_cast<int>(delta.new_compound_relations.size());

  std::vector<bool> new_constrained(num_new_cc, false);
  for (const auto& [key, cardinality] : delta.new_natt) {
    (void)cardinality;
    new_constrained[key.second - num_base_cc] = true;
  }
  for (const auto& [key, cardinality] : delta.new_nrel) {
    (void)cardinality;
    new_constrained[std::get<2>(key) - num_base_cc] = true;
  }

  // --- Assemble the round-1 delta: new unknowns, extensions of base
  // rows whose sums gain new members, and the delta's own bound rows.
  // (The working snapshot itself is copied after the delta is assembled,
  // so the copy can reserve headroom for the delta's columns and rows.)
  const int base_vars = psi_base.snapshot.num_variables();
  int next_var = base_vars;
  std::vector<int> new_cc_var(num_new_cc);
  std::vector<int> new_ca_var(num_new_ca);
  std::vector<int> new_cr_var(num_new_cr);
  std::vector<int> new_t_var(num_new_cc, -1);
  for (int j = 0; j < num_new_cc; ++j) new_cc_var[j] = next_var++;
  for (int j = 0; j < num_new_ca; ++j) new_ca_var[j] = next_var++;
  for (int j = 0; j < num_new_cr; ++j) new_cr_var[j] = next_var++;
  for (int j = 0; j < num_new_cc; ++j) {
    if (new_constrained[j]) new_t_var[j] = next_var++;
  }
  auto var_of_cc = [&](int global) {
    return global < num_base_cc ? psi_base.psi.cc_var[global]
                                : new_cc_var[global - num_base_cc];
  };
  auto var_of_ca = [&](int global) {
    return global < num_base_ca ? psi_base.psi.ca_var[global]
                                : new_ca_var[global - num_base_ca];
  };
  auto var_of_cr = [&](int global) {
    return global < num_base_cr ? psi_base.psi.cr_var[global]
                                : new_cr_var[global - num_base_cr];
  };

  SimplexDelta round_delta;
  round_delta.num_new_variables = next_var - base_vars;

  // Base Natt/Nrel rows whose sums S(att, C̄) gain new compound
  // attributes/relations (the keys of the delta's lookup maps that name
  // base compound indices).
  auto extend_rows = [&round_delta](const std::pair<int, int>& rows,
                                    int variable) {
    if (rows.first >= 0) {
      round_delta.row_extensions.push_back(
          {static_cast<size_t>(rows.first), variable, Rational(1)});
    }
    if (rows.second >= 0) {
      round_delta.row_extensions.push_back(
          {static_cast<size_t>(rows.second), variable, Rational(1)});
    }
  };
  for (const auto& [key, indices] : delta.new_ca_by_from) {
    if (key.second >= num_base_cc) continue;
    auto it = psi_base.natt_rows.find(
        {AttributeTerm::Direct(key.first), key.second});
    if (it == psi_base.natt_rows.end()) continue;
    for (int ca_index : indices) extend_rows(it->second, var_of_ca(ca_index));
  }
  for (const auto& [key, indices] : delta.new_ca_by_to) {
    if (key.second >= num_base_cc) continue;
    auto it = psi_base.natt_rows.find(
        {AttributeTerm::Inverse(key.first), key.second});
    if (it == psi_base.natt_rows.end()) continue;
    for (int ca_index : indices) extend_rows(it->second, var_of_ca(ca_index));
  }
  for (const auto& [key, indices] : delta.new_cr_by_role) {
    if (std::get<2>(key) >= num_base_cc) continue;
    auto it = psi_base.nrel_rows.find(key);
    if (it == psi_base.nrel_rows.end()) continue;
    for (int cr_index : indices) extend_rows(it->second, var_of_cr(cr_index));
  }

  // Bound rows of the new compounds' own Natt/Nrel entries. Their sums
  // consist of new unknowns only (a compound attribute/relation touching
  // a new compound is itself new).
  for (const auto& [key, cardinality] : delta.new_natt) {
    const auto& [term, compound_index] = key;
    LinearExpr sum;
    const auto& index_map =
        term.inverse ? delta.new_ca_by_to : delta.new_ca_by_from;
    auto it = index_map.find({term.attribute, compound_index});
    if (it != index_map.end()) {
      for (int ca_index : it->second) {
        sum.Add(var_of_ca(ca_index), Rational(1));
      }
    }
    AppendBoundRows(var_of_cc(compound_index), sum, cardinality,
                    &round_delta.new_constraints);
  }
  for (const auto& [key, cardinality] : delta.new_nrel) {
    LinearExpr sum;
    auto it = delta.new_cr_by_role.find(key);
    if (it != delta.new_cr_by_role.end()) {
      for (int cr_index : it->second) {
        sum.Add(var_of_cr(cr_index), Rational(1));
      }
    }
    AppendBoundRows(var_of_cc(std::get<2>(key)), sum, cardinality,
                    &round_delta.new_constraints);
  }

  // t-gadgets of the new constrained compounds, and the extended
  // objective Σ t over base and new support variables alike.
  LinearExpr objective = psi_base.objective;
  for (int j = 0; j < num_new_cc; ++j) {
    if (new_t_var[j] < 0) continue;
    AppendSupportGadget(new_t_var[j], new_cc_var[j],
                        &round_delta.new_constraints, &objective);
  }

  // Copy the base snapshot. The rows are compressed sparse, so this
  // clones nonzeros, not columns, and a column append inside
  // ResumeMaximize touches no row storage at all — the growth-headroom
  // reservation the dense tableau needed here is gone with it.
  SimplexSnapshot snapshot = psi_base.snapshot;

  // --- The acceptability fixpoint over the pinned full system. Instead
  // of rebuilding a masked system per round (the from-scratch loop),
  // deactivated unknowns are pinned to zero with appended Var <= 0 rows;
  // the two formulations have corresponding feasible sets (dead unknowns
  // are zero either way), so each round's optimum — and the vertex-
  // independent deactivation decision it induces — coincides.
  const int total_cc = num_base_cc + num_new_cc;
  const int total_ca = num_base_ca + num_new_ca;
  const int total_cr = num_base_cr + num_new_cr;
  std::vector<bool> cc_active(total_cc, true);
  std::vector<bool> ca_active(total_ca, true);
  std::vector<bool> cr_active(total_cr, true);
  auto constrained = [&](int global) {
    return global < num_base_cc ? psi_base.cc_constrained[global]
                                : new_constrained[global - num_base_cc];
  };
  auto ca_at = [&](int global) -> const CompoundAttribute& {
    return global < num_base_ca
               ? base.compound_attributes[global]
               : delta.new_compound_attributes[global - num_base_ca];
  };
  auto cr_at = [&](int global) -> const CompoundRelation& {
    return global < num_base_cr
               ? base.compound_relations[global]
               : delta.new_compound_relations[global - num_base_cr];
  };

  SimplexSolver::Options simplex_options;
  simplex_options.max_pivots = options.max_pivots;
  simplex_options.exec = exec;
  SimplexSolver solver(simplex_options);

  std::vector<Rational> values;  // the fixpoint optimum's unknown values
  while (true) {
    CAR_RETURN_IF_ERROR(GovCheck(exec, "solver"));
    ++result.fixpoint_rounds;
    CAR_ASSIGN_OR_RETURN(LpResult lp,
                         solver.ResumeMaximize(&snapshot, round_delta,
                                               objective));
    ++result.lp_solves;
    if (exec != nullptr) exec->CountLpSolves(1);
    result.total_pivots += lp.pivots;
    result.scalar_promotions += lp.scalar_promotions;
    result.peak_tableau_nonzeros =
        std::max(result.peak_tableau_nonzeros, lp.tableau_nonzeros);
    result.peak_tableau_cells =
        std::max(result.peak_tableau_cells, lp.tableau_cells);
    CAR_CHECK(lp.outcome == LpOutcome::kOptimal)
        << "support LP must have an optimum (outcome: "
        << LpOutcomeToString(lp.outcome) << ")";

    std::vector<int> newly_dead;
    for (int i = 0; i < total_cc; ++i) {
      if (!cc_active[i] || !constrained(i)) continue;
      if (!lp.values[var_of_cc(i)].is_positive()) {
        cc_active[i] = false;
        newly_dead.push_back(var_of_cc(i));
      }
    }
    if (newly_dead.empty()) {
      values = std::move(lp.values);
      break;
    }
    // Acceptability propagation over base and delta unknowns alike
    // (endpoints of delta compound attributes/relations are global
    // indices, so one unified sweep covers both).
    for (int i = 0; i < total_ca; ++i) {
      if (!ca_active[i]) continue;
      const CompoundAttribute& ca = ca_at(i);
      if (!cc_active[ca.from] || !cc_active[ca.to]) {
        ca_active[i] = false;
        newly_dead.push_back(var_of_ca(i));
      }
    }
    for (int i = 0; i < total_cr; ++i) {
      if (!cr_active[i]) continue;
      const CompoundRelation& cr = cr_at(i);
      for (int component : cr.components) {
        if (!cc_active[component]) {
          cr_active[i] = false;
          newly_dead.push_back(var_of_cr(i));
          break;
        }
      }
    }
    round_delta = SimplexDelta();
    for (int variable : newly_dead) {
      LinearConstraint pin;
      pin.expr.Add(variable, Rational(1));
      pin.relation = Relation::kLessEqual;
      pin.rhs = Rational(0);
      round_delta.new_constraints.push_back(std::move(pin));
    }
  }

  result.cc_value.reserve(total_cc);
  for (int i = 0; i < total_cc; ++i) {
    result.cc_value.push_back(values[var_of_cc(i)]);
  }
  result.ca_value.reserve(total_ca);
  for (int i = 0; i < total_ca; ++i) {
    result.ca_value.push_back(values[var_of_ca(i)]);
  }
  result.cr_value.reserve(total_cr);
  for (int i = 0; i < total_cr; ++i) {
    result.cr_value.push_back(values[var_of_cr(i)]);
  }
  result.cc_active = std::move(cc_active);
  result.ca_active = std::move(ca_active);
  result.cr_active = std::move(cr_active);
  return result;
}

Result<IncrementalProbeResult> SolvePsiIncremental(
    const Expansion& base, const IncrementalPsiBase& psi_base,
    const ExpansionDelta& delta, ClassId aux,
    const PsiSolverOptions& options) {
  ExecContext* exec = options.exec;
  CAR_RETURN_IF_ERROR(GovCheck(exec, "solver"));

  IncrementalProbeResult result;
  const int num_base_cc = static_cast<int>(base.compound_classes.size());
  const int num_new_cc = static_cast<int>(delta.new_compound_classes.size());

  // Only new compounds can contain the auxiliary class.
  std::vector<bool> new_constrained(num_new_cc, false);
  for (const auto& [key, cardinality] : delta.new_natt) {
    (void)cardinality;
    new_constrained[key.second - num_base_cc] = true;
  }
  for (const auto& [key, cardinality] : delta.new_nrel) {
    (void)cardinality;
    new_constrained[std::get<2>(key) - num_base_cc] = true;
  }
  bool any_constrained_aux = false;
  for (int j = 0; j < num_new_cc; ++j) {
    if (!delta.new_compound_classes[j].Contains(aux)) continue;
    if (!new_constrained[j]) {
      // An unconstrained compound class never deactivates (its unknown
      // occurs in no disequation), so the auxiliary class is satisfiable
      // without solving anything — exactly the from-scratch verdict.
      result.aux_satisfiable = true;
      return result;
    }
    any_constrained_aux = true;
  }
  if (!any_constrained_aux) {
    // No compound class contains the auxiliary class at all (every
    // containing candidate was pruned as inconsistent): unsatisfiable.
    result.aux_satisfiable = false;
    return result;
  }

  CAR_ASSIGN_OR_RETURN(PartialPsiResult partial,
                       SolvePsiOverDelta(base, psi_base, delta, options));
  result.fixpoint_rounds = partial.fixpoint_rounds;
  result.lp_solves = partial.lp_solves;
  result.total_pivots = partial.total_pivots;
  result.scalar_promotions = partial.scalar_promotions;
  result.peak_tableau_nonzeros = partial.peak_tableau_nonzeros;
  result.peak_tableau_cells = partial.peak_tableau_cells;
  for (int j = 0; j < num_new_cc; ++j) {
    if (partial.cc_active[num_base_cc + j] &&
        delta.new_compound_classes[j].Contains(aux)) {
      result.aux_satisfiable = true;
      break;
    }
  }
  return result;
}

}  // namespace car
