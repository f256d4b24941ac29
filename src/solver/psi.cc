#include "solver/psi.h"

#include <utility>

#include "base/check.h"

namespace car {

void AppendBoundRows(int cc_variable, const LinearExpr& sum,
                     const Cardinality& cardinality,
                     std::vector<LinearConstraint>* rows) {
  if (cardinality.min() > 0) {
    LinearConstraint lower;
    lower.expr = sum;
    lower.expr.Add(cc_variable,
                   Rational(-static_cast<int64_t>(cardinality.min())));
    lower.relation = Relation::kGreaterEqual;
    lower.rhs = Rational(0);
    rows->push_back(std::move(lower));
  }
  if (cardinality.has_finite_max()) {
    LinearConstraint upper;
    upper.expr = sum;
    upper.expr.Add(cc_variable,
                   Rational(-static_cast<int64_t>(cardinality.max())));
    upper.relation = Relation::kLessEqual;
    upper.rhs = Rational(0);
    rows->push_back(std::move(upper));
  }
}

void AppendSupportGadget(int t, int cc_variable,
                         std::vector<LinearConstraint>* rows,
                         LinearExpr* objective) {
  LinearConstraint below_var;
  below_var.expr.Add(t, Rational(1));
  below_var.expr.Add(cc_variable, Rational(-1));
  below_var.relation = Relation::kLessEqual;
  below_var.rhs = Rational(0);
  rows->push_back(std::move(below_var));
  LinearConstraint below_one;
  below_one.expr.Add(t, Rational(1));
  below_one.relation = Relation::kLessEqual;
  below_one.rhs = Rational(1);
  rows->push_back(std::move(below_one));
  objective->Add(t, Rational(1));
}

PsiSystem BuildPsiSystem(const Expansion& expansion,
                         const std::vector<bool>& cc_active,
                         const std::vector<bool>& ca_active,
                         const std::vector<bool>& cr_active) {
  CAR_CHECK_EQ(cc_active.size(), expansion.compound_classes.size());
  CAR_CHECK_EQ(ca_active.size(), expansion.compound_attributes.size());
  CAR_CHECK_EQ(cr_active.size(), expansion.compound_relations.size());

  PsiSystem psi;
  psi.cc_var.assign(cc_active.size(), -1);
  psi.ca_var.assign(ca_active.size(), -1);
  psi.cr_var.assign(cr_active.size(), -1);
  for (size_t i = 0; i < cc_active.size(); ++i) {
    if (cc_active[i]) psi.cc_var[i] = psi.system.AddVariable();
  }
  for (size_t i = 0; i < ca_active.size(); ++i) {
    if (ca_active[i]) psi.ca_var[i] = psi.system.AddVariable();
  }
  for (size_t i = 0; i < cr_active.size(); ++i) {
    if (cr_active[i]) psi.cr_var[i] = psi.system.AddVariable();
  }

  std::vector<LinearConstraint> rows;
  // Natt constraints.
  for (const auto& [key, cardinality] : expansion.natt) {
    const auto& [term, compound_index] = key;
    if (!cc_active[compound_index]) continue;
    LinearExpr sum;
    const auto& index_map =
        term.inverse ? expansion.ca_by_to : expansion.ca_by_from;
    auto it = index_map.find({term.attribute, compound_index});
    if (it != index_map.end()) {
      for (int ca_index : it->second) {
        if (ca_active[ca_index]) {
          sum.Add(psi.ca_var[ca_index], Rational(1));
        }
      }
    }
    AppendBoundRows(psi.cc_var[compound_index], sum, cardinality, &rows);
  }

  // Nrel constraints.
  for (const auto& [key, cardinality] : expansion.nrel) {
    const auto& [relation, role_index, compound_index] = key;
    if (!cc_active[compound_index]) continue;
    LinearExpr sum;
    auto it = expansion.cr_by_role.find({relation, role_index,
                                         compound_index});
    if (it != expansion.cr_by_role.end()) {
      for (int cr_index : it->second) {
        if (cr_active[cr_index]) {
          sum.Add(psi.cr_var[cr_index], Rational(1));
        }
      }
    }
    AppendBoundRows(psi.cc_var[compound_index], sum, cardinality, &rows);
  }

  psi.num_disequations = rows.size();
  for (LinearConstraint& row : rows) psi.system.AddConstraint(std::move(row));
  return psi;
}

PsiSystem BuildFullPsiSystem(const Expansion& expansion) {
  return BuildPsiSystem(
      expansion,
      std::vector<bool>(expansion.compound_classes.size(), true),
      std::vector<bool>(expansion.compound_attributes.size(), true),
      std::vector<bool>(expansion.compound_relations.size(), true));
}

}  // namespace car
