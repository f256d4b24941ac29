#ifndef CAR_SOLVER_PSI_H_
#define CAR_SOLVER_PSI_H_

#include <vector>

#include "expansion/expansion.h"
#include "math/linear.h"

namespace car {

/// The system Ψ_S of linear disequations derived from the expansion of a
/// CAR schema (Section 3.2), restricted to an "active" subset of the
/// unknowns (used by the acceptability fixpoint of the solver; pass
/// all-true masks for the full system).
///
/// Unknowns: one per active compound class, compound attribute and
/// compound relation. Constraints (nonnegativity is implicit in the
/// simplex solver):
///
///   for C̄ ⇒ att : (u, v) in Natt:
///       u * Var(C̄) <= S(att, C̄) <= v * Var(C̄)
///   for C̄ ⇒ R[U_k] : (x, y) in Nrel:
///       x * Var(C̄) <= sum of Var(R̄) with R̄[U_k] = C̄ <= y * Var(C̄)
///
/// where S(A, C̄) sums Var(⟨C̄, C̄2⟩_A) and S((inv A), C̄) sums
/// Var(⟨C̄1, C̄⟩_A). Constraints whose compound class is inactive are
/// dropped (their attribute/relation unknowns are inactive too, by the
/// caller's deactivation rule). Infinite upper bounds yield no <=
/// constraint; zero lower bounds yield no >= constraint.
struct PsiSystem {
  LinearSystem system;
  /// Variable index per compound class / attribute / relation, or -1 when
  /// inactive (not part of the system).
  std::vector<int> cc_var;
  std::vector<int> ca_var;
  std::vector<int> cr_var;
  /// Total number of disequations emitted (both directions counted).
  size_t num_disequations = 0;
};

/// Builds Ψ_S over the active unknowns. The system carries no variable
/// names and no row labels: Ψ is built for the LP only, "immediately" from
/// the expansion (§4.2), so nothing is formatted per unknown or per row.
PsiSystem BuildPsiSystem(const Expansion& expansion,
                         const std::vector<bool>& cc_active,
                         const std::vector<bool>& ca_active,
                         const std::vector<bool>& cr_active);

/// Convenience: the full system with every unknown active.
PsiSystem BuildFullPsiSystem(const Expansion& expansion);

/// The one Ψ row emitter. Appends the bound rows of a Natt/Nrel entry
///   sum - u * Var(C̄) >= 0   (iff u > 0), then
///   sum - v * Var(C̄) <= 0   (iff v is finite)
/// to `rows`. Every Ψ builder — the from-scratch system above, the
/// incremental delta rows, and the replays in
/// BuildIncrementalPsiBaseStructure and certificate_check — relies on
/// this lower-then-upper order.
void AppendBoundRows(int cc_variable, const LinearExpr& sum,
                     const Cardinality& cardinality,
                     std::vector<LinearConstraint>* rows);

/// The support gadget of the maximal-support LP for one constrained
/// compound class: appends t - Var(C̄) <= 0 and t <= 1 to `rows` and adds
/// t to `objective`. At the optimum of max Σ t, t = 1 exactly on the
/// maximal support.
void AppendSupportGadget(int t, int cc_variable,
                         std::vector<LinearConstraint>* rows,
                         LinearExpr* objective);

}  // namespace car

#endif  // CAR_SOLVER_PSI_H_
