#ifndef CAR_SOLVER_SOLVE_H_
#define CAR_SOLVER_SOLVE_H_

#include <vector>

#include "base/result.h"
#include "expansion/expansion.h"
#include "math/bigint.h"
#include "math/simplex.h"

namespace car {

/// An acceptable nonnegative *integer* solution of Ψ_S (Theorem 3.3):
/// instance counts for each compound class, pair counts for each compound
/// attribute, tuple counts for each compound relation. Every compound
/// class in the final support has count >= 1, and counts are 0 exactly
/// outside the support, which makes the solution acceptable by
/// construction.
struct PsiCertificate {
  std::vector<BigInt> cc_count;
  std::vector<BigInt> ca_count;
  std::vector<BigInt> cr_count;
};

/// Result of deciding Ψ_S over an expansion. The computation is
/// query-independent: it determines at once, for every class of the
/// schema, whether it is satisfiable.
struct PsiSolution {
  /// Per compound class: is it in the final (maximal acceptable) support?
  std::vector<bool> cc_active;
  std::vector<bool> ca_active;
  std::vector<bool> cr_active;
  /// class_satisfiable[C] iff some active compound class contains C.
  std::vector<bool> class_satisfiable;
  /// Integer certificate, positive exactly on the active compound
  /// classes. All-zero when no compound class survives.
  PsiCertificate certificate;

  // Statistics.
  size_t fixpoint_rounds = 0;
  size_t lp_solves = 0;
  size_t total_pivots = 0;
  size_t largest_lp_variables = 0;
  size_t largest_lp_constraints = 0;
  /// Tableau rows moved to BigInt form on int64 overflow, summed over all
  /// LP solves (0 for the dense-rational kernel).
  uint64_t scalar_promotions = 0;
  /// Largest final tableau across the LP solves, as nonzero cells and as
  /// dense extent (rows * columns); nonzeros/cells is the peak fill.
  uint64_t peak_tableau_nonzeros = 0;
  uint64_t peak_tableau_cells = 0;

  bool IsClassSatisfiable(ClassId class_id) const {
    return class_id >= 0 &&
           class_id < static_cast<int>(class_satisfiable.size()) &&
           class_satisfiable[class_id];
  }
};

struct PsiSolverOptions {
  /// Passed through to the simplex solver; 0 = unlimited.
  size_t max_pivots = 0;
  /// Optional resource governor (borrowed; may be null = ungoverned),
  /// forwarded to the simplex solver and checked between fixpoint
  /// rounds.
  ExecContext* exec = nullptr;
  /// Worker threads for the parallelizable parts of the solve (the
  /// certificate scaling and the LCM reduction over the final rational
  /// solution). The support LP itself is a single sequential simplex per
  /// fixpoint round. 1 = serial reference path; 0 = hardware concurrency.
  /// Results are identical for every value (LCM is associative and
  /// commutative; scaled counts are written to per-index slots).
  int num_threads = 1;
  /// Tableau representation for the support LPs (see SimplexKernel).
  /// Every kernel returns bit-identical results; the non-default kernels
  /// exist for differential tests and benchmarks.
  SimplexKernel kernel = SimplexKernel::kSparse;
};

/// Decides satisfiability of every class of the expanded schema.
///
/// Method (the polynomial-in-|Ψ_S| procedure behind Theorem 4.3): because
/// Ψ_S is homogeneous, its solution set is closed under addition and
/// positive scaling, so there is a unique maximal support realizable by a
/// single solution. The solver computes it by maximizing Σ t_C̄ subject to
/// Ψ_S, t_C̄ <= Var(C̄), t_C̄ <= 1 (one LP per round), then deactivates
/// compound attributes/relations with a deactivated endpoint (the
/// acceptability condition) and repeats until the support stabilizes.
/// A class is satisfiable iff a surviving compound class contains it; the
/// optimal solution, scaled by the least common multiple of its
/// denominators, is the acceptable integer certificate.
Result<PsiSolution> SolvePsi(const Expansion& expansion,
                             const PsiSolverOptions& options = {});

}  // namespace car

#endif  // CAR_SOLVER_SOLVE_H_
