#ifndef CAR_SOLVER_INCREMENTAL_PSI_H_
#define CAR_SOLVER_INCREMENTAL_PSI_H_

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "expansion/expansion_delta.h"
#include "math/simplex.h"
#include "solver/psi.h"
#include "solver/solve.h"

namespace car {

/// The frozen per-session state of the incremental Ψ solver: the FULL base
/// system (every unknown active, support t-gadgets appended) solved once
/// for a warm-start snapshot, plus the row bookkeeping needed to extend
/// base constraints with delta terms. Built once per base expansion;
/// read-only afterwards (probe threads copy the snapshot, never mutate
/// the shared state).
struct IncrementalPsiBase {
  /// Full system over the base expansion: variable maps cc_var/ca_var/
  /// cr_var are all >= 0 (nothing inactive).
  PsiSystem psi;
  /// Per base compound class: does it carry a Natt/Nrel entry (and hence
  /// a t-gadget)? Intrinsic to the compound's members, so extending the
  /// schema with an auxiliary class never changes it.
  std::vector<bool> cc_constrained;
  /// Per base compound class: its support variable t, or -1 when
  /// unconstrained (no gadget).
  std::vector<int> t_var;
  /// Constraint-list indices of the lower/upper row emitted for each
  /// Natt/Nrel entry (-1 when that direction was not emitted: zero min /
  /// infinite max). Delta compound attributes/relations with a BASE
  /// endpoint extend exactly these rows.
  std::map<std::pair<AttributeTerm, int>, std::pair<int, int>> natt_rows;
  std::map<std::tuple<RelationId, int, int>, std::pair<int, int>> nrel_rows;
  /// Sum of the base t variables (the support-maximization objective of
  /// the base system).
  LinearExpr objective;
  /// Feasible optimal basis of the base system; probes copy it and resume
  /// with their delta rows instead of solving from scratch.
  SimplexSnapshot snapshot;

  // Statistics of the base solve.
  size_t base_pivots = 0;
  uint64_t base_scalar_promotions = 0;
  uint64_t base_tableau_nonzeros = 0;
  uint64_t base_tableau_cells = 0;
};

/// What a probe solve reports: whether the auxiliary class survives the
/// acceptability fixpoint, plus solve statistics.
struct IncrementalProbeResult {
  bool aux_satisfiable = false;
  size_t fixpoint_rounds = 0;
  size_t lp_solves = 0;
  size_t total_pivots = 0;
  /// Tableau rows promoted to BigInt form, summed over the probe's LP
  /// solves, and the largest (nonzeros / dense extent) tableau among
  /// them. All three are deterministic per probe: each solve runs on one
  /// thread and the pivot sequence is fixed by Bland's rule.
  uint64_t scalar_promotions = 0;
  uint64_t peak_tableau_nonzeros = 0;
  uint64_t peak_tableau_cells = 0;
};

/// The outcome of one warm-started partial-Ψ solve over base + delta:
/// the acceptability-fixpoint activity masks and the final LP values of
/// every unknown, all indexed GLOBALLY (base count + position within the
/// delta). This is the general core the auxiliary-class probe wraps —
/// and the per-round engine of the lazy (counterexample-guided)
/// expansion, whose refinement rounds solve a growing partial expansion
/// and validate these values as a model witness. The delta may be empty
/// (the lazy seed round: solve the base alone).
struct PartialPsiResult {
  /// Activity after the fixpoint. Unconstrained compound classes are
  /// always active (their unknowns occur in no disequation).
  std::vector<bool> cc_active;
  std::vector<bool> ca_active;
  std::vector<bool> cr_active;
  /// The optimum's unknown values (dead unknowns are pinned to zero).
  std::vector<Rational> cc_value;
  std::vector<Rational> ca_value;
  std::vector<Rational> cr_value;
  size_t fixpoint_rounds = 0;
  size_t lp_solves = 0;
  size_t total_pivots = 0;
  uint64_t scalar_promotions = 0;
  uint64_t peak_tableau_nonzeros = 0;
  uint64_t peak_tableau_cells = 0;
};

/// The UNSAT-side probe of the lazy engine: the raw full-active Ψ system
/// of a PARTIAL expansion, plus one probe row appended last,
///   Σ_{materialized C̄ ∋ target} Var(C̄) >= 1.
/// No t-gadgets and no fixpoint — a plain feasibility question. If the
/// probe is infeasible AND its Farkas certificate is closed under the
/// not-yet-materialized columns (CheckCertificateClosure), the target is
/// unsatisfiable: the zero-extended certificate refutes the full probe
/// system, which a satisfiable target's full-expansion witness would
/// satisfy (zero-extension, scaled to meet the probe row). A feasible
/// probe concludes nothing — the engine keeps refining.
struct UnsatProbe {
  /// Variable maps over the partial expansion; the probe row is the last
  /// constraint of psi.system.
  PsiSystem psi;
  /// Index of the probe row in psi.system.constraints().
  size_t probe_row = 0;
  ClassId target = kInvalidId;
};

/// Builds the probe for `target` over `partial` (deterministic, no LP).
UnsatProbe BuildUnsatProbe(const Expansion& partial, ClassId target);

/// Solves the probe cold on the production sparse kernel with Farkas
/// extraction enabled (extraction is only defined for cold tableaus, so
/// the kernel choice in `options` is not honored here; outcomes are
/// bit-identical regardless). kInfeasible results carry
/// LpResult::infeasibility_certificate, which the caller must re-validate
/// with ValidateInfeasibilityCertificate before trusting.
Result<LpResult> SolveUnsatProbe(const UnsatProbe& probe,
                                 const PsiSolverOptions& options);

/// Runs the warm-started pinned acceptability fixpoint over base + delta
/// (the machinery documented on SolvePsiIncremental below, minus the
/// auxiliary-class shortcuts) and reports the resulting activity masks
/// and unknown values. Every compound class the delta adds must carry
/// global indices consistent with `base`; `delta` may be empty. The
/// masks/values are bit-identical to what SolvePsi computes on the
/// assembled base+delta expansion, by the pinning and vertex-independence
/// arguments below.
Result<PartialPsiResult> SolvePsiOverDelta(const Expansion& base,
                                           const IncrementalPsiBase& psi_base,
                                           const ExpansionDelta& delta,
                                           const PsiSolverOptions& options);

/// Builds everything in IncrementalPsiBase EXCEPT the solved snapshot:
/// the full base Ψ system, the cc_constrained/t_var masks, the
/// Natt/Nrel row bookkeeping (replaying the builder's emission order)
/// and the support objective. Purely deterministic in the expansion —
/// no LP runs — which is what lets a persisted SimplexSnapshot
/// (src/persist) be re-attached to a freshly rebuilt structure on warm
/// restart instead of re-paying the base solve.
Result<IncrementalPsiBase> BuildIncrementalPsiBaseStructure(
    const Expansion& expansion, const PsiSolverOptions& options);

/// Builds the incremental base state: the structure above with the full
/// system solved via SolveForSnapshot (mirroring SolvePsi round 1
/// exactly). One LP solve, charged to the governor like any other. The
/// solved snapshot is trimmed to its exact size, since the base is kept.
Result<IncrementalPsiBase> PrepareIncrementalPsi(
    const Expansion& expansion, const PsiSolverOptions& options);

/// Decides satisfiability of the auxiliary class of `delta` against
/// base + delta, warm-starting every fixpoint round from the base
/// snapshot instead of rebuilding:
///
///   round 1: append the delta unknowns (new compound classes /
///     attributes / relations and their t-gadgets), extend the base
///     Natt/Nrel rows whose sums gain new members, append the delta's
///     own bound rows, and ResumeMaximize;
///   round k+1: pin the unknowns deactivated in round k to zero with
///     appended Var <= 0 rows and ResumeMaximize again.
///
/// Pinning is equivalent to the from-scratch masked rebuild (solutions
/// correspond by zero-extension on the dead unknowns), and the
/// deactivation decision at an optimum is independent of which optimal
/// vertex the solver lands on (the unsupportable set is value-zero at
/// EVERY optimum), so the verdict is bit-identical to running SolvePsi on
/// the extended expansion. Governor observation matches the from-scratch
/// path: "solver" checks per round, "simplex" charges per pivot, errors
/// abort the probe.
Result<IncrementalProbeResult> SolvePsiIncremental(
    const Expansion& base, const IncrementalPsiBase& psi_base,
    const ExpansionDelta& delta, ClassId aux,
    const PsiSolverOptions& options);

}  // namespace car

#endif  // CAR_SOLVER_INCREMENTAL_PSI_H_
