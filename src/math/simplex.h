#ifndef CAR_MATH_SIMPLEX_H_
#define CAR_MATH_SIMPLEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/exec_context.h"
#include "base/result.h"
#include "math/linear.h"
#include "math/sparse_row.h"

namespace car {

/// Which tableau representation a solve runs on.
///
/// kSparse is the production kernel: compressed sparse integer rows,
/// int64 numerators over one positive denominator per row, with any row
/// that overflows recomputed in BigInt form on its own (sparse_row.h).
/// kDenseRational is the reference: dense rows of BigInt-backed
/// Rationals. It follows the identical Bland pivot sequence over the
/// identical exact values, so its results are bit-identical to the
/// sparse kernel's, and it exists for differential tests and for the
/// dense-vs-sparse cells of bench_pivot_kernel. Only
/// Maximize/CheckFeasible honor the selection; the snapshot/resume paths
/// always run the production sparse kernel.
enum class SimplexKernel {
  /// Sparse integer rows (production).
  kSparse,
  /// Dense rows of BigInt-backed Rationals (the oracle).
  kDenseRational,
};

const char* SimplexKernelToString(SimplexKernel kernel);

/// Outcome of a linear program.
enum class LpOutcome {
  /// A finite optimum (or, for feasibility checks, a feasible point) was
  /// found; LpResult::values holds one attaining assignment.
  kOptimal,
  /// No nonnegative assignment satisfies the constraints.
  kInfeasible,
  /// The objective is unbounded above on the feasible region.
  kUnbounded,
};

const char* LpOutcomeToString(LpOutcome outcome);

/// A Farkas certificate of infeasibility: one exact multiplier per
/// constraint of the LinearSystem, proving that no nonnegative assignment
/// can satisfy the system. Writing constraint i as `a_i · x <rel_i> b_i`,
/// a valid certificate ν satisfies
///   - sign coherence:  ν_i >= 0 for >=-rows, ν_i <= 0 for <=-rows,
///     unrestricted for =-rows;
///   - combined columns: Σ_i ν_i · a_ij <= 0 for every variable j;
///   - positive gap:     Σ_i ν_i · b_i > 0.
/// Then for any x >= 0, Σ ν_i (a_i·x) <= 0 < Σ ν_i b_i, yet each
/// constraint would force ν_i (a_i·x) >= ν_i b_i — a contradiction, so
/// the system is infeasible. The certificate is independent of how it
/// was produced; ValidateInfeasibilityCertificate re-checks the three
/// conditions from scratch in exact arithmetic.
struct InfeasibilityCertificate {
  /// One multiplier per constraint, aligned with
  /// LinearSystem::constraints(). Zero entries mean the row is unused.
  std::vector<Rational> row_multipliers;
};

/// Exact re-validation of `certificate` against `system` (the three
/// Farkas conditions above). Trust-nothing: O(nonzeros) rational
/// arithmetic, no reference to any solver state. Returns false on a size
/// mismatch, any sign violation, any positive combined column, or a
/// nonpositive combined right-hand side.
bool ValidateInfeasibilityCertificate(
    const LinearSystem& system, const InfeasibilityCertificate& certificate);

struct LpResult {
  LpOutcome outcome = LpOutcome::kInfeasible;
  /// One value per LinearSystem variable; meaningful for kOptimal (and for
  /// kUnbounded it holds the last feasible vertex visited).
  std::vector<Rational> values;
  /// Objective value at `values`.
  Rational objective;
  /// Number of simplex pivots performed (both phases).
  size_t pivots = 0;
  /// Tableau rows that overflowed their int64 words and moved to BigInt
  /// form during this solve (always 0 for the kDenseRational kernel).
  uint64_t scalar_promotions = 0;
  /// Nonzero cells of the final tableau, and its dense extent
  /// (rows * columns): nonzeros/cells is the fill ratio the sparse
  /// kernel exploits.
  uint64_t tableau_nonzeros = 0;
  uint64_t tableau_cells = 0;
  /// Farkas infeasibility certificate, populated only when the outcome is
  /// kInfeasible, Options::extract_certificate is set, and the solve ran
  /// the cold sparse kernel (Maximize / CheckFeasible / SolveForSnapshot
  /// with kSparse; resumed solves never extract — their appended
  /// rows pollute the dual read-off). Callers must re-validate via
  /// ValidateInfeasibilityCertificate before acting on it.
  std::optional<InfeasibilityCertificate> infeasibility_certificate;
};

/// A frozen simplex state that later solves can resume from.
///
/// Produced by SimplexSolver::SolveForSnapshot and advanced in place by
/// SimplexSolver::ResumeMaximize. The snapshot owns a full tableau in
/// compressed-sparse integer rows, right-hand sides inside them (the
/// production kernel's representation, so cloning a snapshot copies
/// nonzeros, not columns) whose basis stays
/// feasible for the solved system; resuming appends columns and rows to
/// it instead of rebuilding, so a batch of closely related systems pays
/// one cold phase 1 in total. Treat the members as opaque: they encode
/// tableau bookkeeping (per-row identity columns, sign flips, the
/// structural-variable <-> column maps) that only the solver maintains
/// coherently.
struct SimplexSnapshot {
  std::vector<SparseRow> rows;
  std::vector<int> basis;           // Basic variable (column) of each row.
  std::vector<bool> is_artificial;  // Indexed by column.
  /// Per row: the column that held the identity unit at the row's
  /// insertion (its current contents are B^-1 e_row, the key to pricing
  /// out appended columns).
  std::vector<int> init_basic;
  /// Per row: whether the row was negated when incorporated (a negative
  /// right-hand side, or a homogeneous >= row entering as its negated <=
  /// row), so appended terms and Farkas multipliers must negate too.
  std::vector<bool> row_flipped;
  /// Structural variable -> column and back (-1 for auxiliary columns).
  std::vector<int> col_of_var;
  std::vector<int> var_of_col;
  /// Per row: the width (column count) up to which the row is known to be
  /// all-zero over non-artificial columns, or 0 if unknown. Maintained by
  /// the parked-artificial sweep and invalidated by any pivot that
  /// modifies the row, it lets resumed solves rescan only the columns a
  /// delta appended instead of the whole (mostly untouched) tableau.
  std::vector<int> zero_checked;
  int num_cols = 0;
  /// Constraints of the solved system incorporated so far.
  size_t num_constraints = 0;

  int num_variables() const { return static_cast<int>(col_of_var.size()); }

  /// Releases the spare capacity a solve leaves in the row storage and
  /// the per-row vectors. Call once where a snapshot becomes long-lived
  /// state (a session's solved base), not on per-probe working copies:
  /// copies are already exact-size, and a resume regrows what it needs.
  void ShrinkToFit();
};

/// Structural-coherence check of a (deserialized) snapshot against the
/// system it claims to solve. Verifies the invariants ResumeMaximize
/// relies on — matching variable and constraint counts, per-row vectors
/// of equal length, per-column vectors of length num_cols, basis and
/// init_basic columns in range, the structural-variable <-> column maps
/// mutually inverse, row entries column-sorted with nonzero values, each
/// row's basic cell 1, and nonnegative basic values (the rows'
/// right-hand sides) — and returns
/// kFailedPrecondition on the first violation. A snapshot produced by SolveForSnapshot /
/// ResumeMaximize on `system` always passes; persisted snapshots
/// (src/persist) must pass before they are resumed.
Status ValidateSnapshotShape(const SimplexSnapshot& snapshot,
                             const LinearSystem& system);

/// The difference between an already-snapshotted system and the system a
/// resumed solve should decide: fresh variables, new terms that existing
/// constraints gain on those fresh variables, and appended constraints.
struct SimplexDelta {
  /// Variables appended after the snapshot's variables (their indices are
  /// snapshot.num_variables() .. +num_new_variables-1).
  int num_new_variables = 0;
  /// `constraint` (an index into the solved system's constraint list)
  /// gains the term `coefficient * variable`. Only NEW variables may be
  /// added to existing constraints; the old coefficients must stay
  /// untouched — this is what keeps the frozen basis feasible.
  struct RowExtension {
    size_t constraint = 0;
    int variable = 0;
    Rational coefficient;
  };
  std::vector<RowExtension> row_extensions;
  /// Appended constraints, over old and new variables alike.
  std::vector<LinearConstraint> new_constraints;

  bool empty() const {
    return num_new_variables == 0 && row_extensions.empty() &&
           new_constraints.empty();
  }
};

/// An exact two-phase primal simplex solver over rationals.
///
/// All variables of the LinearSystem are constrained to be nonnegative,
/// matching the disequation systems of the paper (Section 3.2): every
/// unknown Var(X̄) counts instances and the system always contains
/// Var(X̄) >= 0. A homogeneous >= row `a·x >= 0` enters every kernel (and
/// a resumed solve) as `-a·x <= 0` with its slack basic at 0, so only =
/// rows and rows that exclude x = 0 get an artificial; a system without
/// them — the homogeneous Ψ_S plus its `t <= 1` gadgets — goes straight
/// to phase 2. Bland's anti-cycling rule is used
/// throughout, so the solver terminates on every input; arithmetic is
/// exact (integer rows: int64 words with checked overflow moving a row to
/// BigInt form), so the answer is never affected by rounding or
/// wraparound.
class SimplexSolver {
 public:
  struct Options {
    /// Safety valve: abort with kResourceExhausted after this many pivots.
    /// Zero means no limit (Bland's rule still guarantees termination).
    /// The trip carries a LimitReport ("limit=max_pivots ...").
    size_t max_pivots = 0;
    /// Optional resource governor (borrowed; may be null = ungoverned).
    /// Each pivot charges one work unit and observes cancellation; the
    /// tableau's dominant allocation charges bytes.
    ExecContext* exec = nullptr;
    /// Tableau representation for Maximize/CheckFeasible (see
    /// SimplexKernel). Snapshot/resume solves always use the production
    /// sparse kernel regardless of this setting.
    SimplexKernel kernel = SimplexKernel::kSparse;
    /// When set, infeasible cold sparse solves additionally read a Farkas
    /// certificate off the optimal phase-1 tableau into
    /// LpResult::infeasibility_certificate (see there for scope).
    bool extract_certificate = false;
  };

  SimplexSolver() : options_() {}
  explicit SimplexSolver(Options options) : options_(options) {}

  /// Maximizes `objective` subject to `system` and x >= 0.
  Result<LpResult> Maximize(const LinearSystem& system,
                            const LinearExpr& objective) const;

  /// Checks feasibility of `system` with x >= 0 (phase 1 only).
  /// The outcome is kOptimal (feasible, with a witness) or kInfeasible.
  Result<LpResult> CheckFeasible(const LinearSystem& system) const;

  /// Like Maximize, but additionally exports the final tableau into
  /// `snapshot` so that later solves of extended systems can warm-start
  /// from this basis via ResumeMaximize. Unlike Maximize, redundant rows
  /// are kept (parked on a zero-valued artificial basic) because resumed
  /// deltas may later give them nonzero columns. `snapshot` is only
  /// meaningful when the returned outcome is kOptimal.
  Result<LpResult> SolveForSnapshot(const LinearSystem& system,
                                    const LinearExpr& objective,
                                    SimplexSnapshot* snapshot) const;

  /// Applies `delta` to `snapshot` and maximizes `objective` (over old and
  /// new variables) on the extended system, reusing the frozen basis:
  /// phase 1 only has to repair the appended constraints, not rediscover
  /// feasibility of the whole system. `snapshot` is advanced in place and
  /// can be resumed again with a further delta. The answer (outcome,
  /// objective value, feasibility of `values`) is exactly what Maximize
  /// would return on the extended system built from scratch; only the
  /// pivot path — and hence the particular optimal vertex — may differ.
  Result<LpResult> ResumeMaximize(SimplexSnapshot* snapshot,
                                  const SimplexDelta& delta,
                                  const LinearExpr& objective) const;

 private:
  Options options_;
};

}  // namespace car

#endif  // CAR_MATH_SIMPLEX_H_
