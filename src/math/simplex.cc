#include "math/simplex.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "base/check.h"
#include "base/strings.h"

namespace car {

namespace {

// The sparse production kernel runs on integer rows (math/sparse_row.h)
// and the dense reference kernel on Rationals; both are exact, so both
// follow the identical Bland pivot sequence and return bit-identical
// results.

/// The entry rule shared by every kernel and by ResumeMaximize's appended
/// rows: a row enters negated when its right-hand side is negative, and
/// also when it is a homogeneous >= row. Then `a·x >= 0` enters as
/// `-a·x <= 0`, whose slack starts basic at 0: the row needs no surplus
/// and artificial pair, so a system of such rows (Ψ's lower bounds) starts
/// on a feasible all-slack basis and skips phase 1. The flip is recorded
/// per row (SparseTableau::flipped), which is all that Farkas extraction
/// and row extensions need to map back to the original row.
bool EntersNegated(int rhs_sign, Relation relation) {
  return rhs_sign < 0 ||
         (rhs_sign == 0 && relation == Relation::kGreaterEqual);
}

/// How a constraint enters a cold tableau: whether it is negated, and the
/// relation of the (possibly negated) row.
struct RowEntry {
  bool flip = false;
  Relation relation = Relation::kLessEqual;
};

RowEntry EntryOf(const LinearConstraint& constraint) {
  RowEntry entry{EntersNegated(constraint.rhs.sign(), constraint.relation),
                 constraint.relation};
  if (entry.flip && entry.relation != Relation::kEqual) {
    entry.relation = entry.relation == Relation::kLessEqual
                         ? Relation::kGreaterEqual
                         : Relation::kLessEqual;
  }
  return entry;
}

/// Counts the auxiliary columns a cold tableau of `constraints` needs: a
/// slack per <= row, a surplus and an artificial per >= row, an
/// artificial per = row (relations as EntryOf leaves them).
void CountAuxiliaryColumns(const std::vector<LinearConstraint>& constraints,
                           int* num_slack, int* num_artificial) {
  *num_slack = 0;
  *num_artificial = 0;
  for (const LinearConstraint& constraint : constraints) {
    const Relation relation = EntryOf(constraint).relation;
    if (relation != Relation::kEqual) ++*num_slack;
    if (relation != Relation::kLessEqual) ++*num_artificial;
  }
}

// ===========================================================================
// Sparse production kernel: compressed sparse integer rows.
// ===========================================================================

/// The production simplex tableau. Column layout: structural variables
/// first, then slack/surplus variables, then artificial variables; each
/// row carries its right-hand side over its own denominator. Rows are
/// compressed sparse (math/sparse_row.h): Ψ_S rows touch only one cluster
/// or one Natt/Nrel constraint each, so pivots, pricing, and snapshot
/// clones walk nonzeros instead of columns.
struct SparseTableau {
  std::vector<SparseRow> rows;
  std::vector<int> basis;           // Basic variable of each row.
  std::vector<bool> is_artificial;  // Indexed by column.
  // Warm-start bookkeeping (see SimplexSnapshot): the identity column a
  // row was created with, and whether the row was negated at creation.
  std::vector<int> init_basic;
  std::vector<bool> flipped;
  // Per row: width up to which the row is known all-zero over real
  // columns (see SimplexSnapshot::zero_checked).
  std::vector<int> zero_checked;
  int num_cols = 0;
  // Reusable merge buffer for Pivot (Eliminate swaps row storage through
  // it, so the whole elimination sweep allocates at most once).
  SparseRow::Scratch scratch;
  // The rows holding a nonzero in one column, each with the cell's
  // position in its row: gathered once per pivot (by CollectColumn) for
  // the ratio test and the elimination alike.
  std::vector<std::pair<size_t, size_t>> column;

  void CollectColumn(int col) {
    column.clear();
    for (size_t r = 0; r < rows.size(); ++r) {
      const int k = rows[r].IndexOf(col);
      if (k >= 0) column.emplace_back(r, static_cast<size_t>(k));
    }
  }

  /// Pivots on (pivot_row, pivot_col), with `column` holding pivot_col's
  /// rows: divides the pivot row by the pivot element and eliminates the
  /// column from the other rows gathered there; rows with a structural
  /// zero at the pivot column are never touched. Returns the pivot
  /// cell's position in its row.
  size_t Pivot(size_t pivot_row, int pivot_col) {
    SparseRow& prow = rows[pivot_row];
    const int pivot_k = prow.IndexOf(pivot_col);
    CAR_CHECK(pivot_k >= 0) << "pivot on a zero cell";
    // Normalizing the pivot row preserves its zero pattern, so its
    // zero_checked prefix stays valid; eliminated rows change and lose
    // theirs.
    prow.Normalize(static_cast<size_t>(pivot_k));
    for (const auto& [r, k] : column) {
      if (r == pivot_row) continue;
      rows[r].Eliminate(k, prow, static_cast<size_t>(pivot_k), &scratch);
      zero_checked[r] = 0;
    }
    basis[pivot_row] = pivot_col;
    return static_cast<size_t>(pivot_k);
  }

  /// CollectColumn, then Pivot.
  void PivotOnColumn(size_t pivot_row, int pivot_col) {
    CollectColumn(pivot_col);
    Pivot(pivot_row, pivot_col);
  }

  /// Eliminates the basic columns from `row`: every basic column carries
  /// an identity pattern, so eliminating row i touches no other row's
  /// basic cell and one pass in row order leaves all of them zero.
  void EliminateBasics(SparseRow* row, SparseRow::Scratch* buffer) const {
    for (size_t i = 0; i < rows.size(); ++i) {
      const int k = row->IndexOf(basis[i]);
      if (k < 0) continue;
      row->Eliminate(static_cast<size_t>(k), rows[i],
                     static_cast<size_t>(rows[i].IndexOf(basis[i])), buffer);
    }
  }
};

uint64_t NonzeroCells(const SparseTableau& tableau) {
  uint64_t nonzeros = 0;
  for (const SparseRow& row : tableau.rows) nonzeros += row.nnz();
  return nonzeros;
}

uint64_t DenseExtent(const SparseTableau& tableau) {
  return tableau.rows.size() * static_cast<uint64_t>(tableau.num_cols);
}

/// Resident-byte estimate of the sparse tableau for the governor: entry
/// storage plus the rows themselves (a row moved to BigInt form owns
/// more, so this is a lower bound, exactly as the dense estimate was).
uint64_t NonzeroBytes(const SparseTableau& tableau) {
  return NonzeroCells(tableau) * sizeof(SparseRow::Entry) +
         tableau.rows.size() * sizeof(SparseRow);
}

/// Runs primal simplex with Bland's rule, maximizing the cost row
/// `reduced` arrives with on the current tableau. The reduced costs
/// z = c − c_B·T are one more integer row: the cost row is folded against
/// the basic rows once, then each pivot updates it by the same
/// elimination as a tableau row, so its right-hand side holds minus the
/// objective value throughout. Artificial columns never enter the basis
/// unless `allow_artificial` is set (phase 1). Returns the outcome; on
/// kResourceExhausted-style pivot overflow returns an error carrying a
/// LimitReport-formatted message, and a tripped/cancelled ExecContext
/// aborts between pivots.
Result<LpOutcome> RunSimplex(SparseTableau* tableau, SparseRow* reduced,
                             bool allow_artificial, size_t max_pivots,
                             ExecContext* exec, size_t* pivots) {
  SparseRow::Scratch buffer;
  tableau->EliminateBasics(reduced, &buffer);
  while (true) {
    // Bland's rule: enter the lowest-indexed column with positive
    // reduced cost (the row's entries are sorted by column).
    int entering = -1;
    size_t entering_k = 0;
    for (size_t k = 0; k < reduced->nnz(); ++k) {
      if (reduced->SignAt(k) <= 0) continue;
      const int col = reduced->ColAt(k);
      if (!allow_artificial && tableau->is_artificial[col]) continue;
      entering = col;
      entering_k = k;
      break;
    }
    if (entering < 0) return LpOutcome::kOptimal;

    // Ratio test; ties broken by lowest basic-variable index (Bland).
    tableau->CollectColumn(entering);
    int leaving_row = -1;
    size_t leaving_k = 0;
    for (const auto& [i, k] : tableau->column) {
      const SparseRow& row = tableau->rows[i];
      if (row.SignAt(k) <= 0) continue;
      int order = -1;
      if (leaving_row >= 0) {
        order = SparseRow::CompareRatios(
            row, k, tableau->rows[static_cast<size_t>(leaving_row)],
            leaving_k);
      }
      if (order < 0 ||
          (order == 0 && tableau->basis[i] < tableau->basis[leaving_row])) {
        leaving_row = static_cast<int>(i);
        leaving_k = k;
      }
    }
    if (leaving_row < 0) return LpOutcome::kUnbounded;

    const size_t pivot_k =
        tableau->Pivot(static_cast<size_t>(leaving_row), entering);
    reduced->Eliminate(entering_k,
                       tableau->rows[static_cast<size_t>(leaving_row)],
                       pivot_k, &buffer);
    ++*pivots;
    if (exec != nullptr) exec->CountPivots(1);
    CAR_RETURN_IF_ERROR(GovChargeWork(exec, 1, "simplex"));
    // A pivot is an expensive work unit (O(nonzeros) exact operations),
    // so the budget stride of ChargeWork is too coarse for deadlines
    // here; consult the clock every pivot — a clock read is noise next
    // to the pivot itself.
    CAR_RETURN_IF_ERROR(GovCheck(exec, "simplex"));
    if (max_pivots != 0 && *pivots > max_pivots) {
      return GovRecordTrip(exec, LimitKind::kMaxPivots, "simplex",
                           max_pivots, max_pivots);
    }
  }
}

/// The phase-1 cost row: -1 on every artificial column.
SparseRow PhaseOneCost(const SparseTableau& tableau) {
  SparseRow cost;
  for (int j = 0; j < tableau.num_cols; ++j) {
    if (tableau.is_artificial[j]) cost.Append(j, -1);
  }
  return cost;
}

/// The row of `expr`'s terms, each at its variable's column (the phase-2
/// cost row of an objective, or the start of an appended constraint).
SparseRow ExprRow(const LinearExpr& expr, const std::vector<int>& col_of_var) {
  std::vector<std::pair<int, const Rational*>> terms;
  terms.reserve(expr.terms().size());
  for (const auto& [variable, coefficient] : expr.terms()) {
    CAR_CHECK_GE(variable, 0);
    CAR_CHECK_LT(variable, static_cast<int>(col_of_var.size()));
    terms.emplace_back(col_of_var[variable], &coefficient);
  }
  std::sort(terms.begin(), terms.end());
  SparseRow row;
  for (const auto& [col, coefficient] : terms) row.Append(col, *coefficient);
  return row;
}

/// Reads a Farkas certificate off an optimal phase-1 tableau whose
/// objective is negative (infeasible system). COLD tableaus only
/// (straight out of BuildTableau + phase 1): there, row i's init_basic
/// column held the identity unit at creation and no other row's creation
/// wrote to it, so its current contents are B^-1 e_i and the phase-1 dual
/// prices out as y_i = -S_i with
///   S_i = Σ_{rows r with an artificial basic} T[r][init_basic[i]].
/// (Resumed tableaus violate the premise — an appended row's creation
/// vector overlaps earlier rows' init_basic columns — which is why the
/// extraction is never offered on the resume path.) With ν' = -y, LP
/// duality at the phase-1 optimum gives ν'ᵀA_j <= 0 for every
/// non-artificial tableau column and ν'ᵀb' > 0; mapping tableau rows back
/// through their creation sign flip yields multipliers on the ORIGINAL
/// constraints, ν_i = flipped[i] ? -S_i : S_i, satisfying the
/// InfeasibilityCertificate contract. Callers re-validate regardless.
InfeasibilityCertificate ExtractFarkasCertificate(
    const SparseTableau& tableau) {
  const size_t num_rows = tableau.rows.size();
  std::vector<int> row_of_col(static_cast<size_t>(tableau.num_cols), -1);
  for (size_t i = 0; i < num_rows; ++i) {
    row_of_col[static_cast<size_t>(tableau.init_basic[i])] =
        static_cast<int>(i);
  }
  InfeasibilityCertificate certificate;
  certificate.row_multipliers.assign(num_rows, Rational());
  for (size_t r = 0; r < num_rows; ++r) {
    if (!tableau.is_artificial[tableau.basis[r]]) continue;
    const SparseRow& row = tableau.rows[r];
    for (size_t k = 0; k < row.nnz(); ++k) {
      int i = row_of_col[static_cast<size_t>(row.ColAt(k))];
      if (i < 0) continue;
      certificate.row_multipliers[static_cast<size_t>(i)] += row.ValueAt(k);
    }
  }
  for (size_t i = 0; i < num_rows; ++i) {
    if (tableau.flipped[i]) {
      certificate.row_multipliers[i] = -certificate.row_multipliers[i];
    }
  }
  return certificate;
}

/// Builds the phase-1 tableau from the system: rows enter by EntryOf
/// (negative right-hand sides and homogeneous >= rows negated), then get a
/// slack for <=, surplus+artificial for >=, artificial for =. Rows are
/// assembled directly in sparse form from the (already sparse) LinearExpr
/// term maps — the system is never densified.
SparseTableau BuildTableau(const LinearSystem& system) {
  const int n = system.num_variables();
  const auto& constraints = system.constraints();
  int num_slack = 0;
  int num_artificial = 0;
  CountAuxiliaryColumns(constraints, &num_slack, &num_artificial);

  SparseTableau tableau;
  tableau.num_cols = n + num_slack + num_artificial;
  tableau.is_artificial.assign(tableau.num_cols, false);
  for (int j = n + num_slack; j < tableau.num_cols; ++j) {
    tableau.is_artificial[j] = true;
  }

  int next_slack = n;
  int next_artificial = n + num_slack;
  tableau.rows.reserve(constraints.size());
  for (const LinearConstraint& constraint : constraints) {
    SparseRow row;
    row.reserve(constraint.expr.terms().size() + 2);
    const auto [flip, relation] = EntryOf(constraint);
    // LinearExpr terms are sorted by variable and nonzero, and every
    // structural index is below the auxiliary columns, so the row can be
    // appended in order without any sorting pass.
    for (const auto& [variable, coefficient] : constraint.expr.terms()) {
      CAR_CHECK_GE(variable, 0);
      CAR_CHECK_LT(variable, n);
      row.Append(variable, flip ? -coefficient : coefficient);
    }
    int basic = -1;
    switch (relation) {
      case Relation::kLessEqual:
        row.Append(next_slack, 1);
        basic = next_slack++;
        break;
      case Relation::kGreaterEqual:
        row.Append(next_slack, -1);
        ++next_slack;
        row.Append(next_artificial, 1);
        basic = next_artificial++;
        break;
      case Relation::kEqual:
        row.Append(next_artificial, 1);
        basic = next_artificial++;
        break;
    }
    row.SetRhs(flip ? -constraint.rhs : constraint.rhs);
    tableau.rows.push_back(std::move(row));
    tableau.basis.push_back(basic);
    tableau.init_basic.push_back(basic);
    tableau.flipped.push_back(flip);
    tableau.zero_checked.push_back(0);
  }
  return tableau;
}

/// After a successful phase 1, pivots artificial variables out of the
/// basis (their value is zero); rows where no structural or slack column
/// is available are redundant and removed. Entries are sorted by column,
/// so "first nonzero non-artificial cell" is the same column the dense
/// left-to-right scan picked.
void RemoveArtificialsFromBasis(SparseTableau* tableau) {
  for (size_t i = 0; i < tableau->rows.size();) {
    if (!tableau->is_artificial[tableau->basis[i]]) {
      ++i;
      continue;
    }
    int replacement = -1;
    const SparseRow& row = tableau->rows[i];
    for (size_t k = 0; k < row.nnz(); ++k) {
      if (tableau->is_artificial[row.ColAt(k)]) continue;
      replacement = row.ColAt(k);
      break;
    }
    if (replacement >= 0) {
      tableau->PivotOnColumn(i, replacement);
      ++i;
    } else {
      // Redundant constraint: the whole row is zero over real columns.
      tableau->rows.erase(tableau->rows.begin() + static_cast<long>(i));
      tableau->basis.erase(tableau->basis.begin() + static_cast<long>(i));
      tableau->init_basic.erase(tableau->init_basic.begin() +
                                static_cast<long>(i));
      tableau->flipped.erase(tableau->flipped.begin() + static_cast<long>(i));
      tableau->zero_checked.erase(tableau->zero_checked.begin() +
                                  static_cast<long>(i));
    }
  }
}

/// Moves the tableau-shaped members of a snapshot into a SparseTableau
/// (and back): the snapshot is the persisted form of the same sparse
/// state.
SparseTableau TableauFromSnapshot(SimplexSnapshot* snapshot) {
  SparseTableau tableau;
  tableau.rows = std::move(snapshot->rows);
  tableau.basis = std::move(snapshot->basis);
  tableau.is_artificial = std::move(snapshot->is_artificial);
  tableau.init_basic = std::move(snapshot->init_basic);
  tableau.flipped = std::move(snapshot->row_flipped);
  tableau.zero_checked = std::move(snapshot->zero_checked);
  tableau.zero_checked.resize(tableau.rows.size(), 0);
  tableau.num_cols = snapshot->num_cols;
  return tableau;
}

void TableauIntoSnapshot(SparseTableau tableau, SimplexSnapshot* snapshot) {
  snapshot->rows = std::move(tableau.rows);
  snapshot->basis = std::move(tableau.basis);
  snapshot->is_artificial = std::move(tableau.is_artificial);
  snapshot->init_basic = std::move(tableau.init_basic);
  snapshot->row_flipped = std::move(tableau.flipped);
  snapshot->zero_checked = std::move(tableau.zero_checked);
  snapshot->num_cols = tableau.num_cols;
}

/// Appends a zero column; returns the new column's index. Sparse rows
/// store nothing for a zero column, so this is O(1) — the dense kernel's
/// per-row push_back is exactly the cost this representation deletes.
int AppendColumn(SparseTableau* tableau, bool artificial) {
  tableau->is_artificial.push_back(artificial);
  return tableau->num_cols++;
}

/// Pivots zero-valued basic artificial variables out of the basis
/// wherever the row has a nonzero non-artificial cell. Rows where it does
/// not (all-zero over real columns) stay parked on their zero-valued
/// artificial: they are inert for the current solve but may receive
/// nonzero cells from a later delta, after which this sweep runs again.
/// Pivoting on a cell of either sign is sound here because the row's
/// right-hand side is zero (the artificial's value), so feasibility is
/// preserved. Rows whose artificial is still positive (fresh rows awaiting
/// phase 1) are left alone — evicting those would fabricate feasibility.
void ParkOrEvictArtificials(SparseTableau* tableau) {
  for (size_t i = 0; i < tableau->rows.size(); ++i) {
    if (!tableau->is_artificial[tableau->basis[i]]) continue;
    if (tableau->rows[i].rhs_sign() != 0) continue;
    // Resume from the row's known-zero prefix: columns below it were
    // found zero by an earlier sweep and no pivot has modified the row
    // since (Pivot resets the prefix), so only appended columns — the
    // ones a delta could have populated — need scanning. The sparse row
    // holds only nonzeros, so the scan is over entries, not columns.
    bool evicted = false;
    const SparseRow& row = tableau->rows[i];
    for (size_t k = 0; k < row.nnz(); ++k) {
      const int col = row.ColAt(k);
      if (col < tableau->zero_checked[i]) continue;
      if (tableau->is_artificial[col]) continue;
      tableau->PivotOnColumn(i, col);
      evicted = true;
      break;
    }
    if (!evicted) tableau->zero_checked[i] = tableau->num_cols;
  }
}

/// Runs phase 1 and phase 2 on a tableau whose basis may hold positive
/// artificials (the cold build, or a resume that appended rows): phase 1
/// maximizes minus their sum, and an optimum below zero means the system
/// is infeasible (reported in result->outcome, the tableau left at the
/// phase-1 optimum). Otherwise `clear_artificials` settles the
/// zero-valued artificials and phase 2 maximizes `objective`, whose
/// terms sit at `col_of_var`'s columns, filling outcome, objective and
/// values (one per structural variable, mapped back by `var_of_col`, or
/// by identity when it is null).
Status SolvePhases(const SimplexSolver::Options& options,
                   bool has_artificial, const LinearExpr& objective,
                   const std::vector<int>& col_of_var,
                   const std::vector<int>* var_of_col,
                   void (*clear_artificials)(SparseTableau*),
                   SparseTableau* tableau, LpResult* result) {
  if (has_artificial) {
    SparseRow phase1 = PhaseOneCost(*tableau);
    CAR_ASSIGN_OR_RETURN(
        LpOutcome outcome,
        RunSimplex(tableau, &phase1, /*allow_artificial=*/true,
                   options.max_pivots, options.exec, &result->pivots));
    CAR_CHECK(outcome == LpOutcome::kOptimal)
        << "phase 1 cannot be unbounded";
    if (phase1.rhs_sign() != 0) {
      result->outcome = LpOutcome::kInfeasible;
      return Status::Ok();
    }
    clear_artificials(tableau);
  }
  SparseRow phase2 = ExprRow(objective, col_of_var);
  CAR_ASSIGN_OR_RETURN(
      result->outcome,
      RunSimplex(tableau, &phase2, /*allow_artificial=*/false,
                 options.max_pivots, options.exec, &result->pivots));
  result->objective = -phase2.RhsValue();
  result->values.resize(col_of_var.size());
  for (size_t i = 0; i < tableau->rows.size(); ++i) {
    const int col = tableau->basis[i];
    const int variable = var_of_col != nullptr
                             ? (*var_of_col)[col]
                             : (col < static_cast<int>(col_of_var.size())
                                    ? col
                                    : -1);
    if (variable >= 0) result->values[variable] = tableau->rows[i].RhsValue();
  }
  return Status::Ok();
}

/// Records a sparse solve's promotion count (rows that moved to BigInt
/// form since `promotions_before`) and final fill, on the result and the
/// governor.
void FinishSparse(const SimplexSolver::Options& options,
                  const SparseTableau& tableau, uint64_t promotions_before,
                  LpResult* result) {
  result->scalar_promotions =
      SparseRow::promotions_this_thread() - promotions_before;
  result->tableau_nonzeros = NonzeroCells(tableau);
  result->tableau_cells = DenseExtent(tableau);
  if (options.exec != nullptr) {
    options.exec->CountScalarPromotions(result->scalar_promotions);
    options.exec->RecordTableauFill(result->tableau_nonzeros,
                                    result->tableau_cells);
  }
}

/// The cold sparse two-phase solve behind Maximize and SolveForSnapshot:
/// builds and charges the tableau, runs phase 1 (an infeasible system
/// returns there, with its Farkas certificate when asked), clears the
/// zero-valued artificials with `clear_artificials`, then runs phase 2
/// and extracts the solution. The final tableau is left in `*tableau`.
Result<LpResult> SolveSparseCold(const SimplexSolver::Options& options,
                                 const LinearSystem& system,
                                 const LinearExpr& objective,
                                 void (*clear_artificials)(SparseTableau*),
                                 SparseTableau* tableau) {
  CAR_RETURN_IF_ERROR(GovCheck(options.exec, "simplex"));
  const uint64_t promotions_before = SparseRow::promotions_this_thread();
  *tableau = BuildTableau(system);
  // The tableau is the dominant allocation of a solve; charge its
  // nonzero storage (the whole point of the sparse kernel is that this
  // is far below rows * cols).
  CAR_RETURN_IF_ERROR(
      GovChargeBytes(options.exec, NonzeroBytes(*tableau), "simplex"));
  std::vector<int> identity(static_cast<size_t>(system.num_variables()));
  std::iota(identity.begin(), identity.end(), 0);
  bool has_artificial = false;
  for (bool flag : tableau->is_artificial) has_artificial |= flag;
  LpResult result;
  CAR_RETURN_IF_ERROR(SolvePhases(options, has_artificial, objective,
                                  identity, nullptr, clear_artificials,
                                  tableau, &result));
  if (result.outcome == LpOutcome::kInfeasible &&
      options.extract_certificate) {
    result.infeasibility_certificate = ExtractFarkasCertificate(*tableau);
  }
  FinishSparse(options, *tableau, promotions_before, &result);
  return result;
}

// ===========================================================================
// Dense reference kernel over Rationals: the oracle. Retained for the
// differential tests and the dense-vs-sparse bench cells; reachable only
// through Maximize/CheckFeasible with an explicit Options::kernel
// selection.
// ===========================================================================

struct DenseTableau {
  std::vector<std::vector<Rational>> rows;
  std::vector<Rational> rhs;
  std::vector<int> basis;
  std::vector<bool> is_artificial;
  int num_cols = 0;

  void Pivot(size_t pivot_row, int pivot_col) {
    Rational pivot_value = rows[pivot_row][pivot_col];
    CAR_CHECK(!pivot_value.is_zero());
    for (Rational& cell : rows[pivot_row]) cell /= pivot_value;
    rhs[pivot_row] /= pivot_value;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r == pivot_row) continue;
      Rational factor = rows[r][pivot_col];
      if (factor.is_zero()) continue;
      for (int c = 0; c < num_cols; ++c) {
        if (!rows[pivot_row][c].is_zero()) {
          rows[r][c] -= factor * rows[pivot_row][c];
        }
      }
      rhs[r] -= factor * rhs[pivot_row];
    }
    basis[pivot_row] = pivot_col;
  }
};

Result<LpOutcome> RunDenseSimplex(DenseTableau* tableau,
                                  const std::vector<Rational>& cost,
                                  bool allow_artificial, size_t max_pivots,
                                  ExecContext* exec, size_t* pivots) {
  const size_t num_rows = tableau->rows.size();
  std::vector<Rational> reduced(cost.begin(), cost.begin() + tableau->num_cols);
  for (size_t i = 0; i < num_rows; ++i) {
    const Rational& basic_cost = cost[tableau->basis[i]];
    if (basic_cost.is_zero()) continue;
    for (int j = 0; j < tableau->num_cols; ++j) {
      if (!tableau->rows[i][j].is_zero()) {
        reduced[j] -= basic_cost * tableau->rows[i][j];
      }
    }
  }
  while (true) {
    int entering = -1;
    for (int j = 0; j < tableau->num_cols; ++j) {
      if (!allow_artificial && tableau->is_artificial[j]) continue;
      if (reduced[j].is_positive()) {
        entering = j;
        break;
      }
    }
    if (entering < 0) return LpOutcome::kOptimal;

    int leaving_row = -1;
    Rational best_ratio;
    for (size_t i = 0; i < num_rows; ++i) {
      const Rational& coefficient = tableau->rows[i][entering];
      if (!coefficient.is_positive()) continue;
      Rational ratio = tableau->rhs[i] / coefficient;
      if (leaving_row < 0 || ratio < best_ratio ||
          (ratio == best_ratio &&
           tableau->basis[i] < tableau->basis[leaving_row])) {
        leaving_row = static_cast<int>(i);
        best_ratio = std::move(ratio);
      }
    }
    if (leaving_row < 0) return LpOutcome::kUnbounded;

    tableau->Pivot(static_cast<size_t>(leaving_row), entering);
    Rational factor = reduced[entering];
    if (!factor.is_zero()) {
      const std::vector<Rational>& pivot_row =
          tableau->rows[static_cast<size_t>(leaving_row)];
      for (int j = 0; j < tableau->num_cols; ++j) {
        if (!pivot_row[j].is_zero()) {
          reduced[j] -= factor * pivot_row[j];
        }
      }
    }
    ++*pivots;
    if (exec != nullptr) exec->CountPivots(1);
    CAR_RETURN_IF_ERROR(GovChargeWork(exec, 1, "simplex"));
    CAR_RETURN_IF_ERROR(GovCheck(exec, "simplex"));
    if (max_pivots != 0 && *pivots > max_pivots) {
      return GovRecordTrip(exec, LimitKind::kMaxPivots, "simplex",
                           max_pivots, max_pivots);
    }
  }
}

Rational DenseObjectiveValue(const DenseTableau& tableau,
                             const std::vector<Rational>& cost) {
  Rational value;
  for (size_t i = 0; i < tableau.rows.size(); ++i) {
    const Rational& basic_cost = cost[tableau.basis[i]];
    if (!basic_cost.is_zero()) value += basic_cost * tableau.rhs[i];
  }
  return value;
}

DenseTableau BuildDenseTableau(const LinearSystem& system) {
  const int n = system.num_variables();
  const auto& constraints = system.constraints();
  int num_slack = 0;
  int num_artificial = 0;
  CountAuxiliaryColumns(constraints, &num_slack, &num_artificial);

  DenseTableau tableau;
  tableau.num_cols = n + num_slack + num_artificial;
  tableau.is_artificial.assign(tableau.num_cols, false);
  for (int j = n + num_slack; j < tableau.num_cols; ++j) {
    tableau.is_artificial[j] = true;
  }

  int next_slack = n;
  int next_artificial = n + num_slack;
  for (const LinearConstraint& constraint : constraints) {
    std::vector<Rational> row(tableau.num_cols);
    const auto [flip, relation] = EntryOf(constraint);
    for (const auto& [variable, coefficient] : constraint.expr.terms()) {
      CAR_CHECK_GE(variable, 0);
      CAR_CHECK_LT(variable, n);
      row[variable] = flip ? -coefficient : coefficient;
    }
    int basic = -1;
    switch (relation) {
      case Relation::kLessEqual:
        row[next_slack] = Rational(1);
        basic = next_slack++;
        break;
      case Relation::kGreaterEqual:
        row[next_slack] = Rational(-1);
        ++next_slack;
        row[next_artificial] = Rational(1);
        basic = next_artificial++;
        break;
      case Relation::kEqual:
        row[next_artificial] = Rational(1);
        basic = next_artificial++;
        break;
    }
    tableau.rows.push_back(std::move(row));
    tableau.rhs.push_back(flip ? -constraint.rhs : constraint.rhs);
    tableau.basis.push_back(basic);
  }
  return tableau;
}

void RemoveArtificialsFromDenseBasis(DenseTableau* tableau) {
  for (size_t i = 0; i < tableau->rows.size();) {
    if (!tableau->is_artificial[tableau->basis[i]]) {
      ++i;
      continue;
    }
    int replacement = -1;
    for (int j = 0; j < tableau->num_cols; ++j) {
      if (tableau->is_artificial[j]) continue;
      if (!tableau->rows[i][j].is_zero()) {
        replacement = j;
        break;
      }
    }
    if (replacement >= 0) {
      tableau->Pivot(i, replacement);
      ++i;
    } else {
      tableau->rows.erase(tableau->rows.begin() + static_cast<long>(i));
      tableau->rhs.erase(tableau->rhs.begin() + static_cast<long>(i));
      tableau->basis.erase(tableau->basis.begin() + static_cast<long>(i));
    }
  }
}

uint64_t DenseNonzeroCells(const DenseTableau& tableau) {
  uint64_t nonzeros = 0;
  for (const std::vector<Rational>& row : tableau.rows) {
    for (const Rational& cell : row) {
      if (!cell.is_zero()) ++nonzeros;
    }
  }
  return nonzeros;
}

/// The dense-kernel Maximize: identical control flow (and hence identical
/// pivot sequence and answer) to the sparse production path, over dense
/// rows of Rationals (so it never promotes).
Result<LpResult> DenseMaximize(const SimplexSolver::Options& options,
                               const LinearSystem& system,
                               const LinearExpr& objective) {
  ExecContext* exec = options.exec;
  CAR_RETURN_IF_ERROR(GovCheck(exec, "simplex"));
  DenseTableau tableau = BuildDenseTableau(system);
  CAR_RETURN_IF_ERROR(GovChargeBytes(
      exec,
      tableau.rows.size() * static_cast<uint64_t>(tableau.num_cols) *
          sizeof(Rational),
      "simplex"));
  const int n = system.num_variables();
  LpResult result;
  auto finish = [&]() {
    result.tableau_nonzeros = DenseNonzeroCells(tableau);
    result.tableau_cells =
        tableau.rows.size() * static_cast<uint64_t>(tableau.num_cols);
    if (exec != nullptr) {
      exec->RecordTableauFill(result.tableau_nonzeros, result.tableau_cells);
    }
  };

  bool has_artificial = false;
  for (bool flag : tableau.is_artificial) has_artificial |= flag;
  if (has_artificial) {
    std::vector<Rational> phase1_cost(tableau.num_cols);
    for (int j = 0; j < tableau.num_cols; ++j) {
      if (tableau.is_artificial[j]) phase1_cost[j] = Rational(-1);
    }
    CAR_ASSIGN_OR_RETURN(
        LpOutcome outcome,
        RunDenseSimplex(&tableau, phase1_cost, /*allow_artificial=*/true,
                        options.max_pivots, exec, &result.pivots));
    CAR_CHECK(outcome == LpOutcome::kOptimal)
        << "phase 1 cannot be unbounded";
    if (!DenseObjectiveValue(tableau, phase1_cost).is_zero()) {
      result.outcome = LpOutcome::kInfeasible;
      finish();
      return result;
    }
    RemoveArtificialsFromDenseBasis(&tableau);
  }

  std::vector<Rational> phase2_cost(tableau.num_cols);
  for (const auto& [variable, coefficient] : objective.terms()) {
    CAR_CHECK_GE(variable, 0);
    CAR_CHECK_LT(variable, n);
    phase2_cost[variable] = coefficient;
  }
  CAR_ASSIGN_OR_RETURN(
      LpOutcome outcome,
      RunDenseSimplex(&tableau, phase2_cost, /*allow_artificial=*/false,
                      options.max_pivots, exec, &result.pivots));
  result.outcome = outcome;
  result.values.assign(n, Rational());
  for (size_t i = 0; i < tableau.rows.size(); ++i) {
    if (tableau.basis[i] < n) {
      result.values[tableau.basis[i]] = tableau.rhs[i];
    }
  }
  result.objective = DenseObjectiveValue(tableau, phase2_cost);
  finish();
  return result;
}

}  // namespace

const char* LpOutcomeToString(LpOutcome outcome) {
  switch (outcome) {
    case LpOutcome::kOptimal:
      return "optimal";
    case LpOutcome::kInfeasible:
      return "infeasible";
    case LpOutcome::kUnbounded:
      return "unbounded";
  }
  return "unknown";
}

const char* SimplexKernelToString(SimplexKernel kernel) {
  switch (kernel) {
    case SimplexKernel::kSparse:
      return "sparse";
    case SimplexKernel::kDenseRational:
      return "dense-rational";
  }
  return "unknown";
}

bool ValidateInfeasibilityCertificate(
    const LinearSystem& system, const InfeasibilityCertificate& certificate) {
  const std::vector<LinearConstraint>& constraints = system.constraints();
  if (certificate.row_multipliers.size() != constraints.size()) return false;
  for (size_t i = 0; i < constraints.size(); ++i) {
    const Rational& nu = certificate.row_multipliers[i];
    switch (constraints[i].relation) {
      case Relation::kGreaterEqual:
        if (nu.is_negative()) return false;
        break;
      case Relation::kLessEqual:
        if (nu.is_positive()) return false;
        break;
      case Relation::kEqual:
        break;
    }
  }
  // Fold the used rows into one combined row; the fold is sparse (term
  // maps), so the cost is O(nonzeros of the used rows).
  std::map<int, Rational> combined;
  Rational gap;
  for (size_t i = 0; i < constraints.size(); ++i) {
    const Rational& nu = certificate.row_multipliers[i];
    if (nu.is_zero()) continue;
    for (const auto& [variable, coefficient] : constraints[i].expr.terms()) {
      combined[variable] += nu * coefficient;
    }
    gap += nu * constraints[i].rhs;
  }
  for (const auto& [variable, value] : combined) {
    static_cast<void>(variable);
    if (value.is_positive()) return false;
  }
  return gap.is_positive();
}

Result<LpResult> SimplexSolver::Maximize(const LinearSystem& system,
                                         const LinearExpr& objective) const {
  if (options_.kernel == SimplexKernel::kDenseRational) {
    return DenseMaximize(options_, system, objective);
  }
  // Redundant rows (all zero over real columns after phase 1) are dropped.
  SparseTableau tableau;
  return SolveSparseCold(options_, system, objective,
                         RemoveArtificialsFromBasis, &tableau);
}

Result<LpResult> SimplexSolver::CheckFeasible(
    const LinearSystem& system) const {
  return Maximize(system, LinearExpr());
}

Result<LpResult> SimplexSolver::SolveForSnapshot(
    const LinearSystem& system, const LinearExpr& objective,
    SimplexSnapshot* snapshot) const {
  CAR_CHECK(snapshot != nullptr);
  // Unlike Maximize, keep redundant rows: a later delta may hand them
  // nonzero columns, and the snapshot's row indices must stay aligned
  // with the system's constraint indices.
  SparseTableau tableau;
  CAR_ASSIGN_OR_RETURN(LpResult result,
                       SolveSparseCold(options_, system, objective,
                                       ParkOrEvictArtificials, &tableau));
  if (result.outcome == LpOutcome::kInfeasible) return result;

  const int n = system.num_variables();
  snapshot->col_of_var.resize(n);
  snapshot->var_of_col.assign(tableau.num_cols, -1);
  for (int v = 0; v < n; ++v) {
    snapshot->col_of_var[v] = v;
    snapshot->var_of_col[v] = v;
  }
  snapshot->num_constraints = system.constraints().size();
  TableauIntoSnapshot(std::move(tableau), snapshot);
  return result;
}

Result<LpResult> SimplexSolver::ResumeMaximize(
    SimplexSnapshot* snapshot, const SimplexDelta& delta,
    const LinearExpr& objective) const {
  CAR_CHECK(snapshot != nullptr);
  CAR_RETURN_IF_ERROR(GovCheck(options_.exec, "simplex"));
  if (options_.exec != nullptr) options_.exec->CountWarmStarts(1);
  const uint64_t promotions_before = SparseRow::promotions_this_thread();

  const int old_num_vars = snapshot->num_variables();
  const size_t old_num_rows = snapshot->num_constraints;
  SparseTableau tableau = TableauFromSnapshot(snapshot);
  const uint64_t bytes_before = NonzeroBytes(tableau);

  // Appending a zero column to a sparse row stores nothing, so the dense
  // kernel's per-row width reservation is gone entirely; only the row
  // list and the column-indexed side arrays need headroom: one column
  // per new structural variable plus at most two (slack and artificial)
  // per new constraint.
  const size_t width_bound = static_cast<size_t>(tableau.num_cols) +
                             static_cast<size_t>(delta.num_new_variables) +
                             2 * delta.new_constraints.size();
  tableau.is_artificial.reserve(width_bound);
  tableau.rows.reserve(tableau.rows.size() + delta.new_constraints.size());
  snapshot->col_of_var.reserve(old_num_vars + delta.num_new_variables);
  snapshot->var_of_col.reserve(width_bound);

  // --- Append the new structural columns (O(1) now — no row traffic).
  // Each one is priced out against the frozen basis: its tableau form is
  // sum_i a_i * B^-1 e_i, where column init_basic[i] holds B^-1 e_i for
  // the row of constraint i.
  if (delta.num_new_variables > 0) {
    const int first = tableau.num_cols;
    tableau.num_cols = first + delta.num_new_variables;
    tableau.is_artificial.resize(static_cast<size_t>(tableau.num_cols),
                                 false);
    for (int v = 0; v < delta.num_new_variables; ++v) {
      snapshot->col_of_var.push_back(first + v);
      snapshot->var_of_col.push_back(old_num_vars + v);
    }
  }
  for (const SimplexDelta::RowExtension& extension : delta.row_extensions) {
    CAR_CHECK_LT(extension.constraint, old_num_rows);
    CAR_CHECK_GE(extension.variable, old_num_vars);
    CAR_CHECK_LT(extension.variable,
                 old_num_vars + delta.num_new_variables);
    const int column = snapshot->col_of_var[extension.variable];
    const size_t row = extension.constraint;
    const Rational coefficient = tableau.flipped[row]
                                     ? -extension.coefficient
                                     : extension.coefficient;
    const int unit = tableau.init_basic[row];
    for (SparseRow& target : tableau.rows) {
      const int k = target.IndexOf(unit);
      if (k >= 0) {
        target.AddMultipleOfCell(column, coefficient, static_cast<size_t>(k));
      }
    }
  }

  // --- Append the new constraints: slack/surplus column, elimination of
  // the current basic variables, sign normalization, then a basic column
  // (the slack if it survived with +1, else a fresh artificial). Each
  // constraint is built as an integer row, like a tableau row, and the
  // basic columns are eliminated from it with the pivot's elimination.
  bool added_artificial = false;
  for (const LinearConstraint& constraint : delta.new_constraints) {
    int aux = -1;
    if (constraint.relation != Relation::kEqual) {
      aux = AppendColumn(&tableau, /*artificial=*/false);
      snapshot->var_of_col.push_back(-1);
    }
    SparseRow row = ExprRow(constraint.expr, snapshot->col_of_var);
    if (aux >= 0) {
      row.Append(aux, constraint.relation == Relation::kLessEqual ? 1 : -1);
    }
    row.SetRhs(constraint.rhs);
    tableau.EliminateBasics(&row, &tableau.scratch);
    // The cold entry rule on the eliminated row: the new aux column is in
    // no other row, so a >= row's surplus still holds its -1 here, and a
    // zero right-hand side lets the negated row's slack start basic.
    const bool negate = EntersNegated(row.rhs_sign(), constraint.relation);
    if (negate) row.Negate();
    const int aux_k = aux >= 0 ? row.IndexOf(aux) : -1;
    int basic = -1;
    if (aux_k >= 0 && row.IsOneAt(static_cast<size_t>(aux_k))) {
      basic = aux;
    } else {
      basic = AppendColumn(&tableau, /*artificial=*/true);
      snapshot->var_of_col.push_back(-1);
      row.Append(basic, 1);
      added_artificial = true;
    }
    tableau.rows.push_back(std::move(row));
    tableau.basis.push_back(basic);
    tableau.init_basic.push_back(basic);
    tableau.flipped.push_back(negate);
    tableau.zero_checked.push_back(0);
  }
  snapshot->num_constraints = old_num_rows + delta.new_constraints.size();

  const uint64_t bytes_after = NonzeroBytes(tableau);
  CAR_RETURN_IF_ERROR(GovChargeBytes(
      options_.exec,
      bytes_after > bytes_before ? bytes_after - bytes_before : 0,
      "simplex"));

  // Evict parked artificials that a new column made live again before
  // any pivoting: a basic artificial must stay at zero, which is only
  // guaranteed while its row is all-zero over real columns.
  ParkOrEvictArtificials(&tableau);
  LpResult result;
  const Status status = SolvePhases(
      options_, added_artificial, objective, snapshot->col_of_var,
      &snapshot->var_of_col, ParkOrEvictArtificials, &tableau, &result);
  if (status.ok()) FinishSparse(options_, tableau, promotions_before, &result);
  TableauIntoSnapshot(std::move(tableau), snapshot);
  if (!status.ok()) return status;
  return result;
}

void SimplexSnapshot::ShrinkToFit() {
  for (SparseRow& row : rows) row.ShrinkToFit();
  rows.shrink_to_fit();
  basis.shrink_to_fit();
  is_artificial.shrink_to_fit();
  init_basic.shrink_to_fit();
  row_flipped.shrink_to_fit();
  col_of_var.shrink_to_fit();
  var_of_col.shrink_to_fit();
  zero_checked.shrink_to_fit();
}

Status ValidateSnapshotShape(const SimplexSnapshot& snapshot,
                             const LinearSystem& system) {
  auto fail = [](std::string what) {
    return FailedPrecondition(
        StrCat("simplex snapshot incompatible with system: ",
               std::move(what)));
  };
  if (snapshot.num_cols < 0) return fail("negative column count");
  const size_t num_rows = snapshot.rows.size();
  const size_t num_cols = static_cast<size_t>(snapshot.num_cols);
  if (snapshot.num_variables() != system.num_variables()) {
    return fail(StrCat("snapshot has ", snapshot.num_variables(),
                       " variables, system has ", system.num_variables()));
  }
  if (snapshot.num_constraints != system.constraints().size()) {
    return fail(StrCat("snapshot has ", snapshot.num_constraints,
                       " constraints, system has ",
                       system.constraints().size()));
  }
  if (snapshot.basis.size() != num_rows ||
      snapshot.init_basic.size() != num_rows ||
      snapshot.row_flipped.size() != num_rows ||
      snapshot.zero_checked.size() != num_rows) {
    return fail("per-row vector lengths disagree");
  }
  if (snapshot.is_artificial.size() != num_cols ||
      snapshot.var_of_col.size() != num_cols) {
    return fail("per-column vector lengths disagree");
  }
  for (size_t r = 0; r < num_rows; ++r) {
    if (snapshot.basis[r] < 0 || snapshot.basis[r] >= snapshot.num_cols) {
      return fail(StrCat("basis column of row ", r, " out of range"));
    }
    if (snapshot.init_basic[r] < 0 ||
        snapshot.init_basic[r] >= snapshot.num_cols) {
      return fail(StrCat("init_basic column of row ", r, " out of range"));
    }
    if (snapshot.zero_checked[r] < 0 ||
        snapshot.zero_checked[r] > snapshot.num_cols) {
      return fail(StrCat("zero_checked width of row ", r, " out of range"));
    }
    const SparseRow& row = snapshot.rows[r];
    if (row.rhs_sign() < 0) {
      return fail(StrCat("negative basic value in row ", r));
    }
    int last_col = -1;
    for (size_t k = 0; k < row.nnz(); ++k) {
      if (row.ColAt(k) <= last_col || row.ColAt(k) >= snapshot.num_cols) {
        return fail(StrCat("row ", r, " entries unsorted or out of range"));
      }
      if (row.SignAt(k) == 0) {
        return fail(StrCat("explicit zero entry in row ", r));
      }
      last_col = row.ColAt(k);
    }
    const int basic_k = row.IndexOf(snapshot.basis[r]);
    if (basic_k < 0 || !row.IsOneAt(static_cast<size_t>(basic_k))) {
      return fail(StrCat("basic cell of row ", r, " is not 1"));
    }
  }
  for (int v = 0; v < snapshot.num_variables(); ++v) {
    const int col = snapshot.col_of_var[v];
    if (col < -1 || col >= snapshot.num_cols) {
      return fail(StrCat("column of variable ", v, " out of range"));
    }
    if (col >= 0 && snapshot.var_of_col[col] != v) {
      return fail(StrCat("variable ", v, " and column ", col,
                         " maps disagree"));
    }
  }
  for (size_t c = 0; c < num_cols; ++c) {
    const int variable = snapshot.var_of_col[c];
    if (variable < -1 || variable >= snapshot.num_variables()) {
      return fail(StrCat("variable of column ", c, " out of range"));
    }
    if (variable >= 0 &&
        snapshot.col_of_var[variable] != static_cast<int>(c)) {
      return fail(StrCat("column ", c, " and variable ", variable,
                         " maps disagree"));
    }
  }
  return Status::Ok();
}

}  // namespace car
