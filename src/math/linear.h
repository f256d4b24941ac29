#ifndef CAR_MATH_LINEAR_H_
#define CAR_MATH_LINEAR_H_

#include <map>
#include <string>
#include <vector>

#include "math/rational.h"

namespace car {

/// A sparse linear expression over integer-indexed variables.
class LinearExpr {
 public:
  LinearExpr() = default;

  /// Adds `coefficient * variable` to the expression, merging with any
  /// existing term and dropping the term if the sum is zero.
  void Add(int variable, const Rational& coefficient);

  /// Returns the coefficient of `variable` (zero if absent).
  Rational CoefficientOf(int variable) const;

  /// Terms in increasing variable order; coefficients are nonzero.
  const std::map<int, Rational>& terms() const { return terms_; }

  bool empty() const { return terms_.empty(); }

  /// Evaluates the expression under the given assignment (indexed by
  /// variable); missing variables evaluate as zero.
  Rational Evaluate(const std::vector<Rational>& assignment) const;

 private:
  std::map<int, Rational> terms_;
};

/// Comparison operator of a linear constraint.
enum class Relation {
  kLessEqual,
  kGreaterEqual,
  kEqual,
};

const char* RelationToString(Relation relation);

/// A single linear constraint: `expr <relation> rhs`.
struct LinearConstraint {
  LinearExpr expr;
  Relation relation = Relation::kLessEqual;
  Rational rhs;
  /// Optional label for hand-built systems; printed by ToString only.
  /// Generated systems (Ψ) leave it empty.
  std::string label;

  /// Returns true if `assignment` satisfies this constraint.
  bool IsSatisfiedBy(const std::vector<Rational>& assignment) const;
};

/// A system of linear constraints over implicitly nonnegative variables.
/// This is the "system of linear disequations" Ψ_S of the paper's Section
/// 3.2: all variables are required >= 0 by the solver.
class LinearSystem {
 public:
  /// Adds a variable and returns its index. The name is optional and
  /// only shown by ToString; generated systems (Ψ) pass none.
  int AddVariable(std::string name = {});

  void AddConstraint(LinearConstraint constraint);

  int num_variables() const { return static_cast<int>(names_.size()); }
  const std::string& variable_name(int variable) const;
  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }

  /// Returns true if `assignment` (one value per variable) satisfies every
  /// constraint and every value is nonnegative.
  bool IsSatisfiedBy(const std::vector<Rational>& assignment) const;

  /// Multi-line human-readable rendering of the system; an unnamed
  /// variable is listed as a bare x<i>.
  std::string ToString() const;

 private:
  std::vector<std::string> names_;
  std::vector<LinearConstraint> constraints_;
};

}  // namespace car

#endif  // CAR_MATH_LINEAR_H_
