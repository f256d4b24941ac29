#include "math/linear.h"

#include <sstream>

#include "base/check.h"

namespace car {

void LinearExpr::Add(int variable, const Rational& coefficient) {
  if (coefficient.is_zero()) return;
  auto [it, inserted] = terms_.emplace(variable, coefficient);
  if (!inserted) {
    it->second += coefficient;
    if (it->second.is_zero()) terms_.erase(it);
  }
}

Rational LinearExpr::CoefficientOf(int variable) const {
  auto it = terms_.find(variable);
  return it == terms_.end() ? Rational() : it->second;
}

Rational LinearExpr::Evaluate(const std::vector<Rational>& assignment) const {
  Rational total;
  for (const auto& [variable, coefficient] : terms_) {
    if (variable < static_cast<int>(assignment.size())) {
      total += coefficient * assignment[variable];
    }
  }
  return total;
}

const char* RelationToString(Relation relation) {
  switch (relation) {
    case Relation::kLessEqual:
      return "<=";
    case Relation::kGreaterEqual:
      return ">=";
    case Relation::kEqual:
      return "=";
  }
  return "?";
}

bool LinearConstraint::IsSatisfiedBy(
    const std::vector<Rational>& assignment) const {
  Rational value = expr.Evaluate(assignment);
  switch (relation) {
    case Relation::kLessEqual:
      return value <= rhs;
    case Relation::kGreaterEqual:
      return value >= rhs;
    case Relation::kEqual:
      return value == rhs;
  }
  return false;
}

int LinearSystem::AddVariable(std::string name) {
  names_.push_back(std::move(name));
  return static_cast<int>(names_.size()) - 1;
}

void LinearSystem::AddConstraint(LinearConstraint constraint) {
  constraints_.push_back(std::move(constraint));
}

const std::string& LinearSystem::variable_name(int variable) const {
  CAR_CHECK_GE(variable, 0);
  CAR_CHECK_LT(variable, num_variables());
  return names_[variable];
}

bool LinearSystem::IsSatisfiedBy(
    const std::vector<Rational>& assignment) const {
  if (assignment.size() != names_.size()) return false;
  for (const Rational& value : assignment) {
    if (value.is_negative()) return false;
  }
  for (const LinearConstraint& constraint : constraints_) {
    if (!constraint.IsSatisfiedBy(assignment)) return false;
  }
  return true;
}

std::string LinearSystem::ToString() const {
  std::ostringstream os;
  os << "variables (" << names_.size() << "):\n";
  for (size_t i = 0; i < names_.size(); ++i) {
    os << "  x" << i;
    if (!names_[i].empty()) os << " = " << names_[i];
    os << "\n";
  }
  os << "constraints (" << constraints_.size() << "):\n";
  for (const LinearConstraint& constraint : constraints_) {
    os << "  ";
    bool first = true;
    for (const auto& [variable, coefficient] : constraint.expr.terms()) {
      if (!first) os << " + ";
      first = false;
      os << coefficient << "*x" << variable;
    }
    if (first) os << "0";
    os << " " << RelationToString(constraint.relation) << " "
       << constraint.rhs;
    if (!constraint.label.empty()) os << "    [" << constraint.label << "]";
    os << "\n";
  }
  return os.str();
}

}  // namespace car
