#include "math/linear.h"

#include <gtest/gtest.h>

namespace car {
namespace {

TEST(LinearExprTest, TermsMergeAndCancel) {
  LinearExpr expr;
  expr.Add(2, Rational(3));
  expr.Add(0, Rational(1));
  expr.Add(2, Rational(-1));
  EXPECT_EQ(expr.CoefficientOf(2), Rational(2));
  EXPECT_EQ(expr.CoefficientOf(0), Rational(1));
  EXPECT_EQ(expr.CoefficientOf(5), Rational(0));
  EXPECT_EQ(expr.terms().size(), 2u);

  expr.Add(2, Rational(-2));  // Cancels to zero: term removed.
  EXPECT_EQ(expr.terms().size(), 1u);
  EXPECT_TRUE(expr.CoefficientOf(2).is_zero());
}

TEST(LinearExprTest, ZeroCoefficientIgnored) {
  LinearExpr expr;
  expr.Add(1, Rational(0));
  EXPECT_TRUE(expr.empty());
}

TEST(LinearExprTest, EvaluateHandlesShortAssignments) {
  LinearExpr expr;
  expr.Add(0, Rational(2));
  expr.Add(3, Rational(5));
  std::vector<Rational> assignment = {Rational(1), Rational(9)};
  // Variable 3 is beyond the assignment: treated as zero.
  EXPECT_EQ(expr.Evaluate(assignment), Rational(2));
  assignment = {Rational(1), Rational(0), Rational(0), Rational(2)};
  EXPECT_EQ(expr.Evaluate(assignment), Rational(12));
}

TEST(LinearConstraintTest, AllRelations) {
  LinearConstraint constraint;
  constraint.expr.Add(0, Rational(1));
  constraint.rhs = Rational(5);

  std::vector<Rational> below = {Rational(4)};
  std::vector<Rational> equal = {Rational(5)};
  std::vector<Rational> above = {Rational(6)};

  constraint.relation = Relation::kLessEqual;
  EXPECT_TRUE(constraint.IsSatisfiedBy(below));
  EXPECT_TRUE(constraint.IsSatisfiedBy(equal));
  EXPECT_FALSE(constraint.IsSatisfiedBy(above));

  constraint.relation = Relation::kGreaterEqual;
  EXPECT_FALSE(constraint.IsSatisfiedBy(below));
  EXPECT_TRUE(constraint.IsSatisfiedBy(equal));
  EXPECT_TRUE(constraint.IsSatisfiedBy(above));

  constraint.relation = Relation::kEqual;
  EXPECT_FALSE(constraint.IsSatisfiedBy(below));
  EXPECT_TRUE(constraint.IsSatisfiedBy(equal));
  EXPECT_FALSE(constraint.IsSatisfiedBy(above));
}

TEST(LinearSystemTest, NonnegativityEnforcedBySatisfiedBy) {
  LinearSystem system;
  system.AddVariable("x");
  EXPECT_TRUE(system.IsSatisfiedBy({Rational(0)}));
  EXPECT_TRUE(system.IsSatisfiedBy({Rational(3)}));
  EXPECT_FALSE(system.IsSatisfiedBy({Rational(-1)}));
  // Wrong arity is rejected outright.
  EXPECT_FALSE(system.IsSatisfiedBy({}));
  EXPECT_FALSE(system.IsSatisfiedBy({Rational(1), Rational(1)}));
}

TEST(LinearSystemTest, VariableNamesRoundTrip) {
  LinearSystem system;
  int x = system.AddVariable("cc:{Person}");
  int y = system.AddVariable("ca:name");
  EXPECT_EQ(system.variable_name(x), "cc:{Person}");
  EXPECT_EQ(system.variable_name(y), "ca:name");
  EXPECT_EQ(system.num_variables(), 2);
}

TEST(LinearSystemTest, ToStringShowsConstraintsAndLabels) {
  LinearSystem system;
  int x = system.AddVariable("x");
  LinearConstraint constraint;
  constraint.expr.Add(x, Rational(2));
  constraint.relation = Relation::kLessEqual;
  constraint.rhs = Rational(7);
  constraint.label = "demo bound";
  system.AddConstraint(constraint);
  std::string text = system.ToString();
  EXPECT_NE(text.find("2*x0"), std::string::npos);
  EXPECT_NE(text.find("<= 7"), std::string::npos);
  EXPECT_NE(text.find("demo bound"), std::string::npos);
}

TEST(LinearSystemTest, UnnamedVariablesPrintBare) {
  LinearSystem system;
  int x = system.AddVariable();
  int y = system.AddVariable("y");
  EXPECT_EQ(system.variable_name(x), "");
  LinearConstraint constraint;
  constraint.expr.Add(x, Rational(1));
  constraint.expr.Add(y, Rational(-1));
  constraint.relation = Relation::kGreaterEqual;
  system.AddConstraint(constraint);
  std::string text = system.ToString();
  EXPECT_NE(text.find("  x0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("  x1 = y\n"), std::string::npos) << text;
  EXPECT_NE(text.find("1*x0 + -1*x1 >= 0\n"), std::string::npos) << text;
}

TEST(RelationToStringTest, AllSpellings) {
  EXPECT_STREQ(RelationToString(Relation::kLessEqual), "<=");
  EXPECT_STREQ(RelationToString(Relation::kGreaterEqual), ">=");
  EXPECT_STREQ(RelationToString(Relation::kEqual), "=");
}

}  // namespace
}  // namespace car
