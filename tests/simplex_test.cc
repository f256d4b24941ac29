#include "math/simplex.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "persist/snapshot_format.h"

namespace car {
namespace {

LinearConstraint Make(const std::vector<std::pair<int, int64_t>>& terms,
                      Relation relation, int64_t rhs) {
  LinearConstraint constraint;
  for (const auto& [variable, coefficient] : terms) {
    constraint.expr.Add(variable, Rational(coefficient));
  }
  constraint.relation = relation;
  constraint.rhs = Rational(rhs);
  return constraint;
}

TEST(SimplexTest, TextbookMaximization) {
  // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  =>  opt 36 at (2,6).
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  system.AddConstraint(Make({{y, 2}}, Relation::kLessEqual, 12));
  system.AddConstraint(Make({{x, 3}, {y, 2}}, Relation::kLessEqual, 18));
  LinearExpr objective;
  objective.Add(x, Rational(3));
  objective.Add(y, Rational(5));

  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->objective, Rational(36));
  EXPECT_EQ(result->values[x], Rational(2));
  EXPECT_EQ(result->values[y], Rational(6));
}

TEST(SimplexTest, DetectsInfeasibility) {
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, 1}}, Relation::kGreaterEqual, 3));
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 2));
  auto result = SimplexSolver().CheckFeasible(system);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}, {y, -1}}, Relation::kLessEqual, 1));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kUnbounded);
}

TEST(SimplexTest, EqualityConstraints) {
  // max x + y  s.t.  x + y = 5, x - y = 1  =>  opt 5 at (3,2).
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}, {y, 1}}, Relation::kEqual, 5));
  system.AddConstraint(Make({{x, 1}, {y, -1}}, Relation::kEqual, 1));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  objective.Add(y, Rational(1));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->objective, Rational(5));
  EXPECT_EQ(result->values[x], Rational(3));
  EXPECT_EQ(result->values[y], Rational(2));
}

TEST(SimplexTest, NegativeRightHandSides) {
  // -x <= -3 is x >= 3; feasibility requires the flip logic.
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, -1}}, Relation::kLessEqual, -3));
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 10));
  LinearExpr objective;
  objective.Add(x, Rational(-1));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->values[x], Rational(3));
}

TEST(SimplexTest, ExactRationalAnswer) {
  // max y  s.t.  3y <= 1  =>  y = 1/3 exactly; floats would dither.
  LinearSystem system;
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{y, 3}}, Relation::kLessEqual, 1));
  LinearExpr objective;
  objective.Add(y, Rational(1));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objective, Rational(BigInt(1), BigInt(3)));
}

TEST(SimplexTest, EmptySystemFeasibleAtOrigin) {
  LinearSystem system;
  system.AddVariable("x");
  auto result = SimplexSolver().CheckFeasible(system);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->values[0], Rational(0));
}

TEST(SimplexTest, DegenerateCyclePronePivotsTerminate) {
  // The classic Beale cycling example; Bland's rule must terminate.
  // max 0.75a - 150b + 0.02c - 6d
  // s.t. 0.25a - 60b - 0.04c + 9d <= 0
  //      0.5a - 90b - 0.02c + 3d <= 0
  //      c <= 1
  LinearSystem system;
  int a = system.AddVariable("a");
  int b = system.AddVariable("b");
  int c = system.AddVariable("c");
  int d = system.AddVariable("d");
  LinearConstraint c1;
  c1.expr.Add(a, Rational(BigInt(1), BigInt(4)));
  c1.expr.Add(b, Rational(-60));
  c1.expr.Add(c, Rational(BigInt(-1), BigInt(25)));
  c1.expr.Add(d, Rational(9));
  c1.relation = Relation::kLessEqual;
  c1.rhs = Rational(0);
  system.AddConstraint(c1);
  LinearConstraint c2;
  c2.expr.Add(a, Rational(BigInt(1), BigInt(2)));
  c2.expr.Add(b, Rational(-90));
  c2.expr.Add(c, Rational(BigInt(-1), BigInt(50)));
  c2.expr.Add(d, Rational(3));
  c2.relation = Relation::kLessEqual;
  c2.rhs = Rational(0);
  system.AddConstraint(c2);
  system.AddConstraint(Make({{c, 1}}, Relation::kLessEqual, 1));
  LinearExpr objective;
  objective.Add(a, Rational(BigInt(3), BigInt(4)));
  objective.Add(b, Rational(-150));
  objective.Add(c, Rational(BigInt(1), BigInt(50)));
  objective.Add(d, Rational(-6));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->objective, Rational(BigInt(1), BigInt(20)));
}

TEST(SimplexTest, PivotLimitReported) {
  SimplexSolver::Options options;
  options.max_pivots = 1;
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}, {y, 1}}, Relation::kLessEqual, 4));
  system.AddConstraint(Make({{x, 1}, {y, 2}}, Relation::kLessEqual, 6));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  objective.Add(y, Rational(2));
  auto result = SimplexSolver(options).Maximize(system, objective);
  // Either it solved within the limit or reports resource exhaustion;
  // with one pivot allowed this instance cannot finish.
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The message carries the structured limit description.
  EXPECT_NE(result.status().message().find("limit=max_pivots phase=simplex"),
            std::string::npos)
      << result.status();
}

TEST(SimplexTest, GovernedPivotLimitRecordsTripOnContext) {
  ExecContext exec;
  SimplexSolver::Options options;
  options.max_pivots = 1;
  options.exec = &exec;
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}, {y, 1}}, Relation::kLessEqual, 4));
  system.AddConstraint(Make({{x, 1}, {y, 2}}, Relation::kLessEqual, 6));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  objective.Add(y, Rational(2));
  auto result = SimplexSolver(options).Maximize(system, objective);
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(exec.tripped());
  EXPECT_EQ(exec.report().kind, LimitKind::kMaxPivots);
  EXPECT_EQ(exec.report().phase, "simplex");
  EXPECT_EQ(exec.report().limit, 1u);
  EXPECT_GT(exec.progress().pivots_executed, 0u);
  EXPECT_GT(exec.progress().work_charged, 0u);
  EXPECT_GT(exec.progress().bytes_charged, 0u);
}

TEST(SimplexTest, GovernedSolveChargesWorkAndBytes) {
  ExecContext exec;
  SimplexSolver::Options options;
  options.exec = &exec;
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  auto result = SimplexSolver(options).Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_FALSE(exec.tripped());
  EXPECT_GT(exec.progress().bytes_charged, 0u);
  EXPECT_EQ(exec.progress().pivots_executed, result->pivots);
}

TEST(SimplexWarmStartTest, ResumeMatchesColdOnTextbookExtension) {
  // Base: max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18.
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  system.AddConstraint(Make({{y, 2}}, Relation::kLessEqual, 12));
  system.AddConstraint(Make({{x, 3}, {y, 2}}, Relation::kLessEqual, 18));
  LinearExpr objective;
  objective.Add(x, Rational(3));
  objective.Add(y, Rational(5));

  SimplexSnapshot snapshot;
  auto base = SimplexSolver().SolveForSnapshot(system, objective, &snapshot);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(base->objective, Rational(36));

  // Extension: new variable z joins the first constraint (x + 2z <= 4)
  // and two new constraints appear: z >= 1 and x + y + z <= 8.
  SimplexDelta delta;
  delta.num_new_variables = 1;
  const int z = snapshot.num_variables();
  delta.row_extensions.push_back({0, z, Rational(2)});
  delta.new_constraints.push_back(Make({{z, 1}}, Relation::kGreaterEqual, 1));
  delta.new_constraints.push_back(
      Make({{x, 1}, {y, 1}, {z, 1}}, Relation::kLessEqual, 8));
  LinearExpr extended_objective = objective;
  extended_objective.Add(z, Rational(1));

  auto warm =
      SimplexSolver().ResumeMaximize(&snapshot, delta, extended_objective);
  ASSERT_TRUE(warm.ok());

  LinearSystem cold_system;
  cold_system.AddVariable("x");
  cold_system.AddVariable("y");
  cold_system.AddVariable("z");
  cold_system.AddConstraint(
      Make({{x, 1}, {z, 2}}, Relation::kLessEqual, 4));
  cold_system.AddConstraint(Make({{y, 2}}, Relation::kLessEqual, 12));
  cold_system.AddConstraint(
      Make({{x, 3}, {y, 2}}, Relation::kLessEqual, 18));
  cold_system.AddConstraint(Make({{z, 1}}, Relation::kGreaterEqual, 1));
  cold_system.AddConstraint(
      Make({{x, 1}, {y, 1}, {z, 1}}, Relation::kLessEqual, 8));
  auto cold = SimplexSolver().Maximize(cold_system, extended_objective);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(warm->outcome, cold->outcome);
  EXPECT_EQ(warm->objective, cold->objective);
  EXPECT_TRUE(cold_system.IsSatisfiedBy(warm->values));
}

TEST(SimplexWarmStartTest, ResumeDetectsInfeasibleExtension) {
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  SimplexSnapshot snapshot;
  auto base = SimplexSolver().SolveForSnapshot(system, objective, &snapshot);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->outcome, LpOutcome::kOptimal);

  SimplexDelta delta;
  delta.new_constraints.push_back(Make({{x, 1}}, Relation::kGreaterEqual, 9));
  auto warm = SimplexSolver().ResumeMaximize(&snapshot, delta, objective);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->outcome, LpOutcome::kInfeasible);
}

TEST(SimplexWarmStartTest, GovernedResumeCountsWarmStarts) {
  ExecContext exec;
  SimplexSolver::Options options;
  options.exec = &exec;
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  SimplexSnapshot snapshot;
  auto base =
      SimplexSolver(options).SolveForSnapshot(system, objective, &snapshot);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(exec.progress().warm_starts, 0u);

  SimplexDelta delta;
  delta.new_constraints.push_back(Make({{x, 1}}, Relation::kLessEqual, 2));
  auto warm = SimplexSolver(options).ResumeMaximize(&snapshot, delta,
                                                    objective);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(warm->objective, Rational(2));
  EXPECT_EQ(exec.progress().warm_starts, 1u);
}

/// Property: chained ResumeMaximize calls agree with a from-scratch
/// Maximize of the accumulated system on outcome and optimal value, and
/// any warm optimum satisfies the accumulated system. Bases are feasible
/// by construction; deltas are arbitrary (extensions on new variables,
/// new constraints over all variables), so infeasible and unbounded
/// extensions are exercised too.
TEST(SimplexWarmStartProperty, ChainedResumesMatchCold) {
  Rng rng(20260806);
  for (int iteration = 0; iteration < 120; ++iteration) {
    const int n = rng.NextInt(1, 4);
    const int m = rng.NextInt(1, 5);
    LinearSystem accumulated;
    std::vector<Rational> witness;
    for (int j = 0; j < n; ++j) {
      accumulated.AddVariable("x");
      witness.push_back(Rational(rng.NextInt(0, 4)));
    }
    for (int i = 0; i < m; ++i) {
      LinearConstraint constraint;
      Rational value;
      for (int j = 0; j < n; ++j) {
        int64_t coefficient = rng.NextInt(-3, 3);
        if (coefficient != 0) {
          constraint.expr.Add(j, Rational(coefficient));
          value += Rational(coefficient) * witness[j];
        }
      }
      int kind = rng.NextInt(0, 2);
      if (kind == 0) {
        constraint.relation = Relation::kLessEqual;
        constraint.rhs = value + Rational(rng.NextInt(0, 4));
      } else if (kind == 1) {
        constraint.relation = Relation::kGreaterEqual;
        constraint.rhs = value - Rational(rng.NextInt(0, 4));
      } else {
        constraint.relation = Relation::kEqual;
        constraint.rhs = value;
      }
      accumulated.AddConstraint(constraint);
    }
    LinearExpr objective;
    for (int j = 0; j < n; ++j) {
      objective.Add(j, Rational(rng.NextInt(-2, 2)));
    }

    SimplexSnapshot snapshot;
    auto base = SimplexSolver().SolveForSnapshot(accumulated, objective,
                                                 &snapshot);
    ASSERT_TRUE(base.ok());
    if (base->outcome != LpOutcome::kOptimal) continue;

    const int num_resumes = rng.NextInt(1, 3);
    bool snapshot_dead = false;
    for (int resume = 0; resume < num_resumes && !snapshot_dead; ++resume) {
      SimplexDelta delta;
      delta.num_new_variables = rng.NextInt(0, 2);
      const int old_vars = snapshot.num_variables();
      const int total_vars = old_vars + delta.num_new_variables;
      for (int v = old_vars; v < total_vars; ++v) {
        const int extensions = rng.NextInt(0, 2);
        for (int e = 0; e < extensions; ++e) {
          int64_t coefficient = rng.NextInt(-3, 3);
          if (coefficient == 0) continue;
          delta.row_extensions.push_back(
              {static_cast<size_t>(
                   rng.NextInt(0, static_cast<int>(
                                      accumulated.constraints().size()) -
                                      1)),
               v, Rational(coefficient)});
        }
      }
      const int new_constraints = rng.NextInt(delta.empty() ? 1 : 0, 2);
      for (int i = 0; i < new_constraints; ++i) {
        LinearConstraint constraint;
        for (int j = 0; j < total_vars; ++j) {
          int64_t coefficient = rng.NextInt(-3, 3);
          if (coefficient != 0) constraint.expr.Add(j, Rational(coefficient));
        }
        constraint.relation = static_cast<Relation>(rng.NextInt(0, 2));
        constraint.rhs = Rational(rng.NextInt(-5, 5));
        delta.new_constraints.push_back(constraint);
      }

      // Mirror the delta into the from-scratch system.
      LinearSystem next;
      for (int j = 0; j < total_vars; ++j) next.AddVariable("x");
      for (size_t c = 0; c < accumulated.constraints().size(); ++c) {
        LinearConstraint constraint = accumulated.constraints()[c];
        for (const auto& extension : delta.row_extensions) {
          if (extension.constraint == c) {
            constraint.expr.Add(extension.variable, extension.coefficient);
          }
        }
        next.AddConstraint(constraint);
      }
      for (const LinearConstraint& constraint : delta.new_constraints) {
        next.AddConstraint(constraint);
      }
      accumulated = next;
      LinearExpr extended_objective = objective;
      for (int v = old_vars; v < total_vars; ++v) {
        extended_objective.Add(v, Rational(rng.NextInt(-2, 2)));
      }
      objective = extended_objective;

      auto warm =
          SimplexSolver().ResumeMaximize(&snapshot, delta, objective);
      ASSERT_TRUE(warm.ok());
      auto cold = SimplexSolver().Maximize(accumulated, objective);
      ASSERT_TRUE(cold.ok());
      ASSERT_EQ(warm->outcome, cold->outcome)
          << "iteration " << iteration << " resume " << resume << "\n"
          << accumulated.ToString();
      if (warm->outcome == LpOutcome::kOptimal) {
        EXPECT_EQ(warm->objective, cold->objective)
            << "iteration " << iteration << " resume " << resume << "\n"
            << accumulated.ToString();
        EXPECT_TRUE(accumulated.IsSatisfiedBy(warm->values))
            << accumulated.ToString();
      } else {
        // The snapshot only stays resumable while extensions keep it
        // feasible with a finite optimum.
        snapshot_dead = true;
      }
    }
  }
}

/// Property: on random systems constructed to contain a known feasible
/// point, the solver must report feasibility, return a point satisfying
/// the system, and (when maximizing) weakly beat the known point.
TEST(SimplexProperty, FeasibleByConstruction) {
  Rng rng(20260401);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const int n = rng.NextInt(1, 5);
    const int m = rng.NextInt(1, 6);
    LinearSystem system;
    std::vector<Rational> witness;
    for (int j = 0; j < n; ++j) {
      system.AddVariable("x");
      witness.push_back(Rational(rng.NextInt(0, 5)));
    }
    for (int i = 0; i < m; ++i) {
      LinearConstraint constraint;
      Rational value;
      for (int j = 0; j < n; ++j) {
        int64_t coefficient = rng.NextInt(-4, 4);
        if (coefficient != 0) {
          constraint.expr.Add(j, Rational(coefficient));
          value += Rational(coefficient) * witness[j];
        }
      }
      int kind = rng.NextInt(0, 2);
      if (kind == 0) {
        constraint.relation = Relation::kLessEqual;
        constraint.rhs = value + Rational(rng.NextInt(0, 5));
      } else if (kind == 1) {
        constraint.relation = Relation::kGreaterEqual;
        constraint.rhs = value - Rational(rng.NextInt(0, 5));
      } else {
        constraint.relation = Relation::kEqual;
        constraint.rhs = value;
      }
      system.AddConstraint(constraint);
    }
    ASSERT_TRUE(system.IsSatisfiedBy(witness));

    LinearExpr objective;
    Rational witness_objective;
    for (int j = 0; j < n; ++j) {
      int64_t coefficient = rng.NextInt(-3, 3);
      objective.Add(j, Rational(coefficient));
      witness_objective += Rational(coefficient) * witness[j];
    }
    auto result = SimplexSolver().Maximize(system, objective);
    ASSERT_TRUE(result.ok());
    ASSERT_NE(result->outcome, LpOutcome::kInfeasible);
    if (result->outcome == LpOutcome::kOptimal) {
      EXPECT_TRUE(system.IsSatisfiedBy(result->values))
          << system.ToString();
      EXPECT_GE(result->objective, witness_objective);
    }
  }
}

/// Property: feasibility verdicts on random (possibly infeasible) systems
/// are self-consistent — a "feasible" answer always carries a point that
/// checks out against the constraints.
TEST(SimplexProperty, FeasibilityWitnessAlwaysValid) {
  Rng rng(555);
  int feasible_count = 0;
  int infeasible_count = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    const int n = rng.NextInt(1, 4);
    const int m = rng.NextInt(1, 6);
    LinearSystem system;
    for (int j = 0; j < n; ++j) system.AddVariable("x");
    for (int i = 0; i < m; ++i) {
      LinearConstraint constraint;
      for (int j = 0; j < n; ++j) {
        int64_t coefficient = rng.NextInt(-3, 3);
        if (coefficient != 0) constraint.expr.Add(j, Rational(coefficient));
      }
      constraint.relation = static_cast<Relation>(rng.NextInt(0, 2));
      constraint.rhs = Rational(rng.NextInt(-6, 6));
      system.AddConstraint(constraint);
    }
    auto result = SimplexSolver().CheckFeasible(system);
    ASSERT_TRUE(result.ok());
    if (result->outcome == LpOutcome::kOptimal) {
      ++feasible_count;
      EXPECT_TRUE(system.IsSatisfiedBy(result->values)) << system.ToString();
    } else {
      ++infeasible_count;
    }
  }
  // The generator should produce a healthy mix of both verdicts.
  EXPECT_GT(feasible_count, 20);
  EXPECT_GT(infeasible_count, 20);
}

/// Solves `system` on both kernels and expects bit-identical results;
/// returns the sparse kernel's.
LpResult ExpectMatchesDenseRational(const LinearSystem& system,
                                    const LinearExpr& objective) {
  auto sparse = SimplexSolver().Maximize(system, objective);
  SimplexSolver::Options options;
  options.kernel = SimplexKernel::kDenseRational;
  auto dense = SimplexSolver(options).Maximize(system, objective);
  EXPECT_TRUE(sparse.ok() && dense.ok()) << system.ToString();
  if (!sparse.ok() || !dense.ok()) return LpResult();
  EXPECT_EQ(dense->outcome, sparse->outcome) << system.ToString();
  EXPECT_EQ(dense->objective, sparse->objective) << system.ToString();
  EXPECT_EQ(dense->values, sparse->values) << system.ToString();
  EXPECT_EQ(dense->pivots, sparse->pivots) << system.ToString();
  // Zero-skipping is representation-level only: the final tableaus hold
  // the same nonzero pattern.
  EXPECT_EQ(dense->tableau_nonzeros, sparse->tableau_nonzeros)
      << system.ToString();
  // The dense-rational kernel has no word form to promote from.
  EXPECT_EQ(dense->scalar_promotions, 0u);
  return std::move(sparse).value();
}

/// Property: the two tableau kernels (sparse integer rows in production,
/// dense rationals as the oracle) are bit-identical on random
/// maximization problems — same outcome, same objective, same vertex,
/// same pivot count. This is the exactness contract that lets the sparse
/// integer kernel claim "answers unchanged by construction".
TEST(SimplexProperty, KernelsAreBitIdentical) {
  Rng rng(4242);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const int n = rng.NextInt(1, 5);
    const int m = rng.NextInt(1, 7);
    LinearSystem system;
    for (int j = 0; j < n; ++j) system.AddVariable("x");
    for (int i = 0; i < m; ++i) {
      LinearConstraint constraint;
      for (int j = 0; j < n; ++j) {
        int64_t coefficient = rng.NextInt(-5, 5);
        if (coefficient != 0) constraint.expr.Add(j, Rational(coefficient));
      }
      constraint.relation = static_cast<Relation>(rng.NextInt(0, 2));
      constraint.rhs = Rational(rng.NextInt(-8, 8));
      system.AddConstraint(constraint);
    }
    LinearExpr objective;
    for (int j = 0; j < n; ++j) {
      int64_t coefficient = rng.NextInt(-4, 4);
      if (coefficient != 0) objective.Add(j, Rational(coefficient));
    }

    ExpectMatchesDenseRational(system, objective);
  }
}

// --- Entry rule: homogeneous >= rows start on their slack ---------------

/// `constraint` with both sides negated: `a·x >= 0` becomes `-a·x <= 0`.
LinearConstraint Negated(const LinearConstraint& constraint) {
  LinearConstraint negated;
  for (const auto& [variable, coefficient] : constraint.expr.terms()) {
    negated.expr.Add(variable, -coefficient);
  }
  negated.rhs = -constraint.rhs;
  negated.relation = constraint.relation == Relation::kGreaterEqual
                         ? Relation::kLessEqual
                         : constraint.relation == Relation::kLessEqual
                               ? Relation::kGreaterEqual
                               : Relation::kEqual;
  return negated;
}

/// `system` with every homogeneous >= row replaced by its negated <= row.
LinearSystem WithHomogeneousRowsNegated(const LinearSystem& system) {
  LinearSystem twin;
  for (int j = 0; j < system.num_variables(); ++j) twin.AddVariable();
  for (const LinearConstraint& constraint : system.constraints()) {
    const bool homogeneous_lower =
        constraint.relation == Relation::kGreaterEqual &&
        constraint.rhs.is_zero();
    twin.AddConstraint(homogeneous_lower ? Negated(constraint) : constraint);
  }
  return twin;
}

/// A random system shaped like Ψ_S (Section 3.2): compound-class unknowns
/// c_i, compound-attribute unknowns from c_from to c_to, and per class and
/// direction the homogeneous bound rows
///   Σ a - min·c_i >= 0 (min > 0),  Σ a - max·c_i <= 0 (max finite),
/// then the support gadgets t_i - c_i <= 0, t_i <= 1 with objective Σ t_i.
/// Every right-hand side but the gadgets' is zero.
struct PsiShapedSystem {
  LinearSystem system;
  LinearExpr objective;
  std::vector<int> cc;  // The c_i unknowns.
};

PsiShapedSystem RandomPsiShapedSystem(Rng* rng) {
  PsiShapedSystem psi;
  const int classes = rng->NextInt(1, 4);
  const int attributes = rng->NextInt(1, 6);
  for (int i = 0; i < classes; ++i) psi.cc.push_back(psi.system.AddVariable());
  std::vector<LinearExpr> out(classes);
  std::vector<LinearExpr> in(classes);
  for (int k = 0; k < attributes; ++k) {
    const int a = psi.system.AddVariable();
    out[rng->NextInt(0, classes - 1)].Add(a, Rational(1));
    in[rng->NextInt(0, classes - 1)].Add(a, Rational(1));
  }
  auto bound_rows = [&](const LinearExpr& sum, int c) {
    const int min = rng->NextInt(0, 3);
    const int max = rng->NextInt(-1, 3);  // -1: infinite.
    if (min > 0) {
      LinearConstraint lower;
      lower.expr = sum;
      lower.expr.Add(c, Rational(-min));
      lower.relation = Relation::kGreaterEqual;
      psi.system.AddConstraint(std::move(lower));
    }
    if (max >= 0) {
      LinearConstraint upper;
      upper.expr = sum;
      upper.expr.Add(c, Rational(-max));
      upper.relation = Relation::kLessEqual;
      psi.system.AddConstraint(std::move(upper));
    }
  };
  for (int i = 0; i < classes; ++i) {
    bound_rows(out[i], psi.cc[i]);
    bound_rows(in[i], psi.cc[i]);
  }
  for (int i = 0; i < classes; ++i) {
    const int t = psi.system.AddVariable();
    psi.system.AddConstraint(
        Make({{t, 1}, {psi.cc[i], -1}}, Relation::kLessEqual, 0));
    psi.system.AddConstraint(Make({{t, 1}}, Relation::kLessEqual, 1));
    psi.objective.Add(t, Rational(1));
  }
  return psi;
}

/// A row's exact contents: (column, value) per entry, then the
/// right-hand side under column -1.
std::vector<std::pair<int, Rational>> RowValues(const SparseRow& row) {
  std::vector<std::pair<int, Rational>> values;
  for (size_t k = 0; k < row.nnz(); ++k) {
    values.emplace_back(row.ColAt(k), row.ValueAt(k));
  }
  values.emplace_back(-1, row.RhsValue());
  return values;
}

void ExpectSameSolve(const LpResult& actual, const LpResult& expected,
                     const std::string& context) {
  EXPECT_EQ(actual.outcome, expected.outcome) << context;
  EXPECT_EQ(actual.objective, expected.objective) << context;
  EXPECT_EQ(actual.values, expected.values) << context;
  EXPECT_EQ(actual.pivots, expected.pivots) << context;
}

TEST(SimplexEntryRuleTest, HomogeneousLowerRowCostsNoPhaseOnePivot) {
  // a - 2c >= 0 and a - 3c <= 0 (c's out-degree in [2, 3]), a - c <= 0
  // (in-degree at most 1), support gadget t <= c, t <= 1: the only
  // homogeneous >= row must enter on its slack in every kernel.
  LinearSystem system;
  const int c = system.AddVariable();
  const int a = system.AddVariable();
  const int t = system.AddVariable();
  system.AddConstraint(Make({{a, 1}, {c, -2}}, Relation::kGreaterEqual, 0));
  system.AddConstraint(Make({{a, 1}, {c, -3}}, Relation::kLessEqual, 0));
  system.AddConstraint(Make({{a, 1}, {c, -1}}, Relation::kLessEqual, 0));
  system.AddConstraint(Make({{t, 1}, {c, -1}}, Relation::kLessEqual, 0));
  system.AddConstraint(Make({{t, 1}}, Relation::kLessEqual, 1));
  LinearExpr objective;
  objective.Add(t, Rational(1));
  const LinearSystem twin = WithHomogeneousRowsNegated(system);

  for (SimplexKernel kernel :
       {SimplexKernel::kSparse, SimplexKernel::kDenseRational}) {
    SimplexSolver::Options options;
    options.kernel = kernel;
    SimplexSolver solver(options);
    // x = 0 is feasible and, with no artificial, there is no phase 1.
    auto feasible = solver.CheckFeasible(system);
    ASSERT_TRUE(feasible.ok());
    EXPECT_EQ(feasible->outcome, LpOutcome::kOptimal);
    EXPECT_EQ(feasible->pivots, 0u) << SimplexKernelToString(kernel);

    auto lower = solver.Maximize(system, objective);
    auto negated = solver.Maximize(twin, objective);
    ASSERT_TRUE(lower.ok());
    ASSERT_TRUE(negated.ok());
    // c can only be supported at 0: out-degree >= 2 > in-degree <= 1.
    EXPECT_EQ(lower->objective, Rational(0));
    ExpectSameSolve(*lower, *negated, SimplexKernelToString(kernel));
  }
}

/// ResumeMaximize applies the rule to an appended row whose eliminated
/// right-hand side is 0: the Ψ delta's own bound rows (over new unknowns
/// only) are exactly such rows. A resume appending the >= rows must walk
/// the same pivots to the same vertex as one appending their negated <=
/// twins.
TEST(SimplexEntryRuleTest, ResumedHomogeneousLowerRowsMatchNegatedTwins) {
  Rng rng(1105545);
  for (int iteration = 0; iteration < 200; ++iteration) {
    PsiShapedSystem psi = RandomPsiShapedSystem(&rng);
    SimplexSnapshot base;
    auto solved =
        SimplexSolver().SolveForSnapshot(psi.system, psi.objective, &base);
    ASSERT_TRUE(solved.ok());
    ASSERT_EQ(solved->outcome, LpOutcome::kOptimal);

    // A delta shaped like a Ψ delta: new class c' and attribute a', a'
    // also extends an old class's bound rows, bound rows of c' over new
    // unknowns (and optionally an old attribute), c''s support gadget.
    SimplexDelta delta;
    delta.num_new_variables = 3;
    const int c = base.num_variables();
    const int a = c + 1;
    const int t = c + 2;
    const size_t rows = psi.system.constraints().size();
    delta.row_extensions.push_back(
        {static_cast<size_t>(rng.NextInt(0, static_cast<int>(rows) - 1)), a,
         Rational(1)});
    LinearConstraint lower =
        Make({{a, 1}, {c, -rng.NextInt(1, 3)}}, Relation::kGreaterEqual, 0);
    if (rng.NextInt(0, 1) == 1) {
      lower.expr.Add(rng.NextInt(0, c - 1), Rational(1));
    }
    delta.new_constraints.push_back(lower);
    delta.new_constraints.push_back(
        Make({{a, 1}, {c, -rng.NextInt(0, 3)}}, Relation::kLessEqual, 0));
    delta.new_constraints.push_back(
        Make({{t, 1}, {c, -1}}, Relation::kLessEqual, 0));
    delta.new_constraints.push_back(Make({{t, 1}}, Relation::kLessEqual, 1));
    SimplexDelta twin = delta;
    twin.new_constraints[0] = Negated(lower);
    LinearExpr objective = psi.objective;
    objective.Add(t, Rational(1));

    SimplexSnapshot lower_snapshot = base;
    SimplexSnapshot negated_snapshot = base;
    auto lower_result =
        SimplexSolver().ResumeMaximize(&lower_snapshot, delta, objective);
    auto negated_result =
        SimplexSolver().ResumeMaximize(&negated_snapshot, twin, objective);
    ASSERT_TRUE(lower_result.ok());
    ASSERT_TRUE(negated_result.ok());
    ExpectSameSolve(*lower_result, *negated_result, psi.system.ToString());
    // Only the recorded flip of the appended row tells the two apart:
    // every row holds the same values (compared by value, not by how a
    // row's integers and denominator represent them).
    EXPECT_EQ(lower_snapshot.basis, negated_snapshot.basis);
    ASSERT_EQ(lower_snapshot.rows.size(), negated_snapshot.rows.size());
    for (size_t r = 0; r < lower_snapshot.rows.size(); ++r) {
      EXPECT_EQ(RowValues(lower_snapshot.rows[r]),
                RowValues(negated_snapshot.rows[r]))
          << "row " << r;
    }
  }
}

TEST(SimplexEntryRuleTest, FarkasCertificateMapsNegatedHomogeneousRows) {
  // x - 2y >= 0 enters negated; with y >= 1 and x <= 1 the system is
  // infeasible, and the refutation needs the homogeneous row: any valid
  // certificate must weigh it, with the sign of the ORIGINAL >= row.
  LinearSystem system;
  const int x = system.AddVariable();
  const int y = system.AddVariable();
  system.AddConstraint(Make({{x, 1}, {y, -2}}, Relation::kGreaterEqual, 0));
  system.AddConstraint(Make({{y, 1}}, Relation::kGreaterEqual, 1));
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 1));
  SimplexSolver::Options options;
  options.extract_certificate = true;
  auto result = SimplexSolver(options).CheckFeasible(system);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcome, LpOutcome::kInfeasible);
  ASSERT_TRUE(result->infeasibility_certificate.has_value());
  const InfeasibilityCertificate& certificate =
      *result->infeasibility_certificate;
  EXPECT_TRUE(ValidateInfeasibilityCertificate(system, certificate));
  EXPECT_TRUE(certificate.row_multipliers[0].is_positive());
}

/// Property: UNSAT-probe-shaped systems — a Ψ-shaped system without
/// gadgets plus Σ c >= 1 over some classes — that are infeasible yield a
/// certificate that validates against the original (un-negated) rows.
TEST(SimplexEntryRuleTest, ProbeCertificatesValidateAgainstOriginalRows) {
  Rng rng(1994);
  int infeasible = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    PsiShapedSystem psi = RandomPsiShapedSystem(&rng);
    LinearSystem probe;
    for (int j = 0; j < psi.system.num_variables(); ++j) probe.AddVariable();
    // Keep the bound rows, drop the gadgets (they come last, two per c).
    const size_t bound_rows =
        psi.system.constraints().size() - 2 * psi.cc.size();
    for (size_t r = 0; r < bound_rows; ++r) {
      probe.AddConstraint(psi.system.constraints()[r]);
    }
    LinearConstraint populated;
    for (int c : psi.cc) {
      if (rng.NextInt(0, 1) == 1) populated.expr.Add(c, Rational(1));
    }
    if (populated.expr.empty()) populated.expr.Add(psi.cc[0], Rational(1));
    populated.relation = Relation::kGreaterEqual;
    populated.rhs = Rational(1);
    probe.AddConstraint(populated);

    SimplexSolver::Options options;
    options.extract_certificate = true;
    auto result = SimplexSolver(options).CheckFeasible(probe);
    ASSERT_TRUE(result.ok());
    if (result->outcome == LpOutcome::kOptimal) {
      EXPECT_TRUE(probe.IsSatisfiedBy(result->values)) << probe.ToString();
      continue;
    }
    ++infeasible;
    ASSERT_TRUE(result->infeasibility_certificate.has_value());
    EXPECT_TRUE(ValidateInfeasibilityCertificate(
        probe, *result->infeasibility_certificate))
        << probe.ToString();
  }
  EXPECT_GT(infeasible, 20);
}

/// Property: on Ψ-shaped systems, where half of the bound rows are
/// homogeneous >= rows (KernelsAreBitIdentical's generator draws such a
/// row about once in 50), the two kernels stay bit-identical, and each
/// walks the same pivots to the same vertex as on the twin system written
/// with pre-negated <= rows.
TEST(SimplexProperty, KernelsAreBitIdenticalOnPsiShapedSystems) {
  Rng rng(3303);
  for (int iteration = 0; iteration < 200; ++iteration) {
    PsiShapedSystem psi = RandomPsiShapedSystem(&rng);
    const LinearSystem twin = WithHomogeneousRowsNegated(psi.system);
    auto sparse = SimplexSolver().Maximize(psi.system, psi.objective);
    ASSERT_TRUE(sparse.ok());
    ASSERT_EQ(sparse->outcome, LpOutcome::kOptimal);
    for (SimplexKernel kernel :
         {SimplexKernel::kSparse, SimplexKernel::kDenseRational}) {
      SimplexSolver::Options options;
      options.kernel = kernel;
      SimplexSolver solver(options);
      auto result = solver.Maximize(psi.system, psi.objective);
      auto negated = solver.Maximize(twin, psi.objective);
      ASSERT_TRUE(result.ok());
      ASSERT_TRUE(negated.ok());
      const std::string context = std::string(SimplexKernelToString(kernel)) +
                                  "\n" + psi.system.ToString();
      ExpectSameSolve(*result, *sparse, context);
      EXPECT_EQ(result->tableau_nonzeros, sparse->tableau_nonzeros)
          << context;
      ExpectSameSolve(*negated, *result, context);
    }
  }
}

// --- Integer rows: word arithmetic, promotion to BigInt and back ---------

/// A row's exact contents as a dense oracle: one value per column below
/// `width`, then the right-hand side.
struct RowOracle {
  std::vector<Rational> cells;
  Rational rhs;
};

SparseRow MakeRow(const RowOracle& oracle) {
  SparseRow row;
  for (size_t c = 0; c < oracle.cells.size(); ++c) {
    if (!oracle.cells[c].is_zero()) {
      row.Append(static_cast<int>(c), oracle.cells[c]);
    }
  }
  row.SetRhs(oracle.rhs);
  return row;
}

/// Asserts that `row` holds exactly the oracle's values, with no stored
/// zero.
void ExpectRow(const SparseRow& row, const RowOracle& oracle) {
  std::vector<std::pair<int, Rational>> expected;
  for (size_t c = 0; c < oracle.cells.size(); ++c) {
    if (!oracle.cells[c].is_zero()) {
      expected.emplace_back(static_cast<int>(c), oracle.cells[c]);
    }
  }
  expected.emplace_back(-1, oracle.rhs);
  ASSERT_EQ(RowValues(row), expected);
  for (size_t k = 0; k < row.nnz(); ++k) {
    ASSERT_EQ(row.SignAt(k), row.ValueAt(k).sign());
  }
  ASSERT_EQ(row.rhs_sign(), oracle.rhs.sign());
}

/// The oracle of a − (a[col] / p[col])·p.
RowOracle Eliminated(const RowOracle& a, const RowOracle& p, size_t col) {
  const Rational factor = a.cells[col] / p.cells[col];
  RowOracle result = a;
  for (size_t c = 0; c < a.cells.size(); ++c) {
    result.cells[c] -= factor * p.cells[c];
  }
  result.rhs -= factor * p.rhs;
  return result;
}

Rational Fraction(int64_t numerator, int64_t denominator) {
  return Rational(BigInt(numerator), BigInt(denominator));
}

TEST(SparseRowTest, EliminationMatchesRational) {
  const RowOracle a{{Rational(2), Rational(3), Rational(0)}, Rational(5)};
  const RowOracle p{{Rational(4), Rational(0), Rational(1)}, Rational(2)};
  SparseRow row = MakeRow(a);
  const SparseRow pivot = MakeRow(p);
  SparseRow::Scratch scratch;
  row.Eliminate(0, pivot, 0, &scratch);
  // (2, 3, 0 | 5) − 1/2 · (4, 0, 1 | 2) = (0, 3, −1/2 | 4).
  ExpectRow(row, Eliminated(a, p, 0));
  EXPECT_TRUE(row.is_small());
  EXPECT_EQ(row.IndexOf(0), -1);
  // Normalizing on −1/2 divides the row by it.
  row.Normalize(static_cast<size_t>(row.IndexOf(2)));
  ExpectRow(row, {{Rational(0), Rational(-6), Rational(1)}, Rational(-8)});
  EXPECT_TRUE(row.IsOneAt(static_cast<size_t>(row.IndexOf(2))));
}

TEST(SparseRowTest, PromotionOnOverflowAndDemotionBack) {
  const uint64_t before = SparseRow::promotions_this_thread();
  const RowOracle a{{Rational(INT64_MAX), Rational(1)}, Rational(0)};
  const RowOracle p{{Rational(1), Rational(2)}, Rational(0)};
  SparseRow row = MakeRow(a);
  SparseRow::Scratch scratch;
  // INT64_MAX − 1/2 over the denominator 2 needs 2^64 − 3: past a word.
  row.Eliminate(1, MakeRow(p), 1, &scratch);
  EXPECT_FALSE(row.is_small());
  EXPECT_EQ(SparseRow::promotions_this_thread(), before + 1);
  const RowOracle eliminated = Eliminated(a, p, 1);
  ExpectRow(row, eliminated);
  // A copy is as deep as the original and as big.
  SparseRow copy = row;
  EXPECT_FALSE(copy.is_small());
  ExpectRow(copy, eliminated);
  // Normalizing leaves (1 | 0): the row fits again and returns to words.
  row.Normalize(0);
  EXPECT_TRUE(row.is_small());
  ExpectRow(row, {{Rational(1), Rational(0)}, Rational(0)});
  ExpectRow(copy, eliminated);
  copy = row;  // Big -> small assignment drops the BigInt form.
  EXPECT_TRUE(copy.is_small());
  EXPECT_EQ(SparseRow::promotions_this_thread(), before + 1);
}

TEST(SparseRowTest, DenominatorOverflowBoundary) {
  // 1/2^32 and 1/(2^32 − 1) share no factor: their row denominator is
  // past a word although each cell alone fits.
  const int64_t d1 = int64_t{1} << 32;
  const RowOracle coprime{{Fraction(1, d1), Fraction(1, d1 - 1)}, Rational(0)};
  SparseRow row = MakeRow(coprime);
  EXPECT_FALSE(row.is_small());
  ExpectRow(row, coprime);
  // With a common factor the least common multiple stays small:
  // 1/2^62 and 1/2^61 share the denominator 2^62.
  const int64_t p62 = int64_t{1} << 62;
  const RowOracle shared{{Fraction(1, p62), Fraction(1, p62 / 2)},
                         Fraction(3, p62)};
  SparseRow small = MakeRow(shared);
  EXPECT_TRUE(small.is_small());
  ExpectRow(small, shared);
}

TEST(SparseRowTest, Int64MinEdges) {
  const RowOracle a{{Rational(INT64_MIN), Rational(1)}, Rational(INT64_MIN)};
  SparseRow row = MakeRow(a);
  EXPECT_TRUE(row.is_small());
  ExpectRow(row, a);
  // −INT64_MIN = 2^63 does not fit: negation must promote, exactly.
  SparseRow negated = row;
  negated.Negate();
  EXPECT_FALSE(negated.is_small());
  ExpectRow(negated, {{-a.cells[0], -a.cells[1]}, -a.rhs});
  // Dividing by INT64_MIN needs the denominator 2^63.
  row.Normalize(0);
  EXPECT_FALSE(row.is_small());
  ExpectRow(row, {{Rational(1), Fraction(1, INT64_MIN)}, Rational(1)});
  // Eliminating with a multiplier of INT64_MIN is exact too.
  const RowOracle b{{Rational(INT64_MIN), Rational(3)}, Rational(7)};
  const RowOracle p{{Rational(1), Rational(-1)}, Rational(2)};
  SparseRow target = MakeRow(b);
  SparseRow::Scratch scratch;
  target.Eliminate(0, MakeRow(p), 0, &scratch);
  ExpectRow(target, Eliminated(b, p, 0));
}

TEST(SparseRowTest, AddMultipleOfCellInsertsMergesAndCancels) {
  RowOracle oracle{{Rational(2), Rational(0), Rational(5), Rational(0)},
                   Rational(1)};
  SparseRow row = MakeRow(oracle);
  auto at = [&row](int col) { return static_cast<size_t>(row.IndexOf(col)); };
  // Insert: cell 1 += 3 · cell 0.
  row.AddMultipleOfCell(1, Rational(3), at(0));
  oracle.cells[1] = Rational(6);
  ExpectRow(row, oracle);
  // Cancel: cell 1 += −3 · cell 0 erases the entry.
  row.AddMultipleOfCell(1, Rational(-3), at(0));
  oracle.cells[1] = Rational(0);
  ExpectRow(row, oracle);
  // A fractional factor rescales the row: cell 3 += 1/3 · cell 2.
  row.AddMultipleOfCell(3, Fraction(1, 3), at(2));
  oracle.cells[3] = Fraction(5, 3);
  ExpectRow(row, oracle);
  // An overflowing product promotes: cell 3 += INT64_MAX · cell 0.
  row.AddMultipleOfCell(3, Rational(INT64_MAX), at(0));
  oracle.cells[3] += Rational(INT64_MAX) * Rational(2);
  EXPECT_FALSE(row.is_small());
  ExpectRow(row, oracle);
}

TEST(SparseRowTest, CompareRatiosAcrossForms) {
  const SparseRow third = MakeRow({{Rational(3)}, Rational(1)});
  const SparseRow half = MakeRow({{Fraction(1, 2)}, Fraction(1, 4)});
  const SparseRow big_half =
      MakeRow({{Rational(INT64_MAX) * Rational(2)}, Rational(INT64_MAX)});
  ASSERT_FALSE(big_half.is_small());
  EXPECT_EQ(SparseRow::CompareRatios(third, 0, half, 0), -1);
  EXPECT_EQ(SparseRow::CompareRatios(half, 0, third, 0), 1);
  EXPECT_EQ(SparseRow::CompareRatios(half, 0, big_half, 0), 0);
  EXPECT_EQ(SparseRow::CompareRatios(big_half, 0, third, 0), 1);
}

/// A random cell value: numerator bit widths sampled uniformly so that
/// products straddle the int64 boundary, and small odd denominators.
Rational RandomCell(Rng* rng) {
  if (rng->NextChance(1, 3)) return Rational(0);
  const int num_bits = rng->NextInt(0, 62);
  int64_t num =
      static_cast<int64_t>(rng->Next() & ((uint64_t{1} << num_bits) - 1));
  if (rng->NextChance(1, 2)) num = -num;
  const uint64_t den_mask = (uint64_t{1} << rng->NextInt(0, 12)) - 1;
  const int64_t den = static_cast<int64_t>((rng->Next() & den_mask) | 1);
  return Fraction(num, den);
}

RowOracle RandomRowOracle(Rng* rng, size_t width) {
  RowOracle oracle;
  for (size_t c = 0; c < width; ++c) oracle.cells.push_back(RandomCell(rng));
  oracle.rhs = RandomCell(rng);
  return oracle;
}

RowOracle NegatedRow(const RowOracle& oracle) {
  RowOracle negated{{}, -oracle.rhs};
  for (const Rational& cell : oracle.cells) negated.cells.push_back(-cell);
  return negated;
}

TEST(SparseRowTest, RandomizedDifferentialVsRationalOracle) {
  constexpr int kWidth = 6;
  Rng rng(0x5ca1a9'2026'10'18ull);
  const uint64_t promotions_before = SparseRow::promotions_this_thread();
  RowOracle oracle = RandomRowOracle(&rng, kWidth);
  SparseRow row = MakeRow(oracle);
  SparseRow::Scratch scratch;
  int demotions = 0;
  int big_iterations = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    const bool was_big = !row.is_small();
    const int col = rng.NextInt(0, kWidth - 1);
    const int k = row.IndexOf(col);
    switch (rng.NextChance(1, 16) ? 4 : rng.NextInt(0, 3)) {
      case 0: {  // Eliminate col with a pivot row positive there.
        RowOracle p = RandomRowOracle(&rng, kWidth);
        if (k < 0 || p.cells[col].is_zero()) break;
        if (p.cells[col].is_negative()) p = NegatedRow(p);
        const SparseRow pivot = MakeRow(p);
        row.Eliminate(static_cast<size_t>(k), pivot,
                      static_cast<size_t>(pivot.IndexOf(col)), &scratch);
        oracle = Eliminated(oracle, p, static_cast<size_t>(col));
        break;
      }
      case 1: {
        if (k < 0) break;
        row.Normalize(static_cast<size_t>(k));
        const Rational divisor = oracle.cells[col];
        for (Rational& cell : oracle.cells) cell /= divisor;
        oracle.rhs /= divisor;
        break;
      }
      case 2:
        row.Negate();
        oracle = NegatedRow(oracle);
        break;
      case 4: {  // Against itself (made positive there) the row vanishes.
        if (k < 0) break;
        SparseRow pivot = row;
        if (pivot.SignAt(static_cast<size_t>(k)) < 0) pivot.Negate();
        row.Eliminate(static_cast<size_t>(k), pivot, static_cast<size_t>(k),
                      &scratch);
        oracle = {std::vector<Rational>(kWidth), Rational()};
        break;
      }
      case 3: {  // cell col += factor * cell unit.
        const int unit = rng.NextInt(0, kWidth - 1);
        const int unit_k = row.IndexOf(unit);
        const Rational factor = RandomCell(&rng);
        if (unit_k < 0 || factor.is_zero()) break;
        row.AddMultipleOfCell(col, factor, static_cast<size_t>(unit_k));
        oracle.cells[col] += factor * oracle.cells[unit];
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectRow(row, oracle))
        << "iteration " << iteration;
    if (was_big && row.is_small()) ++demotions;
    // Restart after a stretch in BigInt form, so magnitudes stay bounded,
    // and once the row has vanished.
    if ((!row.is_small() && ++big_iterations > 8) || row.empty()) {
      big_iterations = 0;
      oracle = RandomRowOracle(&rng, kWidth);
      row = MakeRow(oracle);
    }
  }
  // The sampled widths must have forced both promotion (words -> BigInt
  // on overflow) and demotion (BigInt results that fit return to words).
  EXPECT_GT(SparseRow::promotions_this_thread(), promotions_before);
  EXPECT_GT(demotions, 0);
}

// --- Integer rows past int64 inside solves -------------------------------

/// ±(2^40 + r) with r < 2^20: the product of two such coefficients is
/// past 2^63, so eliminating with them overflows int64 words.
int64_t NearTwoToThe40(Rng* rng) {
  const int64_t magnitude = (int64_t{1} << 40) + rng->NextInt(0, 1 << 20);
  return rng->NextChance(1, 2) ? -magnitude : magnitude;
}

/// A random system with coefficients near 2^40. When `feasible`, the
/// right-hand sides leave a known nonnegative point feasible and every
/// variable is bounded by 2^41, so maximizing is bounded; otherwise the
/// right-hand sides are random and infeasible systems are common.
LinearSystem WideSystem(Rng* rng, int n, int m, bool feasible) {
  LinearSystem system;
  std::vector<Rational> witness;
  for (int j = 0; j < n; ++j) {
    system.AddVariable();
    witness.push_back(Rational(rng->NextInt(0, 3)));
  }
  for (int i = 0; i < m; ++i) {
    LinearConstraint constraint;
    Rational value;
    for (int j = 0; j < n; ++j) {
      if (rng->NextChance(1, 3)) continue;
      const Rational coefficient(NearTwoToThe40(rng));
      constraint.expr.Add(j, coefficient);
      value += coefficient * witness[j];
    }
    constraint.relation = static_cast<Relation>(rng->NextInt(0, 2));
    const Rational slack(std::abs(NearTwoToThe40(rng)));
    if (!feasible) {
      constraint.rhs = Rational(NearTwoToThe40(rng));
    } else if (constraint.relation == Relation::kLessEqual) {
      constraint.rhs = value + slack;
    } else if (constraint.relation == Relation::kGreaterEqual) {
      constraint.rhs = value - slack;
    } else {
      constraint.rhs = value;
    }
    system.AddConstraint(std::move(constraint));
  }
  for (int j = 0; feasible && j < n; ++j) {
    system.AddConstraint(
        Make({{j, 1}}, Relation::kLessEqual, int64_t{1} << 41));
  }
  return system;
}

LinearExpr SmallObjective(Rng* rng, int n) {
  LinearExpr objective;
  for (int j = 0; j < n; ++j) {
    const int coefficient = rng->NextInt(-3, 3);
    if (coefficient != 0) objective.Add(j, Rational(coefficient));
  }
  return objective;
}

TEST(SimplexProperty, PromotedRowsMatchDenseRational) {
  Rng rng(2040);
  uint64_t promotions = 0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    const int n = rng.NextInt(2, 4);
    const LinearSystem system =
        WideSystem(&rng, n, rng.NextInt(2, 5), rng.NextChance(1, 2));
    const LinearExpr objective = SmallObjective(&rng, n);
    promotions += ExpectMatchesDenseRational(system, objective)
                      .scalar_promotions;
  }
  EXPECT_GT(promotions, 0u);
}

/// A solved snapshot of a wide system that holds a row in BigInt form
/// whose basic variable is structural.
struct PromotedBase {
  LinearSystem system;
  LinearExpr objective;
  SimplexSnapshot snapshot;
  size_t promoted = 0;
};

PromotedBase FindPromotedBase(Rng* rng) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    PromotedBase base;
    const int n = rng->NextInt(2, 4);
    base.system = WideSystem(rng, n, rng->NextInt(2, 5), /*feasible=*/true);
    base.objective = SmallObjective(rng, n);
    auto solved = SimplexSolver().SolveForSnapshot(base.system, base.objective,
                                                   &base.snapshot);
    CAR_CHECK(solved.ok());
    CAR_CHECK(solved->outcome == LpOutcome::kOptimal);
    for (size_t r = 0; r < base.snapshot.rows.size(); ++r) {
      if (!base.snapshot.rows[r].is_small() && base.snapshot.basis[r] < n) {
        base.promoted = r;
        return base;
      }
    }
  }
  CAR_CHECK(false) << "no snapshot kept a row in BigInt form";
  return {};
}

TEST(SimplexWarmStartProperty, PromotedRowsResumeLikeCold) {
  Rng rng(4041);
  for (int iteration = 0; iteration < 30; ++iteration) {
    PromotedBase base = FindPromotedBase(&rng);
    const SparseRow& promoted = base.snapshot.rows[base.promoted];
    const size_t num_rows = base.system.constraints().size();
    // A new column priced into the promoted row: it extends a constraint
    // whose identity column that row holds.
    size_t extended = num_rows;
    for (size_t c = 0; c < num_rows && extended == num_rows; ++c) {
      if (promoted.IndexOf(base.snapshot.init_basic[c]) >= 0) extended = c;
    }
    ASSERT_LT(extended, num_rows);
    SimplexDelta delta;
    delta.num_new_variables = 1;
    const int y = base.system.num_variables();
    delta.row_extensions.push_back(
        {extended, y, Rational(NearTwoToThe40(&rng))});
    // A new row over the promoted row's basic variable, so it is
    // eliminated against that row.
    LinearConstraint appended;
    appended.expr.Add(base.snapshot.basis[base.promoted],
                      Rational(NearTwoToThe40(&rng)));
    appended.expr.Add(y, Rational(1));
    appended.relation = Relation::kLessEqual;
    appended.rhs = Rational(std::abs(NearTwoToThe40(&rng)));
    delta.new_constraints.push_back(appended);
    LinearExpr objective = base.objective;
    objective.Add(y, Rational(1));

    LinearSystem cold;
    for (int j = 0; j <= y; ++j) cold.AddVariable();
    for (size_t c = 0; c < num_rows; ++c) {
      LinearConstraint constraint = base.system.constraints()[c];
      if (c == extended) {
        constraint.expr.Add(y, delta.row_extensions[0].coefficient);
      }
      cold.AddConstraint(constraint);
    }
    cold.AddConstraint(appended);

    auto warm = SimplexSolver().ResumeMaximize(&base.snapshot, delta,
                                               objective);
    auto expected = SimplexSolver().Maximize(cold, objective);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(warm->outcome, expected->outcome) << cold.ToString();
    if (warm->outcome == LpOutcome::kOptimal) {
      EXPECT_EQ(warm->objective, expected->objective) << cold.ToString();
      EXPECT_TRUE(cold.IsSatisfiedBy(warm->values)) << cold.ToString();
      EXPECT_TRUE(ValidateSnapshotShape(base.snapshot, cold).ok());
    }
  }
}

TEST(SimplexWarmStartProperty, PromotedSnapshotRoundTripsByteExactly) {
  Rng rng(4042);
  int restored_big = 0;
  for (int iteration = 0; iteration < 10; ++iteration) {
    const PromotedBase base = FindPromotedBase(&rng);
    // The Ψ section rides in a warm snapshot whose expansion holds only
    // the empty compound, the least the codec accepts.
    persist::WarmSnapshot warm;
    warm.header.format_version = persist::kSnapshotFormatVersion;
    warm.header.abi_fingerprint = persist::SnapshotAbiFingerprint();
    warm.expansion.compound_classes.push_back(CompoundClass());
    warm.has_psi = true;
    warm.psi_snapshot = base.snapshot;
    const std::string bytes = persist::EncodeSnapshot(warm);
    auto decoded = persist::DecodeSnapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(persist::EncodeSnapshot(decoded.value()), bytes);
    const SimplexSnapshot& restored = decoded->psi_snapshot;
    EXPECT_TRUE(ValidateSnapshotShape(restored, base.system).ok());
    ASSERT_EQ(restored.rows.size(), base.snapshot.rows.size());
    for (size_t r = 0; r < restored.rows.size(); ++r) {
      EXPECT_EQ(RowValues(restored.rows[r]), RowValues(base.snapshot.rows[r]))
          << "row " << r;
    }
    // The decoder rebuilds each row over the least common denominator
    // of its cells, which can be smaller than the one the solve reached.
    restored_big += restored.rows[base.promoted].is_small() ? 0 : 1;
  }
  EXPECT_GT(restored_big, 0);
}

TEST(SimplexProperty, PromotedPhaseOneRowsYieldValidCertificates) {
  Rng rng(4043);
  int certified = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    const LinearSystem system = WideSystem(&rng, rng.NextInt(2, 4),
                                           rng.NextInt(2, 5),
                                           /*feasible=*/false);
    SimplexSolver::Options options;
    options.extract_certificate = true;
    auto result = SimplexSolver(options).CheckFeasible(system);
    ASSERT_TRUE(result.ok());
    // Infeasible solves end in phase 1, so a promotion there was a
    // phase-1 row's.
    if (result->outcome != LpOutcome::kInfeasible ||
        result->scalar_promotions == 0) {
      continue;
    }
    ++certified;
    ASSERT_TRUE(result->infeasibility_certificate.has_value());
    EXPECT_TRUE(ValidateInfeasibilityCertificate(
        system, *result->infeasibility_certificate))
        << system.ToString();
  }
  EXPECT_GT(certified, 0);
}

}  // namespace
}  // namespace car
