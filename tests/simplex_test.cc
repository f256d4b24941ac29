#include "math/simplex.h"

#include <gtest/gtest.h>

#include "base/rng.h"

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

/// Property: the three tableau kernels (sparse-scalar production,
/// dense-rational reference, dense-scalar reference) are bit-identical on
/// random maximization problems — same outcome, same objective, same
/// vertex, same pivot count. This is the exactness contract that lets the
/// sparse/scalar optimization claim "answers unchanged by construction".
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

    SimplexSolver::Options sparse_options;
    sparse_options.kernel = SimplexKernel::kSparseScalar;
    auto sparse = SimplexSolver(sparse_options).Maximize(system, objective);
    ASSERT_TRUE(sparse.ok());
    for (SimplexKernel kernel :
         {SimplexKernel::kDenseRational, SimplexKernel::kDenseScalar}) {
      SimplexSolver::Options options;
      options.kernel = kernel;
      auto dense = SimplexSolver(options).Maximize(system, objective);
      ASSERT_TRUE(dense.ok());
      EXPECT_EQ(dense->outcome, sparse->outcome)
          << SimplexKernelToString(kernel) << "\n" << system.ToString();
      EXPECT_EQ(dense->objective, sparse->objective)
          << SimplexKernelToString(kernel) << "\n" << system.ToString();
      EXPECT_EQ(dense->values, sparse->values)
          << SimplexKernelToString(kernel) << "\n" << system.ToString();
      EXPECT_EQ(dense->pivots, sparse->pivots)
          << SimplexKernelToString(kernel) << "\n" << system.ToString();
      // Zero-skipping is representation-level only: the final tableaus
      // hold the same nonzero pattern.
      EXPECT_EQ(dense->tableau_nonzeros, sparse->tableau_nonzeros)
          << SimplexKernelToString(kernel) << "\n" << system.ToString();
    }
    // The dense-rational kernel never touches Scalar cells.
    SimplexSolver::Options rational_options;
    rational_options.kernel = SimplexKernel::kDenseRational;
    auto rational =
        SimplexSolver(rational_options).Maximize(system, objective);
    ASSERT_TRUE(rational.ok());
    EXPECT_EQ(rational->scalar_promotions, 0u);
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
       {SimplexKernel::kSparseScalar, SimplexKernel::kDenseRational,
        SimplexKernel::kDenseScalar}) {
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
    // Only the recorded flip of the appended row tells the two apart.
    EXPECT_EQ(lower_snapshot.basis, negated_snapshot.basis);
    EXPECT_EQ(lower_snapshot.rhs, negated_snapshot.rhs);
    ASSERT_EQ(lower_snapshot.rows.size(), negated_snapshot.rows.size());
    for (size_t r = 0; r < lower_snapshot.rows.size(); ++r) {
      const auto& lower_entries = lower_snapshot.rows[r].entries();
      const auto& negated_entries = negated_snapshot.rows[r].entries();
      ASSERT_EQ(lower_entries.size(), negated_entries.size());
      for (size_t e = 0; e < lower_entries.size(); ++e) {
        EXPECT_EQ(lower_entries[e].col, negated_entries[e].col);
        EXPECT_EQ(lower_entries[e].value, negated_entries[e].value);
      }
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
/// row about once in 50), the three kernels stay bit-identical, and each
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
         {SimplexKernel::kSparseScalar, SimplexKernel::kDenseRational,
          SimplexKernel::kDenseScalar}) {
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

}  // namespace
}  // namespace car
