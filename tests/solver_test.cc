#include "solver/solve.h"

#include <gtest/gtest.h>

#include "expansion/expansion.h"
#include "model/builder.h"
#include "solver/incremental_psi.h"
#include "solver/psi.h"
#include "test_schemas.h"
#include "workloads/generators.h"

namespace car {
namespace {

Result<PsiSolution> Solve(const Schema& schema) {
  CAR_ASSIGN_OR_RETURN(Expansion expansion, BuildExpansion(schema));
  return SolvePsi(expansion);
}

TEST(PsiSystemTest, EmitsBoundsPerNattEntry) {
  Schema schema = testing_schemas::FiniteOnlyUnsat();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  PsiSystem psi = BuildFullPsiSystem(*expansion);
  // child: (2,2) gives >= and <=; (inv child): (0,1) gives only <=.
  EXPECT_EQ(psi.num_disequations, 3u);
  EXPECT_GT(psi.system.num_variables(), 0);
}

TEST(SolverTest, FiniteModelInteractionDetected) {
  // The signature effect of the paper: child:(2,2) into C with in-degree
  // at most 1 admits only infinite structures, so C is finitely
  // unsatisfiable.
  Schema schema = testing_schemas::FiniteOnlyUnsat();
  auto solution = Solve(schema);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution->IsClassSatisfiable(schema.LookupClass("C")));
}

TEST(SolverTest, RelaxingInverseBoundRestoresSatisfiability) {
  // Same shape but in-degree up to 2 admits a finite model (a 2-regular
  // digraph on C).
  SchemaBuilder builder;
  builder.BeginClass("C")
      .Attribute("child", 2, 2, {{"C"}})
      .InverseAttribute("child", 0, 2, {{"C"}})
      .EndClass();
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  auto solution = Solve(*schema_or);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->IsClassSatisfiable(schema_or->LookupClass("C")));
}

TEST(SolverTest, Figure2AllClassesSatisfiable) {
  Schema schema = testing_schemas::Figure2();
  auto solution = Solve(schema);
  ASSERT_TRUE(solution.ok());
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    EXPECT_TRUE(solution->IsClassSatisfiable(c)) << schema.ClassName(c);
  }
}

TEST(SolverTest, ContradictoryIsaUnsatisfiable) {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B"}, {"!B"}}).EndClass();
  builder.DeclareClass("B");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  auto solution = Solve(*schema_or);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution->IsClassSatisfiable(schema_or->LookupClass("A")));
  EXPECT_TRUE(solution->IsClassSatisfiable(schema_or->LookupClass("B")));
}

TEST(SolverTest, EmptyIntervalFromRefinementUnsatisfiable) {
  // B refines a's cardinality to (3,*) while A caps it at (*,2); B ⊆ A
  // makes the merged interval empty, so B is unsatisfiable but A is fine.
  SchemaBuilder builder;
  builder.BeginClass("A").Attribute("a", 0, 2, {{"D"}}).EndClass();
  builder.BeginClass("B")
      .Isa({{"A"}})
      .Attribute("a", 3, SchemaBuilder::kUnbounded, {{"D"}})
      .EndClass();
  builder.DeclareClass("D");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  auto solution = Solve(*schema_or);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->IsClassSatisfiable(schema_or->LookupClass("A")));
  EXPECT_FALSE(solution->IsClassSatisfiable(schema_or->LookupClass("B")));
  EXPECT_TRUE(solution->IsClassSatisfiable(schema_or->LookupClass("D")));
}

TEST(SolverTest, ParticipationLowerBoundNeedsConsistentTuple) {
  // C must participate in R[u] at least once, but R's role-clause forces
  // the u-component into D, and C is disjoint from D: no consistent
  // compound relation can host C, so C is unsatisfiable.
  SchemaBuilder builder;
  builder.BeginClass("C")
      .Isa({{"!D"}})
      .Participates("R", "u", 1, SchemaBuilder::kUnbounded)
      .EndClass();
  builder.DeclareClass("D");
  builder.BeginRelation("R", {"u"}).Constraint({{"u", {{"D"}}}}).EndRelation();
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  auto solution = Solve(*schema_or);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution->IsClassSatisfiable(schema_or->LookupClass("C")));
  EXPECT_TRUE(solution->IsClassSatisfiable(schema_or->LookupClass("D")));
}

TEST(SolverTest, RelationCrossCardinalityForcesEmptiness) {
  // Every C appears in >= 2 tuples of R[left] and every D in <= 1 tuple
  // of R[right]; the role clauses force left components into C and right
  // into D, and C forces |D| >= ... a pure counting conflict when D is a
  // single object shared via (inv d): 2|C| <= |tuples| <= |D| while every
  // D belongs to exactly one C via... — simpler: left >= 2 per C,
  // right <= 1 per D, and C = D (same class), so 2|C| <= T <= |C|.
  SchemaBuilder builder;
  builder.BeginClass("C")
      .Participates("R", "left", 2, SchemaBuilder::kUnbounded)
      .Participates("R", "right", 0, 1)
      .EndClass();
  builder.BeginRelation("R", {"left", "right"})
      .Constraint({{"left", {{"C"}}}})
      .Constraint({{"right", {{"C"}}}})
      .EndRelation();
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  auto solution = Solve(*schema_or);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution->IsClassSatisfiable(schema_or->LookupClass("C")));
}

TEST(SolverTest, CertificatePositiveExactlyOnSupport) {
  Schema schema = testing_schemas::Figure2();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  auto solution = SolvePsi(*expansion);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->certificate.cc_count.size(),
            expansion->compound_classes.size());
  for (size_t i = 0; i < expansion->compound_classes.size(); ++i) {
    if (solution->cc_active[i]) {
      EXPECT_TRUE(solution->certificate.cc_count[i] >= BigInt(1));
    } else {
      EXPECT_TRUE(solution->certificate.cc_count[i].is_zero());
    }
  }
}

TEST(SolverTest, CertificateSatisfiesDisequations) {
  Schema schema = testing_schemas::Figure2();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  auto solution = SolvePsi(*expansion);
  ASSERT_TRUE(solution.ok());

  // Rebuild the restricted system and evaluate the integer certificate.
  PsiSystem psi =
      BuildPsiSystem(*expansion, solution->cc_active, solution->ca_active,
                     solution->cr_active);
  std::vector<Rational> assignment(psi.system.num_variables());
  for (size_t i = 0; i < psi.cc_var.size(); ++i) {
    if (psi.cc_var[i] >= 0) {
      assignment[psi.cc_var[i]] = Rational(solution->certificate.cc_count[i]);
    }
  }
  for (size_t i = 0; i < psi.ca_var.size(); ++i) {
    if (psi.ca_var[i] >= 0) {
      assignment[psi.ca_var[i]] = Rational(solution->certificate.ca_count[i]);
    }
  }
  for (size_t i = 0; i < psi.cr_var.size(); ++i) {
    if (psi.cr_var[i] >= 0) {
      assignment[psi.cr_var[i]] = Rational(solution->certificate.cr_count[i]);
    }
  }
  EXPECT_TRUE(psi.system.IsSatisfiedBy(assignment));
}

TEST(SolverTest, AcceptabilityCascadesThroughAttributes) {
  // B needs an a-successor in U (unsatisfiable: U isa ¬U). The compound
  // attribute into U dies with U, and the Natt lower bound then kills B.
  SchemaBuilder builder;
  builder.BeginClass("U").Isa({{"!U"}}).EndClass();
  builder.BeginClass("B").Attribute("a", 1, 1, {{"U"}}).EndClass();
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  auto solution = Solve(*schema_or);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution->IsClassSatisfiable(schema_or->LookupClass("U")));
  EXPECT_FALSE(solution->IsClassSatisfiable(schema_or->LookupClass("B")));
}

TEST(SolverTest, UnsatChainPropagatesTransitively) {
  // B1 -> B2 -> B3 -> U, each requiring a successor in the next; all die.
  SchemaBuilder builder;
  builder.BeginClass("U").Isa({{"!U"}}).EndClass();
  builder.BeginClass("B3").Attribute("a3", 1, 2, {{"U"}}).EndClass();
  builder.BeginClass("B2").Attribute("a2", 1, 2, {{"B3"}}).EndClass();
  builder.BeginClass("B1").Attribute("a1", 1, 2, {{"B2"}}).EndClass();
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  auto solution = Solve(*schema_or);
  ASSERT_TRUE(solution.ok());
  for (const char* name : {"U", "B3", "B2", "B1"}) {
    EXPECT_FALSE(solution->IsClassSatisfiable(schema_or->LookupClass(name)))
        << name;
  }
  EXPECT_GE(solution->fixpoint_rounds, 2u);
}

TEST(SolverTest, EmptySchemaTriviallyFine) {
  Schema schema;
  auto solution = Solve(schema);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->class_satisfiable.empty());
}

TEST(SolverTest, PivotCapTripsWithStructuredReport) {
  // The chain workload's support LP needs many pivots; max_pivots = 1
  // must trip inside the simplex phase with the structured limit text.
  Schema schema = GenerateChainSchema(ChainParams{.length = 6, .fanout = 2});
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  PsiSolverOptions options;
  options.max_pivots = 1;
  auto solution = SolvePsi(*expansion, options);
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(
      solution.status().message().find("limit=max_pivots phase=simplex"),
      std::string::npos)
      << solution.status();
}

TEST(SolverTest, GovernedSolveTracksLpProgress) {
  Schema schema = GenerateChainSchema(ChainParams{.length = 4, .fanout = 2});
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  ExecContext exec;
  PsiSolverOptions options;
  options.exec = &exec;
  auto solution = SolvePsi(*expansion, options);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_FALSE(exec.tripped());
  EXPECT_EQ(exec.progress().lp_solves, solution->lp_solves);
  EXPECT_EQ(exec.progress().pivots_executed, solution->total_pivots);
}

TEST(IncrementalPsiTest, PreparedSnapshotKeepsNoMergeHeadroom) {
  // Pivots leave each touched row with the capacity of its last merge
  // (|row| + |pivot row|). A prepared base is kept for the life of a
  // session, so its rows (right-hand sides included) are trimmed to
  // their exact size.
  Schema schema = GenerateChainSchema(ChainParams{12, 2});
  auto expansion = BuildExpansion(schema, ExpansionOptions{});
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  auto base = PrepareIncrementalPsi(expansion.value(), PsiSolverOptions{});
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_GT(base->base_pivots, 0u);
  const SimplexSnapshot& snapshot = base->snapshot;
  for (size_t i = 0; i < snapshot.rows.size(); ++i) {
    EXPECT_EQ(snapshot.rows[i].capacity(), snapshot.rows[i].nnz())
        << "row " << i;
  }
  EXPECT_EQ(snapshot.rows.capacity(), snapshot.rows.size());
}

}  // namespace
}  // namespace car
