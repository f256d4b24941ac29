// The prefilter tiers of the incremental implication engine: the tier-0
// static-closure certificate lookup and the tier-2 dependency-closed
// sub-schema solve are pure short-circuits — answers stay bit-identical
// to the from-scratch Reasoner for every schema, batch, thread count,
// governed or not. The suite also checks that the tiers actually engage
// (hit counters) and the analyzer's soundness contract on random
// schemas: statically-certified-unsat implies reasoner-unsat.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "base/exec_context.h"
#include "base/rng.h"
#include "frontend/parser.h"
#include "model/schema.h"
#include "reasoner/incremental.h"
#include "reasoner/reasoner.h"
#include "workloads/generators.h"
#include "workloads/query_batch.h"

namespace car {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

/// Workload schemas plus a handcrafted hierarchy whose inclusion and
/// disjointness structure the static closure certifies directly — this
/// one guarantees tier-0 engages.
std::vector<std::pair<std::string, Schema>> TestSchemas() {
  std::vector<std::pair<std::string, Schema>> schemas;
  schemas.emplace_back("chain-6x2", GenerateChainSchema(ChainParams{6, 2}));
  {
    Rng rng(11);
    schemas.emplace_back("clustered-3x3", GenerateClusteredSchema(
                                              &rng, ClusteredParams{3, 3, 2,
                                                                    false}));
  }
  {
    // Many small independent clusters: a probe's dependency closure is
    // one cluster plus the auxiliary class — at most a quarter of the
    // schema, the regime where tier-2 engages.
    Rng rng(13);
    schemas.emplace_back("clustered-6x3", GenerateClusteredSchema(
                                              &rng, ClusteredParams{6, 3, 2,
                                                                    false}));
  }
  {
    Rng rng(7);
    HierarchyParams params;
    params.num_classes = 9;
    params.num_trees = 2;
    schemas.emplace_back("hierarchy-9", GenerateHierarchy(&rng, params));
  }
  {
    Result<Schema> certified = ParseSchema(R"(
class Person
  attributes
    name : (1, 1) Name
endclass
class Employee isa Person endclass
class Manager isa Employee endclass
class Customer isa Person & !Employee endclass
class Ghost isa Employee & Customer endclass
class Name endclass
)");
    EXPECT_TRUE(certified.ok()) << certified.status();
    schemas.emplace_back("certified-hierarchy",
                         std::move(certified.value()));
  }
  return schemas;
}

TEST(PrefilterEquivalenceTest, TieredAnswersMatchFromScratchAcrossThreads) {
  uint64_t total_closure_hits = 0;
  uint64_t total_cluster_local = 0;
  for (const auto& [label, schema] : TestSchemas()) {
    Rng query_rng(101);
    std::vector<ImplicationQuery> queries =
        GenerateImplicationBatch(schema, &query_rng, 32);

    Reasoner reference(&schema, ReasonerOptions{});
    auto expected = reference.RunImplicationBatch(queries);
    ASSERT_TRUE(expected.ok()) << label << ": " << expected.status();

    for (int threads : kThreadCounts) {
      ReasonerOptions options;
      options.num_threads = threads;
      options.prefilter = true;
      IncrementalSession session(&schema, options);
      auto answers = session.RunImplicationBatch(queries);
      ASSERT_TRUE(answers.ok())
          << label << " threads=" << threads << ": " << answers.status();
      EXPECT_EQ(expected.value(), answers.value())
          << label << " threads=" << threads;

      IncrementalStats stats = session.stats();
      EXPECT_EQ(stats.queries, queries.size());
      if (threads == 1) {
        total_closure_hits += stats.closure_hits;
        total_cluster_local += stats.cluster_local;
      }
    }
  }
  // The tiers are not dead code: across the suite both engage.
  EXPECT_GT(total_closure_hits, 0u);
  EXPECT_GT(total_cluster_local, 0u);
}

TEST(PrefilterEquivalenceTest, PrefilterOffAndOnAgree) {
  for (const auto& [label, schema] : TestSchemas()) {
    Rng query_rng(202);
    std::vector<ImplicationQuery> queries =
        GenerateImplicationBatch(schema, &query_rng, 24);

    ReasonerOptions off;
    off.prefilter = false;
    IncrementalSession untiered(&schema, off);
    auto baseline = untiered.RunImplicationBatch(queries);
    ASSERT_TRUE(baseline.ok()) << label << ": " << baseline.status();
    EXPECT_EQ(untiered.stats().closure_hits, 0u) << label;
    EXPECT_EQ(untiered.stats().cluster_local, 0u) << label;

    ReasonerOptions on;
    on.prefilter = true;
    IncrementalSession tiered(&schema, on);
    auto answers = tiered.RunImplicationBatch(queries);
    ASSERT_TRUE(answers.ok()) << label << ": " << answers.status();
    EXPECT_EQ(baseline.value(), answers.value()) << label;
  }
}

TEST(PrefilterEquivalenceTest, GovernedTieredSessionsStayExact) {
  for (const auto& [label, schema] : TestSchemas()) {
    Rng query_rng(303);
    std::vector<ImplicationQuery> queries =
        GenerateImplicationBatch(schema, &query_rng, 16);

    Reasoner reference(&schema, ReasonerOptions{});
    auto expected = reference.RunImplicationBatch(queries);
    ASSERT_TRUE(expected.ok()) << label << ": " << expected.status();

    for (int threads : kThreadCounts) {
      ExecContext exec;
      exec.SetWorkBudget(1'000'000'000);  // Generous: must complete.
      ReasonerOptions options;
      options.num_threads = threads;
      options.exec = &exec;
      IncrementalSession session(&schema, options);
      auto answers = session.RunImplicationBatch(queries);
      ASSERT_TRUE(answers.ok())
          << label << " threads=" << threads << ": " << answers.status();
      EXPECT_EQ(expected.value(), answers.value())
          << label << " threads=" << threads;
      // The governor observed the tier hits.
      ProgressSnapshot progress = exec.progress();
      IncrementalStats stats = session.stats();
      EXPECT_EQ(progress.prefilter_hits, stats.closure_hits)
          << label << " threads=" << threads;
      EXPECT_EQ(progress.cluster_local_solves, stats.cluster_local)
          << label << " threads=" << threads;
    }
  }
}

TEST(PrefilterEquivalenceTest, RepeatedBatchStillLandsInMemo) {
  // Tier-0 answers are memoized: a repeated batch is answered from the
  // memo without re-running the certificate lookup or any probes.
  Schema schema = TestSchemas().back().second;  // certified-hierarchy
  Rng query_rng(404);
  std::vector<ImplicationQuery> queries =
      GenerateImplicationBatch(schema, &query_rng, 20);

  IncrementalSession session(&schema, ReasonerOptions{});
  auto first = session.RunImplicationBatch(queries);
  ASSERT_TRUE(first.ok()) << first.status();
  IncrementalStats after_first = session.stats();
  ASSERT_GT(after_first.closure_hits, 0u);

  auto second = session.RunImplicationBatch(queries);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first.value(), second.value());
  IncrementalStats after_second = session.stats();
  EXPECT_EQ(after_second.closure_hits, after_first.closure_hits);
  EXPECT_EQ(after_second.probes, after_first.probes);
}

TEST(PrefilterSoundnessTest, StaticUnsatImpliesReasonerUnsatOnRandomSchemas) {
  Rng rng(20260808);
  size_t certified_unsat = 0;
  for (int trial = 0; trial < 30; ++trial) {
    GeneralSchemaParams params;
    params.num_classes = 7;
    params.negation_percent = 50;  // Drive disjointness contradictions.
    params.num_relations = trial % 3 == 0 ? 1 : 0;
    Schema schema = RandomGeneralSchema(&rng, params);
    if (!schema.Validate().ok()) continue;

    SchemaAnalysis analysis = AnalyzeSchema(schema);
    Reasoner reasoner(&schema, ReasonerOptions{});
    for (ClassId c = 0; c < schema.num_classes(); ++c) {
      if (!analysis.class_unsat[c]) continue;
      ++certified_unsat;
      Result<bool> satisfiable = reasoner.IsClassSatisfiable(c);
      ASSERT_TRUE(satisfiable.ok()) << satisfiable.status();
      EXPECT_FALSE(satisfiable.value())
          << "trial " << trial << ": analyzer certifies '"
          << schema.ClassName(c) << "' empty, reasoner disagrees";
    }
  }
  // The sweep must actually exercise the contract.
  EXPECT_GT(certified_unsat, 0u);
}

}  // namespace
}  // namespace car
