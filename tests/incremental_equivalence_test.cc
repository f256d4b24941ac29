// The equivalence contract of the incremental implication engine
// (IncrementalSession): answers are bit-identical to the from-scratch
// Reasoner::RunImplicationBatch for every schema, batch, and thread
// count — the deltas, warm starts, and the memo are pure performance
// machinery. Governed sessions may trip at different points than the
// from-scratch engine (they do less work), but a governed run either
// completes with the exact reference answers or fails with the
// governor's LimitReport; it never returns a wrong answer.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "base/exec_context.h"
#include "base/rng.h"
#include "base/strings.h"
#include "model/schema.h"
#include "reasoner/incremental.h"
#include "reasoner/lazy_engine.h"
#include "reasoner/reasoner.h"
#include "test_schemas.h"
#include "workloads/generators.h"
#include "workloads/query_batch.h"

namespace car {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

/// The schemas the equivalence sweeps run over. Chain schemas are the
/// incremental engine's demonstration regime (small deltas on a deep
/// disequation system), clustered ones its adversarial regime (deltas
/// rival the base), hierarchies exercise disjointness-heavy bases.
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
    Rng rng(7);
    HierarchyParams params;
    params.num_classes = 9;
    params.num_trees = 2;
    schemas.emplace_back("hierarchy-9", GenerateHierarchy(&rng, params));
  }
  return schemas;
}

TEST(IncrementalEquivalenceTest, BatchAnswersMatchFromScratchAcrossThreads) {
  for (const auto& [label, schema] : TestSchemas()) {
    Rng query_rng(101);
    std::vector<ImplicationQuery> queries =
        GenerateImplicationBatch(schema, &query_rng, 24);

    // Reference: serial from-scratch answers.
    Reasoner reference(&schema, ReasonerOptions{});
    auto expected = reference.RunImplicationBatch(queries);
    ASSERT_TRUE(expected.ok()) << label << ": " << expected.status();

    for (int threads : kThreadCounts) {
      ReasonerOptions options;
      options.num_threads = threads;
      IncrementalSession session(&schema, options);
      auto answers = session.RunImplicationBatch(queries);
      ASSERT_TRUE(answers.ok())
          << label << " threads=" << threads << ": " << answers.status();
      EXPECT_EQ(expected.value(), answers.value())
          << label << " threads=" << threads;
      IncrementalStats stats = session.stats();
      EXPECT_EQ(stats.queries, queries.size())
          << label << " threads=" << threads;
      EXPECT_EQ(stats.base_builds, 1u) << label << " threads=" << threads;
      EXPECT_EQ(stats.fallbacks, 0u) << label << " threads=" << threads;
    }
  }
}

TEST(IncrementalEquivalenceTest, RepeatedBatchIsServedFromMemo) {
  Schema schema = GenerateChainSchema(ChainParams{6, 2});
  Rng query_rng(202);
  std::vector<ImplicationQuery> queries =
      GenerateImplicationBatch(schema, &query_rng, 16);

  IncrementalSession session(&schema, ReasonerOptions{});
  auto first = session.RunImplicationBatch(queries);
  ASSERT_TRUE(first.ok()) << first.status();
  IncrementalStats after_first = session.stats();

  auto second = session.RunImplicationBatch(queries);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first.value(), second.value());

  IncrementalStats after_second = session.stats();
  // The repeat performs no new probes or base builds: every non-trivial
  // query hits the memo.
  EXPECT_EQ(after_second.probes, after_first.probes);
  EXPECT_EQ(after_second.base_builds, after_first.base_builds);
  uint64_t nontrivial =
      queries.size() - (after_second.trivial - after_first.trivial);
  EXPECT_EQ(after_second.memo_hits - after_first.memo_hits, nontrivial);
}

TEST(IncrementalEquivalenceTest, GovernedRunsNeverReturnWrongAnswers) {
  // A governed incremental session trips at different work counts than
  // the from-scratch engine (that asymmetry is the whole point), so the
  // contract is: for every injection threshold and thread count, the run
  // either completes with the exact ungoverned answers or fails with the
  // fault-injection LimitReport. Silent wrong answers are the only
  // forbidden outcome.
  Schema schema = GenerateChainSchema(ChainParams{5, 2});
  Rng query_rng(505);
  std::vector<ImplicationQuery> queries =
      GenerateImplicationBatch(schema, &query_rng, 12);

  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  bool saw_trip = false;
  bool saw_completion = false;
  for (uint64_t inject :
       {0ull, 1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull}) {
    for (int threads : kThreadCounts) {
      ExecContext exec;
      exec.InjectTripAfter(inject);
      ReasonerOptions options;
      options.num_threads = threads;
      options.exec = &exec;
      IncrementalSession session(&schema, options);
      auto answers = session.RunImplicationBatch(queries);
      if (exec.tripped()) {
        saw_trip = true;
        ASSERT_FALSE(answers.ok())
            << "inject=" << inject << " threads=" << threads
            << ": tripped runs must fail";
        EXPECT_EQ(exec.report().kind, LimitKind::kFaultInjection)
            << "inject=" << inject << " threads=" << threads;
      } else {
        saw_completion = true;
        ASSERT_TRUE(answers.ok())
            << "inject=" << inject << " threads=" << threads << ": "
            << answers.status();
        EXPECT_EQ(expected.value(), answers.value())
            << "inject=" << inject << " threads=" << threads;
      }
    }
  }
  // The sweep must cover both outcomes or it proves nothing.
  EXPECT_TRUE(saw_trip);
  EXPECT_TRUE(saw_completion);
}

TEST(IncrementalEquivalenceTest, MalformedQueriesErrorLikeFromScratch) {
  Schema schema = GenerateChainSchema(ChainParams{4, 2});
  ImplicationQuery bad;
  bad.kind = ImplicationQuery::Kind::kDisjoint;
  bad.class_id = static_cast<ClassId>(schema.num_classes() + 3);
  bad.other = 0;

  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch({bad});
  ASSERT_FALSE(expected.ok());

  IncrementalSession session(&schema, ReasonerOptions{});
  auto answers = session.RunImplicationBatch({bad});
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(expected.status().ToString(), answers.status().ToString());
}

// --- Malformed queries: validated once, up front, in every engine --------
//
// Every engine runs ValidateImplicationQuery over the whole batch before
// anything else, so a malformed query fails with the same NotFound in
// every engine, option set and thread count — before a bound-shape
// shortcut, a tier-0 certificate or a probe of an earlier clause can
// answer it, and before an out-of-range role id can reach a name lookup.

struct MalformedCase {
  std::string label;
  ImplicationQuery query;
};

std::vector<MalformedCase> MalformedCases(const Schema& schema) {
  const ClassId person = schema.LookupClass("Person");
  const AttributeId name = schema.LookupAttribute("name");
  const RelationId enrollment = schema.LookupRelation("Enrollment");
  const RoleId enrolls = schema.LookupRole("enrolls");
  const RoleId by = schema.LookupRole("by");  // A role of Exam only.

  std::vector<MalformedCase> cases;
  ImplicationQuery isa;
  isa.kind = ImplicationQuery::Kind::kIsa;
  isa.class_id = person;
  // The first id past the schema is the auxiliary class's id in the
  // extended schema, where the query would be answered "implied".
  isa.formula = ClassFormula::OfClass(schema.num_classes());
  cases.push_back({"isa names class id num_classes()", isa});
  // Person isa Professor is refutable, so a clause-by-clause decision
  // answers "not implied" before it reaches the malformed second clause.
  isa.formula = ClassFormula::OfClass(schema.LookupClass("Professor"));
  isa.formula.AndWith(ClassFormula::OfClass(schema.num_classes() + 2));
  cases.push_back({"bad id in a later isa clause", isa});

  ImplicationQuery disjoint;
  disjoint.kind = ImplicationQuery::Kind::kDisjoint;
  disjoint.class_id = person;
  disjoint.other = -1;
  cases.push_back({"disjoint with a negative class id", disjoint});

  for (bool minimum : {true, false}) {
    const std::string shape = minimum ? "min 0" : "max inf";
    const uint64_t bound = minimum ? 0 : Cardinality::kInfinity;
    ImplicationQuery cardinality;
    cardinality.kind = minimum ? ImplicationQuery::Kind::kMinCardinality
                               : ImplicationQuery::Kind::kMaxCardinality;
    cardinality.class_id = person;
    cardinality.term = AttributeTerm::Direct(schema.num_attributes() + 1);
    cardinality.bound = bound;
    cases.push_back({shape + " with a bad attribute", cardinality});

    ImplicationQuery participation;
    participation.kind = minimum
                             ? ImplicationQuery::Kind::kMinParticipation
                             : ImplicationQuery::Kind::kMaxParticipation;
    participation.class_id = person;
    participation.relation = schema.num_relations() + 1;
    participation.role = enrolls;
    participation.bound = bound;
    cases.push_back({shape + " with a bad relation", participation});
    participation.relation = enrollment;
    participation.role = by;
    cases.push_back({shape + " with a foreign role", participation});
  }

  ImplicationQuery participation;
  participation.kind = ImplicationQuery::Kind::kMinParticipation;
  participation.class_id = person;
  participation.relation = enrollment;
  participation.role = schema.num_roles() + 7;
  participation.bound = 1;
  cases.push_back({"out-of-range role id", participation});

  ImplicationQuery cardinality;
  cardinality.kind = ImplicationQuery::Kind::kMinCardinality;
  cardinality.class_id = schema.num_classes();
  cardinality.term = AttributeTerm::Direct(name);
  cardinality.bound = 2;
  cases.push_back({"cardinality of class id num_classes()", cardinality});
  return cases;
}

TEST(MalformedQueryTest, EveryEngineRejectsUpFrontWithOneStatus) {
  const Schema schema = testing_schemas::Figure2();
  // A well-formed query ahead of the malformed one: the batch must still
  // fail before probing anything.
  ImplicationQuery well_formed;
  well_formed.kind = ImplicationQuery::Kind::kDisjoint;
  well_formed.class_id = schema.LookupClass("Professor");
  well_formed.other = schema.LookupClass("Student");

  for (const MalformedCase& malformed : MalformedCases(schema)) {
    const std::vector<ImplicationQuery> batch = {well_formed,
                                                 malformed.query};
    std::string reference;
    for (const char* engine : {"from-scratch", "eager", "lazy"}) {
      for (bool prefilter : {false, true}) {
        for (int threads : {1, 8}) {
          const std::string label =
              StrCat(malformed.label, " / ", engine, " prefilter=",
                     prefilter, " threads=", threads);
          ReasonerOptions options;
          options.num_threads = threads;
          options.prefilter = prefilter;
          options.lazy_expansion = std::string(engine) == "lazy";
          Result<std::vector<bool>> answers = std::vector<bool>{};
          if (std::string(engine) == "from-scratch") {
            Reasoner reasoner(&schema, options);
            answers = reasoner.RunImplicationBatch(batch);
          } else {
            IncrementalSession session(&schema, options);
            answers = session.RunImplicationBatch(batch);
            EXPECT_EQ(session.stats(), IncrementalStats{}) << label;
          }
          EXPECT_FALSE(answers.ok()) << label;
          if (answers.ok()) continue;
          EXPECT_EQ(answers.status().code(), StatusCode::kNotFound)
              << label << ": " << answers.status();
          if (reference.empty()) reference = answers.status().ToString();
          EXPECT_EQ(answers.status().ToString(), reference) << label;
        }
      }
    }
  }
}

// --- Lazy sessions: one session-level partial base ------------------------
//
// Under lazy expansion every lazy probe resumes from a partial base the
// session builds once, on its first lazy probe.
// Answers must stay bit-identical to from-scratch, and every counter must
// stay identical across thread counts: the base depends on the schema
// alone, never on which probe worker built it.

ReasonerOptions LazySessionOptions(int threads) {
  ReasonerOptions options;
  options.num_threads = threads;
  options.lazy_expansion = true;
  return options;
}

/// The equivalence schemas plus the lazy engine's dense families, kept
/// small enough for the from-scratch reference: a query spanning the
/// chaff/core boundary fuses both clusters in the aux-extended schema.
std::vector<std::pair<std::string, Schema>> LazyBaseSchemas() {
  std::vector<std::pair<std::string, Schema>> schemas = TestSchemas();
  schemas.emplace_back("chain-12x2", GenerateChainSchema(ChainParams{12, 2}));
  DenseBlowupParams blowup;
  blowup.chaff_classes = 5;
  blowup.core_classes = 3;
  schemas.emplace_back("dense_blowup-5+3", GenerateDenseBlowupSchema(blowup));
  DenseUnsatParams unsat;
  unsat.chaff_classes = 5;
  unsat.core_classes = 3;
  schemas.emplace_back("dense_unsat-5+3", GenerateDenseUnsatSchema(unsat));
  return schemas;
}

/// Three batches per session: fresh queries, a partial repeat, fresh again.
std::vector<std::vector<ImplicationQuery>> SessionBatches(
    const Schema& schema) {
  Rng rng(606);
  std::vector<std::vector<ImplicationQuery>> batches;
  batches.push_back(GenerateImplicationBatch(schema, &rng, 12));
  std::vector<ImplicationQuery> second =
      GenerateImplicationBatch(schema, &rng, 8);
  second.insert(second.end(), batches[0].begin(), batches[0].begin() + 4);
  batches.push_back(std::move(second));
  batches.push_back(GenerateImplicationBatch(schema, &rng, 12));
  return batches;
}

TEST(LazySessionBaseTest, AnswersMatchFromScratchAcrossBatches) {
  for (const auto& [label, schema] : LazyBaseSchemas()) {
    const auto batches = SessionBatches(schema);
    std::vector<std::vector<bool>> expected;
    Reasoner reference(&schema, ReasonerOptions{});
    for (const auto& batch : batches) {
      auto answers = reference.RunImplicationBatch(batch);
      ASSERT_TRUE(answers.ok()) << label << ": " << answers.status();
      expected.push_back(answers.value());
    }

    for (int threads : kThreadCounts) {
      IncrementalSession session(&schema, LazySessionOptions(threads));
      for (size_t b = 0; b < batches.size(); ++b) {
        auto answers = session.RunImplicationBatch(batches[b]);
        ASSERT_TRUE(answers.ok()) << label << " threads=" << threads
                                  << " batch=" << b << ": "
                                  << answers.status();
        EXPECT_EQ(expected[b], answers.value())
            << label << " threads=" << threads << " batch=" << b;
      }
      const IncrementalStats& stats = session.stats();
      // One partial base per session, once any lazy probe ran.
      const bool lazy_probed = stats.probes > stats.cluster_local;
      EXPECT_EQ(stats.lazy_base_builds, lazy_probed ? 1u : 0u)
          << label << " threads=" << threads;
      EXPECT_GT(stats.lazy_hits, 0u) << label << " threads=" << threads;
    }
  }
}

TEST(LazySessionBaseTest, CountersAreIdenticalAcrossThreadCounts) {
  for (const auto& [label, schema] : LazyBaseSchemas()) {
    const auto batches = SessionBatches(schema);
    auto run = [&](int threads) {
      std::vector<ProgressSnapshot> progress;
      IncrementalSession session(&schema, LazySessionOptions(threads));
      for (const auto& batch : batches) {
        ExecContext exec;
        session.set_exec(&exec);
        auto answers = session.RunImplicationBatch(batch);
        EXPECT_TRUE(answers.ok()) << label << ": " << answers.status();
        progress.push_back(exec.progress());
      }
      session.set_exec(nullptr);
      return std::make_pair(session.stats(), progress);
    };
    const auto serial = run(1);
    EXPECT_EQ(serial.first.lazy_base_builds, 1u) << label;
    for (int threads : {2, 8}) {
      const auto parallel = run(threads);
      EXPECT_TRUE(parallel.first == serial.first)
          << label << " threads=" << threads;
      EXPECT_TRUE(parallel.second == serial.second)
          << label << " threads=" << threads;
    }
  }
}

TEST(LazySessionBaseTest, SecondBatchOfNewQueriesSolvesNoColdLp) {
  // The warmth gate: once the first batch has built the partial base,
  // every LP a later batch's lazy probes solve is a resume of it.
  Schema schema = GenerateChainSchema(ChainParams{12, 2});
  Rng rng(707);
  std::vector<ImplicationQuery> first =
      GenerateImplicationBatch(schema, &rng, 16);
  std::set<std::string> seen;
  for (const ImplicationQuery& query : first) {
    seen.insert(IncrementalSession::CanonicalQueryKey(query));
  }
  std::vector<ImplicationQuery> second;
  for (const ImplicationQuery& query :
       GenerateImplicationBatch(schema, &rng, 32)) {
    if (seen.insert(IncrementalSession::CanonicalQueryKey(query)).second) {
      second.push_back(query);
    }
  }
  ASSERT_GE(second.size(), 8u);

  IncrementalSession session(&schema, LazySessionOptions(1));
  ASSERT_TRUE(session.RunImplicationBatch(first).ok());
  ASSERT_EQ(session.stats().lazy_base_builds, 1u);
  const IncrementalStats before = session.stats();

  ExecContext exec;
  session.set_exec(&exec);
  auto answers = session.RunImplicationBatch(second);
  session.set_exec(nullptr);
  ASSERT_TRUE(answers.ok()) << answers.status();
  const IncrementalStats after = session.stats();
  const ProgressSnapshot progress = exec.progress();

  EXPECT_EQ(after.memo_hits, before.memo_hits) << "all queries are new";
  EXPECT_GT(after.lazy_hits, before.lazy_hits);
  EXPECT_EQ(after.lazy_base_builds, 1u) << "the base is built once";
  EXPECT_EQ(after.base_builds, 0u);
  EXPECT_EQ(after.fallbacks, 0u);
  EXPECT_GT(progress.lp_solves, 0u);
  EXPECT_EQ(progress.lp_solves, progress.warm_starts)
      << "a lazy probe solved a cold LP despite the session base";
  // The session's own warm-start count sees the lazy resumes too.
  EXPECT_EQ(after.warm_starts - before.warm_starts, progress.warm_starts);

  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(second);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected.value(), answers.value());
}

TEST(LazySessionBaseTest, TripDuringBaseBuildPublishesNothing) {
  // Chart the governed work of the base build alone, then inject a fault
  // at every threshold up to its end. The batch's first charge is one
  // "implication" unit, so every such threshold trips before the base is
  // complete, whatever the schedule: the batch fails with the coherent
  // fault-injection report, no partial base is published, and the next
  // ungoverned batch builds it once and answers exactly.
  Schema schema = GenerateChainSchema(ChainParams{6, 2});
  Rng rng(808);
  const std::vector<ImplicationQuery> batch =
      GenerateImplicationBatch(schema, &rng, 6);
  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(batch);
  ASSERT_TRUE(expected.ok()) << expected.status();

  uint64_t base_work = 0;
  {
    ExecContext exec;
    ReasonerOptions options = LazySessionOptions(1);
    options.expansion.exec = &exec;
    options.solver.exec = &exec;
    auto base = BuildLazySessionBase(schema, options.expansion,
                                     options.solver, options.lazy);
    ASSERT_TRUE(base.ok()) << base.status();
    base_work = exec.progress().work_charged;
    ASSERT_GT(base_work, 0u);
  }

  const uint64_t cold_bytes =
      IncrementalSession(&schema, LazySessionOptions(1)).EstimatedMemoryBytes();
  for (uint64_t inject = 0; inject <= base_work; ++inject) {
    std::string serial_report;
    for (int threads : kThreadCounts) {
      ReasonerOptions options = LazySessionOptions(threads);
      // No tier-2 solves: every probe goes through the lazy engine.
      options.prefilter = false;
      IncrementalSession session(&schema, options);
      ExecContext exec;
      exec.InjectTripAfter(inject);
      session.set_exec(&exec);
      auto tripped = session.RunImplicationBatch(batch);
      ASSERT_FALSE(tripped.ok()) << "inject=" << inject;
      ASSERT_TRUE(exec.tripped()) << "inject=" << inject;
      EXPECT_EQ(exec.report().kind, LimitKind::kFaultInjection);
      EXPECT_EQ(exec.report().phase, "implication");
      EXPECT_EQ(exec.report().limit, inject);
      if (threads == 1) serial_report = exec.report().ToString();
      EXPECT_EQ(exec.report().ToString(), serial_report)
          << "inject=" << inject << " threads=" << threads;
      EXPECT_EQ(session.stats().lazy_base_builds, 0u)
          << "inject=" << inject << " threads=" << threads;
      EXPECT_EQ(session.EstimatedMemoryBytes(), cold_bytes)
          << "inject=" << inject << " threads=" << threads;

      session.set_exec(nullptr);
      auto recovered = session.RunImplicationBatch(batch);
      ASSERT_TRUE(recovered.ok())
          << "inject=" << inject << ": " << recovered.status();
      EXPECT_EQ(expected.value(), recovered.value())
          << "inject=" << inject << " threads=" << threads;
      EXPECT_EQ(session.stats().lazy_base_builds, 1u)
          << "inject=" << inject << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace car
