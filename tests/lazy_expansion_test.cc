// The lazy (counterexample-guided) expansion engine's contract: every
// conclusive verdict is bit-identical to the eager path's, for every
// schema, target set, and thread count; inconclusive runs fall back to
// eager inside the Reasoner, so end-to-end answers NEVER diverge. On
// dense schemas — where the pruned enumeration is still exponential —
// the engine must conclude after materializing a strict subset of the
// compound classes (the dense_blowup family: answers where eager trips
// its cap). Every abort point of the refinement loop must degrade to
// Verdict::kUnknown with a coherent LimitReport under the governor.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/rng.h"
#include "enumerate/bounded_search.h"
#include "expansion/expansion.h"
#include "expansion/lazy_enum.h"
#include "model/schema.h"
#include "reasoner/incremental.h"
#include "reasoner/lazy_engine.h"
#include "reasoner/reasoner.h"
#include "semantics/witness_check.h"
#include "solver/solve.h"
#include "workloads/generators.h"

namespace car {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

ReasonerOptions LazyOptions(int threads = 1) {
  ReasonerOptions options;
  options.num_threads = threads;
  options.lazy_expansion = true;
  return options;
}

/// Compound member sets of an expansion, for subset/equality checks.
std::set<std::vector<ClassId>> CompoundSets(const Expansion& expansion) {
  std::set<std::vector<ClassId>> sets;
  for (const CompoundClass& compound : expansion.compound_classes) {
    sets.insert(compound.members());
  }
  return sets;
}

// --- Differential soundness sweep ---------------------------------------

TEST(LazyExpansionTest, DifferentialSweepMatchesEagerAcrossThreads) {
  // 36 random general schemas spanning sparse and dense regimes. For
  // each, the eager serial CheckSchema is the reference; the lazy engine
  // must agree classwise at every thread count (conclusive or not — the
  // Reasoner's fallback makes the composite exact).
  for (uint64_t seed = 1; seed <= 36; ++seed) {
    Rng rng(seed);
    GeneralSchemaParams params;
    params.num_classes = 3 + static_cast<int>(seed % 8);
    params.num_attributes = 1 + static_cast<int>(seed % 3);
    params.negation_percent = 20 + static_cast<int>(seed % 40);
    params.union_percent = 20 + static_cast<int>((seed * 7) % 50);
    params.num_relations = seed % 3 == 0 ? 1 : 0;
    Schema schema = RandomGeneralSchema(&rng, params);

    Reasoner reference(&schema, ReasonerOptions{});
    auto expected = reference.CheckSchema();
    ASSERT_TRUE(expected.ok()) << "seed " << seed << ": "
                               << expected.status();

    for (int threads : kThreadCounts) {
      Reasoner lazy(&schema, LazyOptions(threads));
      auto report = lazy.CheckSchema();
      ASSERT_TRUE(report.ok())
          << "seed " << seed << " threads=" << threads << ": "
          << report.status();
      EXPECT_EQ(expected->verdict, report->verdict)
          << "seed " << seed << " threads=" << threads;
      EXPECT_EQ(expected->class_satisfiable, report->class_satisfiable)
          << "seed " << seed << " threads=" << threads;
      EXPECT_EQ(expected->unsatisfiable_classes,
                report->unsatisfiable_classes)
          << "seed " << seed << " threads=" << threads;
    }

    // Per-class routing must agree too (a different code path than the
    // whole-schema report).
    Reasoner lazy(&schema, LazyOptions());
    for (ClassId c = 0; c < schema.num_classes(); ++c) {
      auto eager_answer = reference.IsClassSatisfiable(c);
      auto lazy_answer = lazy.IsClassSatisfiable(c);
      ASSERT_TRUE(eager_answer.ok() && lazy_answer.ok()) << "seed " << seed;
      EXPECT_EQ(eager_answer.value(), lazy_answer.value())
          << "seed " << seed << " class " << c;
    }
  }
}

TEST(LazyExpansionTest, TinySchemasAgreeWithEnumerateOracle) {
  // Lazy vs eager vs the brute-force model enumerator, on schemas small
  // enough for the oracle. The oracle bound is one-sided: a found model
  // refutes any unsat verdict; an eager/lazy unsat verdict forbids any
  // model within the bound.
  int oracle_confirmations = 0;
  for (uint64_t seed = 100; seed < 130; ++seed) {
    Rng rng(seed);
    TinySchemaParams params;
    params.max_classes = 3;
    Schema schema = RandomTinySchema(&rng, params);

    Reasoner eager(&schema, ReasonerOptions{});
    Reasoner lazy(&schema, LazyOptions());
    for (ClassId c = 0; c < schema.num_classes(); ++c) {
      auto eager_answer = eager.IsClassSatisfiable(c);
      auto lazy_answer = lazy.IsClassSatisfiable(c);
      ASSERT_TRUE(eager_answer.ok()) << "seed " << seed << ": "
                                     << eager_answer.status();
      ASSERT_TRUE(lazy_answer.ok()) << "seed " << seed << ": "
                                    << lazy_answer.status();
      EXPECT_EQ(eager_answer.value(), lazy_answer.value())
          << "seed " << seed << " class " << c;

      auto oracle = FindModelWithNonemptyClass(schema, c);
      ASSERT_TRUE(oracle.ok()) << "seed " << seed << ": " << oracle.status();
      if (oracle->found()) {
        EXPECT_TRUE(lazy_answer.value())
            << "seed " << seed << " class " << c
            << ": oracle found a model but the lazy engine says unsat";
        ++oracle_confirmations;
      }
    }
  }
  // The sweep must actually exercise the oracle cross-check.
  EXPECT_GE(oracle_confirmations, 10);
}

// --- The dense regime ----------------------------------------------------

TEST(LazyExpansionTest, DenseBlowupConcludesOnStrictSubset) {
  // chaff=22 puts the eager pruned enumeration at 2^22 subsets — beyond
  // its compound cap, so eager cannot answer at all. The lazy engine
  // must conclude SAT from a tiny materialized subset.
  DenseBlowupParams params;
  params.chaff_classes = 22;
  params.core_classes = 4;
  Schema schema = GenerateDenseBlowupSchema(params);

  // Ungoverned eager runs keep the historical error-status behavior on
  // cap trips: the full pruned enumeration is 2^22 subsets and cannot
  // complete. (Governed, this degrades to Verdict::kUnknown.)
  Reasoner eager(&schema, ReasonerOptions{});
  auto eager_report = eager.CheckSchema();
  ASSERT_FALSE(eager_report.ok())
      << "expected the eager path to trip its enumeration cap";
  EXPECT_EQ(eager_report.status().code(), StatusCode::kResourceExhausted);

  for (int threads : kThreadCounts) {
    Reasoner lazy(&schema, LazyOptions(threads));
    auto report = lazy.CheckSchema();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->verdict, Verdict::kSat) << "threads=" << threads;
    EXPECT_TRUE(report->lazy) << "threads=" << threads;
    EXPECT_EQ(report->class_satisfiable,
              std::vector<bool>(schema.num_classes(), true));
    // Strict subset: far fewer compounds than the 2^22 full expansion —
    // and in fact bounded by streams * batch size.
    EXPECT_LT(report->compounds_materialized, size_t{1} << 12)
        << "threads=" << threads;
    EXPECT_GT(report->compounds_materialized, 0u) << "threads=" << threads;
    EXPECT_EQ(report->num_compound_classes, report->compounds_materialized);
  }
}

TEST(LazyExpansionTest, DenseBlowupExampleFileStillLazySat) {
  // The checked-in examples/schemas/dense_blowup.car equivalent (pure
  // chaff, no attributes): all compounds unconstrained, so the engine
  // should conclude without any LP solve.
  DenseBlowupParams params;
  params.chaff_classes = 22;
  params.core_classes = 1;  // A single attribute-free core class.
  Schema schema = GenerateDenseBlowupSchema(params);
  // Strip the core attribute by rebuilding with no attribute content:
  // core_classes=1 keeps the attribute on E0; erase it.
  schema.mutable_class_definition(schema.LookupClass("E0"))
      ->attributes.clear();
  ASSERT_TRUE(schema.Validate().ok());

  auto outcome = RunLazyExpansion(schema, {0}, nullptr, ExpansionOptions{},
                                  PsiSolverOptions{}, LazyExpansionOptions{});
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->conclusive);
  EXPECT_TRUE(outcome->class_satisfiable[0]);
  EXPECT_EQ(outcome->lp_solves, 0u)
      << "an all-unconstrained partial expansion must shortcut the LP";
}

TEST(LazyExpansionTest, RefinementLoopRunsMultipleRounds) {
  // A target whose early stream compounds are inactive: T requires an
  // h-successor satisfying B ∧ ¬C ∧ ¬D, but the include-first stream
  // order delivers the B-compounds containing C or D first. With
  // batch 1 the engine needs several refinement rounds before the bare
  // {B} compound appears and covers T.
  Schema schema;
  ClassId t = schema.InternClass("T");
  ClassId b = schema.InternClass("B");
  ClassId c = schema.InternClass("C");
  ClassId d = schema.InternClass("D");
  // B, C, D tied into one cluster by tautologies on B.
  for (ClassId satellite : {c, d}) {
    ClassClause tautology;
    tautology.AddLiteral(ClassLiteral::Positive(b));
    tautology.AddLiteral(ClassLiteral::Negative(b));
    schema.mutable_class_definition(satellite)->isa.AddClause(
        std::move(tautology));
  }
  AttributeId h = schema.InternAttribute("h");
  AttributeSpec spec;
  spec.term = AttributeTerm::Direct(h);
  spec.cardinality = Cardinality(1, 2);
  ClassClause range;
  range.AddLiteral(ClassLiteral::Positive(b));
  ClassFormula formula({range});
  formula.AddClause(ClassClause::Of(ClassLiteral::Negative(c)));
  formula.AddClause(ClassClause::Of(ClassLiteral::Negative(d)));
  spec.range = std::move(formula);
  schema.mutable_class_definition(t)->attributes.push_back(std::move(spec));
  ASSERT_TRUE(schema.Validate().ok());

  LazyExpansionOptions lazy_options;
  lazy_options.batch_per_class = 1;
  lazy_options.max_rounds = 16;
  auto outcome = RunLazyExpansion(schema, {t}, nullptr, ExpansionOptions{},
                                  PsiSolverOptions{}, lazy_options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->conclusive);
  EXPECT_TRUE(outcome->class_satisfiable[t]);
  EXPECT_GE(outcome->refinement_rounds, 2u)
      << "the crafted schema must force at least two refinement rounds";

  // And the verdict matches eager.
  Reasoner eager(&schema, ReasonerOptions{});
  auto expected = eager.IsClassSatisfiable(t);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_TRUE(expected.value());
}

// --- Fault injection: every abort point degrades coherently --------------

TEST(LazyExpansionTest, FaultInjectionSweepDegradesToUnknown) {
  // Chart the governed work of a complete lazy run, then re-run with the
  // deterministic fault injected at every threshold up to completion.
  // Each injected run must either finish with the reference verdict (the
  // injection landed past its last charge) or report kUnknown with a
  // coherent kFaultInjection LimitReport — never a wrong verdict, never
  // an error status.
  DenseBlowupParams params;
  params.chaff_classes = 6;
  params.core_classes = 3;
  Schema schema = GenerateDenseBlowupSchema(params);

  uint64_t total_work = 0;
  {
    ExecContext exec;
    ReasonerOptions options = LazyOptions();
    options.exec = &exec;
    Reasoner reasoner(&schema, options);
    auto report = reasoner.CheckSchema();
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->verdict, Verdict::kSat);
    total_work = report->progress.work_charged;
    ASSERT_GT(total_work, 0u);
  }

  for (uint64_t inject = 0; inject <= total_work; ++inject) {
    ExecContext exec;
    exec.InjectTripAfter(inject);
    ReasonerOptions options = LazyOptions();
    options.exec = &exec;
    Reasoner reasoner(&schema, options);
    auto report = reasoner.CheckSchema();
    ASSERT_TRUE(report.ok())
        << "inject=" << inject << ": " << report.status();
    if (report->verdict == Verdict::kUnknown) {
      EXPECT_TRUE(report->limit.tripped()) << "inject=" << inject;
      EXPECT_EQ(report->limit.kind, LimitKind::kFaultInjection)
          << "inject=" << inject;
      EXPECT_FALSE(report->limit.phase.empty()) << "inject=" << inject;
      EXPECT_TRUE(report->class_satisfiable.empty()) << "inject=" << inject;
    } else {
      EXPECT_EQ(report->verdict, Verdict::kSat) << "inject=" << inject;
      EXPECT_EQ(report->class_satisfiable,
                std::vector<bool>(schema.num_classes(), true))
          << "inject=" << inject;
    }
  }
}

// --- The materialization substrate ---------------------------------------

TEST(LazyExpansionTest, StreamsReconstructEagerExpansionExactly) {
  // Advancing every class's stream to exhaustion and assembling the
  // ledger must reproduce the eager pruned expansion bit-for-bit —
  // compound classes, compound attributes/relations, and Natt/Nrel.
  // Batch size must not matter (replay-and-skip resumability).
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 13);
    GeneralSchemaParams params;
    params.num_classes = 5 + static_cast<int>(seed % 4);
    params.num_attributes = 2;
    params.num_relations = seed % 2 == 0 ? 1 : 0;
    Schema schema = RandomGeneralSchema(&rng, params);

    ExpansionOptions options;
    auto eager = BuildExpansion(schema, options);
    ASSERT_TRUE(eager.ok()) << "seed " << seed << ": " << eager.status();

    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      ExpansionPreamble preamble = BuildExpansionPreamble(schema, options);
      RefinementLedger ledger;
      for (ClassId pinned = 0; pinned < schema.num_classes(); ++pinned) {
        const std::vector<ClassId>& cluster =
            preamble.partition.clusters[preamble.partition
                                            .cluster_of[pinned]];
        LazyCompoundStream stream(schema, preamble.tables, cluster, pinned);
        while (!stream.exhausted()) {
          ASSERT_TRUE(stream
                          .Advance(batch, nullptr,
                                   [&](const CompoundClass& compound) {
                                     ledger.Add(compound);
                                   })
                          .ok());
        }
      }
      auto assembled =
          AssembleExpansion(schema, ledger.Compounds(), options);
      ASSERT_TRUE(assembled.ok())
          << "seed " << seed << " batch " << batch << ": "
          << assembled.status();
      EXPECT_EQ(CompoundSets(*eager), CompoundSets(*assembled))
          << "seed " << seed << " batch " << batch;
      EXPECT_EQ(eager->natt, assembled->natt)
          << "seed " << seed << " batch " << batch;
      EXPECT_EQ(eager->nrel, assembled->nrel)
          << "seed " << seed << " batch " << batch;
      EXPECT_EQ(eager->compound_attributes.size(),
                assembled->compound_attributes.size())
          << "seed " << seed << " batch " << batch;
      EXPECT_EQ(eager->compound_relations.size(),
                assembled->compound_relations.size())
          << "seed " << seed << " batch " << batch;
    }
  }
}

TEST(LazyExpansionTest, PartialMaterializationIsSubsetOfEager) {
  // Whatever the engine materializes must be a subset of the eager
  // compound set (membership in the pruned expansion is the streams'
  // core invariant).
  DenseBlowupParams params;
  params.chaff_classes = 8;
  params.core_classes = 3;
  Schema schema = GenerateDenseBlowupSchema(params);

  ExpansionOptions options;
  auto eager = BuildExpansion(schema, options);
  ASSERT_TRUE(eager.ok()) << eager.status();
  std::set<std::vector<ClassId>> eager_sets = CompoundSets(*eager);

  ExpansionPreamble preamble = BuildExpansionPreamble(schema, options);
  for (ClassId pinned = 0; pinned < schema.num_classes(); ++pinned) {
    const std::vector<ClassId>& cluster =
        preamble.partition.clusters[preamble.partition.cluster_of[pinned]];
    LazyCompoundStream stream(schema, preamble.tables, cluster, pinned);
    ASSERT_TRUE(stream
                    .Advance(4, nullptr,
                             [&](const CompoundClass& compound) {
                               EXPECT_TRUE(eager_sets.count(
                                   compound.members()))
                                   << "stream for class " << pinned
                                   << " emitted a compound outside the "
                                      "eager expansion";
                               EXPECT_TRUE(compound.Contains(pinned));
                             })
                    .ok());
  }
}

TEST(LazyExpansionTest, IsPrunedCompoundDecidesEagerMembership) {
  // The guard a lazy run applies before resuming a base streamed from
  // another schema: for every non-empty class subset of small schemas,
  // IsPrunedCompound must agree exactly with membership in the eager
  // pruned expansion. Random general schemas plus union-free
  // hierarchies (whose tables gain completed disjointness entries).
  std::vector<Schema> schemas;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 17);
    GeneralSchemaParams params;
    params.num_classes = 5 + static_cast<int>(seed % 4);
    params.num_attributes = 2;
    params.num_relations = seed % 2 == 0 ? 1 : 0;
    schemas.push_back(RandomGeneralSchema(&rng, params));
  }
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 29);
    HierarchyParams params;
    params.num_classes = 8;
    params.num_trees = 2;
    schemas.push_back(GenerateHierarchy(&rng, params));
  }
  {
    // Union-free: two subclasses never forced together are completed
    // disjoint, so {Person, Student, Employee} is consistent yet pruned.
    Schema schema;
    ClassId person = schema.InternClass("Person");
    for (const char* name : {"Student", "Employee", "Manager"}) {
      schema.mutable_class_definition(schema.InternClass(name))->isa =
          ClassFormula::OfClass(person);
    }
    ASSERT_TRUE(schema.Validate().ok());
    ASSERT_TRUE(schema.IsUnionFree());
    schemas.push_back(std::move(schema));
  }

  ExpansionOptions options;
  size_t consistent_but_pruned = 0;
  for (size_t s = 0; s < schemas.size(); ++s) {
    const Schema& schema = schemas[s];
    auto eager = BuildExpansion(schema, options);
    ASSERT_TRUE(eager.ok()) << "schema " << s << ": " << eager.status();
    const std::set<std::vector<ClassId>> eager_sets = CompoundSets(*eager);
    const ExpansionPreamble preamble = BuildExpansionPreamble(schema, options);
    const int n = schema.num_classes();
    ASSERT_LE(n, 12);
    size_t accepted = 0;
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      std::vector<ClassId> members;
      for (int c = 0; c < n; ++c) {
        if ((mask >> c) & 1u) members.push_back(c);
      }
      const CompoundClass compound(members);
      const bool in_eager = eager_sets.count(members) > 0;
      EXPECT_EQ(IsPrunedCompound(schema, preamble, compound), in_eager)
          << "schema " << s << " mask " << mask;
      if (in_eager) ++accepted;
      if (!in_eager && compound.IsConsistent(schema)) {
        ++consistent_but_pruned;
      }
    }
    // Every non-empty eager compound was among the subsets tried.
    EXPECT_EQ(accepted + 1, eager->compound_classes.size()) << "schema " << s;
  }
  // The table checks are exercised, not just the consistency check.
  EXPECT_GT(consistent_but_pruned, 0u);
}

// --- Witness checker -----------------------------------------------------

/// A hand-built schema whose expansion and witness values are easy to
/// reason about: T --h(1,2)--> B.
Schema WitnessSchema() {
  Schema schema;
  ClassId t = schema.InternClass("T");
  ClassId b = schema.InternClass("B");
  (void)b;
  AttributeId h = schema.InternAttribute("h");
  AttributeSpec spec;
  spec.term = AttributeTerm::Direct(h);
  spec.cardinality = Cardinality(1, 2);
  spec.range = ClassFormula::OfClass(1);
  schema.mutable_class_definition(t)->attributes.push_back(std::move(spec));
  CAR_CHECK(schema.Validate().ok());
  return schema;
}

/// An all-active witness with unit compound values and attribute values
/// chosen to satisfy the (1,2) interval.
PsiWitness UnitWitness(const Expansion& expansion) {
  PsiWitness witness;
  witness.cc_active.assign(expansion.compound_classes.size(), true);
  witness.ca_active.assign(expansion.compound_attributes.size(), true);
  witness.cr_active.assign(expansion.compound_relations.size(), true);
  witness.cc_value.assign(expansion.compound_classes.size(), Rational(1));
  witness.ca_value.assign(expansion.compound_attributes.size(),
                          Rational(1));
  witness.cr_value.assign(expansion.compound_relations.size(), Rational(1));
  return witness;
}

TEST(WitnessCheckTest, AcceptsConsistentWitness) {
  Schema schema = WitnessSchema();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  PsiWitness witness = UnitWitness(*expansion);
  // Scale attribute values so each constrained source compound's
  // outgoing sum lands inside [1*Var, 2*Var] = [1, 2].
  for (const auto& [key, indexes] : expansion->ca_by_from) {
    Rational share(1, static_cast<int64_t>(indexes.size()));
    for (int index : indexes) witness.ca_value[index] = share;
  }
  WitnessCheckResult result = ValidatePsiWitness(schema, *expansion, witness);
  EXPECT_TRUE(result.valid) << result.failure;
}

TEST(WitnessCheckTest, RejectsCorruptedWitnesses) {
  Schema schema = WitnessSchema();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  ASSERT_GT(expansion->compound_classes.size(), 1u);
  PsiWitness good = UnitWitness(*expansion);
  for (const auto& [key, indexes] : expansion->ca_by_from) {
    Rational share(1, static_cast<int64_t>(indexes.size()));
    for (int index : indexes) good.ca_value[index] = share;
  }
  ASSERT_TRUE(ValidatePsiWitness(schema, *expansion, good).valid);

  {  // Inactive compound with a nonzero value.
    PsiWitness witness = good;
    witness.cc_active[1] = false;
    WitnessCheckResult result =
        ValidatePsiWitness(schema, *expansion, witness);
    EXPECT_FALSE(result.valid);
    EXPECT_FALSE(result.failure.empty());
  }
  {  // Truncated mask (structure violation).
    PsiWitness witness = good;
    witness.cc_active.pop_back();
    EXPECT_FALSE(ValidatePsiWitness(schema, *expansion, witness).valid);
  }
  {  // Negative unknown.
    PsiWitness witness = good;
    witness.cc_value[1] = Rational(-1);
    EXPECT_FALSE(ValidatePsiWitness(schema, *expansion, witness).valid);
  }
  if (!expansion->compound_attributes.empty()) {
    // Bound violation: blow one attribute value past v * Var.
    PsiWitness witness = good;
    witness.ca_value[0] = Rational(1000);
    EXPECT_FALSE(ValidatePsiWitness(schema, *expansion, witness).valid);
  }
}

// --- Incremental-session routing -----------------------------------------

TEST(LazyExpansionTest, IncrementalSessionLazyProbesMatchEager) {
  // Query batches through a lazy incremental session must match the
  // from-scratch reference; conclusive lazy probes should actually
  // occur. chaff is kept small enough that the REFERENCE can answer:
  // a query whose formula spans the chaff/core boundary fuses both
  // clusters in the aux-extended schema, so the reference pays
  // 2^(chaff+core+1) compounds per such query.
  DenseBlowupParams params;
  params.chaff_classes = 7;
  params.core_classes = 3;
  Schema schema = GenerateDenseBlowupSchema(params);

  std::vector<ImplicationQuery> queries;
  for (ClassId c = 0; c + 1 < schema.num_classes(); ++c) {
    ImplicationQuery query;
    query.kind = ImplicationQuery::Kind::kIsa;
    query.class_id = c;
    query.formula = ClassFormula::OfClass(c + 1);
    queries.push_back(query);
    ImplicationQuery disjoint;
    disjoint.kind = ImplicationQuery::Kind::kDisjoint;
    disjoint.class_id = c;
    disjoint.other = c + 1;
    queries.push_back(disjoint);
  }

  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (int threads : kThreadCounts) {
    ReasonerOptions options = LazyOptions(threads);
    IncrementalSession session(&schema, options);
    auto answers = session.RunImplicationBatch(queries);
    ASSERT_TRUE(answers.ok()) << "threads=" << threads << ": "
                              << answers.status();
    EXPECT_EQ(expected.value(), answers.value()) << "threads=" << threads;
    IncrementalStats stats = session.stats();
    EXPECT_GT(stats.lazy_hits, 0u) << "threads=" << threads;
    EXPECT_GT(stats.lazy_compounds_materialized, 0u)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace car
