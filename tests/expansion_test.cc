#include "expansion/expansion.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/clusters.h"
#include "analysis/pair_tables.h"
#include "base/rng.h"
#include "expansion/expansion_delta.h"
#include "expansion/lazy_enum.h"
#include "frontend/parser.h"
#include "model/builder.h"
#include "reasoner/reasoner.h"
#include "test_schemas.h"
#include "workloads/generators.h"
#include "workloads/query_batch.h"

namespace car {
namespace {

Schema TwoDisjointClasses() {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"!B"}}).EndClass();
  builder.DeclareClass("B");
  auto schema = std::move(builder).Build();
  CAR_CHECK(schema.ok());
  return std::move(schema).value();
}

TEST(CompoundClassTest, RealizesTruthAssignment) {
  CompoundClass compound({0, 2});
  EXPECT_TRUE(compound.Realizes(ClassLiteral::Positive(0)));
  EXPECT_FALSE(compound.Realizes(ClassLiteral::Positive(1)));
  EXPECT_TRUE(compound.Realizes(ClassLiteral::Negative(1)));
  EXPECT_FALSE(compound.Realizes(ClassLiteral::Negative(2)));

  ClassClause clause({ClassLiteral::Positive(1), ClassLiteral::Positive(2)});
  EXPECT_TRUE(compound.Realizes(clause));
  ClassClause false_clause({ClassLiteral::Positive(1)});
  EXPECT_FALSE(compound.Realizes(false_clause));

  ClassFormula formula({clause, false_clause});
  EXPECT_FALSE(compound.Realizes(formula));
  EXPECT_TRUE(CompoundClass().Realizes(ClassFormula::True()));
}

TEST(CompoundClassTest, DeduplicatesAndSortsMembers) {
  CompoundClass compound({3, 1, 3, 1});
  EXPECT_EQ(compound.members(), (std::vector<ClassId>{1, 3}));
}

TEST(CompoundClassTest, ConsistencyAgainstIsa) {
  Schema schema = TwoDisjointClasses();
  ClassId a = schema.LookupClass("A");
  ClassId b = schema.LookupClass("B");
  EXPECT_TRUE(CompoundClass({a}).IsConsistent(schema));
  EXPECT_TRUE(CompoundClass({b}).IsConsistent(schema));
  EXPECT_FALSE(CompoundClass({a, b}).IsConsistent(schema));
  EXPECT_TRUE(CompoundClass().IsConsistent(schema));
}

TEST(ExpansionTest, DisjointClassesYieldNoJointCompound) {
  Schema schema = TwoDisjointClasses();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  // {}, {A}, {B} but not {A, B}.
  EXPECT_EQ(expansion->compound_classes.size(), 3u);
  EXPECT_EQ(expansion->IndexOfCompoundClass(CompoundClass({0, 1})), -1);
}

TEST(ExpansionTest, ExhaustiveAndPrunedAgreeOnFigure2) {
  Schema schema = testing_schemas::Figure2();
  ExpansionOptions exhaustive;
  exhaustive.strategy = ExpansionStrategy::kExhaustive;
  auto full = BuildExpansion(schema, exhaustive);
  ASSERT_TRUE(full.ok());

  ExpansionOptions pruned;
  pruned.strategy = ExpansionStrategy::kPruned;
  auto fast = BuildExpansion(schema, pruned);
  ASSERT_TRUE(fast.ok());

  // The pruned strategy drops compound classes that mix clusters (e.g.
  // {Person, Course}, which Figure 2 never forbids but never requires),
  // so its compound classes are a subset of the exhaustive ones.
  EXPECT_LE(fast->compound_classes.size(), full->compound_classes.size());
  for (const CompoundClass& compound : fast->compound_classes) {
    EXPECT_GE(full->IndexOfCompoundClass(compound), 0)
        << compound.ToString(schema);
  }
  // Every single-class compound survives pruning in both.
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const ClassDefinition& definition = schema.class_definition(c);
    if (!definition.isa.IsTriviallyTrue()) continue;
    EXPECT_GE(fast->IndexOfCompoundClass(CompoundClass({c})), 0)
        << schema.ClassName(c);
  }
  // Pruning must visit strictly fewer subsets than 2^n.
  EXPECT_LT(fast->subsets_visited, full->subsets_visited);
}

TEST(ExpansionTest, NattMergesWithUmaxVmin) {
  // Student: Enrollment[enrolls] (1,6); Grad_Student refines to (2,3).
  Schema schema = testing_schemas::Figure2();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  ClassId student = schema.LookupClass("Student");
  ClassId grad = schema.LookupClass("Grad_Student");
  ClassId person = schema.LookupClass("Person");
  int compound_index = expansion->IndexOfCompoundClass(
      CompoundClass({person, student, grad}));
  ASSERT_GE(compound_index, 0);

  RelationId enrollment = schema.LookupRelation("Enrollment");
  const RelationDefinition* definition =
      schema.relation_definition(enrollment);
  int enrolls_index =
      definition->RoleIndex(schema.LookupRole("enrolls"));
  auto it = expansion->nrel.find(
      {enrollment, enrolls_index, compound_index});
  ASSERT_NE(it, expansion->nrel.end());
  EXPECT_EQ(it->second.min(), 2u);
  EXPECT_EQ(it->second.max(), 3u);
}

TEST(ExpansionTest, EmptyCompoundClassAlwaysPresent) {
  Schema schema = testing_schemas::Figure1();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  ASSERT_FALSE(expansion->compound_classes.empty());
  EXPECT_TRUE(expansion->compound_classes[0].empty());
}

TEST(ExpansionTest, CompoundAttributeConsistencyFiltersRanges) {
  // a: C -> D only; compound attribute into a non-D compound must be
  // dropped.
  SchemaBuilder builder;
  builder.BeginClass("C").Attribute("a", 1, 1, {{"D"}}).EndClass();
  builder.DeclareClass("D");
  builder.DeclareClass("E");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  Schema schema = std::move(schema_or).value();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  ClassId c = schema.LookupClass("C");
  ClassId d = schema.LookupClass("D");
  AttributeId a = schema.LookupAttribute("a");
  int from = expansion->IndexOfCompoundClass(CompoundClass({c}));
  ASSERT_GE(from, 0);
  for (const CompoundAttribute& ca : expansion->compound_attributes) {
    if (ca.attribute != a || ca.from != from) continue;
    EXPECT_TRUE(expansion->compound_classes[ca.to].Contains(d))
        << expansion->compound_classes[ca.to].ToString(schema);
  }
}

TEST(ExpansionTest, UnconstrainedRelationProducesNoCompoundRelations) {
  // Exam has role clauses but no participation constraints anywhere, so
  // its tuples are never counted by any disequation.
  Schema schema = testing_schemas::Figure2();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  RelationId exam = schema.LookupRelation("Exam");
  for (const CompoundRelation& cr : expansion->compound_relations) {
    EXPECT_NE(cr.relation, exam);
  }
}

TEST(ExpansionTest, ExhaustiveRefusesHugeSchemas) {
  SchemaBuilder builder;
  for (int i = 0; i < 35; ++i) {
    builder.DeclareClass(StrCat("C", i));
  }
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  ExpansionOptions options;
  options.strategy = ExpansionStrategy::kExhaustive;
  auto expansion = BuildExpansion(*schema_or, options);
  ASSERT_FALSE(expansion.ok());
  EXPECT_EQ(expansion.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExpansionTest, CompoundClassCapEnforced) {
  SchemaBuilder builder;
  // 12 mutually-unconstrained classes sharing one attribute range, so
  // they land in one cluster and the subsets explode.
  std::vector<std::string> all;
  for (int i = 0; i < 12; ++i) all.push_back(StrCat("C", i));
  builder.BeginClass("Hub").Attribute("a", 0, 1, {all}).EndClass();
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  ExpansionOptions options;
  options.max_compound_classes = 64;
  auto expansion = BuildExpansion(*schema_or, options);
  ASSERT_FALSE(expansion.ok());
  EXPECT_EQ(expansion.status().code(), StatusCode::kResourceExhausted);
}

TEST(PairTablesTest, ExplicitEntriesFromIsa) {
  Schema schema = testing_schemas::Figure2();
  PairTables tables = BuildPairTables(schema);
  ClassId student = schema.LookupClass("Student");
  ClassId professor = schema.LookupClass("Professor");
  ClassId person = schema.LookupClass("Person");
  EXPECT_TRUE(tables.AreDisjoint(student, professor));
  EXPECT_TRUE(tables.IsIncluded(student, person));
  EXPECT_TRUE(tables.IsIncluded(professor, person));
}

TEST(PairTablesTest, PropagationDerivesTransitiveFacts) {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B"}}).EndClass();
  builder.BeginClass("B").Isa({{"C"}}).EndClass();
  builder.BeginClass("D").Isa({{"!C"}}).EndClass();
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  const Schema& schema = *schema_or;
  PairTables tables = BuildPairTables(schema);
  ClassId a = schema.LookupClass("A");
  ClassId c = schema.LookupClass("C");
  ClassId d = schema.LookupClass("D");
  EXPECT_TRUE(tables.IsIncluded(a, c));   // A ⊆ B ⊆ C.
  EXPECT_TRUE(tables.AreDisjoint(a, d));  // A ⊆ C, D disjoint C.
}

TEST(PairTablesTest, SelfContradictionMarksSelfDisjoint) {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B"}, {"!B"}}).EndClass();
  builder.DeclareClass("B");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  PairTables tables = BuildPairTables(*schema_or);
  ClassId a = schema_or->LookupClass("A");
  EXPECT_TRUE(tables.AreDisjoint(a, a));
}

TEST(ClustersTest, UnrelatedClassesSplitIntoClusters) {
  SchemaBuilder builder;
  builder.BeginClass("A1").Isa({{"A2"}}).EndClass();
  builder.DeclareClass("A2");
  builder.BeginClass("B1").Isa({{"B2"}}).EndClass();
  builder.DeclareClass("B2");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  PairTables tables = BuildPairTables(*schema_or);
  ClusterPartition partition = ComputeClusters(*schema_or, tables);
  EXPECT_EQ(partition.num_clusters(), 2);
  EXPECT_EQ(partition.cluster_of[schema_or->LookupClass("A1")],
            partition.cluster_of[schema_or->LookupClass("A2")]);
  EXPECT_NE(partition.cluster_of[schema_or->LookupClass("A1")],
            partition.cluster_of[schema_or->LookupClass("B1")]);
}

TEST(ClustersTest, AttributeRangesConnectTargetSide) {
  SchemaBuilder builder;
  builder.BeginClass("C").Attribute("a", 1, 1, {{"D"}, {"E"}}).EndClass();
  builder.DeclareClass("D");
  builder.DeclareClass("E");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  PairTables tables = BuildPairTables(*schema_or);
  ClusterPartition partition = ComputeClusters(*schema_or, tables);
  // D and E must be co-residable (the a-successor realizes D ∧ E).
  EXPECT_EQ(partition.cluster_of[schema_or->LookupClass("D")],
            partition.cluster_of[schema_or->LookupClass("E")]);
}

TEST(ClustersTest, ClusterDecompositionShrinksEnumeration) {
  // k independent 3-class towers: exhaustive visits 2^(3k) subsets, the
  // clustered strategy roughly k * 2^3.
  SchemaBuilder builder;
  const int towers = 4;
  for (int t = 0; t < towers; ++t) {
    builder.BeginClass(StrCat("Low", t)).Isa({{StrCat("Mid", t)}}).EndClass();
    builder.BeginClass(StrCat("Mid", t)).Isa({{StrCat("Top", t)}}).EndClass();
    builder.DeclareClass(StrCat("Top", t));
  }
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());

  ExpansionOptions clustered;
  auto fast = BuildExpansion(*schema_or, clustered);
  ASSERT_TRUE(fast.ok());

  ExpansionOptions exhaustive;
  exhaustive.strategy = ExpansionStrategy::kExhaustive;
  auto slow = BuildExpansion(*schema_or, exhaustive);
  ASSERT_TRUE(slow.ok());

  EXPECT_EQ(slow->subsets_visited, (1u << (3 * towers)) - 1);
  EXPECT_LT(fast->subsets_visited, 100u);
  // Same satisfiable structure: per tower {T}, {M,T}, {L,M,T}; plus the
  // empty compound. The exhaustive expansion also contains cross-tower
  // unions, which the clustered one soundly omits (Theorem 4.6).
  EXPECT_EQ(fast->compound_classes.size(), 1u + 3u * towers);
  EXPECT_GT(slow->compound_classes.size(), fast->compound_classes.size());
}

// --- Pinned artifacts -----------------------------------------------------
//
// The suites above and the differential suites compare engines with each
// other; these tests hold every artifact the expansion engine returns to
// fixed digests: compound order, compound-attribute and compound-relation
// order (the Ψ column order, and with it every pivot path), Natt, Nrel,
// the derived indexes and the work counters, at 1 and 8 threads.

/// FNV-1a over a canonical rendering: any change to an element, to its
/// position or to a count changes the digest.
class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void AddInts(const std::vector<int>& values) {
    Add(values.size());
    for (int value : values) Add(static_cast<uint64_t>(value));
  }
  void AddCardinality(const Cardinality& cardinality) {
    Add(cardinality.min());
    Add(cardinality.max());
  }
  std::string Hex() const {
    std::ostringstream out;
    out << std::hex << hash_;
    return out.str();
  }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void AddCompounds(const std::vector<CompoundClass>& compounds, Digest* d) {
  d->Add(compounds.size());
  for (const CompoundClass& compound : compounds) {
    d->AddInts(compound.members());
  }
}

void AddSections(
    const std::vector<CompoundAttribute>& attributes,
    const std::vector<CompoundRelation>& relations,
    const std::map<std::pair<AttributeTerm, int>, Cardinality>& natt,
    const std::map<std::tuple<RelationId, int, int>, Cardinality>& nrel,
    const std::map<std::pair<AttributeId, int>, std::vector<int>>& by_from,
    const std::map<std::pair<AttributeId, int>, std::vector<int>>& by_to,
    const std::map<std::tuple<RelationId, int, int>, std::vector<int>>&
        by_role,
    Digest* d) {
  d->Add(attributes.size());
  for (const CompoundAttribute& ca : attributes) {
    d->Add(ca.attribute);
    d->Add(ca.from);
    d->Add(ca.to);
  }
  d->Add(relations.size());
  for (const CompoundRelation& cr : relations) {
    d->Add(cr.relation);
    d->AddInts(cr.components);
  }
  d->Add(natt.size());
  for (const auto& [key, cardinality] : natt) {
    d->Add(key.first.attribute);
    d->Add(key.first.inverse);
    d->Add(key.second);
    d->AddCardinality(cardinality);
  }
  d->Add(nrel.size());
  for (const auto& [key, cardinality] : nrel) {
    d->Add(std::get<0>(key));
    d->Add(std::get<1>(key));
    d->Add(std::get<2>(key));
    d->AddCardinality(cardinality);
  }
  for (const auto* index : {&by_from, &by_to}) {
    d->Add(index->size());
    for (const auto& [key, list] : *index) {
      d->Add(key.first);
      d->Add(key.second);
      d->AddInts(list);
    }
  }
  d->Add(by_role.size());
  for (const auto& [key, list] : by_role) {
    d->Add(std::get<0>(key));
    d->Add(std::get<1>(key));
    d->Add(std::get<2>(key));
    d->AddInts(list);
  }
}

void AddExpansion(const Expansion& expansion, Digest* d) {
  AddCompounds(expansion.compound_classes, d);
  AddSections(expansion.compound_attributes, expansion.compound_relations,
              expansion.natt, expansion.nrel, expansion.ca_by_from,
              expansion.ca_by_to, expansion.cr_by_role, d);
  d->Add(expansion.subsets_visited);
  // The compound-class index is not a section of its own; check it here.
  for (size_t i = 0; i < expansion.compound_classes.size(); ++i) {
    EXPECT_EQ(expansion.IndexOfCompoundClass(expansion.compound_classes[i]),
              static_cast<int>(i));
  }
}

std::string DigestOf(const Expansion& expansion) {
  Digest d;
  AddExpansion(expansion, &d);
  return d.Hex();
}

void AddDelta(const ExpansionDelta& delta, Digest* d) {
  AddCompounds(delta.new_compound_classes, d);
  AddSections(delta.new_compound_attributes, delta.new_compound_relations,
              delta.new_natt, delta.new_nrel, delta.new_ca_by_from,
              delta.new_ca_by_to, delta.new_cr_by_role, d);
  d->Add(delta.clusters_reused);
  d->Add(delta.clusters_reenumerated);
  d->Add(delta.subsets_visited);
}

std::vector<std::pair<std::string, Schema>> PinnedSchemas() {
  std::vector<std::pair<std::string, Schema>> schemas;
  schemas.emplace_back("figure2", testing_schemas::Figure2());
  {
    std::ifstream file(std::string(CAR_EXAMPLES_DIR) + "/university.car");
    std::ostringstream text;
    text << file.rdbuf();
    Result<Schema> university = ParseSchema(text.str());
    CAR_CHECK(university.ok()) << university.status();
    schemas.emplace_back("university", std::move(university).value());
  }
  schemas.emplace_back("chain-12x3", GenerateChainSchema(ChainParams{12, 3}));
  {
    Rng rng(41);
    schemas.emplace_back("hierarchy",
                         GenerateHierarchy(&rng, HierarchyParams{}));
  }
  {
    Rng rng(42);
    schemas.emplace_back("clustered",
                         GenerateClusteredSchema(&rng, ClusteredParams{}));
  }
  for (uint64_t seed : {101, 202, 303}) {
    Rng rng(seed);
    GeneralSchemaParams params;
    params.num_relations = 2;
    schemas.emplace_back(StrCat("general-", seed),
                         RandomGeneralSchema(&rng, params));
  }
  DenseBlowupParams blowup;
  blowup.chaff_classes = 10;
  schemas.emplace_back("dense-blowup-10", GenerateDenseBlowupSchema(blowup));
  return schemas;
}

ExpansionOptions PinnedOptions(int threads) {
  ExpansionOptions options;
  options.num_threads = threads;
  return options;
}

/// Looks up the pinned digest of `name`; a missing entry fails the test
/// and prints the value to pin.
void ExpectPinned(const std::map<std::string, std::string>& pinned,
                  const std::string& name, int threads,
                  const std::string& actual) {
  auto it = pinned.find(name);
  ASSERT_NE(it, pinned.end()) << "unpinned: {\"" << name << "\", \""
                              << actual << "\"}";
  EXPECT_EQ(it->second, actual) << name << " threads=" << threads;
}

TEST(ExpansionPinTest, BuildExpansionMatchesPinnedDigests) {
  const std::map<std::string, std::string> pinned = {
      {"figure2", "9b27f24943a329da"},
      {"university", "9f411ac5defa4dfc"},
      {"chain-12x3", "3dc47658c7076e24"},
      {"hierarchy", "d864dcb15b481682"},
      {"clustered", "f8d6ceea6c3aed34"},
      {"general-101", "6b79eab5a092f0a"},
      {"general-202", "acbcc97c9f8426a"},
      {"general-303", "ccd0311002c8a04c"},
      {"dense-blowup-10", "99bb49c9764fedc0"},
  };
  for (const auto& [name, schema] : PinnedSchemas()) {
    for (int threads : {1, 8}) {
      Result<Expansion> expansion =
          BuildExpansion(schema, PinnedOptions(threads));
      ASSERT_TRUE(expansion.ok()) << name << ": " << expansion.status();
      ExpectPinned(pinned, name, threads, DigestOf(*expansion));
    }
  }
}

TEST(ExpansionPinTest, AssembleExpansionMatchesPinnedDigests) {
  // AssembleExpansion over the built compounds, and the delta of the
  // odd-indexed compounds over the expansion assembled from the even
  // ones: new compounds interleave with the base, as in a lazy run.
  const std::map<std::string, std::string> pinned = {
      {"figure2", "655c2beed64a4490"},
      {"figure2/split", "404a5222605aab78"},
      {"university", "e560708f9d5e9136"},
      {"university/split", "cf7c1ac83bf51732"},
      {"chain-12x3", "633cad43e354f57e"},
      {"chain-12x3/split", "30d0a0bf9f6413ec"},
      {"hierarchy", "c8114d420a3cb892"},
      {"hierarchy/split", "f849167ed213818c"},
      {"clustered", "8d3f4235918922a0"},
      {"clustered/split", "6507e38b17f726a1"},
      {"general-101", "a81af1baa213dee8"},
      {"general-101/split", "111506a0a582abaa"},
      {"general-202", "93b1c8801871e560"},
      {"general-202/split", "6ba07d9ad2febe4"},
      {"general-303", "b5ff31bea05f0523"},
      {"general-303/split", "f86562536451426c"},
      {"dense-blowup-10", "5214e2d79cd15ac9"},
      {"dense-blowup-10/split", "70cf0fe79648719b"},
  };
  for (const auto& [name, schema] : PinnedSchemas()) {
    Result<Expansion> built = BuildExpansion(schema, PinnedOptions(1));
    ASSERT_TRUE(built.ok()) << name << ": " << built.status();
    const std::vector<CompoundClass> compounds(
        built->compound_classes.begin() + 1, built->compound_classes.end());
    std::vector<CompoundClass> even;
    std::vector<CompoundClass> odd;
    for (size_t i = 0; i < compounds.size(); ++i) {
      (i % 2 == 0 ? even : odd).push_back(compounds[i]);
    }
    for (int threads : {1, 8}) {
      const ExpansionOptions options = PinnedOptions(threads);
      Result<Expansion> assembled =
          AssembleExpansion(schema, compounds, options);
      ASSERT_TRUE(assembled.ok()) << name << ": " << assembled.status();
      ExpectPinned(pinned, name, threads, DigestOf(*assembled));

      Result<Expansion> base = AssembleExpansion(schema, even, options);
      ASSERT_TRUE(base.ok()) << name << ": " << base.status();
      ExpansionDelta delta;
      delta.new_compound_classes = odd;
      Status status = PopulateDeltaExtensions(schema, *base, options, &delta);
      ASSERT_TRUE(status.ok()) << name << ": " << status;
      Digest d;
      AddExpansion(*base, &d);
      AddDelta(delta, &d);
      ExpectPinned(pinned, name + "/split", threads, d.Hex());
    }
  }
}

TEST(ExpansionPinTest, ExtendExpansionMatchesPinnedDigests) {
  // The aux-class probes of a generated query batch, as the reasoner's
  // implication reduction builds them. The oracle answers "unsatisfiable"
  // so every clause of an isa query is probed.
  const std::map<std::string, std::string> pinned = {
      {"figure2", "a165e7a6b8b6a07c"},
      {"university", "eaa8d11b82c1af75"},
      {"chain-12x3", "e24a127dad290445"},
      {"hierarchy", "2298bf997ed9389c"},
      {"clustered", "6b5806456e7e85d1"},
      {"general-101", "8fa244d565e6daf2"},
      {"general-202", "b5799df9b524c1ab"},
      {"general-303", "17829974c034cba7"},
      {"dense-blowup-10", "a2cabec0559ef4c6"},
  };
  for (const auto& [name, schema] : PinnedSchemas()) {
    Rng rng(7);
    std::vector<ImplicationQuery> queries =
        GenerateImplicationBatch(schema, &rng, 6);
    if (name == "dense-blowup-10") {
      // The generated probes tie the chaff and core clusters together, a
      // minute of derivation each; probe inside each cluster instead.
      queries.clear();
      for (const auto& [sub, super] :
           {std::pair{"D1", "D0"}, std::pair{"E1", "E0"}}) {
        ImplicationQuery query;
        query.class_id = schema.LookupClass(sub);
        query.formula = ClassFormula::OfClass(schema.LookupClass(super));
        queries.push_back(query);
      }
    }
    for (int threads : {1, 8}) {
      const ExpansionOptions options = PinnedOptions(threads);
      Result<Expansion> base = BuildExpansion(schema, options);
      ASSERT_TRUE(base.ok()) << name << ": " << base.status();
      Result<ExpansionBaseAnalysis> analysis =
          AnalyzeBaseExpansion(schema, *base, options);
      ASSERT_TRUE(analysis.ok()) << name << ": " << analysis.status();
      Digest d;
      for (const auto& [classes, cluster] : analysis->cluster_by_classes) {
        d.AddInts(classes);
        d.AddInts(analysis->cluster_compounds[cluster]);
      }
      const AuxSatisfiableFn probe =
          [&](const Schema& extended, ClassId aux) -> Result<bool> {
        Result<ExpansionDelta> delta = ExtendExpansionWithAuxClass(
            extended, aux, *base, *analysis, options);
        d.Add(static_cast<uint64_t>(delta.status().code()));
        if (delta.ok()) AddDelta(*delta, &d);
        return false;
      };
      for (const ImplicationQuery& query : queries) {
        ASSERT_TRUE(DecideImplication(schema, query, probe).ok()) << name;
      }
      ExpectPinned(pinned, name, threads, d.Hex());
    }
  }
}

TEST(ExpansionPinTest, LazyStreamsMatchPinnedDigests) {
  // The delivery order of every class's stream, in batches of 7, for up
  // to ten batches (the dense chaff streams run to 2^9 compounds).
  const std::map<std::string, std::string> pinned = {
      {"figure2", "4e54b3aa74b7c600"},
      {"university", "d061de226a457a01"},
      {"chain-12x3", "a3adc110e09f8ec8"},
      {"hierarchy", "e2e33d5bd4302ecf"},
      {"clustered", "2f301f1d54c47725"},
      {"general-101", "352c6805eb62d9d1"},
      {"general-202", "2f5f250db72f2de4"},
      {"general-303", "ef0f714c3f1a4de2"},
      {"dense-blowup-10", "d115a746240c7fe5"},
  };
  for (const auto& [name, schema] : PinnedSchemas()) {
    const ExpansionOptions options = PinnedOptions(1);
    const ExpansionPreamble preamble = BuildExpansionPreamble(schema, options);
    Digest d;
    for (ClassId pinned_class = 0; pinned_class < schema.num_classes();
         ++pinned_class) {
      const std::vector<ClassId>& cluster =
          preamble.partition
              .clusters[preamble.partition.cluster_of[pinned_class]];
      LazyCompoundStream stream(schema, preamble.tables, cluster,
                                pinned_class);
      for (int batch = 0; batch < 10 && !stream.exhausted(); ++batch) {
        ASSERT_TRUE(stream
                        .Advance(7, nullptr,
                                 [&](const CompoundClass& compound) {
                                   d.AddInts(compound.members());
                                 })
                        .ok());
      }
      d.Add(stream.delivered());
      d.Add(stream.exhausted());
    }
    ExpectPinned(pinned, name, 1, d.Hex());
  }
}

}  // namespace
}  // namespace car
