// Dedicated coverage of the preselection machinery of Section 4.3.

#include <gtest/gtest.h>

#include "analysis/clusters.h"
#include "analysis/pair_tables.h"
#include "model/builder.h"
#include "test_schemas.h"

namespace car {
namespace {

TEST(PairTablesTest, EmptySchema) {
  Schema schema;
  PairTables tables = BuildPairTables(schema);
  EXPECT_EQ(tables.num_disjoint_pairs(), 0u);
  EXPECT_EQ(tables.num_inclusion_pairs(), 0u);
}

TEST(PairTablesTest, ReflexiveInclusionIgnored) {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"A"}}).EndClass();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  PairTables tables = BuildPairTables(*schema);
  EXPECT_EQ(tables.num_inclusion_pairs(), 0u);
}

TEST(PairTablesTest, MultiLiteralClausesAreNotTableEntries) {
  // A isa B | C: neither inclusion nor disjointness is a consequence of
  // the clause alone, so criterion (a) must record nothing.
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B", "C"}}).EndClass();
  builder.DeclareClass("B");
  builder.DeclareClass("C");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  PairTables tables = BuildPairTables(*schema);
  EXPECT_EQ(tables.num_inclusion_pairs(), 0u);
  EXPECT_EQ(tables.num_disjoint_pairs(), 0u);
}

TEST(PairTablesTest, PropagationCanBeDisabled) {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B"}}).EndClass();
  builder.BeginClass("B").Isa({{"C"}}).EndClass();
  builder.DeclareClass("C");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  PairTableOptions options;
  options.propagate = false;
  PairTables tables = BuildPairTables(*schema, options);
  ClassId a = schema->LookupClass("A");
  ClassId c = schema->LookupClass("C");
  EXPECT_FALSE(tables.IsIncluded(a, c));  // Only the explicit entries.
  EXPECT_TRUE(tables.IsIncluded(a, schema->LookupClass("B")));
}

TEST(PairTablesTest, DiamondPropagation) {
  // A ⊆ B, A ⊆ C, B disjoint D, C ⊆ E: checks multiple paths interact.
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B"}, {"C"}}).EndClass();
  builder.BeginClass("B").Isa({{"!D"}}).EndClass();
  builder.BeginClass("C").Isa({{"E"}}).EndClass();
  builder.DeclareClass("D");
  builder.DeclareClass("E");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  PairTables tables = BuildPairTables(*schema);
  ClassId a = schema->LookupClass("A");
  EXPECT_TRUE(tables.IsIncluded(a, schema->LookupClass("E")));
  EXPECT_TRUE(tables.AreDisjoint(a, schema->LookupClass("D")));
}

TEST(PairTablesTest, AccessorsForUnknownTablesAreEmpty) {
  PairTables tables(3);
  EXPECT_FALSE(tables.AreDisjoint(0, 1));
  EXPECT_FALSE(tables.IsIncluded(0, 1));
  EXPECT_TRUE(tables.SuperclassesOf(0).empty());
  for (ClassId c = 0; c < 3; ++c) EXPECT_FALSE(tables.AreDisjoint(2, c));
}

TEST(ClustersTest, EmptySchemaHasNoClusters) {
  Schema schema;
  PairTables tables = BuildPairTables(schema);
  ClusterPartition partition = ComputeClusters(schema, tables);
  EXPECT_EQ(partition.num_clusters(), 0);
  EXPECT_EQ(SingleCluster(schema).num_clusters(), 0);
}

TEST(ClustersTest, SingleClusterCoversEverything) {
  Schema schema = testing_schemas::Figure2();
  ClusterPartition partition = SingleCluster(schema);
  EXPECT_EQ(partition.num_clusters(), 1);
  EXPECT_EQ(partition.clusters[0].size(),
            static_cast<size_t>(schema.num_classes()));
  EXPECT_EQ(partition.LargestClusterSize(),
            static_cast<size_t>(schema.num_classes()));
}

TEST(ClustersTest, DisjointnessRemovesArcs) {
  // A isa B and A isa !B: the disjointness entry removes the isa arc
  // between A and B; nothing else connects them.
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B"}, {"!B"}}).EndClass();
  builder.DeclareClass("B");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  PairTables tables = BuildPairTables(*schema);
  ClusterPartition partition = ComputeClusters(*schema, tables);
  EXPECT_EQ(partition.num_clusters(), 2);
}

TEST(ClustersTest, Figure2ClusterShape) {
  Schema schema = testing_schemas::Figure2();
  PairTables tables = BuildPairTables(schema);
  ClusterPartition partition = ComputeClusters(schema, tables);
  auto same = [&](const char* x, const char* y) {
    return partition.cluster_of[schema.LookupClass(x)] ==
           partition.cluster_of[schema.LookupClass(y)];
  };
  // People-side classes hang together...
  EXPECT_TRUE(same("Person", "Professor"));
  EXPECT_TRUE(same("Person", "Student"));
  EXPECT_TRUE(same("Student", "Grad_Student"));
  // ... courses together ...
  EXPECT_TRUE(same("Course", "Adv_Course"));
  // ... and nothing ever requires a person to be a course or a string.
  EXPECT_FALSE(same("Person", "Course"));
  EXPECT_FALSE(same("Person", "String"));
}

TEST(ClustersTest, ParticipationWithZeroMinCreatesNoArc) {
  // C may participate (min 0) in R[u] typed D: no model *requires* a C
  // object to be in D, so C and D may be assumed disjoint.
  SchemaBuilder builder;
  builder.BeginClass("C").Participates("R", "u", 0, 5).EndClass();
  builder.DeclareClass("D");
  builder.BeginRelation("R", {"u"}).Constraint({{"u", {{"D"}}}}).EndRelation();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  PairTables tables = BuildPairTables(*schema);
  ClusterPartition partition = ComputeClusters(*schema, tables);
  EXPECT_NE(partition.cluster_of[schema->LookupClass("C")],
            partition.cluster_of[schema->LookupClass("D")]);
}

TEST(ClustersTest, RoleClausePositivesShareClusters) {
  // Condition 3: formulas on the same role of the same relation.
  SchemaBuilder builder;
  builder.DeclareClass("D");
  builder.DeclareClass("E");
  builder.DeclareClass("F");
  builder.BeginRelation("R", {"u", "v"})
      .Constraint({{"u", {{"D"}}}})
      .Constraint({{"u", {{"E"}}}})
      .Constraint({{"v", {{"F"}}}})
      .EndRelation();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  PairTables tables = BuildPairTables(*schema);
  ClusterPartition partition = ComputeClusters(*schema, tables);
  // D and E label the same role: a tuple component may need both.
  EXPECT_EQ(partition.cluster_of[schema->LookupClass("D")],
            partition.cluster_of[schema->LookupClass("E")]);
  // F labels a different role.
  EXPECT_NE(partition.cluster_of[schema->LookupClass("D")],
            partition.cluster_of[schema->LookupClass("F")]);
}

}  // namespace
}  // namespace car
