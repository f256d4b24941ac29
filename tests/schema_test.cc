#include "model/schema.h"

#include <gtest/gtest.h>

#include <string>

#include "base/strings.h"
#include "model/builder.h"
#include "test_schemas.h"

namespace car {
namespace {

TEST(SchemaTest, InterningIsIdempotent) {
  Schema schema;
  ClassId a = schema.InternClass("A");
  ClassId a_again = schema.InternClass("A");
  EXPECT_EQ(a, a_again);
  EXPECT_EQ(schema.num_classes(), 1);
  EXPECT_EQ(schema.ClassName(a), "A");
  EXPECT_EQ(schema.LookupClass("A"), a);
  EXPECT_EQ(schema.LookupClass("B"), kInvalidId);
}

TEST(SchemaTest, SymbolCategoriesAreIndependent) {
  Schema schema;
  ClassId c = schema.InternClass("X");
  AttributeId a = schema.InternAttribute("X");
  RelationId r = schema.InternRelation("X");
  RoleId u = schema.InternRole("X");
  EXPECT_EQ(c, 0);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(r, 0);
  EXPECT_EQ(u, 0);
  EXPECT_EQ(schema.num_classes(), 1);
  EXPECT_EQ(schema.num_attributes(), 1);
}

TEST(SchemaTest, FreshClassHasEmptyDefinition) {
  Schema schema;
  ClassId c = schema.InternClass("Fresh");
  const ClassDefinition& definition = schema.class_definition(c);
  EXPECT_TRUE(definition.isa.IsTriviallyTrue());
  EXPECT_TRUE(definition.attributes.empty());
  EXPECT_TRUE(definition.participations.empty());
}

TEST(SchemaTest, DuplicateRelationDefinitionRejected) {
  Schema schema;
  RelationId r = schema.InternRelation("R");
  RoleId u = schema.InternRole("u");
  RelationDefinition definition;
  definition.relation_id = r;
  definition.roles = {u};
  EXPECT_TRUE(schema.SetRelationDefinition(definition).ok());
  Status again = schema.SetRelationDefinition(definition);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ValidateCatchesUndefinedRelation) {
  Schema schema;
  schema.InternRelation("R");
  Status status = schema.Validate();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SchemaTest, ValidateCatchesDuplicateAttributeTerm) {
  Schema schema;
  ClassId c = schema.InternClass("C");
  AttributeId a = schema.InternAttribute("a");
  AttributeSpec spec;
  spec.term = AttributeTerm::Direct(a);
  schema.mutable_class_definition(c)->attributes.push_back(spec);
  schema.mutable_class_definition(c)->attributes.push_back(spec);
  EXPECT_EQ(schema.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, DirectAndInverseOfSameAttributeMayCoexist) {
  Schema schema;
  ClassId c = schema.InternClass("C");
  AttributeId a = schema.InternAttribute("a");
  AttributeSpec direct;
  direct.term = AttributeTerm::Direct(a);
  AttributeSpec inverse;
  inverse.term = AttributeTerm::Inverse(a);
  schema.mutable_class_definition(c)->attributes.push_back(direct);
  schema.mutable_class_definition(c)->attributes.push_back(inverse);
  EXPECT_TRUE(schema.Validate().ok());
}

TEST(SchemaTest, ValidateCatchesForeignRoleInParticipation) {
  SchemaBuilder builder;
  builder.BeginRelation("R", {"u"}).EndRelation();
  builder.BeginClass("C").Participates("R", "v", 0, 1).EndClass();
  auto schema = std::move(builder).Build();
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ValidateReportsOutOfRangeRoleIdsInsteadOfAborting) {
  // Hand-built definitions can carry a role id outside the role table;
  // the error names the id rather than looking up a name it lacks.
  {
    Schema schema;
    ClassId c = schema.InternClass("C");
    RelationId r = schema.InternRelation("R");
    RelationDefinition definition;
    definition.relation_id = r;
    definition.roles = {schema.InternRole("u")};
    ASSERT_TRUE(schema.SetRelationDefinition(definition).ok());
    ParticipationSpec spec;
    spec.relation = r;
    spec.role = schema.num_roles() + 7;
    schema.mutable_class_definition(c)->participations.push_back(spec);
    Status status = schema.Validate();
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
    EXPECT_NE(status.message().find(StrCat("role id ", spec.role)),
              std::string::npos)
        << status;
  }
  {
    Schema schema;
    RelationId r = schema.InternRelation("R");
    RelationDefinition definition;
    definition.relation_id = r;
    definition.roles = {schema.InternRole("u")};
    RoleLiteral literal;
    literal.role = schema.num_roles() + 7;
    literal.formula = ClassFormula::OfClass(schema.InternClass("C"));
    definition.constraints.push_back(RoleClause{{literal}});
    ASSERT_TRUE(schema.SetRelationDefinition(definition).ok());
    Status status = schema.Validate();
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
    EXPECT_NE(status.message().find(StrCat("role id ", literal.role)),
              std::string::npos)
        << status;
  }
}

TEST(SchemaTest, ValidateCatchesDuplicateRoleInRelation) {
  Schema schema;
  RelationId r = schema.InternRelation("R");
  RoleId u = schema.InternRole("u");
  RelationDefinition definition;
  definition.relation_id = r;
  definition.roles = {u, u};
  EXPECT_TRUE(schema.SetRelationDefinition(definition).ok());
  EXPECT_EQ(schema.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, UnionFreeAndNegationFreePredicates) {
  Schema figure2 = testing_schemas::Figure2();
  EXPECT_FALSE(figure2.IsUnionFree());     // taught_by range is a union.
  EXPECT_FALSE(figure2.IsNegationFree());  // Student isa ¬Professor.

  Schema figure1 = testing_schemas::Figure1();
  EXPECT_TRUE(figure1.IsUnionFree());
  EXPECT_TRUE(figure1.IsNegationFree());
}

TEST(SchemaTest, MaxArity) {
  Schema figure2 = testing_schemas::Figure2();
  EXPECT_EQ(figure2.MaxArity(), 3);  // Exam(of, by, in).
  Schema figure1 = testing_schemas::Figure1();
  EXPECT_EQ(figure1.MaxArity(), 0);
}

TEST(SchemaBuilderTest, Figure2Validates) {
  Schema schema = testing_schemas::Figure2();
  EXPECT_TRUE(schema.Validate().ok());
  EXPECT_EQ(schema.num_relations(), 2);
  EXPECT_NE(schema.LookupClass("Grad_Student"), kInvalidId);
  EXPECT_NE(schema.LookupAttribute("taught_by"), kInvalidId);
  EXPECT_NE(schema.LookupRole("enrolled_in"), kInvalidId);
}

TEST(SchemaBuilderTest, MinAboveMaxRejected) {
  SchemaBuilder builder;
  builder.BeginClass("C").Attribute("a", 3, 1, {{"D"}}).EndClass();
  auto schema = std::move(builder).Build();
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaBuilderTest, MismatchedEndsRejected) {
  SchemaBuilder builder;
  builder.EndClass();
  auto schema = std::move(builder).Build();
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SchemaBuilderTest, OpenDefinitionAtBuildRejected) {
  SchemaBuilder builder;
  builder.BeginClass("C");
  auto schema = std::move(builder).Build();
  ASSERT_FALSE(schema.ok());
}

TEST(SchemaBuilderTest, NegatedLiteralParsing) {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"!B", "C"}}).EndClass();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  const ClassDefinition& definition =
      schema->class_definition(schema->LookupClass("A"));
  ASSERT_EQ(definition.isa.clauses().size(), 1u);
  const auto& literals = definition.isa.clauses()[0].literals();
  ASSERT_EQ(literals.size(), 2u);
  EXPECT_TRUE(literals[0].negated);
  EXPECT_EQ(literals[0].class_id, schema->LookupClass("B"));
  EXPECT_FALSE(literals[1].negated);
}

TEST(FormulaTest, RealizabilityHelpers) {
  ClassFormula formula;
  EXPECT_TRUE(formula.IsTriviallyTrue());
  formula.AddClause(ClassClause({ClassLiteral::Positive(0),
                                 ClassLiteral::Negative(1)}));
  EXPECT_FALSE(formula.IsTriviallyTrue());
  EXPECT_FALSE(formula.IsUnionFree());
  EXPECT_FALSE(formula.IsNegationFree());
  auto mentioned = formula.MentionedClasses();
  EXPECT_EQ(mentioned.size(), 2u);
}

TEST(CardinalityTest, IntersectIsUmaxVmin) {
  Cardinality a(1, 6);
  Cardinality b(2, 3);
  Cardinality merged = Cardinality::IntersectUnchecked(a, b);
  EXPECT_EQ(merged.min(), 2u);
  EXPECT_EQ(merged.max(), 3u);
  EXPECT_FALSE(merged.IsEmpty());

  Cardinality empty = Cardinality::IntersectUnchecked(Cardinality(5, 10),
                                                      Cardinality(0, 2));
  EXPECT_TRUE(empty.IsEmpty());

  Cardinality with_infinity = Cardinality::IntersectUnchecked(
      Cardinality::AtLeast(3), Cardinality::AtMost(7));
  EXPECT_EQ(with_infinity.min(), 3u);
  EXPECT_EQ(with_infinity.max(), 7u);
}

TEST(CardinalityTest, ToStringRendersInfinity) {
  EXPECT_EQ(Cardinality(1, 2).ToString(), "(1, 2)");
  EXPECT_EQ(Cardinality::AtLeast(1).ToString(), "(1, *)");
}

}  // namespace
}  // namespace car
