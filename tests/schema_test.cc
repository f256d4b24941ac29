#include "model/schema.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

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

/// The base of every Validate case: class C (id 0) and D (id 1),
/// attribute a, roles u (id 0) and v (id 1), and relation R over u with
/// no constraints. It validates; each case breaks one thing.
struct ValidateFixture {
  Schema schema;
  ClassId c, d;
  AttributeId a;
  RoleId u, v;
  RelationId r;

  ValidateFixture() {
    c = schema.InternClass("C");
    d = schema.InternClass("D");
    a = schema.InternAttribute("a");
    u = schema.InternRole("u");
    v = schema.InternRole("v");
    r = schema.InternRelation("R");
  }
  ClassDefinition* Class() { return schema.mutable_class_definition(c); }
  AttributeSpec Spec(AttributeTerm term, ClassFormula range) const {
    AttributeSpec spec;
    spec.term = term;
    spec.range = std::move(range);
    return spec;
  }
  ParticipationSpec Part(RelationId relation, RoleId role) const {
    ParticipationSpec spec;
    spec.relation = relation;
    spec.role = role;
    return spec;
  }
  RoleLiteral Lit(RoleId role, ClassFormula formula) const {
    RoleLiteral literal;
    literal.role = role;
    literal.formula = std::move(formula);
    return literal;
  }
  /// Defines R over `roles` with `constraints`.
  void DefineR(std::vector<RoleId> roles,
               std::vector<RoleClause> constraints = {}) {
    RelationDefinition definition;
    definition.relation_id = r;
    definition.roles = std::move(roles);
    definition.constraints = std::move(constraints);
    CAR_CHECK(schema.SetRelationDefinition(std::move(definition)).ok());
  }
};

const char kEmptyClauseTail[] =
    " (an empty disjunction is unsatisfiable by fiat; write an explicit "
    "contradiction instead)";

TEST(SchemaValidateTest, EveryErrorBranchKeepsItsCodeAndMessage) {
  struct Case {
    const char* name;
    std::function<void(ValidateFixture*)> mutate;
    StatusCode code;
    std::string message;
  };
  const ClassFormula empty_clause({ClassClause()});
  const std::vector<Case> cases = {
      {"valid", [](ValidateFixture* f) { f->DefineR({f->u}); },
       StatusCode::kOk, ""},
      {"empty isa clause",
       [&](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->isa = empty_clause;
       },
       StatusCode::kInvalidArgument,
       StrCat("empty class-clause in isa of class C", kEmptyClauseTail)},
      {"isa class out of range",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->isa = ClassFormula::OfNegatedClass(5);
       },
       StatusCode::kNotFound, "class id 5 out of range in isa of class C"},
      {"isa class negative",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->isa = ClassFormula::OfClass(-1);
       },
       StatusCode::kNotFound, "class id -1 out of range in isa of class C"},
      {"empty range clause",
       [&](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Inverse(f->a), empty_clause));
       },
       StatusCode::kInvalidArgument,
       StrCat("empty class-clause in range of attribute a in class C",
              kEmptyClauseTail)},
      {"range class out of range",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->attributes.push_back(f->Spec(
             AttributeTerm::Direct(f->a), ClassFormula::OfClass(9)));
       },
       StatusCode::kNotFound,
       "class id 9 out of range in range of attribute a in class C"},
      {"attribute id out of range",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Direct(3), ClassFormula::True()));
       },
       StatusCode::kNotFound, "attribute id 3 out of range in class C"},
      {"attribute id negative",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Inverse(-2), ClassFormula::True()));
       },
       StatusCode::kNotFound, "attribute id -2 out of range in class C"},
      {"repeated attribute term",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Direct(f->a), ClassFormula::True()));
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Inverse(f->a), ClassFormula::True()));
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Direct(f->a), ClassFormula::True()));
       },
       StatusCode::kInvalidArgument,
       "attribute term 'a' appears twice in class C"},
      {"repeated inverse attribute term",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Inverse(f->a), ClassFormula::True()));
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Inverse(f->a), ClassFormula::True()));
       },
       StatusCode::kInvalidArgument,
       "attribute term 'inv a' appears twice in class C"},
      {"bad range reported before a later repeated term",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->attributes.push_back(f->Spec(
             AttributeTerm::Direct(f->a), ClassFormula::OfClass(7)));
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Direct(f->a), ClassFormula::True()));
       },
       StatusCode::kNotFound,
       "class id 7 out of range in range of attribute a in class C"},
      {"repeated term reported before its own bad range",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->attributes.push_back(
             f->Spec(AttributeTerm::Direct(f->a), ClassFormula::True()));
         f->Class()->attributes.push_back(f->Spec(
             AttributeTerm::Direct(f->a), ClassFormula::OfClass(7)));
       },
       StatusCode::kInvalidArgument,
       "attribute term 'a' appears twice in class C"},
      {"participation relation out of range",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->participations.push_back(f->Part(4, f->u));
       },
       StatusCode::kNotFound,
       "relation id 4 out of range (participation in class C)"},
      {"participation in an undefined relation",
       [](ValidateFixture* f) {
         f->schema.mutable_class_definition(f->d)->participations.push_back(
             f->Part(f->r, f->u));
       },
       StatusCode::kFailedPrecondition,
       "relation 'R' is never defined (participation in class D)"},
      {"participation role out of range",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->participations.push_back(f->Part(f->r, 9));
       },
       StatusCode::kNotFound,
       "role id 9 out of range (participation in class C)"},
      {"participation role of another relation",
       [](ValidateFixture* f) {
         f->DefineR({f->u});
         f->Class()->participations.push_back(f->Part(f->r, f->v));
       },
       StatusCode::kNotFound,
       "role 'v' is not a role of relation 'R' (participation in class C)"},
      {"repeated participation",
       [](ValidateFixture* f) {
         f->DefineR({f->u, f->v});
         f->Class()->participations.push_back(f->Part(f->r, f->u));
         f->Class()->participations.push_back(f->Part(f->r, f->v));
         f->Class()->participations.push_back(f->Part(f->r, f->u));
       },
       StatusCode::kInvalidArgument,
       "participation R[u] appears twice in class C"},
      {"class errors come before relation errors",
       [](ValidateFixture* f) {
         f->schema.mutable_class_definition(f->d)->isa =
             ClassFormula::OfClass(6);
       },
       StatusCode::kNotFound, "class id 6 out of range in isa of class D"},
      {"undefined relation",
       [](ValidateFixture*) {},
       StatusCode::kFailedPrecondition, "relation 'R' is never defined"},
      {"relation without roles",
       [](ValidateFixture* f) { f->DefineR({}); },
       StatusCode::kInvalidArgument, "relation 'R' has no roles"},
      {"relation role out of range",
       [](ValidateFixture* f) { f->DefineR({f->u, 5}); },
       StatusCode::kNotFound, "role id 5 out of range in relation R"},
      {"relation role repeated",
       [](ValidateFixture* f) { f->DefineR({f->v, f->u, f->v}); },
       StatusCode::kInvalidArgument, "role 'v' appears twice in relation R"},
      {"empty role-clause",
       [](ValidateFixture* f) { f->DefineR({f->u}, {RoleClause{}}); },
       StatusCode::kInvalidArgument, "empty role-clause in relation R"},
      {"role-clause role out of range",
       [](ValidateFixture* f) {
         f->DefineR({f->u}, {RoleClause{{f->Lit(8, ClassFormula::True())}}});
       },
       StatusCode::kNotFound,
       "role-clause of relation R mentions role id 8 out of range"},
      {"role-clause role not the relation's",
       [](ValidateFixture* f) {
         f->DefineR({f->u},
                    {RoleClause{{f->Lit(f->v, ClassFormula::True())}}});
       },
       StatusCode::kNotFound,
       "role-clause of relation R mentions role 'v' which is not a role of "
       "the relation"},
      {"role repeated in one role-clause",
       [](ValidateFixture* f) {
         f->DefineR({f->u, f->v},
                    {RoleClause{{f->Lit(f->u, ClassFormula::True()),
                                 f->Lit(f->v, ClassFormula::True()),
                                 f->Lit(f->u, ClassFormula::True())}}});
       },
       StatusCode::kInvalidArgument,
       "role 'u' appears twice in one role-clause of relation R"},
      {"same role in two role-clauses is fine",
       [](ValidateFixture* f) {
         f->DefineR({f->u, f->v},
                    {RoleClause{{f->Lit(f->u, ClassFormula::True())}},
                     RoleClause{{f->Lit(f->u, ClassFormula::True())}}});
       },
       StatusCode::kOk, ""},
      {"empty clause in a role-clause formula",
       [&](ValidateFixture* f) {
         f->DefineR({f->u}, {RoleClause{{f->Lit(f->u, empty_clause)}}});
       },
       StatusCode::kInvalidArgument,
       StrCat("empty class-clause in role-clause of relation R",
              kEmptyClauseTail)},
      {"role-clause formula class out of range",
       [](ValidateFixture* f) {
         f->DefineR({f->u}, {RoleClause{{f->Lit(
                                f->u, ClassFormula::OfNegatedClass(2))}}});
       },
       StatusCode::kNotFound,
       "class id 2 out of range in role-clause of relation R"},
  };
  for (const Case& test_case : cases) {
    ValidateFixture fixture;
    test_case.mutate(&fixture);
    Status status = fixture.schema.Validate();
    EXPECT_EQ(status.code(), test_case.code) << test_case.name;
    EXPECT_EQ(status.message(), test_case.message) << test_case.name;
  }
}

}  // namespace
}  // namespace car
