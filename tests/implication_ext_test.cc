// Tests of the global typing implications and implied-cardinality
// inference (the "computing the logical consequences of the knowledge
// represented in the schema" side of the paper's Section 3).

#include <gtest/gtest.h>

#include "model/builder.h"
#include "reasoner/reasoner.h"
#include "test_schemas.h"

namespace car {
namespace {

class Figure2ImplicationTest : public ::testing::Test {
 protected:
  Figure2ImplicationTest()
      : schema_(testing_schemas::Figure2()), reasoner_(&schema_) {}

  ClassFormula Of(const char* name) {
    return ClassFormula::OfClass(schema_.LookupClass(name));
  }

  Schema schema_;
  Reasoner reasoner_;
};

TEST_F(Figure2ImplicationTest, ExplicitRoleTypings) {
  RelationId enrollment = schema_.LookupRelation("Enrollment");
  RoleId enrolls = schema_.LookupRole("enrolls");
  RoleId enrolled_in = schema_.LookupRole("enrolled_in");

  EXPECT_TRUE(
      reasoner_.ImpliesRoleTyping(enrollment, enrolls, Of("Student"))
          .value());
  EXPECT_TRUE(
      reasoner_.ImpliesRoleTyping(enrollment, enrolled_in, Of("Course"))
          .value());
  EXPECT_FALSE(
      reasoner_.ImpliesRoleTyping(enrollment, enrolls, Of("Grad_Student"))
          .value());
}

TEST_F(Figure2ImplicationTest, InheritedRoleTypings) {
  // (by : Professor) plus Professor ⊑ Person entails (by : Person) — a
  // typing nowhere stated in the schema.
  RelationId exam = schema_.LookupRelation("Exam");
  RoleId by = schema_.LookupRole("by");
  EXPECT_TRUE(reasoner_.ImpliesRoleTyping(exam, by, Of("Person")).value());
  EXPECT_TRUE(
      reasoner_.ImpliesRoleTyping(exam, by, Of("Professor")).value());
  // Professors are implied disjoint from students, so (by : Student)
  // must fail.
  EXPECT_FALSE(
      reasoner_.ImpliesRoleTyping(exam, by, Of("Student")).value());
}

TEST_F(Figure2ImplicationTest, RoleTypingErrors) {
  EXPECT_FALSE(reasoner_
                   .ImpliesRoleTyping(RelationId{77},
                                      schema_.LookupRole("by"),
                                      Of("Person"))
                   .ok());
  EXPECT_FALSE(reasoner_
                   .ImpliesRoleTyping(schema_.LookupRelation("Exam"),
                                      schema_.LookupRole("enrolls"),
                                      Of("Person"))
                   .ok());
}

TEST_F(Figure2ImplicationTest, RoleTypingRejectsOutOfRangeRoleId) {
  // An id beyond the role table is NotFound, not a lookup that aborts.
  Result<bool> typing = reasoner_.ImpliesRoleTyping(
      schema_.LookupRelation("Exam"), schema_.num_roles() + 7, Of("Person"));
  ASSERT_FALSE(typing.ok());
  EXPECT_EQ(typing.status().code(), StatusCode::kNotFound);
}

TEST_F(Figure2ImplicationTest, ImpliedCardinalityBounds) {
  AttributeId taught_by = schema_.LookupAttribute("taught_by");

  auto adv = reasoner_.ImpliedCardinalityBounds(
      schema_.LookupClass("Adv_Course"), AttributeTerm::Direct(taught_by));
  ASSERT_TRUE(adv.ok());
  EXPECT_EQ(adv.value(), Cardinality::Exactly(1));

  auto professor = reasoner_.ImpliedCardinalityBounds(
      schema_.LookupClass("Professor"), AttributeTerm::Inverse(taught_by));
  ASSERT_TRUE(professor.ok());
  EXPECT_EQ(professor.value(), Cardinality(1, 2));

  auto grad = reasoner_.ImpliedCardinalityBounds(
      schema_.LookupClass("Grad_Student"),
      AttributeTerm::Inverse(taught_by));
  ASSERT_TRUE(grad.ok());
  EXPECT_EQ(grad.value(), Cardinality(0, 1));

  // Person has no taught_by constraint at all.
  auto person = reasoner_.ImpliedCardinalityBounds(
      schema_.LookupClass("Person"), AttributeTerm::Direct(taught_by));
  ASSERT_TRUE(person.ok());
  EXPECT_EQ(person.value(), Cardinality::Unbounded());
}

TEST(ImplicationExtTest, UnsatisfiableClassNormalizedToZero) {
  SchemaBuilder builder;
  builder.BeginClass("Dead")
      .Isa({{"X"}, {"!X"}})
      .Attribute("f", 2, 5, {{"X"}})
      .EndClass();
  builder.DeclareClass("X");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  Reasoner reasoner(&*schema);
  auto bounds = reasoner.ImpliedCardinalityBounds(
      schema->LookupClass("Dead"),
      AttributeTerm::Direct(schema->LookupAttribute("f")));
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(bounds.value(), Cardinality::Exactly(0));
}

TEST(ImplicationExtTest, CardinalityTightenedByFiniteness) {
  // child : (2, *) into C with in-degree at most 2 forces, over finite
  // states, out-degree exactly 2: the implied upper bound is nowhere in
  // the schema text.
  SchemaBuilder builder;
  builder.BeginClass("C")
      .Attribute("child", 2, SchemaBuilder::kUnbounded, {{"C"}})
      .InverseAttribute("child", 0, 2, {{"C"}})
      .EndClass();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  Reasoner reasoner(&*schema);
  ClassId c = schema->LookupClass("C");
  ASSERT_TRUE(reasoner.IsClassSatisfiable(c).value());
  auto bounds = reasoner.ImpliedCardinalityBounds(
      c, AttributeTerm::Direct(schema->LookupAttribute("child")));
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(bounds.value(), Cardinality::Exactly(2));
}

TEST(ImplicationExtTest, AttributeRangeWithFreePairs) {
  // f is range-typed T from A, but models may also contain f-pairs
  // between unconstrained objects — so {{T}} is NOT an implied global
  // range, while excluding an unsatisfiable class is.
  SchemaBuilder builder;
  builder.BeginClass("A").Attribute("f", 1, 2, {{"T"}}).EndClass();
  builder.DeclareClass("T");
  builder.BeginClass("Dead").Isa({{"T"}, {"!T"}}).EndClass();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  Reasoner reasoner(&*schema);
  AttributeTerm f = AttributeTerm::Direct(schema->LookupAttribute("f"));

  EXPECT_FALSE(reasoner
                   .ImpliesAttributeRange(
                       f, ClassFormula::OfClass(schema->LookupClass("T")))
                   .value());
  EXPECT_TRUE(reasoner
                  .ImpliesAttributeRange(
                      f, ClassFormula::OfNegatedClass(
                             schema->LookupClass("Dead")))
                  .value());
}

TEST(ImplicationExtTest, AttributeRangeForcedByInverseInteraction) {
  // Every object of class T *requires* an incoming f-edge, and T is the
  // only class with an (inv f) spec; sources landing in T must satisfy
  // T's source typing. Check the inverse-term query: the implied global
  // domain of f-edges *into* T-compounds is A... expressed as: the
  // (inv f)-successors (i.e. f-sources) always realize A ∨ ¬T-membership
  // is not expressible globally, so instead verify the negative case
  // stays consistent.
  SchemaBuilder builder;
  builder.BeginClass("A").Attribute("f", 1, 1, {{"T"}}).EndClass();
  builder.BeginClass("T").InverseAttribute("f", 1, 1, {{"A"}}).EndClass();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  Reasoner reasoner(&*schema);
  AttributeTerm inv_f = AttributeTerm::Inverse(schema->LookupAttribute("f"));
  // Free pairs among classless objects keep the global claim false.
  EXPECT_FALSE(reasoner
                   .ImpliesAttributeRange(
                       inv_f, ClassFormula::OfClass(schema->LookupClass("A")))
                   .value());
}

TEST(ImplicationExtTest, RoleTypingWithUnconstrainedRelation) {
  // R has a role clause on u but no participation constraint anywhere:
  // its tuples are free, yet still subject to role clauses.
  SchemaBuilder builder;
  builder.DeclareClass("D");
  builder.DeclareClass("E");
  builder.BeginRelation("R", {"u", "v"})
      .Constraint({{"u", {{"D"}}}})
      .EndRelation();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  Reasoner reasoner(&*schema);
  RelationId r = schema->LookupRelation("R");
  EXPECT_TRUE(reasoner
                  .ImpliesRoleTyping(r, schema->LookupRole("u"),
                                     ClassFormula::OfClass(
                                         schema->LookupClass("D")))
                  .value());
  // v is untyped: its component can be any object, including classless
  // ones.
  EXPECT_FALSE(reasoner
                   .ImpliesRoleTyping(r, schema->LookupRole("v"),
                                      ClassFormula::OfClass(
                                          schema->LookupClass("E")))
                   .value());
}

TEST(ImplicationExtTest, RoleTypingBlockedByCounting) {
  // Tuples of R would need their u-component in class C, but C's own
  // counting constraints make C empty; the only active shapes for R are
  // then none at all (its lower-bound participant dies too), so every
  // typing holds vacuously... except tuples are also free for compounds
  // realizing the clause — which no active compound does. Hence even a
  // contradictory typing like (u : Dead) is implied.
  SchemaBuilder builder;
  builder.BeginClass("C")
      .Attribute("self", 2, 2, {{"C"}})
      .InverseAttribute("self", 0, 1, {{"C"}})
      .Participates("R", "u", 1, 2)
      .EndClass();
  builder.BeginRelation("R", {"u"}).Constraint({{"u", {{"C"}}}}).EndRelation();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  Reasoner reasoner(&*schema);
  ASSERT_FALSE(reasoner.IsClassSatisfiable("C").value());
  EXPECT_TRUE(reasoner
                  .ImpliesRoleTyping(schema->LookupRelation("R"),
                                     schema->LookupRole("u"),
                                     ClassFormula::OfNegatedClass(
                                         schema->LookupClass("C")))
                  .value());
}

}  // namespace
}  // namespace car
