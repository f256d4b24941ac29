#include "reasoner/reasoner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "model/builder.h"
#include "reasoner/incremental.h"
#include "reasoner/query_text.h"
#include "test_schemas.h"

namespace car {
namespace {

TEST(ReasonerTest, Figure2SchemaFullySatisfiable) {
  Schema schema = testing_schemas::Figure2();
  Reasoner reasoner(&schema);
  auto report = reasoner.CheckSchema();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->unsatisfiable_classes.empty());
  EXPECT_GT(report->num_compound_classes, 0u);
}

TEST(ReasonerTest, LookupByNameAndErrors) {
  Schema schema = testing_schemas::Figure2();
  Reasoner reasoner(&schema);
  auto ok = reasoner.IsClassSatisfiable("Grad_Student");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value());
  auto missing = reasoner.IsClassSatisfiable("Nonexistent");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto out_of_range = reasoner.IsClassSatisfiable(ClassId{999});
  EXPECT_FALSE(out_of_range.ok());
}

TEST(ReasonerTest, ImpliesIsaThroughChain) {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B"}}).EndClass();
  builder.BeginClass("B").Isa({{"C"}}).EndClass();
  builder.DeclareClass("C");
  builder.DeclareClass("Unrelated");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  Schema& schema = *schema_or;
  Reasoner reasoner(&schema);

  ClassId a = schema.LookupClass("A");
  ClassId c = schema.LookupClass("C");
  ClassId unrelated = schema.LookupClass("Unrelated");

  auto implied = reasoner.ImpliesIsa(a, ClassFormula::OfClass(c));
  ASSERT_TRUE(implied.ok());
  EXPECT_TRUE(implied.value());

  auto not_implied = reasoner.ImpliesIsa(a, ClassFormula::OfClass(unrelated));
  ASSERT_TRUE(not_implied.ok());
  EXPECT_FALSE(not_implied.value());

  // C ⊑ A does not hold (inclusion is not symmetric).
  auto reverse = reasoner.ImpliesIsa(c, ClassFormula::OfClass(a));
  ASSERT_TRUE(reverse.ok());
  EXPECT_FALSE(reverse.value());
}

TEST(ReasonerTest, ImpliesIsaDisjunctionNeedsWholeClause) {
  // A ⊑ B ∨ C holds when A's isa is the clause {B, C}; neither disjunct
  // alone is implied.
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B", "C"}}).EndClass();
  builder.DeclareClass("B");
  builder.DeclareClass("C");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  Schema& schema = *schema_or;
  Reasoner reasoner(&schema);
  ClassId a = schema.LookupClass("A");
  ClassId b = schema.LookupClass("B");
  ClassId c = schema.LookupClass("C");

  ClassFormula b_or_c(
      {ClassClause({ClassLiteral::Positive(b), ClassLiteral::Positive(c)})});
  EXPECT_TRUE(reasoner.ImpliesIsa(a, b_or_c).value());
  EXPECT_FALSE(reasoner.ImpliesIsa(a, ClassFormula::OfClass(b)).value());
  EXPECT_FALSE(reasoner.ImpliesIsa(a, ClassFormula::OfClass(c)).value());
}

TEST(ReasonerTest, UnsatisfiableClassImpliesEverything) {
  SchemaBuilder builder;
  builder.BeginClass("Dead").Isa({{"X"}, {"!X"}}).EndClass();
  builder.DeclareClass("X");
  builder.DeclareClass("Y");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  Schema& schema = *schema_or;
  Reasoner reasoner(&schema);
  ClassId dead = schema.LookupClass("Dead");
  ClassId y = schema.LookupClass("Y");
  EXPECT_TRUE(reasoner.ImpliesIsa(dead, ClassFormula::OfClass(y)).value());
  EXPECT_TRUE(
      reasoner.ImpliesIsa(dead, ClassFormula::OfNegatedClass(y)).value());
}

TEST(ReasonerTest, ImpliesDisjointFromExplicitNegation) {
  Schema schema = testing_schemas::Figure2();
  Reasoner reasoner(&schema);
  ClassId student = schema.LookupClass("Student");
  ClassId professor = schema.LookupClass("Professor");
  ClassId grad = schema.LookupClass("Grad_Student");
  ClassId person = schema.LookupClass("Person");

  EXPECT_TRUE(reasoner.ImpliesDisjoint(student, professor).value());
  // Inherited: Grad_Student ⊆ Student, so also disjoint from Professor.
  EXPECT_TRUE(reasoner.ImpliesDisjoint(grad, professor).value());
  EXPECT_FALSE(reasoner.ImpliesDisjoint(student, person).value());
}

TEST(ReasonerTest, ImpliedCardinalityFromInheritedConstraints) {
  Schema schema = testing_schemas::Figure2();
  Reasoner reasoner(&schema);
  ClassId adv = schema.LookupClass("Adv_Course");
  AttributeId taught_by = schema.LookupAttribute("taught_by");

  // Adv_Course inherits taught_by (1,1) from Course and refines the range;
  // both min 1 and max 1 are implied.
  EXPECT_TRUE(reasoner
                  .ImpliesMinCardinality(adv, AttributeTerm::Direct(taught_by),
                                         1)
                  .value());
  EXPECT_TRUE(reasoner
                  .ImpliesMaxCardinality(adv, AttributeTerm::Direct(taught_by),
                                         1)
                  .value());
  EXPECT_FALSE(reasoner
                   .ImpliesMinCardinality(adv,
                                          AttributeTerm::Direct(taught_by), 2)
                   .value());

  // Professors teach at most 2 courses ((inv taught_by) : (1,2)).
  ClassId professor = schema.LookupClass("Professor");
  EXPECT_TRUE(reasoner
                  .ImpliesMaxCardinality(
                      professor, AttributeTerm::Inverse(taught_by), 2)
                  .value());
  EXPECT_FALSE(reasoner
                   .ImpliesMaxCardinality(
                       professor, AttributeTerm::Inverse(taught_by), 1)
                   .value());
  EXPECT_TRUE(reasoner
                  .ImpliesMinCardinality(
                      professor, AttributeTerm::Inverse(taught_by), 1)
                  .value());
}

TEST(ReasonerTest, ImpliedParticipationBounds) {
  Schema schema = testing_schemas::Figure2();
  Reasoner reasoner(&schema);
  ClassId grad = schema.LookupClass("Grad_Student");
  RelationId enrollment = schema.LookupRelation("Enrollment");
  RoleId enrolls = schema.LookupRole("enrolls");

  // Grad students enroll 2..3 times (refined from Student's 1..6).
  EXPECT_TRUE(reasoner.ImpliesMinParticipation(grad, enrollment, enrolls, 2)
                  .value());
  EXPECT_FALSE(reasoner.ImpliesMinParticipation(grad, enrollment, enrolls, 3)
                   .value());
  EXPECT_TRUE(reasoner.ImpliesMaxParticipation(grad, enrollment, enrolls, 3)
                  .value());
  EXPECT_FALSE(reasoner.ImpliesMaxParticipation(grad, enrollment, enrolls, 2)
                   .value());

  // Trivia: min 0 and max infinity are always implied.
  EXPECT_TRUE(reasoner.ImpliesMinParticipation(grad, enrollment, enrolls, 0)
                  .value());
  EXPECT_TRUE(reasoner
                  .ImpliesMaxParticipation(grad, enrollment, enrolls,
                                           Cardinality::kInfinity)
                  .value());
}

TEST(ReasonerTest, FiniteModelImplicationBeyondSyntax) {
  // From child:(2,2) with in-degree <= 1 the reasoner must conclude C is
  // unsatisfiable — hence C ⊑ anything. No syntactic chain gives this.
  Schema schema = testing_schemas::FiniteOnlyUnsat();
  Reasoner reasoner(&schema);
  ClassId c = schema.LookupClass("C");
  EXPECT_FALSE(reasoner.IsClassSatisfiable(c).value());
  EXPECT_TRUE(reasoner.ImpliesIsa(c, ClassFormula::OfNegatedClass(c)).value());
}

TEST(ReasonerTest, DisjointnessDerivedFromCardinalities) {
  // A-objects have exactly 1 f-successor, B-objects exactly 2 (via an
  // isa-free overlap); anything in both A and B would need 1 = 2, so A
  // and B are implied disjoint without any negation in the schema.
  SchemaBuilder builder;
  builder.BeginClass("A").Attribute("f", 1, 1, {{"T"}}).EndClass();
  builder.BeginClass("B").Attribute("f", 2, 2, {{"T"}}).EndClass();
  builder.DeclareClass("T");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  Schema& schema = *schema_or;
  Reasoner reasoner(&schema);
  ClassId a = schema.LookupClass("A");
  ClassId b = schema.LookupClass("B");
  EXPECT_TRUE(reasoner.ImpliesDisjoint(a, b).value());
  EXPECT_TRUE(reasoner.IsClassSatisfiable(a).value());
  EXPECT_TRUE(reasoner.IsClassSatisfiable(b).value());
}

TEST(ReasonerTest, ReportCountsUnsatisfiable) {
  SchemaBuilder builder;
  builder.BeginClass("Dead").Isa({{"X"}, {"!X"}}).EndClass();
  builder.BeginClass("AlsoDead").Isa({{"Dead"}}).EndClass();
  builder.DeclareClass("X");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  Reasoner reasoner(&*schema_or);
  auto report = reasoner.CheckSchema();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->unsatisfiable_classes.size(), 2u);
}

/// The query-line tokenizer as first written: one istringstream per line.
std::vector<std::string> OracleTokenizeQueryLine(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') break;
    tokens.push_back(std::move(token));
  }
  return tokens;
}

TEST(QueryTextTest, TokenizerMatchesStreamExtractionOnRandomBytes) {
  // Runs of each C-locale whitespace byte, bytes >= 0x80 (some of them
  // spaces in other locales), NUL, and '#' opening a token or inside one.
  const std::string alphabet(" \t\n\v\f\r#ab\x80\x85\xa0\xff\0x", 15);
  for (uint64_t seed = 1; seed <= 4000; ++seed) {
    Rng rng(seed);
    std::string line;
    const int runs = rng.NextInt(0, 12);
    for (int i = 0; i < runs; ++i) {
      line.append(rng.NextInt(1, 3),
                  alphabet[rng.NextBelow(alphabet.size())]);
    }
    EXPECT_EQ(TokenizeQueryLine(line), OracleTokenizeQueryLine(line))
        << "seed " << seed;
  }
  EXPECT_EQ(TokenizeQueryLine(" isa\tA\r\vB #c d"),
            (std::vector<std::string>{"isa", "A", "B"}));
  EXPECT_EQ(TokenizeQueryLine("isa A#x B"),
            (std::vector<std::string>{"isa", "A#x", "B"}));
  EXPECT_TRUE(TokenizeQueryLine(" \f # isa A B").empty());
}

TEST(QueryTextTest, ParseQueryTextSplitsLinesLikeGetline) {
  Schema schema = testing_schemas::Figure2();
  const std::vector<std::string> pieces = {
      "isa Grad_Student Student", "disjoint Student Professor", "# note",
      "", " ", "\t\r", "\n", "\n\n", "\r\n", " #", "\v"};
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    std::string text;
    for (int i = rng.NextInt(0, 8); i > 0; --i) {
      text += pieces[rng.NextBelow(pieces.size())];
      if (rng.NextChance(1, 2)) text += "\n";
    }
    std::vector<std::string> expected;
    std::istringstream input(text);
    std::string line;
    while (std::getline(input, line)) {
      std::vector<std::string> tokens = OracleTokenizeQueryLine(line);
      if (tokens.empty()) continue;
      std::string joined;
      for (const std::string& token : tokens) {
        if (!joined.empty()) joined += " ";
        joined += token;
      }
      expected.push_back(joined);
    }
    std::vector<std::string> normalized;
    auto parsed = ParseQueryText(schema, text, &normalized);
    if (!parsed.ok()) {
      // Two queries glued onto one line by a missing newline.
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "seed " << seed;
      continue;
    }
    EXPECT_EQ(normalized, expected) << "seed " << seed;
    EXPECT_EQ(parsed->size(), expected.size()) << "seed " << seed;
  }
}

/// The isa memo key as first written: a std::set of literal strings per
/// clause and a std::set over the clause strings.
std::string OracleIsaKey(const ImplicationQuery& query) {
  std::set<std::string> clauses;
  for (const ClassClause& clause : query.formula.clauses()) {
    std::set<std::string> literals;
    for (const ClassLiteral& literal : clause.literals()) {
      literals.insert(StrCat(literal.negated ? "-" : "+", literal.class_id));
    }
    std::string text;
    for (const std::string& entry : literals) {
      if (!text.empty()) text += ",";
      text += entry;
    }
    clauses.insert(std::move(text));
  }
  std::string key = StrCat("isa|", query.class_id, "|");
  for (const std::string& clause : clauses) {
    key += clause;
    key += ";";
  }
  return key;
}

TEST(CanonicalQueryKeyTest, IsaKeyMatchesSetOrderOnRandomFormulas) {
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    ImplicationQuery query;
    query.kind = ImplicationQuery::Kind::kIsa;
    query.class_id = rng.NextInt(-1, 120);
    // Few distinct ids so literals and whole clauses repeat; ids of one,
    // two and three digits so string order differs from numeric order.
    std::vector<ClassId> ids;
    for (int i = rng.NextInt(1, 4); i > 0; --i) {
      static const ClassId kPool[] = {0, 1, 2, 9, 10, 11, 19, 100, 101};
      ids.push_back(kPool[rng.NextBelow(9)]);
    }
    std::vector<ClassClause> clauses;
    for (int c = rng.NextInt(0, 6); c > 0; --c) {
      if (!clauses.empty() && rng.NextChance(1, 4)) {
        clauses.push_back(clauses[rng.NextBelow(clauses.size())]);
        continue;
      }
      ClassClause clause;
      for (int l = rng.NextInt(0, 5); l > 0; --l) {
        ClassId id = ids[rng.NextBelow(ids.size())];
        clause.AddLiteral(rng.NextChance(1, 2) ? ClassLiteral::Negative(id)
                                               : ClassLiteral::Positive(id));
      }
      clauses.push_back(std::move(clause));
    }
    query.formula = ClassFormula(std::move(clauses));
    EXPECT_EQ(IncrementalSession::CanonicalQueryKey(query),
              OracleIsaKey(query))
        << "seed " << seed;
  }
}

TEST(CanonicalQueryKeyTest, OtherKindsKeepTheirBytes) {
  using Kind = ImplicationQuery::Kind;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    ImplicationQuery query;
    query.class_id = rng.NextInt(-1, 2000);
    query.other = rng.NextInt(-1, 2000);
    const AttributeId attribute = rng.NextInt(0, 40);
    query.term = rng.NextChance(1, 2) ? AttributeTerm::Inverse(attribute)
                                      : AttributeTerm::Direct(attribute);
    query.relation = rng.NextInt(-1, 12);
    query.role = rng.NextInt(-1, 12);
    query.bound =
        rng.NextChance(1, 8) ? Cardinality::kInfinity : rng.Next() % 1000;
    const char* sign = query.term.inverse ? "~" : "";
    query.kind = Kind::kDisjoint;
    EXPECT_EQ(IncrementalSession::CanonicalQueryKey(query),
              StrCat("dis|", std::min(query.class_id, query.other), "|",
                     std::max(query.class_id, query.other)));
    query.kind = Kind::kMinCardinality;
    EXPECT_EQ(IncrementalSession::CanonicalQueryKey(query),
              StrCat("minc|", query.class_id, "|", sign, query.term.attribute,
                     "|", query.bound));
    query.kind = Kind::kMaxCardinality;
    EXPECT_EQ(IncrementalSession::CanonicalQueryKey(query),
              StrCat("maxc|", query.class_id, "|", sign, query.term.attribute,
                     "|", query.bound));
    query.kind = Kind::kMinParticipation;
    EXPECT_EQ(IncrementalSession::CanonicalQueryKey(query),
              StrCat("minp|", query.class_id, "|", query.relation, "|",
                     query.role, "|", query.bound));
    query.kind = Kind::kMaxParticipation;
    EXPECT_EQ(IncrementalSession::CanonicalQueryKey(query),
              StrCat("maxp|", query.class_id, "|", query.relation, "|",
                     query.role, "|", query.bound));
  }
  ImplicationQuery query;
  query.kind = Kind::kMaxCardinality;
  query.class_id = 12;
  query.term = AttributeTerm::Inverse(4);
  query.bound = 7;
  EXPECT_EQ(IncrementalSession::CanonicalQueryKey(query), "maxc|12|~4|7");
}

}  // namespace
}  // namespace car
