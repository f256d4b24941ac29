// Exactness of the word-row preselection tables: BuildPairTables and
// CompleteDisjointnessUnionFree must produce, pair for pair and row for
// row, what the original std::set implementation (kept below as the
// oracle) produces on seeded schemas of every generator family and on
// generated union-free schemas with inverse attributes, mandatory and
// optional fillers and single-literal role clauses.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pair_tables.h"
#include "analysis/union_free.h"
#include "base/rng.h"
#include "base/strings.h"
#include "model/builder.h"
#include "workloads/generators.h"

namespace car {
namespace {

// --- The oracle: the std::set tables and completion, as first written. ---

struct SetTables {
  explicit SetTables(int num_classes)
      : disjoint(num_classes), superclasses(num_classes) {}

  void MarkDisjoint(ClassId a, ClassId b) {
    if (disjoint[a].insert(b).second) ++num_disjoint_pairs;
    disjoint[b].insert(a);
  }
  void MarkIncluded(ClassId subclass, ClassId superclass) {
    if (subclass == superclass) return;
    if (superclasses[subclass].insert(superclass).second) {
      ++num_inclusion_pairs;
    }
  }
  bool AreDisjoint(ClassId a, ClassId b) const {
    return disjoint[a].count(b) > 0;
  }
  bool IsIncluded(ClassId subclass, ClassId superclass) const {
    return superclasses[subclass].count(superclass) > 0;
  }

  std::vector<std::set<ClassId>> disjoint;
  std::vector<std::set<ClassId>> superclasses;
  size_t num_disjoint_pairs = 0;
  size_t num_inclusion_pairs = 0;
};

SetTables OracleBuildPairTables(const Schema& schema, bool propagate) {
  SetTables tables(schema.num_classes());
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    for (const ClassClause& clause :
         schema.class_definition(c).isa.clauses()) {
      if (clause.literals().size() != 1) continue;
      const ClassLiteral& literal = clause.literals()[0];
      if (literal.negated) {
        tables.MarkDisjoint(c, literal.class_id);
      } else if (literal.class_id != c) {
        tables.MarkIncluded(c, literal.class_id);
      }
    }
  }
  if (!propagate) return tables;
  bool changed = true;
  while (changed) {
    changed = false;
    for (ClassId c = 0; c < schema.num_classes(); ++c) {
      std::vector<ClassId> supers(tables.superclasses[c].begin(),
                                  tables.superclasses[c].end());
      for (ClassId super : supers) {
        for (ClassId grand : tables.superclasses[super]) {
          if (grand != c && !tables.IsIncluded(c, grand)) {
            tables.MarkIncluded(c, grand);
            changed = true;
          }
        }
        // The set tolerates MarkDisjoint(c, enemy) inserting into the
        // row being iterated (enemy == super when super isa ¬super).
        for (ClassId enemy : tables.disjoint[super]) {
          if (!tables.AreDisjoint(c, enemy)) {
            tables.MarkDisjoint(c, enemy);
            changed = true;
          }
        }
      }
    }
  }
  return tables;
}

std::vector<ClassId> OraclePositives(const ClassFormula& formula) {
  std::vector<ClassId> out;
  for (const ClassClause& clause : formula.clauses()) {
    if (clause.literals().size() != 1) continue;
    const ClassLiteral& literal = clause.literals()[0];
    if (!literal.negated) out.push_back(literal.class_id);
  }
  return out;
}

bool OracleInsertAll(const std::vector<ClassId>& classes,
                     std::set<ClassId>* target) {
  bool changed = false;
  for (ClassId c : classes) changed |= target->insert(c).second;
  return changed;
}

void OracleCompleteUnionFree(const Schema& schema, SetTables* tables) {
  if (!schema.IsUnionFree()) return;
  const int n = schema.num_classes();
  if (n == 0) return;
  std::vector<std::set<ClassId>> witness(n);
  std::vector<std::set<ClassId>> attribute_targets(schema.num_attributes());
  std::vector<std::set<ClassId>> attribute_sources(schema.num_attributes());
  std::map<std::pair<RelationId, int>, std::set<ClassId>> role_components;
  std::map<std::pair<AttributeId, bool>, std::set<std::set<ClassId>*>>
      filler_triggers;
  for (ClassId c = 0; c < n; ++c) witness[c].insert(c);
  auto all_contexts = [&]() {
    std::vector<std::set<ClassId>*> all;
    for (auto& context : witness) all.push_back(&context);
    for (auto& context : attribute_targets) all.push_back(&context);
    for (auto& context : attribute_sources) all.push_back(&context);
    for (auto& entry : role_components) all.push_back(&entry.second);
    return all;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::set<ClassId>* context : all_contexts()) {
      std::vector<ClassId> members(context->begin(), context->end());
      std::set<std::pair<AttributeId, bool>> mandatory;
      for (ClassId member : members) {
        for (const AttributeSpec& spec :
             schema.class_definition(member).attributes) {
          if (spec.cardinality.min() >= 1) {
            mandatory.emplace(spec.term.attribute, spec.term.inverse);
          }
        }
      }
      for (ClassId member : members) {
        const ClassDefinition& definition = schema.class_definition(member);
        changed |= OracleInsertAll(OraclePositives(definition.isa), context);
        for (const AttributeSpec& spec : definition.attributes) {
          if (mandatory.count({spec.term.attribute, spec.term.inverse}) ==
              0) {
            continue;
          }
          std::set<ClassId>* filler =
              spec.term.inverse ? &attribute_sources[spec.term.attribute]
                                : &attribute_targets[spec.term.attribute];
          changed |= OracleInsertAll(OraclePositives(spec.range), filler);
          changed |=
              filler_triggers[{spec.term.attribute, spec.term.inverse}]
                  .insert(context)
                  .second;
        }
        for (const ParticipationSpec& spec : definition.participations) {
          if (spec.cardinality.min() == 0) continue;
          const RelationDefinition* relation =
              schema.relation_definition(spec.relation);
          if (relation == nullptr) continue;
          int own_index = relation->RoleIndex(spec.role);
          for (const RoleClause& clause : relation->constraints) {
            if (clause.literals.size() != 1) continue;
            const RoleLiteral& literal = clause.literals[0];
            int index = relation->RoleIndex(literal.role);
            if (index == own_index) {
              changed |=
                  OracleInsertAll(OraclePositives(literal.formula), context);
            } else {
              changed |= OracleInsertAll(
                  OraclePositives(literal.formula),
                  &role_components[{spec.relation, index}]);
            }
          }
        }
      }
    }
    for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
      for (bool inverse_side : {false, true}) {
        const std::set<ClassId>& filler =
            inverse_side ? attribute_sources[a] : attribute_targets[a];
        auto trigger_it = filler_triggers.find({a, inverse_side});
        if (trigger_it == filler_triggers.end()) continue;
        for (ClassId member : filler) {
          for (const AttributeSpec& spec :
               schema.class_definition(member).attributes) {
            if (spec.term.attribute != a) continue;
            if (spec.term.inverse == inverse_side) continue;
            for (std::set<ClassId>* receiver : trigger_it->second) {
              changed |= OracleInsertAll(OraclePositives(spec.range), receiver);
            }
          }
        }
      }
    }
  }
  std::vector<std::vector<bool>> required(n, std::vector<bool>(n, false));
  for (std::set<ClassId>* context : all_contexts()) {
    for (ClassId a : *context) {
      for (ClassId b : *context) required[a][b] = true;
    }
  }
  for (ClassId a = 0; a < n; ++a) {
    for (ClassId b = a + 1; b < n; ++b) {
      if (!required[a][b] && !tables->AreDisjoint(a, b)) {
        tables->MarkDisjoint(a, b);
      }
    }
  }
}

// --- Comparison. ---

/// Every pair, every row and both counts of `tables` equal the oracle's.
void ExpectSameTables(const SetTables& expected, const PairTables& tables,
                      const std::string& label) {
  const int n = static_cast<int>(expected.disjoint.size());
  ASSERT_EQ(tables.num_classes(), n) << label;
  EXPECT_EQ(tables.num_disjoint_pairs(), expected.num_disjoint_pairs)
      << label;
  EXPECT_EQ(tables.num_inclusion_pairs(), expected.num_inclusion_pairs)
      << label;
  for (ClassId a = 0; a < n; ++a) {
    const auto& supers = tables.SuperclassesOf(a);
    std::vector<ClassId> enemies;
    ForEachSetBit(tables.disjoint_bits().row(a),
                  tables.disjoint_bits().words_per_row(),
                  [&](ClassId b) { enemies.push_back(b); });
    EXPECT_EQ(std::vector<ClassId>(supers.begin(), supers.end()),
              std::vector<ClassId>(expected.superclasses[a].begin(),
                                   expected.superclasses[a].end()))
        << label << " SuperclassesOf(" << a << ")";
    EXPECT_EQ(enemies,
              std::vector<ClassId>(expected.disjoint[a].begin(),
                                   expected.disjoint[a].end()))
        << label << " disjoint_bits row " << a;
    for (ClassId b = 0; b < n; ++b) {
      ASSERT_EQ(tables.AreDisjoint(a, b), expected.AreDisjoint(a, b))
          << label << " AreDisjoint(" << a << ", " << b << ")";
      ASSERT_EQ(tables.IsIncluded(a, b), expected.IsIncluded(a, b))
          << label << " IsIncluded(" << a << ", " << b << ")";
    }
  }
}

/// Checks the tables with and without propagation, each before and after
/// the union-free completion (a no-op on schemas that are not union-free).
void ExpectMatchesOracle(const Schema& schema, const std::string& label) {
  ASSERT_TRUE(schema.Validate().ok()) << label;
  for (bool propagate : {true, false}) {
    const std::string name =
        StrCat(label, propagate ? " propagated" : " explicit");
    PairTableOptions options;
    options.propagate = propagate;
    PairTables tables = BuildPairTables(schema, options);
    SetTables expected = OracleBuildPairTables(schema, propagate);
    ExpectSameTables(expected, tables, name);
    CompleteDisjointnessUnionFree(schema, &tables);
    OracleCompleteUnionFree(schema, &expected);
    ExpectSameTables(expected, tables, StrCat(name, " completed"));
  }
}

/// A single-literal clause formula: each of `count` clauses names a
/// random class, negated with probability `negation_percent`.
ClassFormula RandomUnionFreeFormula(Rng* rng, int num_classes, int count,
                                    int negation_percent) {
  std::vector<ClassClause> clauses;
  for (int i = 0; i < count; ++i) {
    ClassId target = rng->NextInt(0, num_classes - 1);
    const bool negated = rng->NextChance(negation_percent, 100);
    clauses.push_back(ClassClause::Of(
        negated ? ClassLiteral::Negative(target)
                : ClassLiteral::Positive(target)));
  }
  return ClassFormula(std::move(clauses));
}

/// A valid union-free schema: single-literal isa clauses (some negated,
/// some naming the class itself), direct and inverse attribute specs with
/// mandatory or optional fillers, and relations of arity 2–3 whose role
/// clauses are single literals; classes participate mandatorily or not.
Schema RandomUnionFreeSchema(Rng* rng, int num_classes) {
  Schema schema;
  for (int c = 0; c < num_classes; ++c) schema.InternClass(StrCat("C", c));
  const int num_attributes = rng->NextInt(1, 4);
  for (int a = 0; a < num_attributes; ++a) {
    schema.InternAttribute(StrCat("a", a));
  }
  const int num_relations = rng->NextInt(0, 2);
  for (int r = 0; r < num_relations; ++r) {
    RelationDefinition definition;
    definition.relation_id = schema.InternRelation(StrCat("R", r));
    const int arity = rng->NextInt(2, 3);
    for (int i = 0; i < arity; ++i) {
      definition.roles.push_back(schema.InternRole(StrCat("r", r, "_", i)));
    }
    const int num_clauses = rng->NextInt(0, 4);
    for (int i = 0; i < num_clauses; ++i) {
      RoleLiteral literal;
      literal.role = definition.roles[rng->NextInt(0, arity - 1)];
      literal.formula = RandomUnionFreeFormula(
          rng, num_classes, rng->NextInt(1, 2), /*negation_percent=*/20);
      definition.constraints.push_back(RoleClause{{literal}});
    }
    CAR_CHECK(schema.SetRelationDefinition(std::move(definition)).ok());
  }
  for (ClassId c = 0; c < num_classes; ++c) {
    ClassDefinition* definition = schema.mutable_class_definition(c);
    if (rng->NextChance(70, 100)) {
      definition->isa = RandomUnionFreeFormula(rng, num_classes,
                                               rng->NextInt(1, 3),
                                               /*negation_percent=*/25);
    }
    for (AttributeId a = 0; a < num_attributes; ++a) {
      for (bool inverse : {false, true}) {
        if (!rng->NextChance(35, 100)) continue;
        AttributeSpec spec;
        spec.term = inverse ? AttributeTerm::Inverse(a)
                            : AttributeTerm::Direct(a);
        const uint64_t min = rng->NextChance(50, 100) ? 1 : 0;
        spec.cardinality = Cardinality(min, min + rng->NextInt(0, 2));
        spec.range = RandomUnionFreeFormula(rng, num_classes,
                                            rng->NextInt(0, 2),
                                            /*negation_percent=*/15);
        definition->attributes.push_back(std::move(spec));
      }
    }
    for (RelationId r = 0; r < num_relations; ++r) {
      const RelationDefinition* relation = schema.relation_definition(r);
      for (RoleId role : relation->roles) {
        if (!rng->NextChance(25, 100)) continue;
        ParticipationSpec spec;
        spec.relation = r;
        spec.role = role;
        const uint64_t min = rng->NextChance(60, 100) ? 1 : 0;
        spec.cardinality = Cardinality(min, min + 2);
        definition->participations.push_back(spec);
      }
    }
  }
  return schema;
}

TEST(PairTablesOracleTest, RandomMarksKeepRowsSortedAndCounted) {
  // Direct marking in random order, repeats and self pairs included.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const int n = rng.NextInt(1, 130);
    PairTables tables(n);
    SetTables expected(n);
    for (int i = rng.NextInt(0, 400); i > 0; --i) {
      const ClassId a = rng.NextInt(0, n - 1);
      const ClassId b = rng.NextChance(1, 10) ? a : rng.NextInt(0, n - 1);
      if (rng.NextChance(1, 2)) {
        tables.MarkDisjoint(a, b);
        expected.MarkDisjoint(a, b);
      } else {
        tables.MarkIncluded(a, b);
        expected.MarkIncluded(a, b);
      }
    }
    ExpectSameTables(expected, tables, StrCat("random marks seed ", seed));
  }
}

TEST(PairTablesOracleTest, SelfDisjointSuperclassRowGrowsWhileRead) {
  // D isa C with C isa ¬C: propagating into D reads C's disjointness row
  // while MarkDisjoint(D, C) adds D to that same row.
  SchemaBuilder builder;
  builder.BeginClass("C").Isa({{"!C"}}).EndClass();
  builder.BeginClass("D").Isa({{"C"}}).EndClass();
  builder.BeginClass("E").Isa({{"D"}}).EndClass();
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  ExpectMatchesOracle(*schema, "self-disjoint chain");
  PairTables tables = BuildPairTables(*schema);
  const ClassId d = schema->LookupClass("D");
  const ClassId e = schema->LookupClass("E");
  EXPECT_TRUE(tables.AreDisjoint(d, d));
  EXPECT_TRUE(tables.AreDisjoint(e, e));
  EXPECT_TRUE(tables.AreDisjoint(e, schema->LookupClass("C")));
}

TEST(PairTablesOracleTest, WorkloadGenerators) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (int size : {5, 15, 70, 130}) {
      HierarchyParams params;
      params.num_classes = size;
      params.num_trees = 1 + static_cast<int>(seed % 3);
      ExpectMatchesOracle(GenerateHierarchy(&rng, params),
                          StrCat("hierarchy seed ", seed, " n ", size));
    }
    for (bool dense : {false, true}) {
      ClusteredParams params;
      params.num_clusters = 1 + static_cast<int>(seed);
      params.cluster_size = dense ? 4 : 3 + static_cast<int>(seed % 4);
      params.dense = dense;
      ExpectMatchesOracle(GenerateClusteredSchema(&rng, params),
                          StrCat("clustered seed ", seed, " dense ", dense));
    }
    GeneralSchemaParams general;
    general.num_classes = 4 + static_cast<int>(seed) * 12;
    general.num_relations = static_cast<int>(seed % 3);
    ExpectMatchesOracle(RandomGeneralSchema(&rng, general),
                        StrCat("general seed ", seed));
  }
  for (int length : {1, 9, 14, 66}) {
    ExpectMatchesOracle(GenerateChainSchema({length, 2}),
                        StrCat("chain ", length));
  }
  ExpectMatchesOracle(GenerateDenseBlowupSchema({8, 4, 2}), "dense blowup");
  ExpectMatchesOracle(GenerateDenseUnsatSchema({6, 3, 2}), "dense unsat");
}

TEST(PairTablesOracleTest, GeneratedUnionFreeSchemas) {
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    Rng rng(seed);
    // Every 40th schema spans more than one 64-bit word per row.
    const int num_classes =
        seed % 40 == 0 ? rng.NextInt(65, 100) : rng.NextInt(1, 14);
    Schema schema = RandomUnionFreeSchema(&rng, num_classes);
    ASSERT_TRUE(schema.IsUnionFree());
    ExpectMatchesOracle(schema, StrCat("union-free seed ", seed));
  }
}

}  // namespace
}  // namespace car
