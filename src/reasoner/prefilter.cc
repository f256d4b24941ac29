#include "reasoner/prefilter.h"

#include "model/cardinality.h"

namespace car {

namespace {

bool StaticallyEmpty(const SchemaAnalysis& analysis, ClassId id) {
  return analysis.class_unsat[id] != 0;
}

/// Certificate that every instance of `c` satisfies `clause`: a
/// positive literal D with C ⊆* D (or D = C), or a negative literal ¬D
/// with C and D provably disjoint. An empty clause has no certificate
/// (it is satisfiable only vacuously, which the caller handles through
/// the statically-empty check).
bool ClauseCertified(const SchemaAnalysis& analysis, ClassId c,
                     const ClassClause& clause) {
  for (const ClassLiteral& literal : clause.literals()) {
    if (literal.negated) {
      if (analysis.tables.AreDisjoint(c, literal.class_id)) return true;
    } else {
      if (literal.class_id == c ||
          analysis.tables.IsIncluded(c, literal.class_id)) {
        return true;
      }
    }
  }
  return false;
}

/// The interval every instance of `c` must satisfy for `term`,
/// intersected over the specs of c and its propagated superclasses.
/// (0, infinity) when nothing constrains the term; possibly empty —
/// which is itself a sound emptiness certificate for c.
Cardinality InheritedAttributeBound(const Schema& schema,
                                    const PairTables& tables, ClassId c,
                                    const AttributeTerm& term) {
  Cardinality bound;
  auto fold = [&schema, &bound, &term](ClassId owner) {
    for (const AttributeSpec& spec :
         schema.class_definition(owner).attributes) {
      if (spec.term == term) {
        bound = Cardinality::IntersectUnchecked(bound, spec.cardinality);
      }
    }
  };
  fold(c);
  for (ClassId super : tables.SuperclassesOf(c)) fold(super);
  return bound;
}

Cardinality InheritedParticipationBound(const Schema& schema,
                                        const PairTables& tables, ClassId c,
                                        RelationId relation, RoleId role) {
  Cardinality bound;
  auto fold = [&schema, &bound, relation, role](ClassId owner) {
    for (const ParticipationSpec& spec :
         schema.class_definition(owner).participations) {
      if (spec.relation == relation && spec.role == role) {
        bound = Cardinality::IntersectUnchecked(bound, spec.cardinality);
      }
    }
  };
  fold(c);
  for (ClassId super : tables.SuperclassesOf(c)) fold(super);
  return bound;
}

}  // namespace

std::optional<bool> ClosurePrefilterAnswer(const Schema& schema,
                                           const SchemaAnalysis& analysis,
                                           const ImplicationQuery& query) {
  // A statically empty class has every property, vacuously.
  if (StaticallyEmpty(analysis, query.class_id)) return true;
  Cardinality inherited;
  switch (query.kind) {
    case ImplicationQuery::Kind::kIsa:
      for (const ClassClause& clause : query.formula.clauses()) {
        if (!ClauseCertified(analysis, query.class_id, clause)) {
          return std::nullopt;
        }
      }
      return true;
    case ImplicationQuery::Kind::kDisjoint:
      if (analysis.tables.AreDisjoint(query.class_id, query.other) ||
          StaticallyEmpty(analysis, query.other)) {
        return true;
      }
      return std::nullopt;
    case ImplicationQuery::Kind::kMinCardinality:
    case ImplicationQuery::Kind::kMaxCardinality:
      inherited = InheritedAttributeBound(schema, analysis.tables,
                                          query.class_id, query.term);
      break;
    case ImplicationQuery::Kind::kMinParticipation:
    case ImplicationQuery::Kind::kMaxParticipation:
      inherited = InheritedParticipationBound(schema, analysis.tables,
                                              query.class_id, query.relation,
                                              query.role);
      break;
  }
  const bool minimum =
      query.kind == ImplicationQuery::Kind::kMinCardinality ||
      query.kind == ImplicationQuery::Kind::kMinParticipation;
  if (minimum ? inherited.min() >= query.bound
              : inherited.max() <= query.bound) {
    return true;
  }
  return std::nullopt;
}

}  // namespace car
