#include "workloads/query_batch.h"

#include <set>
#include <string>
#include <utility>

#include "reasoner/incremental.h"

namespace car {

std::vector<ImplicationQuery> GenerateImplicationBatch(const Schema& schema,
                                                       Rng* rng, int count,
                                                       bool distinct) {
  std::vector<ImplicationQuery> queries;
  std::set<std::string> seen;
  for (int attempts = 0; static_cast<int>(queries.size()) < count &&
                         (!distinct || attempts < count * 64);
       ++attempts) {
    ImplicationQuery query;
    switch (rng->NextBelow(schema.num_relations() > 0 ? 6 : 4)) {
      case 0:
        query.kind = ImplicationQuery::Kind::kIsa;
        query.class_id =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
        query.formula = ClassFormula::OfClass(
            static_cast<ClassId>(rng->NextBelow(schema.num_classes())));
        break;
      case 1:
        query.kind = ImplicationQuery::Kind::kDisjoint;
        query.class_id =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
        query.other =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
        break;
      case 2:
      case 3: {
        if (schema.num_attributes() == 0) continue;
        bool min = rng->NextBelow(2) == 0;
        query.kind = min ? ImplicationQuery::Kind::kMinCardinality
                         : ImplicationQuery::Kind::kMaxCardinality;
        query.class_id =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
        AttributeId attribute = static_cast<AttributeId>(
            rng->NextBelow(schema.num_attributes()));
        query.term = rng->NextBelow(4) == 0
                         ? AttributeTerm::Inverse(attribute)
                         : AttributeTerm::Direct(attribute);
        query.bound = 1 + rng->NextBelow(3);
        break;
      }
      default: {
        RelationId relation = static_cast<RelationId>(
            rng->NextBelow(schema.num_relations()));
        const RelationDefinition* definition =
            schema.relation_definition(relation);
        query.kind = rng->NextBelow(2) == 0
                         ? ImplicationQuery::Kind::kMinParticipation
                         : ImplicationQuery::Kind::kMaxParticipation;
        query.class_id =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
        query.relation = relation;
        query.role =
            definition->roles[rng->NextBelow(definition->roles.size())];
        query.bound = 1 + rng->NextBelow(3);
        break;
      }
    }
    if (distinct &&
        !seen.insert(IncrementalSession::CanonicalQueryKey(query)).second) {
      continue;
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

}  // namespace car
