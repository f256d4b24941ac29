#ifndef CAR_BENCH_QUERY_POOL_H_
#define CAR_BENCH_QUERY_POOL_H_

// The textual query pool shared by the serving benches (bench_serve's
// traffic and bench_snapshot's batches).

#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "model/schema.h"

namespace car {
namespace bench {

/// Deterministic pool of textual queries drawn from the schema's own
/// names, mixing every query kind the format supports.
inline std::vector<std::string> MakeQueryPool(const Schema& schema, Rng* rng,
                                              int count) {
  std::vector<std::string> pool;
  auto class_name = [&](int) {
    return schema.ClassName(
        static_cast<ClassId>(rng->NextBelow(schema.num_classes())));
  };
  while (static_cast<int>(pool.size()) < count) {
    std::string line;
    switch (rng->NextBelow(schema.num_relations() > 0 ? 6 : 4)) {
      case 0:
        line = StrCat("isa ", class_name(0), " ", class_name(1));
        break;
      case 1:
        line = StrCat("disjoint ", class_name(0), " ", class_name(1));
        break;
      case 2:
      case 3: {
        if (schema.num_attributes() == 0) continue;
        const std::string& attribute = schema.AttributeName(
            static_cast<AttributeId>(rng->NextBelow(schema.num_attributes())));
        std::string term = rng->NextBelow(4) == 0
                               ? StrCat("inv:", attribute)
                               : attribute;
        if (rng->NextBelow(2) == 0) {
          line = StrCat("min-card ", class_name(0), " ", term, " ",
                        1 + rng->NextBelow(3));
        } else {
          uint64_t bound = 1 + rng->NextBelow(3);
          line = StrCat("max-card ", class_name(0), " ", term, " ",
                        rng->NextBelow(4) == 0 ? "inf"
                                               : std::to_string(bound));
        }
        break;
      }
      default: {
        RelationId relation = static_cast<RelationId>(
            rng->NextBelow(schema.num_relations()));
        const RelationDefinition* definition =
            schema.relation_definition(relation);
        const std::string& role = schema.RoleName(
            definition->roles[rng->NextBelow(definition->roles.size())]);
        const char* kind =
            rng->NextBelow(2) == 0 ? "min-part" : "max-part";
        line = StrCat(kind, " ", class_name(0), " ",
                      schema.RelationName(relation), " ", role, " ",
                      1 + rng->NextBelow(2));
        break;
      }
    }
    pool.push_back(std::move(line));
  }
  return pool;
}

}  // namespace bench
}  // namespace car

#endif  // CAR_BENCH_QUERY_POOL_H_
