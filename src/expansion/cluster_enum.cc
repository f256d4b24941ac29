#include "expansion/cluster_enum.h"

#include <utility>

#include "analysis/union_free.h"

namespace car {

ExpansionPreamble BuildExpansionPreamble(const Schema& schema,
                                         const ExpansionOptions& options) {
  PairTableOptions table_options;
  table_options.propagate = options.propagate_tables;
  ExpansionPreamble preamble{BuildPairTables(schema, table_options), {}};
  if (options.union_free_completion && schema.IsUnionFree()) {
    CompleteDisjointnessUnionFree(schema, &preamble.tables);
  }
  preamble.partition = options.use_clusters
                           ? ComputeClusters(schema, preamble.tables)
                           : SingleCluster(schema);
  return preamble;
}

bool CanIncludeClass(const PairTables& tables,
                     const std::vector<ClassId>& included,
                     const std::vector<bool>& excluded, ClassId c) {
  if (tables.AreDisjoint(c, c)) return false;
  for (ClassId d : included) {
    if (tables.AreDisjoint(c, d)) return false;
  }
  for (ClassId super : tables.SuperclassesOf(c)) {
    if (excluded[super]) return false;
  }
  return true;
}

bool CanExcludeClass(const PairTables& tables,
                     const std::vector<ClassId>& included, ClassId c) {
  for (ClassId d : included) {
    if (tables.IsIncluded(d, c)) return false;
  }
  return true;
}

Status AdmitCompound(const CompoundClass& compound, size_t held,
                     const ExpansionOptions& options) {
  ExecContext* exec = options.exec;
  if (held >= options.max_compound_classes) {
    return GovRecordTrip(exec, LimitKind::kMaxCompoundClasses, "expansion",
                         options.max_compound_classes,
                         options.max_compound_classes);
  }
  CAR_RETURN_IF_ERROR(GovChargeBytes(
      exec,
      sizeof(CompoundClass) + compound.members().size() * sizeof(ClassId),
      "expansion"));
  if (exec != nullptr) exec->CountCompounds(1);
  return Status::Ok();
}

namespace {

/// The state of one walk. Descend returns false once the walk must end:
/// on a trip or a visitor error (kept in `status`) or a visitor stop.
struct PrunedWalk {
  const Schema& schema;
  const PairTables& tables;
  const std::vector<ClassId>& order;
  DecisionPrefix prefix;
  ExecContext* exec;
  size_t* subsets_visited;
  const CompoundVisitor& visit;
  std::vector<ClassId> included = {};
  std::vector<bool> excluded = {};
  Status status = Status::Ok();

  bool Descend(size_t pos) {
    if (GovCancelled(exec)) {
      status = GovCheck(exec, "expansion");
      return false;
    }
    if (pos == order.size()) return Leaf();
    const ClassId c = order[pos];
    const bool forced = pos < static_cast<size_t>(prefix.length);
    const bool forced_in = forced && ((prefix.bits >> pos) & 1) != 0;
    if ((!forced || forced_in) &&
        CanIncludeClass(tables, included, excluded, c)) {
      included.push_back(c);
      const bool go_on = Descend(pos + 1);
      included.pop_back();
      if (!go_on) return false;
    }
    if ((!forced || !forced_in) && CanExcludeClass(tables, included, c)) {
      excluded[c] = true;
      const bool go_on = Descend(pos + 1);
      excluded[c] = false;
      if (!go_on) return false;
    }
    return true;
  }

  bool Leaf() {
    status = GovChargeWork(exec, 1, "expansion");
    if (!status.ok()) return false;
    if (subsets_visited != nullptr) ++*subsets_visited;
    // The empty compound is every expansion's index 0, never enumerated.
    if (included.empty()) return true;
    CompoundClass compound(included);
    if (!compound.IsConsistent(schema)) return true;
    Result<WalkStep> step = visit(std::move(compound));
    if (!step.ok()) {
      status = step.status();
      return false;
    }
    return *step == WalkStep::kContinue;
  }
};

}  // namespace

Status WalkPrunedTree(const Schema& schema, const PairTables& tables,
                      const std::vector<ClassId>& order, DecisionPrefix prefix,
                      ExecContext* exec, size_t* subsets_visited,
                      const CompoundVisitor& visit) {
  PrunedWalk walk{.schema = schema,
                  .tables = tables,
                  .order = order,
                  .prefix = prefix,
                  .exec = exec,
                  .subsets_visited = subsets_visited,
                  .visit = visit};
  walk.excluded.assign(schema.num_classes(), false);
  walk.Descend(0);
  return walk.status;
}

}  // namespace car
