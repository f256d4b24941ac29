#include "expansion/lazy_enum.h"

#include "base/check.h"

namespace car {

bool IsPrunedCompound(const Schema& schema, const ExpansionPreamble& preamble,
                      const CompoundClass& compound) {
  const std::vector<ClassId>& members = compound.members();
  if (members.empty()) return false;
  const int num_classes = schema.num_classes();
  const std::vector<int>& cluster_of = preamble.partition.cluster_of;
  for (ClassId c : members) {
    if (c < 0 || c >= num_classes) return false;
    if (cluster_of[c] != cluster_of[members.front()]) return false;
  }
  const PairTables& tables = preamble.tables;
  for (size_t i = 0; i < members.size(); ++i) {
    const ClassId c = members[i];
    // CanIncludeClass: self-disjointness and disjointness from the other
    // included members (symmetric, so each pair is checked once).
    for (size_t j = i; j < members.size(); ++j) {
      if (tables.AreDisjoint(c, members[j])) return false;
    }
    // CanIncludeClass (superclass decided out) and CanExcludeClass
    // (included subclass): a superclass in the cluster must be a member.
    for (ClassId super : tables.SuperclassesOf(c)) {
      if (cluster_of[super] == cluster_of[c] && !compound.Contains(super)) {
        return false;
      }
    }
  }
  return compound.IsConsistent(schema);
}

LazyCompoundStream::LazyCompoundStream(const Schema& schema,
                                       const PairTables& tables,
                                       const std::vector<ClassId>& cluster,
                                       ClassId pinned)
    : schema_(&schema), tables_(&tables), pinned_(pinned) {
  order_.reserve(cluster.size());
  order_.push_back(pinned);
  bool found = false;
  for (ClassId c : cluster) {
    if (c == pinned) {
      found = true;
      continue;
    }
    order_.push_back(c);
  }
  CAR_CHECK(found);  // the pinned class must belong to its cluster
}

Status LazyCompoundStream::Advance(
    size_t limit, ExecContext* exec,
    const std::function<void(const CompoundClass&)>& sink) {
  if (exhausted_ || limit == 0) return Status::Ok();
  // Walk the tree from the root, skipping the compounds already delivered.
  size_t seen = 0;
  size_t produced = 0;
  CAR_RETURN_IF_ERROR(WalkPrunedTree(
      *schema_, *tables_, order_, DecisionPrefix{.bits = 1, .length = 1},
      exec, nullptr, [&](const CompoundClass& compound) -> Result<WalkStep> {
        if (seen++ < delivered_) return WalkStep::kContinue;
        sink(compound);
        ++delivered_;
        return ++produced == limit ? WalkStep::kStop : WalkStep::kContinue;
      }));
  if (produced < limit) exhausted_ = true;
  return Status::Ok();
}

}  // namespace car
