#include "expansion/lazy_enum.h"

#include <utility>

#include "analysis/union_free.h"
#include "base/check.h"
#include "expansion/cluster_enum.h"

namespace car {

ExpansionPreamble BuildExpansionPreamble(const Schema& schema,
                                         const ExpansionOptions& options) {
  // Same recipe as ExpansionBuilder::EnumerateCompoundClasses (and
  // AnalyzeBaseExpansion): propagated pair tables, union-free completion
  // when it applies, then the configured partition.
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

  // Replay the pruned decision tree from the root, skipping the leaves
  // already delivered. The predicates and the leaf check are the ones the
  // eager DFS uses, so a full assignment survives here iff it survives
  // there — the pruning conditions (self-disjointness, pairwise
  // disjointness, inclusion-closure under the tables) are properties of
  // the final subset, independent of the decision order.
  std::vector<ClassId> included;
  std::vector<bool> excluded(schema_->num_classes(), false);
  size_t seen = 0;
  size_t produced = 0;
  Status status;
  bool done = false;

  std::function<void(size_t)> dfs = [&](size_t pos) {
    if (!status.ok() || done) return;
    if (GovCancelled(exec)) {
      status = GovCheck(exec, "expansion");
      return;
    }
    if (pos == order_.size()) {
      status = GovChargeWork(exec, 1, "expansion");
      if (!status.ok()) return;
      CompoundClass compound(included);
      if (!compound.IsConsistent(*schema_)) return;
      if (seen++ < delivered_) return;  // delivered by an earlier Advance
      sink(compound);
      ++delivered_;
      if (++produced == limit) done = true;
      return;
    }
    const ClassId c = order_[pos];
    if (CanIncludeClass(*tables_, included, excluded, c)) {
      included.push_back(c);
      dfs(pos + 1);
      included.pop_back();
    }
    // The pinned class (pos 0) only ever takes the include branch: every
    // compound of this stream contains it.
    if (pos == 0) return;
    if (!status.ok() || done) return;
    if (CanExcludeClass(*tables_, included, c)) {
      excluded[c] = true;
      dfs(pos + 1);
      excluded[c] = false;
    }
  };
  dfs(0);

  if (status.ok() && !done) exhausted_ = true;
  return status;
}

}  // namespace car
