#ifndef CAR_EXPANSION_CLUSTER_ENUM_H_
#define CAR_EXPANSION_CLUSTER_ENUM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/clusters.h"
#include "analysis/pair_tables.h"
#include "base/exec_context.h"
#include "base/result.h"
#include "expansion/compound.h"
#include "expansion/expansion.h"
#include "model/schema.h"

namespace car {

/// The preselection preamble of the pruned enumeration (Section 4.3): the
/// pair tables of criterion (a) with the configured propagation, their
/// union-free completion (Section 4.4) when it applies, and the cluster
/// partition of criterion (b). The eager build, the session delta and the
/// lazy streams all enumerate under the preamble built here.
struct ExpansionPreamble {
  PairTables tables;
  ClusterPartition partition;
};

ExpansionPreamble BuildExpansionPreamble(const Schema& schema,
                                         const ExpansionOptions& options);

/// The include/exclude pruning predicates of the pruned walk (criterion
/// (a)). `included` holds the classes already chosen; `excluded` marks
/// classes decided out (indexed by class id; classes of other clusters
/// are implicitly out and never consulted).

/// Include is futile when c is self-disjoint, disjoint from an already
/// included class, or has a recorded superclass already decided out.
bool CanIncludeClass(const PairTables& tables,
                     const std::vector<ClassId>& included,
                     const std::vector<bool>& excluded, ClassId c);

/// Exclude is impossible when an included class is recorded as a subclass
/// of c (then c is forced in).
bool CanExcludeClass(const PairTables& tables,
                     const std::vector<ClassId>& included, ClassId c);

/// Admits one newly enumerated compound into a set that already holds
/// `held` compounds: at options.max_compound_classes it trips
/// kMaxCompoundClasses, otherwise it charges the compound's bytes and
/// counts it on the governor. The eager shards and the delta's
/// re-enumeration admit every compound they keep here.
Status AdmitCompound(const CompoundClass& compound, size_t held,
                     const ExpansionOptions& options);

/// Forced leading decisions of a walk: for j < length, bit j of `bits`
/// set includes order[j] and clear excludes it.
struct DecisionPrefix {
  uint64_t bits = 0;
  int length = 0;
};

/// What a walk visitor asks of the walk after one compound; an error
/// status aborts the walk instead.
enum class WalkStep { kContinue, kStop };
using CompoundVisitor = std::function<Result<WalkStep>(CompoundClass)>;

/// The pruned depth-first walk of one cluster: `order` lists its classes
/// in decision order, and each node tries include, then exclude, each
/// only when the predicates above allow it. A decision of `prefix` is
/// forced: the other branch is never taken, and a forced decision the
/// predicates reject ends the walk with nothing visited. Each leaf
/// charges one "expansion" work unit and counts in `*subsets_visited`
/// (when non-null); a non-empty leaf whose compound is consistent with
/// `schema` is visited. Every node observes cancellation. Returns the
/// governor's trip status or the visitor's error, and ok once the walk
/// completes or the visitor stops it.
///
/// The builder's prefix shards, the delta's re-enumeration of a changed
/// cluster and a lazy stream (its pinned class forced in) all walk this
/// one tree, so they agree on every compound by construction.
Status WalkPrunedTree(const Schema& schema, const PairTables& tables,
                      const std::vector<ClassId>& order, DecisionPrefix prefix,
                      ExecContext* exec, size_t* subsets_visited,
                      const CompoundVisitor& visit);

}  // namespace car

#endif  // CAR_EXPANSION_CLUSTER_ENUM_H_
