#ifndef CAR_EXPANSION_LAZY_ENUM_H_
#define CAR_EXPANSION_LAZY_ENUM_H_

#include <functional>
#include <set>
#include <vector>

#include "analysis/pair_tables.h"
#include "base/exec_context.h"
#include "base/status.h"
#include "expansion/cluster_enum.h"
#include "expansion/compound.h"
#include "model/schema.h"

namespace car {

/// True when `compound` is a compound class of the full pruned expansion
/// that `preamble` was built for: non-empty, inside one cluster, accepted
/// by the pruned decision tree and consistent with `schema`. Acceptance is
/// checked on the final subset — no member self-disjoint, no two members
/// disjoint, no recorded superclass of a member left out of the member's
/// cluster — which is exactly what the include/exclude predicates of the
/// walk enforce in any decision order. Lets a lazy run reuse compounds
/// streamed from another schema (a session's base schema, for a probe's
/// aux-extended one) only after confirming they belong to this one.
bool IsPrunedCompound(const Schema& schema, const ExpansionPreamble& preamble,
                      const CompoundClass& compound);

/// A resumable stream of the consistent compound classes containing one
/// pinned class, in a fixed canonical order: the eager pruned walk
/// (WalkPrunedTree) over the pinned class's cluster, with the pinned
/// class decided first and forced in. Each Advance call re-walks the tree
/// and skips the compounds already delivered, so the stream needs no
/// persistent walk state and stays cheap while deliveries are shallow —
/// the regime the lazy engine operates in (a handful of batches per
/// class, versus the exponential full enumeration it avoids).
///
/// The emitted set is exactly { C̄ in the full pruned expansion :
/// pinned ∈ C̄ }: the pruning predicates accept an assignment
/// independently of decision order (self-disjointness, pairwise
/// disjointness and inclusion-closure are properties of the final
/// subset), so moving the pinned class to the front changes the order of
/// the leaves, not the set.
class LazyCompoundStream {
 public:
  /// `cluster` is the pinned class's cluster (must contain `pinned`);
  /// `tables` and the cluster come from BuildExpansionPreamble with the
  /// same options as the eager build being shadowed. All borrowed; the
  /// caller keeps them alive.
  LazyCompoundStream(const Schema& schema, const PairTables& tables,
                     const std::vector<ClassId>& cluster, ClassId pinned);

  /// Delivers up to `limit` further compounds into `sink` (in stream
  /// order), charging one "expansion" work unit per subset visited.
  /// Returns the governor's trip status on aborts; a later Advance
  /// re-delivers nothing twice (only compounds actually sunk count as
  /// delivered).
  Status Advance(size_t limit, ExecContext* exec,
                 const std::function<void(const CompoundClass&)>& sink);

  /// True once a completed Advance traversed the whole decision tree:
  /// every compound containing the pinned class has been delivered.
  bool exhausted() const { return exhausted_; }

  /// Compounds delivered so far.
  size_t delivered() const { return delivered_; }

  ClassId pinned() const { return pinned_; }

 private:
  const Schema* schema_;
  const PairTables* tables_;
  /// Decision order: pinned first (include-only), then the rest of the
  /// cluster in canonical cluster order.
  std::vector<ClassId> order_;
  ClassId pinned_;
  size_t delivered_ = 0;
  bool exhausted_ = false;
};

/// The refinement ledger of one lazy expansion run: which compound
/// classes have been materialized (seed + every refinement round), with
/// per-round counts for observability. The member-set key makes
/// cross-stream duplicates (a compound containing two pinned classes is
/// emitted by both streams) materialize once.
class RefinementLedger {
 public:
  /// Records the compound; false when it was already materialized.
  bool Add(const CompoundClass& compound) {
    return materialized_.insert(compound.members()).second;
  }

  bool Contains(const CompoundClass& compound) const {
    return materialized_.count(compound.members()) > 0;
  }

  /// All materialized compounds in canonical order (std::set iteration
  /// order is the canonical member-vector order).
  std::vector<CompoundClass> Compounds() const {
    std::vector<CompoundClass> compounds;
    compounds.reserve(materialized_.size());
    for (const std::vector<ClassId>& members : materialized_) {
      compounds.push_back(CompoundClass(members));
    }
    return compounds;
  }

  /// The materialized compounds `base` does not hold, in canonical order:
  /// what a run resuming from a frozen base must add to it.
  std::vector<CompoundClass> CompoundsNotIn(
      const RefinementLedger& base) const {
    std::vector<CompoundClass> compounds;
    for (const std::vector<ClassId>& members : materialized_) {
      if (base.materialized_.count(members) == 0) {
        compounds.push_back(CompoundClass(members));
      }
    }
    return compounds;
  }

  /// Closes the current accumulation bucket: the first call freezes the
  /// seed count, later calls append one refinement-round count each.
  void SealRound() {
    rounds_.push_back(materialized_.size() - sealed_);
    sealed_ = materialized_.size();
  }

  size_t size() const { return materialized_.size(); }
  /// Per-bucket materialization counts (index 0 = seed).
  const std::vector<size_t>& rounds() const { return rounds_; }

 private:
  std::set<std::vector<ClassId>> materialized_;
  size_t sealed_ = 0;
  std::vector<size_t> rounds_;
};

}  // namespace car

#endif  // CAR_EXPANSION_LAZY_ENUM_H_
