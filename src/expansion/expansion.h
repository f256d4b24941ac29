#ifndef CAR_EXPANSION_EXPANSION_H_
#define CAR_EXPANSION_EXPANSION_H_

#include <cstddef>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/result.h"
#include "expansion/compound.h"
#include "model/cardinality.h"
#include "model/schema.h"

namespace car {

/// The expansion S̄ of a CAR schema S (Definition 3.1): all consistent
/// compound classes, compound attributes and compound relations, together
/// with the derived cardinality-constraint sets Natt and Nrel.
///
/// Two deviations from the literal definition, both feasibility-neutral
/// (see DESIGN.md):
///  * compound attributes/relations that would appear in *no* disequation
///    (no endpoint carries a Natt/Nrel entry for them) are omitted — their
///    unknowns would be unconstrained and cannot affect satisfiability;
///  * with the pruned strategy, compound classes mixing different clusters
///    are omitted, which is exactly the disjointness imposed by
///    Theorem 4.6.
struct Expansion {
  const Schema* schema = nullptr;

  /// Consistent compound classes; index 0 is always the empty compound
  /// class (objects that are instances of no class).
  std::vector<CompoundClass> compound_classes;

  std::vector<CompoundAttribute> compound_attributes;
  std::vector<CompoundRelation> compound_relations;

  /// Natt: C̄ ⇒ att : (umax, vmin). Keyed by (attribute term, compound
  /// class index). The interval may be empty (umax > vmin), which will
  /// force Var(C̄) = 0 in the disequation system.
  std::map<std::pair<AttributeTerm, int>, Cardinality> natt;

  /// Nrel: C̄ ⇒ R[U_k] : (xmax, ymin). Keyed by (relation, role index,
  /// compound class index).
  std::map<std::tuple<RelationId, int, int>, Cardinality> nrel;

  // --- Lookup indexes (derived, used by the solver) ----------------------

  /// Compound-attribute indices grouped by (attribute, from-compound) and
  /// (attribute, to-compound): the summation sets S(A, C̄) and
  /// S((inv A), C̄) of Section 3.2.
  std::map<std::pair<AttributeId, int>, std::vector<int>> ca_by_from;
  std::map<std::pair<AttributeId, int>, std::vector<int>> ca_by_to;
  /// Compound-relation indices grouped by (relation, role index,
  /// compound class at that role).
  std::map<std::tuple<RelationId, int, int>, std::vector<int>> cr_by_role;

  // --- Statistics ---------------------------------------------------------

  /// Number of candidate class subsets visited during enumeration
  /// (a work measure for the preselection benchmarks).
  size_t subsets_visited = 0;

  /// Rebuilds every derived lookup index (ca_by_from, ca_by_to,
  /// cr_by_role and the compound-class index) from the primary vectors:
  /// grouped indices appear in ascending order, the order in which the
  /// derivation appends them. For deserialized expansions (src/persist),
  /// whose primary vectors arrive from disk without the indexes.
  void RebuildDerivedIndexes();

  /// Returns the index of a compound class, or -1 if not present.
  int IndexOfCompoundClass(const CompoundClass& compound) const;
  /// Indices of compound classes containing the given class.
  std::vector<int> CompoundClassesContaining(ClassId class_id) const;

  std::string Summary() const;

 private:
  friend class ExpansionBuilder;
  std::map<std::vector<ClassId>, int> compound_class_index_;
};

/// How compound classes are enumerated.
enum class ExpansionStrategy {
  /// All 2^n subsets of the full class set are generated and checked.
  /// Exponential always; usable only for small schemas and as the
  /// baseline in the preselection benchmarks (Section 4.2's "most trivial
  /// way").
  kExhaustive,
  /// Preselection per Section 4.3: disjointness/inclusion tables
  /// (criterion (a)), cluster decomposition via the G_S graph
  /// (criterion (b), Theorem 4.6), and a pruned depth-first enumeration
  /// within each cluster.
  kPruned,
};

struct ExpansionOptions {
  ExpansionStrategy strategy = ExpansionStrategy::kPruned;
  /// Hard caps; exceeding any yields kResourceExhausted.
  size_t max_compound_classes = 1u << 20;
  size_t max_compound_attributes = 1u << 22;
  size_t max_compound_relations = 1u << 22;
  /// For kPruned: use the connectivity clusters of Theorem 4.6. When
  /// false, pruning still uses the pair tables but enumerates over the
  /// full class set.
  bool use_clusters = true;
  /// For kPruned: propagate the pair tables to a fixpoint.
  bool propagate_tables = true;
  /// For kPruned on union-free schemas: apply the Section 4.4 "optimal
  /// strategy" — complete the disjointness table with every assumption
  /// that cannot influence satisfiability (maximal assumed disjointness),
  /// which makes generalization hierarchies expand to exactly one
  /// compound class per class even without explicit sibling negation.
  bool union_free_completion = true;
  /// Worker threads for candidate enumeration and consistency filtering.
  /// 1 = serial (the reference path); 0 = one per hardware core. Any
  /// value produces bit-identical results: enumeration is sharded (by
  /// connectivity cluster and literal-prefix), shard outputs are merged
  /// in a fixed order, and compound classes are canonically sorted.
  int num_threads = 1;
  /// Optional resource governor (borrowed; may be null = ungoverned).
  /// Enumeration charges one work unit per candidate visited, the
  /// consistency filters one per candidate pair/tuple, and all loops
  /// observe cancellation; tripped caps are recorded here so the caller
  /// can degrade gracefully with a structured LimitReport.
  ExecContext* exec = nullptr;
};

/// Builds the expansion of a validated schema.
Result<Expansion> BuildExpansion(const Schema& schema,
                                 const ExpansionOptions& options = {});

/// Assembles the expansion artifact over an explicitly given compound
/// class set instead of enumerating one: prepends the empty compound
/// (index 0), then derives Natt/Nrel and the constrained compound
/// attributes/relations with the derivation BuildExpansion runs after its
/// enumeration (PopulateDeltaExtensions). `compounds` must hold
/// non-empty, schema-consistent compound classes in canonical (sorted)
/// order without duplicates; the result is bit-identical to what
/// BuildExpansion would produce if its enumeration emitted exactly this
/// set. Backbone of the lazy
/// (counterexample-guided) expansion engine, which materializes compound
/// classes on demand instead of enumerating all of them up front.
Result<Expansion> AssembleExpansion(const Schema& schema,
                                    std::vector<CompoundClass> compounds,
                                    const ExpansionOptions& options = {});

}  // namespace car

#endif  // CAR_EXPANSION_EXPANSION_H_
