#ifndef CAR_EXPANSION_EXPANSION_DELTA_H_
#define CAR_EXPANSION_EXPANSION_DELTA_H_

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "base/result.h"
#include "expansion/cluster_enum.h"
#include "expansion/expansion.h"
#include "model/schema.h"

namespace car {

/// Precomputed analysis of a frozen base expansion that incremental
/// probes extend: the preamble the base enumeration ran under, plus each
/// base compound class grouped under its cluster. Built once per session;
/// read-only afterwards (shareable across probe threads).
struct ExpansionBaseAnalysis {
  ExpansionPreamble preamble;
  /// Per base cluster: indices of the base compound classes whose members
  /// lie in that cluster (the empty compound, index 0, belongs to none).
  std::vector<std::vector<int>> cluster_compounds;
  /// Base cluster index by (sorted) class list, for reuse lookups.
  std::map<std::vector<ClassId>, int> cluster_by_classes;
};

/// The incremental extension of a base expansion for one probe schema
/// (= base schema + one auxiliary class): everything the extended
/// expansion has beyond the base, with base indices frozen. A global
/// compound-class index i refers to base.compound_classes[i] when
/// i < base count and to new_compound_classes[i - base count] otherwise;
/// compound attribute/relation indices follow the same convention.
///
/// Guarantee (checked, not assumed): the extended compound-class set is
/// exactly base ∪ new — re-enumerating the changed clusters re-emitted
/// every base compound they cover. When the check fails (the auxiliary
/// class perturbed the preselection tables enough to prune a base
/// compound), ExtendExpansionWithAuxClass returns kFailedPrecondition and
/// the caller must fall back to a from-scratch build; answers are never
/// silently approximated.
struct ExpansionDelta {
  /// New compound classes, canonically sorted among themselves; global
  /// index = base count + position.
  std::vector<CompoundClass> new_compound_classes;
  /// New compound attributes/relations (endpoints are global indices).
  std::vector<CompoundAttribute> new_compound_attributes;
  std::vector<CompoundRelation> new_compound_relations;
  /// Natt/Nrel entries of the new compound classes (base entries are
  /// unchanged: they are intrinsic to a compound's members).
  std::map<std::pair<AttributeTerm, int>, Cardinality> new_natt;
  std::map<std::tuple<RelationId, int, int>, Cardinality> new_nrel;
  /// Lookup maps for the NEW compound attributes/relations only. Keys may
  /// name base compound indices: those lists extend the base summation
  /// sets S(att, C̄) of existing Ψ rows — the row extensions of the
  /// warm-started solve.
  std::map<std::pair<AttributeId, int>, std::vector<int>> new_ca_by_from;
  std::map<std::pair<AttributeId, int>, std::vector<int>> new_ca_by_to;
  std::map<std::tuple<RelationId, int, int>, std::vector<int>> new_cr_by_role;

  // --- Statistics ---------------------------------------------------------
  size_t clusters_reused = 0;
  size_t clusters_reenumerated = 0;
  size_t subsets_visited = 0;

  bool HasNewCompounds() const { return !new_compound_classes.empty(); }
};

/// Builds the reusable base analysis: BuildExpansionPreamble with the
/// options the base expansion was built with, so the recorded preamble is
/// the one it was enumerated under. Requires options.strategy == kPruned
/// (the exhaustive strategy has no cluster structure to reuse).
Result<ExpansionBaseAnalysis> AnalyzeBaseExpansion(
    const Schema& schema, const Expansion& base,
    const ExpansionOptions& options);

/// Extends `base` to the expansion of `ext_schema` (= base schema plus
/// the auxiliary class `aux`, which must be its last class). Clusters
/// whose class list and within-cluster table rows are unchanged are
/// reused wholesale (their compounds are already in the base); changed
/// clusters are walked again (WalkPrunedTree) under the extended
/// schema's preamble. Errors:
/// kFailedPrecondition when the base-prefix property cannot be
/// established (caller falls back to from-scratch); kResourceExhausted /
/// kCancelled on governor trips, exactly like BuildExpansion.
Result<ExpansionDelta> ExtendExpansionWithAuxClass(
    const Schema& ext_schema, ClassId aux, const Expansion& base,
    const ExpansionBaseAnalysis& analysis, const ExpansionOptions& options);

/// Fills the derived sections of a delta whose `new_compound_classes`
/// are already set (canonically sorted among themselves, disjoint from
/// the base compound set, consistent with `schema`): the Natt/Nrel
/// entries of the new compounds, and every new compound attribute/
/// relation with at least one new endpoint — base pairs/tuples keep
/// their base verdicts and are never re-filtered. This is the one
/// derivation of the expansion: BuildExpansion and AssembleExpansion run
/// it over the expansion that holds only the empty compound (which has
/// no Natt/Nrel entry, so every candidate is new), the auxiliary-class
/// probe extension above and the lazy engine's refinement rounds over
/// their bases. Candidate pairs are filtered in parallel and relations
/// enumerated one task per relation under options.num_threads, with
/// output bit-identical for every thread count. Governor: one
/// "expansion-filter" / "expansion-relations" work unit per candidate,
/// cap trips recorded in those phases with the matching LimitKinds.
Status PopulateDeltaExtensions(const Schema& schema, const Expansion& base,
                               const ExpansionOptions& options,
                               ExpansionDelta* delta);

}  // namespace car

#endif  // CAR_EXPANSION_EXPANSION_DELTA_H_
