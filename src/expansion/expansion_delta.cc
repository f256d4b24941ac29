#include "expansion/expansion_delta.h"

#include <algorithm>
#include <set>
#include <utility>

#include "base/check.h"
#include "base/thread_pool.h"

namespace car {

namespace {

/// True when the cluster's pruning inputs agree under both tables: every
/// within-cluster disjointness and inclusion entry (including the
/// self-disjointness diagonal) is identical. Together with an identical
/// class list this makes the pruned walk — and hence the emitted compound
/// set — identical, because the walk consults exactly AreDisjoint(c, c),
/// AreDisjoint(c, included), IsIncluded(included, c) and the
/// excluded-superclass test, whose out-of-cluster part is inert (classes
/// of other clusters are never marked excluded).
bool ClusterTablesUnchanged(const std::vector<ClassId>& cluster,
                            const PairTables& base_tables,
                            const PairTables& ext_tables) {
  for (ClassId c : cluster) {
    for (ClassId d : cluster) {
      if (base_tables.AreDisjoint(c, d) != ext_tables.AreDisjoint(c, d)) {
        return false;
      }
      if (base_tables.IsIncluded(c, d) != ext_tables.IsIncluded(c, d)) {
        return false;
      }
    }
  }
  return true;
}

/// The compound relations one relation contributes, before the ordered
/// merge assigns their indices.
struct RelationOutput {
  std::vector<CompoundRelation> relations;
  Status status;
};

/// One derivation of a delta's sections over `base`. A global compound
/// index i names base.compound_classes[i] below the base count and
/// delta->new_compound_classes[i - base count] from there.
class DeltaDerivation {
 public:
  DeltaDerivation(const Schema& schema, const Expansion& base,
                  const ExpansionOptions& options, ExpansionDelta* delta)
      : schema_(schema),
        base_(base),
        options_(options),
        exec_(options.exec),
        delta_(*delta),
        num_base_cc_(static_cast<int>(base.compound_classes.size())),
        num_total_cc_(num_base_cc_ +
                      static_cast<int>(delta->new_compound_classes.size())) {
    parallel_.num_threads = options.num_threads;
    parallel_.cancel = options.exec;
  }

  Status Run() {
    DeriveNattNrel();
    CAR_RETURN_IF_ERROR(DeriveCompoundAttributes());
    CAR_RETURN_IF_ERROR(DeriveCompoundRelations());
    return GovCheck(exec_, "expansion");
  }

 private:
  /// The per-relation state of the component enumeration.
  struct RelationFill {
    RelationId relation;
    const RelationDefinition* definition;
    /// Per role: the base and the new compounds its single-literal
    /// role-clauses admit, each ascending.
    std::vector<std::vector<int>> allowed_base;
    std::vector<std::vector<int>> allowed_new;
    std::vector<int> components = {};
    /// Component vectors already enumerated from another anchor.
    std::set<std::vector<int>> seen = {};
    RelationOutput* out;
  };

  const CompoundClass& CompoundAt(int global) const {
    return global < num_base_cc_
               ? base_.compound_classes[global]
               : delta_.new_compound_classes[global - num_base_cc_];
  }

  /// Natt/Nrel entries of the new compounds. Entries are intrinsic to a
  /// compound's members (intersection of their specs), so base entries
  /// are unchanged and only the new compounds contribute.
  void DeriveNattNrel() {
    for (int global = num_base_cc_; global < num_total_cc_; ++global) {
      for (ClassId member : CompoundAt(global).members()) {
        const ClassDefinition& definition = schema_.class_definition(member);
        for (const AttributeSpec& spec : definition.attributes) {
          auto [it, inserted] = delta_.new_natt.emplace(
              std::make_pair(spec.term, global), spec.cardinality);
          if (!inserted) {
            it->second =
                Cardinality::IntersectUnchecked(it->second, spec.cardinality);
          }
        }
        for (const ParticipationSpec& spec : definition.participations) {
          const RelationDefinition* relation =
              schema_.relation_definition(spec.relation);
          CAR_CHECK(relation != nullptr);
          const int role_index = relation->RoleIndex(spec.role);
          CAR_CHECK_GE(role_index, 0);
          auto [it, inserted] = delta_.new_nrel.emplace(
              std::make_tuple(spec.relation, role_index, global),
              spec.cardinality);
          if (!inserted) {
            it->second =
                Cardinality::IntersectUnchecked(it->second, spec.cardinality);
          }
        }
      }
    }
  }

  /// New compound attributes: the pairs with at least one new endpoint
  /// whose source carries a direct Natt entry or whose target carries an
  /// inverse one. Consistency is intrinsic to (attribute, from, to), so
  /// base pairs keep their base verdicts and are never re-filtered.
  Status DeriveCompoundAttributes() {
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion-filter"));
    const int num_attributes = schema_.num_attributes();
    // Constrained endpoints per attribute, split base/new; each list is
    // ascending because the Natt maps iterate in (term, index) order.
    std::vector<std::vector<int>> base_from(num_attributes);
    std::vector<std::vector<int>> base_to(num_attributes);
    std::vector<std::vector<int>> new_from(num_attributes);
    std::vector<std::vector<int>> new_to(num_attributes);
    for (const auto& [key, cardinality] : base_.natt) {
      (key.first.inverse ? base_to : base_from)[key.first.attribute]
          .push_back(key.second);
    }
    for (const auto& [key, cardinality] : delta_.new_natt) {
      (key.first.inverse ? new_to : new_from)[key.first.attribute].push_back(
          key.second);
    }

    const size_t num_base_ca = base_.compound_attributes.size();
    std::vector<char> constrained_from(num_total_cc_, 0);
    std::vector<std::pair<int, int>> candidates;
    std::vector<char> keep;
    ParallelForOptions filter_options = parallel_;
    filter_options.min_chunk = 64;
    for (AttributeId a = 0; a < num_attributes; ++a) {
      if (base_from[a].empty() && base_to[a].empty() && new_from[a].empty() &&
          new_to[a].empty()) {
        continue;
      }
      // Candidates in ascending (from, to) order, each once: a constrained
      // source pairs with every target (a base source with the new ones
      // only), any other source with the constrained targets.
      for (int from : base_from[a]) constrained_from[from] = 1;
      for (int from : new_from[a]) constrained_from[from] = 1;
      candidates.clear();
      for (int from = 0; from < num_total_cc_; ++from) {
        const bool from_new = from >= num_base_cc_;
        if (constrained_from[from]) {
          for (int to = from_new ? 0 : num_base_cc_; to < num_total_cc_;
               ++to) {
            candidates.emplace_back(from, to);
          }
          continue;
        }
        if (from_new) {
          for (int to : base_to[a]) candidates.emplace_back(from, to);
        }
        for (int to : new_to[a]) candidates.emplace_back(from, to);
      }
      for (int from : base_from[a]) constrained_from[from] = 0;
      for (int from : new_from[a]) constrained_from[from] = 0;

      // Consistency filtering is independent per candidate: filter in
      // parallel, then append the survivors in candidate order.
      keep.assign(candidates.size(), 0);
      ParallelFor(candidates.size(), filter_options,
                  [this, a, &candidates, &keep](size_t begin, size_t end) {
                    for (size_t i = begin; i < end; ++i) {
                      // One work unit per filtered candidate; a tripped
                      // context aborts the chunk (its outputs are
                      // discarded with the whole derivation).
                      if (!GovChargeWork(exec_, 1, "expansion-filter").ok()) {
                        return;
                      }
                      keep[i] = IsConsistentCompoundAttribute(
                                    schema_, a,
                                    CompoundAt(candidates[i].first),
                                    CompoundAt(candidates[i].second))
                                    ? 1
                                    : 0;
                    }
                  });
      CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion-filter"));
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (!keep[i]) continue;
        const size_t index =
            num_base_ca + delta_.new_compound_attributes.size();
        if (index >= options_.max_compound_attributes) {
          return GovRecordTrip(exec_, LimitKind::kMaxCompoundAttributes,
                               "expansion-filter",
                               options_.max_compound_attributes,
                               options_.max_compound_attributes);
        }
        const auto& [from, to] = candidates[i];
        delta_.new_compound_attributes.push_back({a, from, to});
        delta_.new_ca_by_from[{a, from}].push_back(static_cast<int>(index));
        delta_.new_ca_by_to[{a, to}].push_back(static_cast<int>(index));
      }
    }
    return Status::Ok();
  }

  /// New compound relations: relations are independent of each other, so
  /// they are enumerated in parallel, one task per relation, and merged
  /// in relation-id order.
  Status DeriveCompoundRelations() {
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion-relations"));
    const size_t num_relations = static_cast<size_t>(schema_.num_relations());
    std::vector<RelationOutput> outputs(num_relations);
    ParallelFor(num_relations, parallel_,
                [this, &outputs](size_t begin, size_t end) {
                  for (size_t r = begin; r < end; ++r) {
                    EnumerateRelation(static_cast<RelationId>(r),
                                      &outputs[r]);
                  }
                });
    const size_t num_base_cr = base_.compound_relations.size();
    for (RelationOutput& output : outputs) {
      CAR_RETURN_IF_ERROR(output.status);
      for (CompoundRelation& cr : output.relations) {
        const size_t index =
            num_base_cr + delta_.new_compound_relations.size();
        if (index >= options_.max_compound_relations) {
          return GovRecordTrip(exec_, LimitKind::kMaxCompoundRelations,
                               "expansion-relations",
                               options_.max_compound_relations,
                               options_.max_compound_relations);
        }
        for (size_t k = 0; k < cr.components.size(); ++k) {
          delta_.new_cr_by_role[{cr.relation, static_cast<int>(k),
                                 cr.components[k]}]
              .push_back(static_cast<int>(index));
        }
        delta_.new_compound_relations.push_back(std::move(cr));
      }
    }
    return Status::Ok();
  }

  /// The component vectors of relation r with at least one new component
  /// and a component carrying an Nrel entry at its role (the anchor).
  /// Tuples anchored at a new constrained compound are all new; tuples
  /// anchored at a base constrained compound are enumerated by the first
  /// position holding a new compound. The seen-set dedupes tuples reached
  /// from several anchors.
  void EnumerateRelation(RelationId r, RelationOutput* out) const {
    const RelationDefinition* definition = schema_.relation_definition(r);
    if (definition == nullptr) return;
    const int arity = definition->arity();

    std::vector<std::vector<int>> anchors_base(arity);
    std::vector<std::vector<int>> anchors_new(arity);
    auto collect = [r](const auto& nrel,
                       std::vector<std::vector<int>>* anchors) {
      bool any = false;
      for (auto it = nrel.lower_bound({r, 0, 0});
           it != nrel.end() && std::get<0>(it->first) == r; ++it) {
        (*anchors)[std::get<1>(it->first)].push_back(std::get<2>(it->first));
        any = true;
      }
      return any;
    };
    const bool constrained_base = collect(base_.nrel, &anchors_base);
    const bool constrained_new = collect(delta_.new_nrel, &anchors_new);
    if (!constrained_base && !constrained_new) return;

    RelationFill fill{.relation = r,
                      .definition = definition,
                      .allowed_base = std::vector<std::vector<int>>(arity),
                      .allowed_new = std::vector<std::vector<int>>(arity),
                      .out = out};
    // Single-literal role-clauses restrict the compound at their role
    // unconditionally.
    for (int k = 0; k < arity; ++k) {
      for (int i = 0; i < num_total_cc_; ++i) {
        bool ok = true;
        for (const RoleClause& clause : definition->constraints) {
          if (clause.literals.size() != 1) continue;
          const RoleLiteral& literal = clause.literals[0];
          if (definition->RoleIndex(literal.role) != k) continue;
          if (!CompoundAt(i).Realizes(literal.formula)) {
            ok = false;
            break;
          }
        }
        if (ok) {
          (i < num_base_cc_ ? fill.allowed_base : fill.allowed_new)[k]
              .push_back(i);
        }
      }
    }

    for (int anchor = 0; anchor < arity && out->status.ok(); ++anchor) {
      for (int anchored : anchors_new[anchor]) {
        fill.components.assign(arity, -1);
        fill.components[anchor] = anchored;
        Fill(&fill, 0, -1);
        if (!out->status.ok()) break;
      }
      for (int anchored : anchors_base[anchor]) {
        for (int min_new = 0; min_new < arity && out->status.ok();
             ++min_new) {
          if (min_new == anchor) continue;
          fill.components.assign(arity, -1);
          fill.components[anchor] = anchored;
          Fill(&fill, 0, min_new);
        }
      }
    }
  }

  /// Fills the positions from `position` on, left to right, skipping the
  /// pre-placed anchor. `min_new` = -1: every position ranges over base
  /// then new compounds (the anchor itself is new). `min_new` >= 0:
  /// positions before it are base-only, it is new-only, later positions
  /// are unrestricted — partitioning the tuples with a new component by
  /// their first new position.
  void Fill(RelationFill* fill, int position, int min_new) const {
    RelationOutput* out = fill->out;
    if (!out->status.ok()) return;
    std::vector<int>& components = fill->components;
    const int arity = static_cast<int>(components.size());
    if (position == arity) {
      out->status = GovChargeWork(exec_, 1, "expansion-relations");
      if (!out->status.ok()) return;
      if (!fill->seen.insert(components).second) return;
      std::vector<const CompoundClass*> views;
      views.reserve(arity);
      for (int index : components) views.push_back(&CompoundAt(index));
      if (!IsConsistentCompoundRelation(schema_, *fill->definition, views)) {
        return;
      }
      if (base_.compound_relations.size() + out->relations.size() >=
          options_.max_compound_relations) {
        out->status = GovRecordTrip(exec_, LimitKind::kMaxCompoundRelations,
                                    "expansion-relations",
                                    options_.max_compound_relations,
                                    options_.max_compound_relations);
        return;
      }
      out->relations.push_back({fill->relation, components});
      return;
    }
    if (components[position] >= 0) {  // The anchor; already placed.
      Fill(fill, position + 1, min_new);
      return;
    }
    if (min_new < 0 || position != min_new) {
      for (int candidate : fill->allowed_base[position]) {
        components[position] = candidate;
        Fill(fill, position + 1, min_new);
        if (!out->status.ok()) break;
      }
    }
    if ((min_new < 0 || position >= min_new) && out->status.ok()) {
      for (int candidate : fill->allowed_new[position]) {
        components[position] = candidate;
        Fill(fill, position + 1, min_new);
        if (!out->status.ok()) break;
      }
    }
    components[position] = -1;
  }

  const Schema& schema_;
  const Expansion& base_;
  const ExpansionOptions& options_;
  ExecContext* exec_;
  ExpansionDelta& delta_;
  ParallelForOptions parallel_;
  const int num_base_cc_;
  const int num_total_cc_;
};

}  // namespace

Result<ExpansionBaseAnalysis> AnalyzeBaseExpansion(
    const Schema& schema, const Expansion& base,
    const ExpansionOptions& options) {
  if (options.strategy != ExpansionStrategy::kPruned) {
    return FailedPrecondition(
        "incremental expansion deltas require the pruned strategy");
  }
  ExpansionBaseAnalysis analysis{BuildExpansionPreamble(schema, options), {},
                                 {}};
  const ClusterPartition& partition = analysis.preamble.partition;
  analysis.cluster_compounds.assign(partition.num_clusters(), {});
  for (size_t i = 1; i < base.compound_classes.size(); ++i) {
    const CompoundClass& compound = base.compound_classes[i];
    CAR_CHECK(!compound.empty());
    const int cluster = partition.cluster_of[compound.members().front()];
    // The pruned enumeration never mixes clusters; verify rather than
    // assume (a mismatch would mean `base` was built with different
    // options than the ones given here).
    for (ClassId member : compound.members()) {
      if (partition.cluster_of[member] != cluster) {
        return FailedPrecondition(
            "base expansion has a cross-cluster compound class; it was "
            "not built with the given options");
      }
    }
    analysis.cluster_compounds[cluster].push_back(static_cast<int>(i));
  }
  for (int k = 0; k < partition.num_clusters(); ++k) {
    analysis.cluster_by_classes.emplace(partition.clusters[k], k);
  }
  return analysis;
}

Result<ExpansionDelta> ExtendExpansionWithAuxClass(
    const Schema& ext_schema, ClassId aux, const Expansion& base,
    const ExpansionBaseAnalysis& analysis, const ExpansionOptions& options) {
  CAR_CHECK_EQ(static_cast<int>(aux), ext_schema.num_classes() - 1);
  ExecContext* exec = options.exec;
  CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));

  const int num_base_cc = static_cast<int>(base.compound_classes.size());
  ExpansionDelta delta;

  // --- Compound classes: re-cluster the extended schema; clusters whose
  // class list and within-cluster table rows are unchanged keep their base
  // compounds wholesale, the rest are walked again under the extended
  // preamble.
  const ExpansionPreamble ext = BuildExpansionPreamble(ext_schema, options);

  // Base compounds the re-enumerated clusters must re-emit (all compounds
  // of every base cluster they cover) vs. those actually seen. Set
  // equality is the base-prefix guarantee: extended set = base ∪ new.
  std::set<int> expected_base;
  std::set<int> reemitted_base;
  std::vector<CompoundClass> new_compounds;

  for (const std::vector<ClassId>& cluster : ext.partition.clusters) {
    bool reusable = false;
    if (std::find(cluster.begin(), cluster.end(), aux) == cluster.end()) {
      auto it = analysis.cluster_by_classes.find(cluster);
      if (it != analysis.cluster_by_classes.end() &&
          ClusterTablesUnchanged(cluster, analysis.preamble.tables,
                                 ext.tables)) {
        reusable = true;
      }
    }
    if (reusable) {
      ++delta.clusters_reused;
      continue;
    }
    ++delta.clusters_reenumerated;
    for (ClassId c : cluster) {
      if (c == aux) continue;
      for (int index : analysis.cluster_compounds
                           [analysis.preamble.partition.cluster_of[c]]) {
        expected_base.insert(index);
      }
    }
    CAR_RETURN_IF_ERROR(WalkPrunedTree(
        ext_schema, ext.tables, cluster, DecisionPrefix{}, exec,
        &delta.subsets_visited,
        [&](CompoundClass compound) -> Result<WalkStep> {
          const int base_index = base.IndexOfCompoundClass(compound);
          if (base_index >= 0) {
            reemitted_base.insert(base_index);
            return WalkStep::kContinue;
          }
          CAR_RETURN_IF_ERROR(AdmitCompound(
              compound, static_cast<size_t>(num_base_cc) + new_compounds.size(),
              options));
          new_compounds.push_back(std::move(compound));
          return WalkStep::kContinue;
        }));
  }
  if (expected_base != reemitted_base) {
    // The auxiliary class changed the preselection outcome for base
    // classes (e.g. a union-free schema became non-union-free, losing
    // completed disjointness entries); the frozen base prefix would not
    // match a from-scratch build, so the caller must fall back. Answers
    // are never silently approximated.
    return FailedPrecondition(
        "expansion delta: re-enumerated clusters did not reproduce the "
        "base compound classes; from-scratch fallback required");
  }
  std::sort(new_compounds.begin(), new_compounds.end());
  delta.new_compound_classes = std::move(new_compounds);
  CAR_RETURN_IF_ERROR(
      PopulateDeltaExtensions(ext_schema, base, options, &delta));
  return delta;
}

Status PopulateDeltaExtensions(const Schema& schema, const Expansion& base,
                               const ExpansionOptions& options,
                               ExpansionDelta* delta) {
  return DeltaDerivation(schema, base, options, delta).Run();
}

}  // namespace car
