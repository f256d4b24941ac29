#include "expansion/expansion.h"

#include <algorithm>
#include <utility>

#include "base/strings.h"
#include "base/thread_pool.h"
#include "expansion/cluster_enum.h"
#include "expansion/expansion_delta.h"

namespace car {

void Expansion::RebuildDerivedIndexes() {
  ca_by_from.clear();
  ca_by_to.clear();
  cr_by_role.clear();
  compound_class_index_.clear();
  for (size_t i = 0; i < compound_classes.size(); ++i) {
    compound_class_index_.emplace(compound_classes[i].members(),
                                  static_cast<int>(i));
  }
  for (size_t i = 0; i < compound_attributes.size(); ++i) {
    const CompoundAttribute& ca = compound_attributes[i];
    ca_by_from[{ca.attribute, ca.from}].push_back(static_cast<int>(i));
    ca_by_to[{ca.attribute, ca.to}].push_back(static_cast<int>(i));
  }
  for (size_t i = 0; i < compound_relations.size(); ++i) {
    const CompoundRelation& cr = compound_relations[i];
    const int arity = static_cast<int>(cr.components.size());
    for (int k = 0; k < arity; ++k) {
      cr_by_role[{cr.relation, k, cr.components[k]}].push_back(
          static_cast<int>(i));
    }
  }
}

int Expansion::IndexOfCompoundClass(const CompoundClass& compound) const {
  auto it = compound_class_index_.find(compound.members());
  return it == compound_class_index_.end() ? -1 : it->second;
}

std::vector<int> Expansion::CompoundClassesContaining(ClassId class_id) const {
  std::vector<int> indices;
  for (size_t i = 0; i < compound_classes.size(); ++i) {
    if (compound_classes[i].Contains(class_id)) {
      indices.push_back(static_cast<int>(i));
    }
  }
  return indices;
}

std::string Expansion::Summary() const {
  return StrCat("expansion: ", compound_classes.size(), " compound classes, ",
                compound_attributes.size(), " compound attributes, ",
                compound_relations.size(), " compound relations, |Natt|=",
                natt.size(), ", |Nrel|=", nrel.size(), ", subsets visited ",
                subsets_visited);
}

namespace {

/// Number of leading enumeration positions fixed per shard: enough for
/// roughly four shards per thread (stealing slack for uneven subtrees),
/// capped so small clusters are not oversplit.
int PrefixBits(size_t positions, int threads) {
  if (threads <= 1) return 0;
  int bits = 0;
  while ((1u << bits) < 4u * static_cast<unsigned>(threads) && bits < 10) {
    ++bits;
  }
  return std::min(bits, static_cast<int>(positions));
}

}  // namespace

/// Builds an Expansion: enumerates the consistent compound classes with
/// the selected strategy, then derives Natt/Nrel and the constrained
/// compound attributes and relations with PopulateDeltaExtensions.
///
/// Enumeration is sharded: by connectivity cluster under the pruned
/// strategy, and additionally by decision prefix (the include/exclude
/// decisions for the first few classes of a cluster, or the low bits of
/// the subset mask for the exhaustive strategy). Shards are independent,
/// run on the shared pool, and their outputs are merged in shard order
/// and canonically sorted — so the resulting Expansion is bit-identical
/// for every thread count, with num_threads = 1 as the serial reference.
class ExpansionBuilder {
 public:
  ExpansionBuilder(const Schema& schema, const ExpansionOptions& options)
      : schema_(schema), options_(options), exec_(options.exec) {
    parallel_.num_threads = options.num_threads;
    parallel_.cancel = options.exec;
  }

  Result<Expansion> Build() {
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion"));
    CAR_RETURN_IF_ERROR(options_.strategy == ExpansionStrategy::kExhaustive
                            ? EnumerateExhaustive()
                            : EnumeratePruned());
    return Assemble(std::move(compounds_), subsets_visited_);
  }

  /// The same derivation over a caller-provided compound set (already
  /// canonically sorted, non-empty compounds only), so the artifact is
  /// exactly what Build() would produce had its enumeration emitted this
  /// set.
  Result<Expansion> BuildFrom(std::vector<CompoundClass> compounds) {
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion"));
    for (const CompoundClass& compound : compounds) {
      CAR_RETURN_IF_ERROR(GovChargeBytes(
          exec_,
          sizeof(CompoundClass) + compound.members().size() * sizeof(ClassId),
          "expansion"));
    }
    return Assemble(std::move(compounds), 0);
  }

 private:
  /// Output of one enumeration shard. Shards never touch shared state;
  /// everything is merged afterwards.
  struct ShardOutput {
    std::vector<CompoundClass> compounds;
    size_t subsets_visited = 0;
    Status status;
  };

  /// One pruned-walk shard: a cluster plus forced decisions for its first
  /// few classes.
  struct PrunedShard {
    const std::vector<ClassId>* cluster = nullptr;
    DecisionPrefix prefix;
  };

  /// Every shard walks the one pruned tree of its cluster.
  Status EnumeratePruned() {
    const ExpansionPreamble preamble =
        BuildExpansionPreamble(schema_, options_);
    const int threads = EffectiveThreads(options_.num_threads);
    std::vector<PrunedShard> shards;
    for (const std::vector<ClassId>& cluster : preamble.partition.clusters) {
      const int bits = PrefixBits(cluster.size(), threads);
      for (uint64_t prefix = 0; prefix < (1ull << bits); ++prefix) {
        shards.push_back({&cluster, {.bits = prefix, .length = bits}});
      }
    }
    std::vector<ShardOutput> outputs(shards.size());
    ParallelFor(
        shards.size(), parallel_,
        [this, &shards, &preamble, &outputs](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) {
            ShardOutput* out = &outputs[s];
            out->status = WalkPrunedTree(
                schema_, preamble.tables, *shards[s].cluster, shards[s].prefix,
                exec_, &out->subsets_visited,
                [this, out](CompoundClass compound) -> Result<WalkStep> {
                  CAR_RETURN_IF_ERROR(EmitCompound(std::move(compound), out));
                  return WalkStep::kContinue;
                });
          }
        });
    return MergeShards(std::move(outputs));
  }

  Status EnumerateExhaustive() {
    const int n = schema_.num_classes();
    if (n > 30) {
      return GovRecordTrip(exec_, LimitKind::kMaxCandidates, "expansion",
                           30, static_cast<uint64_t>(n));
    }
    const int threads = EffectiveThreads(options_.num_threads);
    const int prefix_bits = PrefixBits(n, threads);
    const size_t num_shards = 1ull << prefix_bits;

    std::vector<ShardOutput> outputs(num_shards);
    ParallelFor(num_shards, parallel_,
                [this, prefix_bits, &outputs](size_t begin, size_t end) {
                  for (size_t s = begin; s < end; ++s) {
                    RunExhaustiveShard(s, prefix_bits, &outputs[s]);
                  }
                });
    return MergeShards(std::move(outputs));
  }

  /// Enumerates the subset masks whose low `prefix_bits` bits equal
  /// `prefix` (every mask belongs to exactly one shard).
  void RunExhaustiveShard(uint64_t prefix, int prefix_bits,
                          ShardOutput* out) {
    const int n = schema_.num_classes();
    for (uint64_t high = 0; high < (1ull << (n - prefix_bits)); ++high) {
      const uint64_t mask = (high << prefix_bits) | prefix;
      if (mask == 0) continue;  // The empty compound is preadded.
      out->status = GovChargeWork(exec_, 1, "expansion");
      if (!out->status.ok()) return;
      ++out->subsets_visited;
      std::vector<ClassId> members;
      for (int c = 0; c < n; ++c) {
        if (mask & (1ull << c)) members.push_back(c);
      }
      CompoundClass compound(std::move(members));
      if (compound.IsConsistent(schema_)) {
        out->status = EmitCompound(std::move(compound), out);
        if (!out->status.ok()) return;
      }
    }
  }

  /// Appends to the shard, honoring the per-shard cap (a single shard at
  /// the cap already implies the merged total exceeds it).
  Status EmitCompound(CompoundClass compound, ShardOutput* out) {
    CAR_RETURN_IF_ERROR(
        AdmitCompound(compound, out->compounds.size(), options_));
    out->compounds.push_back(std::move(compound));
    return Status::Ok();
  }

  /// Merges shard outputs in shard order, re-checks the global cap (the
  /// empty compound counts), and canonically sorts the compound classes.
  /// The sort makes compound ids independent of sharding, thread count
  /// and enumeration order.
  Status MergeShards(std::vector<ShardOutput> outputs) {
    size_t total = 1;
    for (ShardOutput& out : outputs) {
      CAR_RETURN_IF_ERROR(out.status);
      subsets_visited_ += out.subsets_visited;
      total += out.compounds.size();
    }
    // A shard the pool skipped after a trip elsewhere kept its status ok;
    // the trip still fails the merge.
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion"));
    if (total > options_.max_compound_classes) {
      return GovRecordTrip(exec_, LimitKind::kMaxCompoundClasses,
                           "expansion", options_.max_compound_classes,
                           options_.max_compound_classes);
    }
    compounds_.reserve(total - 1);
    for (ShardOutput& out : outputs) {
      for (CompoundClass& compound : out.compounds) {
        compounds_.push_back(std::move(compound));
      }
    }
    std::sort(compounds_.begin(), compounds_.end());
    return Status::Ok();
  }

  /// Prepends the empty compound class (index 0: objects that are
  /// instances of no class; lexicographically least, so the order stays
  /// canonical) and derives the rest as the delta of `compounds` over the
  /// expansion that holds only it, whose sections are then moved in.
  Result<Expansion> Assemble(std::vector<CompoundClass> compounds,
                             size_t subsets_visited) {
    Expansion expansion;
    expansion.schema = &schema_;
    expansion.compound_classes.reserve(compounds.size() + 1);
    expansion.compound_classes.push_back(CompoundClass());
    ExpansionDelta delta;
    delta.new_compound_classes = std::move(compounds);
    CAR_RETURN_IF_ERROR(
        PopulateDeltaExtensions(schema_, expansion, options_, &delta));
    for (CompoundClass& compound : delta.new_compound_classes) {
      expansion.compound_classes.push_back(std::move(compound));
    }
    expansion.compound_attributes = std::move(delta.new_compound_attributes);
    expansion.compound_relations = std::move(delta.new_compound_relations);
    expansion.natt = std::move(delta.new_natt);
    expansion.nrel = std::move(delta.new_nrel);
    expansion.ca_by_from = std::move(delta.new_ca_by_from);
    expansion.ca_by_to = std::move(delta.new_ca_by_to);
    expansion.cr_by_role = std::move(delta.new_cr_by_role);
    expansion.subsets_visited = subsets_visited;
    for (size_t i = 0; i < expansion.compound_classes.size(); ++i) {
      expansion.compound_class_index_.emplace(
          expansion.compound_classes[i].members(), static_cast<int>(i));
    }
    return expansion;
  }

  const Schema& schema_;
  const ExpansionOptions& options_;
  ExecContext* exec_;
  ParallelForOptions parallel_;
  /// The merged enumeration: non-empty compounds, canonically sorted.
  std::vector<CompoundClass> compounds_;
  size_t subsets_visited_ = 0;
};

Result<Expansion> BuildExpansion(const Schema& schema,
                                 const ExpansionOptions& options) {
  CAR_RETURN_IF_ERROR(schema.Validate());
  return ExpansionBuilder(schema, options).Build();
}

Result<Expansion> AssembleExpansion(const Schema& schema,
                                    std::vector<CompoundClass> compounds,
                                    const ExpansionOptions& options) {
  CAR_RETURN_IF_ERROR(schema.Validate());
  return ExpansionBuilder(schema, options).BuildFrom(std::move(compounds));
}

}  // namespace car
