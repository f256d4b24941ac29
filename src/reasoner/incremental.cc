#include "reasoner/incremental.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "analysis/subschema.h"
#include "frontend/printer.h"
#include "reasoner/prefilter.h"
#include "solver/solve.h"

namespace car {

namespace {

static_assert(alignof(uint64_t) >=
              std::atomic_ref<uint64_t>::required_alignment);

/// Adds to a session counter that probe workers bump concurrently.
void AddRelaxed(uint64_t* counter, uint64_t value) {
  std::atomic_ref<uint64_t>(*counter).fetch_add(value,
                                                std::memory_order_relaxed);
}

/// Atomic max for the peak-tableau counters: probes run concurrently and
/// each folds its own per-probe maximum into the session's.
void MaxRelaxed(uint64_t* counter, uint64_t value) {
  std::atomic_ref<uint64_t> peak(*counter);
  uint64_t current = peak.load(std::memory_order_relaxed);
  while (current < value &&
         !peak.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

IncrementalSession::IncrementalSession(const Schema* schema,
                                       ReasonerOptions options)
    : schema_(schema), options_(std::move(options)) {
  CAR_CHECK(schema != nullptr);
  FanOutToStages(&options_);
}

namespace {

/// Appends the decimal text of `value`, byte for byte what streaming it
/// into the key would produce.
template <typename Int>
void AppendDecimal(std::string* out, Int value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

void SortUnique(std::vector<std::string>* items) {
  std::sort(items->begin(), items->end());
  items->erase(std::unique(items->begin(), items->end()), items->end());
}

}  // namespace

std::string IncrementalSession::CanonicalQueryKey(
    const ImplicationQuery& query) {
  std::string key;
  switch (query.kind) {
    case ImplicationQuery::Kind::kIsa: {
      // C ⊑ F is a conjunction of clause checks, each a disjunction of
      // literals: both levels are order- and duplication-insensitive, so
      // each is sorted as strings and deduplicated.
      std::vector<std::string> clauses;
      clauses.reserve(query.formula.clauses().size());
      std::vector<std::string> literals;
      for (const ClassClause& clause : query.formula.clauses()) {
        literals.clear();
        for (const ClassLiteral& literal : clause.literals()) {
          std::string& text =
              literals.emplace_back(literal.negated ? "-" : "+");
          AppendDecimal(&text, literal.class_id);
        }
        SortUnique(&literals);
        std::string& text = clauses.emplace_back();
        for (const std::string& entry : literals) {
          if (!text.empty()) text += ',';
          text += entry;
        }
      }
      SortUnique(&clauses);
      key = "isa|";
      AppendDecimal(&key, query.class_id);
      key += '|';
      for (const std::string& clause : clauses) {
        key += clause;
        key += ';';
      }
      return key;
    }
    case ImplicationQuery::Kind::kDisjoint:
      // Disjointness is symmetric (answer and error behavior alike).
      key = "dis|";
      AppendDecimal(&key, std::min(query.class_id, query.other));
      key += '|';
      AppendDecimal(&key, std::max(query.class_id, query.other));
      return key;
    case ImplicationQuery::Kind::kMinCardinality:
    case ImplicationQuery::Kind::kMaxCardinality:
      key = query.kind == ImplicationQuery::Kind::kMinCardinality ? "minc|"
                                                                  : "maxc|";
      AppendDecimal(&key, query.class_id);
      key += query.term.inverse ? "|~" : "|";
      AppendDecimal(&key, query.term.attribute);
      key += '|';
      AppendDecimal(&key, query.bound);
      return key;
    case ImplicationQuery::Kind::kMinParticipation:
    case ImplicationQuery::Kind::kMaxParticipation:
      key = query.kind == ImplicationQuery::Kind::kMinParticipation ? "minp|"
                                                                    : "maxp|";
      AppendDecimal(&key, query.class_id);
      key += '|';
      AppendDecimal(&key, query.relation);
      key += '|';
      AppendDecimal(&key, query.role);
      key += '|';
      AppendDecimal(&key, query.bound);
      return key;
  }
  return "invalid";
}

Status IncrementalSession::EnsureBase() {
  if (base_ready_) return Status::Ok();
  if (options_.lazy_expansion) {
    // Lazy session: defer the (possibly exponential) full expansion and
    // snapshot solve to EnsureSolvedBase — a probe that the lazy engine
    // answers conclusively never pays for them. The analyzer's validity
    // precondition is established explicitly here, since BuildExpansion
    // no longer runs first.
    CAR_RETURN_IF_ERROR(schema_->Validate());
  } else {
    CAR_RETURN_IF_ERROR(EnsureSolvedBaseLocked());
  }
  if (options_.prefilter) {
    // The prefilter tiers' artifact: propagated closure tables, unsat
    // flags and the dependency adjacency. Lint messages are skipped —
    // only the structure is needed here. The schema is validated by this
    // point on both branches above.
    AnalyzerOptions analyzer_options;
    analyzer_options.lint = false;
    schema_analysis_ = AnalyzeSchema(*schema_, analyzer_options);
  }
  base_ready_ = true;
  return Status::Ok();
}

Status IncrementalSession::EnsureSolvedBase() {
  if (base_solved_.load(std::memory_order_acquire)) return Status::Ok();
  // Double-checked: lazy probe workers race here when the delta path is
  // first needed; exactly one pays the build.
  std::lock_guard<std::mutex> lock(base_build_mutex_);
  if (base_solved_.load(std::memory_order_acquire)) return Status::Ok();
  return EnsureSolvedBaseLocked();
}

Status IncrementalSession::EnsureSolvedBaseLocked() {
  CAR_ASSIGN_OR_RETURN(Expansion expansion,
                       BuildExpansion(*schema_, options_.expansion));
  Result<ExpansionBaseAnalysis> analysis =
      AnalyzeBaseExpansion(*schema_, expansion, options_.expansion);
  if (analysis.ok()) {
    CAR_ASSIGN_OR_RETURN(IncrementalPsiBase psi_base,
                         PrepareIncrementalPsi(expansion, options_.solver));
    AddRelaxed(&stats_.scalar_promotions, psi_base.base_scalar_promotions);
    MaxRelaxed(&stats_.peak_tableau_nonzeros, psi_base.base_tableau_nonzeros);
    MaxRelaxed(&stats_.peak_tableau_cells, psi_base.base_tableau_cells);
    analysis_ = std::move(analysis.value());
    psi_base_ = std::move(psi_base);
  } else if (analysis.status().code() != StatusCode::kFailedPrecondition) {
    return analysis.status();
  }
  // kFailedPrecondition (e.g. the exhaustive strategy): the session still
  // works, every probe just takes the from-scratch fallback.
  base_expansion_ = std::move(expansion);
  ++stats_.base_builds;
  // Publishes base_expansion_/analysis_/psi_base_ to racing readers in
  // EnsureSolvedBase's fast path.
  base_solved_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status IncrementalSession::EnsureLazyBase() {
  if (lazy_base_ready_.load(std::memory_order_acquire)) return Status::Ok();
  std::lock_guard<std::mutex> lock(base_build_mutex_);
  if (lazy_base_ready_.load(std::memory_order_acquire)) return Status::Ok();
  if (options_.expansion.strategy == ExpansionStrategy::kPruned) {
    CAR_ASSIGN_OR_RETURN(
        LazyBase base,
        BuildLazySessionBase(*schema_, options_.expansion, options_.solver,
                             options_.lazy));
    AddRelaxed(&stats_.lazy_compounds_materialized, base.ledger.size());
    AddRelaxed(&stats_.scalar_promotions, base.psi->base_scalar_promotions);
    MaxRelaxed(&stats_.peak_tableau_nonzeros,
               base.psi->base_tableau_nonzeros);
    MaxRelaxed(&stats_.peak_tableau_cells, base.psi->base_tableau_cells);
    lazy_base_ = std::move(base);
    ++stats_.lazy_base_builds;
  }
  // Publishes lazy_base_ to racing readers in the fast path above.
  lazy_base_ready_.store(true, std::memory_order_release);
  return Status::Ok();
}

Result<bool> IncrementalSession::AuxSatisfiable(const Schema& extended,
                                                ClassId aux) {
  AddRelaxed(&stats_.probes, 1);
  // Tier-2: when the probe's dependency closure covers at most a quarter
  // of the schema, solve it exactly on the projected sub-schema instead
  // of delta-extending the full base. Sound and exact (subschema.h), so
  // the answer is bit-identical; the decision depends only on the query
  // and the base schema, so it is deterministic across thread counts.
  // The quarter threshold keeps the cold sub-solve competitive with a
  // warm-started delta: the sub-expansion must be much smaller than the
  // base for redoing its fixpoint from scratch to win (EXP-Q measures
  // this crossover; at one half the tier loses on small schemas).
  if (schema_analysis_.has_value()) {
    SubSchemaRequest request;
    request.seed_classes.push_back(aux);
    request.max_classes = static_cast<size_t>(extended.num_classes()) / 4;
    std::optional<SubSchema> sub =
        BuildSubSchema(extended, schema_analysis_->depends_on, request);
    if (sub.has_value() && sub->schema.Validate().ok()) {
      AddRelaxed(&stats_.cluster_local, 1);
      if (options_.exec != nullptr) {
        options_.exec->CountClusterLocalSolves(1);
      }
      CAR_ASSIGN_OR_RETURN(Expansion sub_expansion,
                           BuildExpansion(sub->schema, options_.expansion));
      CAR_ASSIGN_OR_RETURN(PsiSolution sub_solution,
                           SolvePsi(sub_expansion, options_.solver));
      return sub_solution.IsClassSatisfiable(sub->class_map[aux]);
    }
  }
  if (options_.lazy_expansion) {
    // Lazy probe: try to decide the auxiliary class over a small
    // materialized subset before touching — or, in a deferred session,
    // even building — the full base expansion, resuming from the
    // session's partial base. Conclusive answers are bit-identical to the
    // eager path by the lazy engine's contract.
    CAR_RETURN_IF_ERROR(EnsureLazyBase());
    CAR_ASSIGN_OR_RETURN(
        LazyOutcome lazy,
        RunLazyExpansion(extended, {aux}, /*analysis=*/nullptr,
                         options_.expansion, options_.solver, options_.lazy,
                         lazy_base_.has_value() ? &*lazy_base_ : nullptr));
    AddRelaxed(&stats_.lazy_refinement_rounds, lazy.refinement_rounds);
    AddRelaxed(&stats_.lazy_compounds_materialized,
               lazy.compounds_materialized - lazy.base_compounds);
    AddRelaxed(&stats_.warm_starts, lazy.warm_starts);
    AddRelaxed(&stats_.lazy_blocking_constraints, lazy.blocking_constraints);
    AddRelaxed(&stats_.lazy_certificate_closures, lazy.certificate_closures);
    if (lazy.spurious_witness) AddRelaxed(&stats_.spurious_witnesses, 1);
    if (lazy.conclusive) {
      AddRelaxed(&stats_.lazy_hits, 1);
      return static_cast<bool>(lazy.class_satisfiable[aux]);
    }
    // Inconclusive: fall through to the warm-start ladder, which needs
    // the solved base a lazy session has deferred until now.
    CAR_RETURN_IF_ERROR(EnsureSolvedBase());
  }
  if (analysis_.has_value()) {
    Result<ExpansionDelta> delta = ExtendExpansionWithAuxClass(
        extended, aux, *base_expansion_, *analysis_, options_.expansion);
    if (delta.ok()) {
      AddRelaxed(&stats_.clusters_reused, delta.value().clusters_reused);
      AddRelaxed(&stats_.clusters_reenumerated,
                 delta.value().clusters_reenumerated);
      CAR_ASSIGN_OR_RETURN(
          IncrementalProbeResult probe,
          SolvePsiIncremental(*base_expansion_, *psi_base_, delta.value(),
                              aux, options_.solver));
      AddRelaxed(&stats_.warm_starts, probe.lp_solves);
      AddRelaxed(&stats_.scalar_promotions, probe.scalar_promotions);
      MaxRelaxed(&stats_.peak_tableau_nonzeros, probe.peak_tableau_nonzeros);
      MaxRelaxed(&stats_.peak_tableau_cells, probe.peak_tableau_cells);
      return probe.aux_satisfiable;
    }
    // Governor trips and genuine failures propagate; only the explicit
    // "cannot establish the base-prefix property" verdict falls back.
    if (delta.status().code() != StatusCode::kFailedPrecondition) {
      return delta.status();
    }
  }
  AddRelaxed(&stats_.fallbacks, 1);
  CAR_ASSIGN_OR_RETURN(Expansion expansion,
                       BuildExpansion(extended, options_.expansion));
  CAR_ASSIGN_OR_RETURN(PsiSolution solution,
                       SolvePsi(expansion, options_.solver));
  return solution.IsClassSatisfiable(aux);
}

Result<std::vector<bool>> IncrementalSession::RunImplicationBatch(
    const std::vector<ImplicationQuery>& queries) {
  ExecContext* exec = options_.exec;
  for (const ImplicationQuery& query : queries) {
    CAR_RETURN_IF_ERROR(ValidateImplicationQuery(*schema_, query));
  }
  Status base = EnsureBase();
  if (!base.ok()) {
    // Match the from-scratch batch: a trip anywhere in the batch is
    // reported in the batch's own phase, independent of scheduling.
    if (exec != nullptr && exec->tripped()) {
      exec->OverridePhaseOnTrip("implication");
    }
    return base;
  }

  // Serial resolve pass over the validated queries: trivial bound shapes,
  // memo hits, tier-0 certificates, and deduplication of the remaining
  // queries by canonical key.
  struct Slot {
    bool resolved = false;
    bool answer = false;
    int unique_index = -1;
  };
  std::vector<Slot> slots(queries.size());
  std::vector<const ImplicationQuery*> unique;
  std::vector<std::string> unique_keys;
  std::map<std::string, int> key_to_unique;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (IsTriviallyImplied(queries[i])) {
      slots[i].resolved = true;
      slots[i].answer = true;
      ++stats_.trivial;
      if (exec != nullptr) exec->CountQueries(1);
      continue;
    }
    std::string key = CanonicalQueryKey(queries[i]);
    if (auto hit = memo_.find(key); hit != memo_.end()) {
      slots[i].resolved = true;
      slots[i].answer = hit->second;
      ++stats_.memo_hits;
      if (exec != nullptr) {
        exec->CountMemoHits(1);
        exec->CountQueries(1);
      }
      continue;
    }
    // Tier-0: sound certificate lookup on the static closure, the first
    // time a query shape is seen; the answer is memoized so repeats stay
    // plain memo hits. Declines (nullopt) fall through to the solver.
    if (schema_analysis_.has_value()) {
      if (std::optional<bool> certified = ClosurePrefilterAnswer(
              *schema_, *schema_analysis_, queries[i])) {
        slots[i].resolved = true;
        slots[i].answer = *certified;
        ++stats_.closure_hits;
        memo_.emplace(std::move(key), *certified);
        if (exec != nullptr) {
          exec->CountPrefilterHits(1);
          exec->CountQueries(1);
        }
        continue;
      }
    }
    ++stats_.memo_misses;
    if (exec != nullptr) exec->CountMemoMisses(1);
    auto [entry, inserted] = key_to_unique.emplace(
        std::move(key), static_cast<int>(unique.size()));
    if (inserted) {
      unique.push_back(&queries[i]);
      unique_keys.push_back(entry->first);
    }
    slots[i].unique_index = entry->second;
  }

  // The deduplicated misses run through the shared batch loop with this
  // session's probe ladder as the oracle. Its first error in unique order
  // is the first in original query order too: unique indices follow
  // first occurrence.
  std::vector<bool> decided;
  if (!unique.empty()) {
    CAR_ASSIGN_OR_RETURN(
        decided,
        DecideImplicationBatch(
            *schema_, unique,
            [this](const Schema& extended, ClassId aux) {
              return AuxSatisfiable(extended, aux);
            },
            options_.num_threads, exec));
  }
  // Only successful answers are memoized; a tripped or failed batch
  // recomputes everything next time.
  for (size_t u = 0; u < unique.size(); ++u) {
    memo_.emplace(unique_keys[u], decided[u]);
  }
  stats_.queries += queries.size();
  std::vector<bool> answers;
  answers.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    answers.push_back(slots[i].resolved ? slots[i].answer
                                        : decided[slots[i].unique_index]);
  }
  return answers;
}

Result<bool> IncrementalSession::RunImplicationQuery(
    const ImplicationQuery& query) {
  std::vector<ImplicationQuery> one(1, query);
  CAR_ASSIGN_OR_RETURN(std::vector<bool> answers, RunImplicationBatch(one));
  CAR_CHECK_EQ(answers.size(), size_t{1});
  return static_cast<bool>(answers[0]);
}

void IncrementalSession::set_exec(ExecContext* exec) {
  options_.exec = exec;
  FanOutToStages(&options_);
}

uint64_t IncrementalSession::EstimatedMemoryBytes() const {
  // Order-of-magnitude per-component costs. Exact accounting is neither
  // possible (allocator overhead, node-based containers) nor needed:
  // eviction only ranks warm sessions against each other, so the
  // estimate just has to be deterministic and monotone in the real
  // footprint.
  constexpr uint64_t kPerCompoundClass = 64;
  constexpr uint64_t kPerCompoundEdge = 48;
  constexpr uint64_t kPerTableauNonzero = 24;
  constexpr uint64_t kPerMemoEntry = 48;
  constexpr uint64_t kPerSchemaClass = 96;
  // The session object and its fixed-size members, charged as a constant
  // rather than sizeof(*this) so the estimate does not move with object
  // layout or the standard library's container sizes.
  constexpr uint64_t kPerSession = 4096;

  uint64_t bytes = kPerSession;
  bytes += static_cast<uint64_t>(schema_->num_classes()) * kPerSchemaClass;
  if (base_expansion_.has_value()) {
    bytes += base_expansion_->compound_classes.size() * kPerCompoundClass;
    bytes +=
        base_expansion_->compound_attributes.size() * kPerCompoundEdge;
    bytes += base_expansion_->compound_relations.size() * kPerCompoundEdge;
  }
  if (psi_base_.has_value()) {
    bytes += psi_base_->base_tableau_nonzeros * kPerTableauNonzero;
  }
  if (lazy_base_.has_value()) {
    // The ledger keeps its own copy of every member set.
    bytes += (lazy_base_->ledger.size() +
              lazy_base_->expansion.compound_classes.size()) *
             kPerCompoundClass;
    bytes += lazy_base_->expansion.compound_attributes.size() *
             kPerCompoundEdge;
    bytes += lazy_base_->expansion.compound_relations.size() *
             kPerCompoundEdge;
    bytes += lazy_base_->psi->base_tableau_nonzeros * kPerTableauNonzero;
  }
  for (const auto& [key, answer] : memo_) {
    (void)answer;
    bytes += key.size() + kPerMemoEntry;
  }
  return bytes;
}

bool IncrementalSession::SnapshotEligible() const {
  return !options_.lazy_expansion ||
         base_solved_.load(std::memory_order_acquire);
}

Result<std::string> IncrementalSession::Serialize() {
  CAR_RETURN_IF_ERROR(EnsureBase());
  if (!SnapshotEligible()) {
    // A lazy session mid-refinement (or one that never needed the full
    // base) holds only a partial materialization. Serializing would
    // require paying the full eager build this session existed to avoid,
    // and silently spilling the partial state as if it were the full
    // warm base would poison every future restore. Decline; the caller
    // (e.g. the serving cache) skips the spill.
    return FailedPrecondition(
        "snapshot-ineligible: lazy session has not built the full base "
        "expansion");
  }
  persist::WarmSnapshot snapshot;
  snapshot.header.format_version = persist::kSnapshotFormatVersion;
  snapshot.header.abi_fingerprint = persist::SnapshotAbiFingerprint();
  snapshot.header.schema_fingerprint = SchemaFingerprint(*schema_);
  snapshot.header.num_classes =
      static_cast<uint32_t>(schema_->num_classes());
  snapshot.header.num_attributes =
      static_cast<uint32_t>(schema_->num_attributes());
  snapshot.header.num_relations =
      static_cast<uint32_t>(schema_->num_relations());
  snapshot.expansion = *base_expansion_;
  if (psi_base_.has_value()) {
    snapshot.has_psi = true;
    snapshot.psi_snapshot = psi_base_->snapshot;
    snapshot.base_pivots = psi_base_->base_pivots;
    snapshot.base_scalar_promotions = psi_base_->base_scalar_promotions;
    snapshot.base_tableau_nonzeros = psi_base_->base_tableau_nonzeros;
    snapshot.base_tableau_cells = psi_base_->base_tableau_cells;
  }
  snapshot.memo = memo_;
  return persist::EncodeSnapshot(snapshot);
}

Status IncrementalSession::Deserialize(std::string_view bytes) {
  CAR_ASSIGN_OR_RETURN(persist::WarmSnapshot snapshot,
                       persist::DecodeSnapshot(bytes));
  return Restore(std::move(snapshot));
}

Status IncrementalSession::Restore(persist::WarmSnapshot snapshot) {
  // The snapshot must have been built from exactly the borrowed schema:
  // the fingerprint covers the canonical printed form, the extents guard
  // the id spaces every section was validated against.
  if (snapshot.header.schema_fingerprint != SchemaFingerprint(*schema_)) {
    return FailedPrecondition(
        "snapshot was built for a different schema (fingerprint mismatch)");
  }
  if (snapshot.header.num_classes !=
          static_cast<uint32_t>(schema_->num_classes()) ||
      snapshot.header.num_attributes !=
          static_cast<uint32_t>(schema_->num_attributes()) ||
      snapshot.header.num_relations !=
          static_cast<uint32_t>(schema_->num_relations())) {
    return FailedPrecondition(
        "snapshot schema extents disagree with the live schema");
  }
  // From here on the session is COLD until restore fully succeeds: any
  // failure below leaves base_ready_ false and the next query rebuilds
  // from scratch — a restore can degrade to a cold start but never to a
  // corrupted warm state.
  base_ready_ = false;
  base_solved_.store(false, std::memory_order_release);
  lazy_base_ready_.store(false, std::memory_order_release);
  memo_.clear();
  base_expansion_.reset();
  analysis_.reset();
  psi_base_.reset();
  lazy_base_.reset();
  schema_analysis_.reset();

  snapshot.expansion.schema = schema_;
  // Derived lookup indexes are rebuilt, never trusted from disk.
  snapshot.expansion.RebuildDerivedIndexes();
  if (options_.prefilter) {
    AnalyzerOptions analyzer_options;
    analyzer_options.lint = false;
    schema_analysis_ = AnalyzeSchema(*schema_, analyzer_options);
  }
  Result<ExpansionBaseAnalysis> analysis =
      AnalyzeBaseExpansion(*schema_, snapshot.expansion, options_.expansion);
  if (analysis.ok() != snapshot.has_psi) {
    // The live analysis decides whether the incremental Ψ path exists;
    // a snapshot that disagrees was built under different options.
    return FailedPrecondition(
        "snapshot psi presence disagrees with the live base analysis");
  }
  if (!analysis.ok() &&
      analysis.status().code() != StatusCode::kFailedPrecondition) {
    return analysis.status();
  }
  if (snapshot.has_psi) {
    // Rebuild the deterministic structure around the persisted basis and
    // verify the basis fits it before anything resumes from it.
    CAR_ASSIGN_OR_RETURN(
        IncrementalPsiBase psi_base,
        BuildIncrementalPsiBaseStructure(snapshot.expansion,
                                         options_.solver));
    CAR_RETURN_IF_ERROR(ValidateSnapshotShape(snapshot.psi_snapshot,
                                              psi_base.psi.system));
    psi_base.snapshot = std::move(snapshot.psi_snapshot);
    psi_base.base_pivots = static_cast<size_t>(snapshot.base_pivots);
    psi_base.base_scalar_promotions = snapshot.base_scalar_promotions;
    psi_base.base_tableau_nonzeros = snapshot.base_tableau_nonzeros;
    psi_base.base_tableau_cells = snapshot.base_tableau_cells;
    // Fold the frozen base-solve costs into the session counters exactly
    // as EnsureBase would after solving, so stats and memory estimates
    // match a session that paid the solve itself.
    AddRelaxed(&stats_.scalar_promotions, psi_base.base_scalar_promotions);
    MaxRelaxed(&stats_.peak_tableau_nonzeros, psi_base.base_tableau_nonzeros);
    MaxRelaxed(&stats_.peak_tableau_cells, psi_base.base_tableau_cells);
    analysis_ = std::move(analysis.value());
    psi_base_ = std::move(psi_base);
  }
  base_expansion_ = std::move(snapshot.expansion);
  memo_ = std::move(snapshot.memo);
  base_ready_ = true;
  // A restored snapshot IS the full warm base, so even a lazy session is
  // immediately snapshot-eligible and delta-capable again.
  base_solved_.store(true, std::memory_order_release);
  ++stats_.base_restores;
  return Status::Ok();
}

}  // namespace car
