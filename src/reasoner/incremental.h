#ifndef CAR_REASONER_INCREMENTAL_H_
#define CAR_REASONER_INCREMENTAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "expansion/expansion_delta.h"
#include "persist/snapshot_format.h"
#include "reasoner/reasoner.h"
#include "solver/incremental_psi.h"

namespace car {

/// Cumulative statistics of an IncrementalSession: how the queries were
/// answered and how much of the incremental machinery engaged.
struct IncrementalStats {
  /// Queries answered (memoized, trivial, and probed alike).
  uint64_t queries = 0;
  /// Answered by a bound-shape shortcut (min 0 / max infinity) without
  /// touching the memo or the solver.
  uint64_t trivial = 0;
  /// Answered by the tier-0 static-closure prefilter (sound certificate
  /// lookup on the propagated inclusion/disjointness tables, inherited
  /// cardinality intervals and statically-empty classes) on first
  /// encounter; the answer is memoized, so repeats count as memo_hits.
  uint64_t closure_hits = 0;
  /// Probes solved exactly on a dependency-closed sub-schema (tier-2)
  /// instead of the full delta path.
  uint64_t cluster_local = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  /// Auxiliary-class satisfiability probes actually solved.
  uint64_t probes = 0;
  /// Warm-started LP solves across all probes, one per fixpoint round:
  /// the delta path's rounds and the lazy probes' rounds resumed from the
  /// session's partial base (or their own seed) alike.
  uint64_t warm_starts = 0;
  /// Probes that fell back to a from-scratch expansion + solve (delta
  /// extension declined with kFailedPrecondition, or the base analysis
  /// was unavailable for this expansion strategy).
  uint64_t fallbacks = 0;
  /// Cluster reuse across all delta extensions.
  uint64_t clusters_reused = 0;
  uint64_t clusters_reenumerated = 0;
  /// Full base expansions + snapshot solves performed: at most 1 (lazy
  /// sessions: only once a probe needed the delta path).
  uint64_t base_builds = 0;
  /// Base states restored from a persisted snapshot (Deserialize)
  /// instead of solved. Disjoint from base_builds: a restored base pays
  /// no LP solve.
  uint64_t base_restores = 0;
  /// Probes answered conclusively by the lazy expansion engine
  /// (options.lazy_expansion) before touching — or even building — the
  /// full base expansion.
  uint64_t lazy_hits = 0;
  /// Session-level partial bases built for the lazy probes (lazy
  /// sessions, pruned strategy): 1 on the first lazy probe. Disjoint from
  /// base_builds.
  uint64_t lazy_base_builds = 0;
  /// Refinement rounds across all lazy probes, and compound classes
  /// materialized by the partial bases plus what each probe added beyond
  /// its base (conclusive or not). Deterministic: the base is built once,
  /// the lazy engine is serial per probe and the sums are commutative.
  uint64_t lazy_refinement_rounds = 0;
  uint64_t lazy_compounds_materialized = 0;
  /// UNSAT-side refinement across all lazy probes: Farkas certificates
  /// learned as blocking constraints, and certificates whose dual
  /// zero-extension closed into a lazy UNSAT verdict. Deterministic for
  /// the same reason as the other lazy sums.
  uint64_t lazy_blocking_constraints = 0;
  uint64_t lazy_certificate_closures = 0;
  /// Lazy candidate solutions rejected by the full-semantics witness
  /// checker (each one forced that probe down the eager path).
  uint64_t spurious_witnesses = 0;
  /// Tableau rows moved to BigInt form on int64 overflow, summed over the
  /// base solve and every probe LP. Deterministic across thread counts:
  /// each solve is single-threaded and the sum is commutative.
  uint64_t scalar_promotions = 0;
  /// Largest simplex tableau of the session, as nonzero cells and as
  /// dense extent (rows * columns); nonzeros/cells is the peak fill the
  /// sparse kernel exploited. Maxima, so schedule-independent too.
  uint64_t peak_tableau_nonzeros = 0;
  uint64_t peak_tableau_cells = 0;

  bool operator==(const IncrementalStats&) const = default;
};

/// An incremental implication-query session over one fixed schema.
///
/// The from-scratch batch API re-expands and re-solves the whole schema
/// once per query. This session instead pays one base solve — expansion,
/// cluster analysis, and a warm-startable simplex snapshot of the full
/// Ψ system — and answers each probe with (a) an expansion *delta*
/// restricted to compounds that mention the probe's auxiliary class and
/// (b) warm-started LP re-solves resumed from the base snapshot. A memo
/// keyed by a canonical form of the query makes repeats O(1).
///
/// Under options.lazy_expansion the full base is deferred until a probe
/// needs it; lazy probes instead resume from a session-level PARTIAL
/// base (BuildLazySessionBase: a few compounds per class and their solved
/// Ψ snapshot), built on the first lazy probe and shared read-only by
/// every later one, so a probe solves only what it adds beyond it.
///
/// Contract: both engines run the one reduction (DecideImplication) and
/// differ only in its oracle, so answers — and, since every query is
/// validated by ValidateImplicationQuery before anything else, the error
/// statuses of malformed queries — are bit-identical to
/// Reasoner::RunImplicationBatch on the same schema, for every thread
/// count, governed or not. Only the cost — governor work/byte charges,
/// LP pivot counts — differs. Governed sessions observe the ExecContext
/// cooperatively in every new code path and abort with the same
/// first-trip LimitReport discipline as the from-scratch engine.
///
/// The schema is borrowed and must not change while the session lives:
/// the base state and the memo are built for it once and never
/// re-checked. A changed schema gets a new session (the serving cache
/// builds one whenever a tenant's canonical text changes).
///
/// Thread-safety: one session per thread of control. A single call may
/// use many worker threads internally (options.num_threads), but
/// concurrent calls into the same session are not supported.
class IncrementalSession {
 public:
  explicit IncrementalSession(const Schema* schema,
                              ReasonerOptions options = {});

  const Schema& schema() const { return *schema_; }

  /// Answers the batch; positionally aligned with `queries` and
  /// bit-identical to the from-scratch batch API. Duplicate queries
  /// (after canonicalization) are solved once.
  Result<std::vector<bool>> RunImplicationBatch(
      const std::vector<ImplicationQuery>& queries);

  /// The batch of one (still memoized across calls).
  Result<bool> RunImplicationQuery(const ImplicationQuery& query);

  /// The session statistics. Read between calls only (the session's
  /// single-caller contract): probe workers bump them during a batch.
  const IncrementalStats& stats() const { return stats_; }

  // --- Serving lifecycle hooks -------------------------------------------
  // A long-lived server multiplexes many requests over one warm session;
  // these hooks let it swap the per-request governor in and out and cost
  // the warm state for cache eviction (src/serve/session_cache.h).

  /// Re-points the session's governor for subsequent calls (propagated
  /// into the expansion and solver stages; null = ungoverned). The warm
  /// base state and the memo survive — only the admission limits of the
  /// next request change. Not thread-safe against a concurrent call into
  /// the same session (the session's usual single-caller contract).
  void set_exec(ExecContext* exec);

  /// Deterministic order-of-magnitude estimate of the resident bytes of
  /// the warm state (base expansion, Ψ snapshot, the lazy probes' partial
  /// base, memo, analysis). Used to rank sessions for memory-budget
  /// eviction, where only the relative costs matter; identical for every
  /// thread count (all inputs are schedule-independent counts and
  /// maxima).
  uint64_t EstimatedMemoryBytes() const;

  // --- Persistence (src/persist) -----------------------------------------

  /// Serializes the warm state — base expansion, solved Ψ snapshot with
  /// its base-solve statistics, and the memo — into the canonical
  /// snapshot byte format (persist/snapshot_format.h). Builds the base
  /// first if needed, so the result always reflects the current schema.
  /// Byte-identical for every thread count: the warm state itself is
  /// schedule-independent and the encoding is canonical.
  Result<std::string> Serialize();

  /// Restores the warm state from Serialize() output: decodes it with
  /// persist::DecodeSnapshot (its error on malformed bytes), then
  /// Restore()s the result.
  Status Deserialize(std::string_view bytes);

  /// Restores the warm state from a decoded snapshot. The snapshot's
  /// SchemaFingerprint and extents must match the borrowed schema
  /// (kFailedPrecondition otherwise — the caller falls back to a cold
  /// build), the Ψ snapshot must pass ValidateSnapshotShape against the
  /// freshly rebuilt base system, and the snapshot's Ψ presence must
  /// agree with what the live base analysis would decide. On ANY
  /// failure the session is left cold (not corrupted): the next query
  /// simply rebuilds from scratch. On success, subsequent answers are
  /// bit-identical to a never-persisted session's.
  Status Restore(persist::WarmSnapshot snapshot);

  /// True when Serialize() can produce a faithful full-warm-state
  /// snapshot right now. Always true for eager sessions (Serialize
  /// builds the base on demand); false for a lazy session whose heavy
  /// base build is still deferred — its warm state is a partial
  /// materialization that must not be spilled as if it were the full
  /// base. Serving caches gate their spill on this.
  bool SnapshotEligible() const;

  /// Canonical memo key of a query: literal/clause order and
  /// duplication inside an ISA formula and the argument order of a
  /// disjointness query do not affect the answer, so they do not affect
  /// the key. Exposed for tests.
  static std::string CanonicalQueryKey(const ImplicationQuery& query);

 private:
  /// Builds base expansion, cluster analysis and Ψ snapshot on the first
  /// call (and again after a failed one); a no-op once built. Under
  /// options.lazy_expansion only the cheap part runs here (validation and
  /// static analysis); the heavy base build is deferred to
  /// EnsureSolvedBase.
  Status EnsureBase();

  /// Heavy half of the base build: full expansion, cluster analysis and
  /// warm-startable Ψ snapshot. Idempotent and thread-safe (probe
  /// workers hit it concurrently when a lazy probe needs the delta
  /// path); no-op when the base is already solved.
  Status EnsureSolvedBase();

  /// The build itself; caller holds base_build_mutex_ or is serial.
  Status EnsureSolvedBaseLocked();

  /// Builds the lazy probes' partial base on first use (same
  /// double-checked locking as EnsureSolvedBase). Its content depends
  /// only on the schema, so whichever probe worker gets here first builds
  /// the same base. A failed build (a governor trip) publishes nothing;
  /// the next call builds again.
  Status EnsureLazyBase();

  /// The session's DecideImplication oracle: satisfiability of the
  /// auxiliary class `aux` of `extended` (the base schema plus `aux`),
  /// tried in order by a tier-2 sub-schema solve, the lazy engine,
  /// the base expansion's delta with a warm-started Ψ solve, and a
  /// from-scratch build when the delta path declines
  /// (kFailedPrecondition).
  Result<bool> AuxSatisfiable(const Schema& extended, ClassId aux);

  const Schema* schema_;
  ReasonerOptions options_;

  // Base state, valid iff base_ready_. base_solved_ marks the heavy half
  // (expansion + Ψ snapshot) done; an eager EnsureBase sets both, a lazy
  // one sets only base_ready_ and leaves the heavy half to
  // EnsureSolvedBase.
  bool base_ready_ = false;
  std::atomic<bool> base_solved_{false};
  std::mutex base_build_mutex_;
  std::optional<Expansion> base_expansion_;
  /// Set iff the incremental path is available for this base (pruned
  /// strategy, analyzable clusters); otherwise every probe falls back.
  std::optional<ExpansionBaseAnalysis> analysis_;
  std::optional<IncrementalPsiBase> psi_base_;
  /// The lazy probes' partial base, valid iff lazy_base_ready_ (which a
  /// non-pruned strategy also sets, leaving it empty: the lazy engine is
  /// inconclusive there anyway).
  std::atomic<bool> lazy_base_ready_{false};
  std::optional<LazyBase> lazy_base_;
  /// Static analysis of the base schema backing the prefilter tiers
  /// (options.prefilter); built with the base.
  std::optional<SchemaAnalysis> schema_analysis_;

  /// Canonical query key -> answer. Only successful answers are
  /// memoized — errors and governor trips are always recomputed.
  std::map<std::string, bool> memo_;

  // Statistics. Probe workers bump theirs through std::atomic_ref
  // (incremental.cc); base_builds and lazy_base_builds are bumped under
  // base_build_mutex_ when a probe worker runs the build, and the rest
  // serially. The peak-tableau fields are maxima, not sums: warm-started
  // probes share the base tableau, so summing would count it once per
  // probe.
  IncrementalStats stats_;
};

}  // namespace car

#endif  // CAR_REASONER_INCREMENTAL_H_
