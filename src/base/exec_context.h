#ifndef CAR_BASE_EXEC_CONTEXT_H_
#define CAR_BASE_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "base/status.h"

namespace car {

/// Which configured limit aborted a governed computation.
enum class LimitKind {
  kNone = 0,
  /// The wall-clock deadline passed.
  kDeadline,
  /// ExecContext::RequestCancellation() was called.
  kCancelled,
  /// The cumulative byte budget was exceeded.
  kMemoryBudget,
  /// The cumulative work-unit budget was exceeded.
  kWorkBudget,
  /// A deterministic fault-injection trip (InjectTripAfter).
  kFaultInjection,
  /// ExpansionOptions::max_compound_classes.
  kMaxCompoundClasses,
  /// ExpansionOptions::max_compound_attributes.
  kMaxCompoundAttributes,
  /// ExpansionOptions::max_compound_relations.
  kMaxCompoundRelations,
  /// SimplexSolver::Options::max_pivots / PsiSolverOptions::max_pivots.
  kMaxPivots,
  /// BoundedSearchOptions::max_configurations.
  kMaxConfigurations,
  /// A structural tractability guard (exhaustive enumeration over too
  /// many classes, too many candidate pairs/tuples in bounded search).
  kMaxCandidates,
};

/// Canonical snake_case spelling ("max_compound_classes", "deadline", ...).
const char* LimitKindToString(LimitKind kind);

/// Counters a governed run keeps while it works; snapshotted into the
/// partial statistics of a degraded (kUnknown) result.
struct ProgressSnapshot {
  uint64_t work_charged = 0;
  uint64_t bytes_charged = 0;
  uint64_t compounds_enumerated = 0;
  uint64_t pivots_executed = 0;
  uint64_t lp_solves = 0;
  uint64_t configurations_examined = 0;
  uint64_t queries_completed = 0;
  /// Implication-probe memo cache hits/misses (incremental sessions).
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  /// Queries answered by the tier-0 static-closure prefilter, and
  /// probes solved on a dependency-closed sub-schema (tier-2), before
  /// the memo / full incremental solve engaged.
  uint64_t prefilter_hits = 0;
  uint64_t cluster_local_solves = 0;
  /// Warm-started (resumed) simplex solves.
  uint64_t warm_starts = 0;
  /// Simplex tableau rows moved to BigInt form on int64 overflow.
  uint64_t scalar_promotions = 0;
  /// Largest tableau seen, as nonzero cells and as dense extent
  /// (rows * columns); their ratio is the peak fill of the run.
  uint64_t peak_tableau_nonzeros = 0;
  uint64_t peak_tableau_cells = 0;
  /// Lazy (counterexample-guided) expansion: refinement rounds run,
  /// compound classes materialized on demand, and witnesses that failed
  /// semantic validation (each forces an eager fallback).
  uint64_t refinement_rounds = 0;
  uint64_t compounds_materialized = 0;
  uint64_t spurious_witnesses = 0;
  /// UNSAT-side lazy expansion: infeasibility certificates learned from
  /// infeasible partial-Ψ probes (blocking constraints) and certificates
  /// whose dual zero-extension closed (lazy UNSAT verdicts).
  uint64_t blocking_constraints = 0;
  uint64_t certificate_closures = 0;

  bool operator==(const ProgressSnapshot&) const = default;
};

/// A structured description of which limit tripped, where, and at what
/// counter value. `kind`, `phase`, `limit` and `count` are deterministic
/// for deterministic limits (count caps, work budgets, fault injection):
/// they do not depend on thread count or scheduling. The progress fields
/// are best-effort diagnostics and MAY vary across schedules; callers
/// that promise bit-identical output must print ToString() only.
struct LimitReport {
  LimitKind kind = LimitKind::kNone;
  /// The pipeline stage that tripped: "expansion", "expansion-filter",
  /// "expansion-relations", "solver", "simplex", "bounded-search",
  /// "implication".
  std::string phase;
  /// The configured limit value (cap, budget, injection threshold).
  uint64_t limit = 0;
  /// The deterministic counter value at the trip check (normalized to
  /// `limit` for budget crossings).
  uint64_t count = 0;
  /// Best-effort progress at trip time (see determinism note above).
  ProgressSnapshot progress;

  bool tripped() const { return kind != LimitKind::kNone; }

  /// "limit=max_compound_classes phase=expansion count=1048576".
  std::string ToString() const;

  /// kCancelled for cancellations, kResourceExhausted otherwise, with
  /// ToString() as the message.
  Status ToStatus() const;
};

/// Builds a LimitReport for a tripped cap and renders it as a Status.
/// Used by layers whose caller did not supply an ExecContext, so every
/// kResourceExhausted message carries the structured limit description.
Status LimitTripStatus(LimitKind kind, const char* phase, uint64_t limit,
                       uint64_t count);

/// Stable single-byte encoding of a LimitKind for wire protocols and
/// persisted artifacts. The values are the enum values today, but the
/// codec is the contract: kinds are append-only and never renumbered.
uint8_t LimitKindToWire(LimitKind kind);
/// Decodes a wire byte; out-of-range values yield LimitKind::kNone (the
/// caller sees "no limit" rather than garbage).
LimitKind LimitKindFromWire(uint8_t value);

class ExecContext;

/// The resource limits one admitted request is allowed to consume. This
/// is the admission-control vocabulary of the serving layer: a transport
/// ships AdmissionLimits with each request, the server tightens them
/// against its own per-request caps, and the result configures the fresh
/// ExecContext the request runs under. 0 means unlimited for the three
/// budgets; kNoInjection disables fault injection (0 trips on the first
/// charge, making every admission abort path testable).
struct AdmissionLimits {
  static constexpr uint64_t kNoInjection = ~uint64_t{0};

  uint64_t deadline_ms = 0;
  uint64_t work_budget = 0;
  uint64_t memory_budget_bytes = 0;
  /// Deterministic fault injection threshold (tests only).
  uint64_t inject_after = kNoInjection;

  bool operator==(const AdmissionLimits&) const = default;

  /// The pointwise-tightest combination: for each budget the smaller
  /// configured value wins (an unlimited side defers to the other).
  static AdmissionLimits Tighten(const AdmissionLimits& a,
                                 const AdmissionLimits& b);

  /// Applies the configured limits to a fresh context. Call once, before
  /// the governed work starts.
  void ConfigureContext(ExecContext* context) const;
};

/// The execution context of one governed request: a monotonic deadline, a
/// cooperative cancellation token, byte/work budgets and a deterministic
/// fault-injection hook, plus the LimitReport of the first limit that
/// tripped.
///
/// Thread-safety: all methods may be called concurrently. Budgets and the
/// deadline should be configured before the governed work starts.
///
/// Determinism contract (relied on by the bit-identical-across-threads
/// guarantee of the parallel pipeline): work/byte charges are commutative
/// sums, so whether a budget or injection threshold is crossed — and the
/// phase in which the cumulative counter crosses it, as long as phases
/// are sequential stages of the pipeline — does not depend on scheduling.
/// Parallel regions that interleave several phase labels normalize the
/// recorded phase via OverridePhaseOnTrip. Wall-clock deadline trips are
/// inherently schedule-dependent; only the verdict (not the trip point)
/// is meaningful for them.
class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // --- Configuration (call before the governed work starts) --------------

  /// Absolute monotonic deadline.
  void set_deadline(std::chrono::steady_clock::time_point deadline);
  /// Deadline `budget` from now.
  void SetDeadlineAfter(std::chrono::milliseconds budget);
  /// Trips kWorkBudget when cumulative charged work exceeds `units`.
  void SetWorkBudget(uint64_t units);
  /// Trips kMemoryBudget when cumulative charged bytes exceed `bytes`.
  void SetMemoryBudget(uint64_t bytes);
  /// Deterministic fault injection: trips kFaultInjection as soon as
  /// cumulative charged work exceeds `units`. InjectTripAfter(0) trips on
  /// the first charge. Makes every abort path testable without timeouts.
  void InjectTripAfter(uint64_t units);

  // --- Deterministic I/O fault injection ----------------------------------
  // The persistence layer (src/persist) routes every I/O primitive —
  // write chunk, fsync, rename, unlink, read — through NextIoOpFails().
  // Ops are numbered from 0 in execution order; every op at index >=
  // the configured threshold fails. The failure is STICKY (fail-stop):
  // once the threshold is reached nothing later succeeds either, which
  // models a process that died mid-sequence — the bytes written before
  // the threshold are on disk, nothing after is, and even the cleanup
  // unlink of a torn temp file "dies" with the process. Unlike
  // InjectTripAfter this never trips the context: a failed spill must
  // not poison the request that triggered it.

  /// Configures the I/O fault threshold; AdmissionLimits::kNoInjection
  /// (the default) disables injection.
  void InjectIoFaultAfter(uint64_t ops) {
    io_fault_after_.store(ops, std::memory_order_relaxed);
  }
  /// Consumes the next I/O op index; true when that op must fail.
  bool NextIoOpFails() {
    uint64_t index = io_ops_.fetch_add(1, std::memory_order_relaxed);
    return index >= io_fault_after_.load(std::memory_order_relaxed);
  }
  /// I/O ops consumed so far (sweep instrumentation: run once uninjected
  /// to learn the op count, then sweep thresholds 0..count).
  uint64_t io_ops() const {
    return io_ops_.load(std::memory_order_relaxed);
  }

  // --- Cooperative cancellation ------------------------------------------

  /// Requests cancellation; workers observe it at their next charge or
  /// Check() and unwind with report() of kind kCancelled.
  void RequestCancellation();

  /// True once any limit tripped or cancellation was requested. Cheap
  /// (one relaxed atomic load); safe to poll in inner loops and at
  /// ParallelFor chunk boundaries.
  bool cancelled() const {
    return tripped_.load(std::memory_order_relaxed);
  }
  bool tripped() const { return cancelled(); }

  // --- Charging (hot paths) ----------------------------------------------

  /// Adds `units` of abstract work in `phase`. Returns the trip status if
  /// this charge crosses the work budget or injection threshold, the
  /// deadline is observed to have passed, or the context already tripped.
  Status ChargeWork(uint64_t units, const char* phase);

  /// Adds `bytes` of (estimated, cumulative) memory in `phase`.
  Status ChargeBytes(uint64_t bytes, const char* phase);

  /// Checks deadline + cancellation without charging; for phase
  /// boundaries and loops that do no countable work.
  Status Check(const char* phase);

  /// Records an externally detected limit (a count cap owned by a layer,
  /// e.g. max_compound_classes). First trip wins; always returns the
  /// recorded (first) trip's status.
  Status RecordTrip(LimitKind kind, const char* phase, uint64_t limit,
                    uint64_t count);

  /// Normalizes the recorded phase of an already-tripped report. Called
  /// by parallel regions that interleave charges from several phases
  /// (implication batches), so the reported phase is deterministic.
  void OverridePhaseOnTrip(const char* phase);

  // --- Progress counters --------------------------------------------------

  void CountCompounds(uint64_t n) { AddRelaxed(&compounds_, n); }
  void CountPivots(uint64_t n) { AddRelaxed(&pivots_, n); }
  void CountLpSolves(uint64_t n) { AddRelaxed(&lp_solves_, n); }
  void CountConfigurations(uint64_t n) { AddRelaxed(&configurations_, n); }
  void CountQueries(uint64_t n) { AddRelaxed(&queries_, n); }
  void CountMemoHits(uint64_t n) { AddRelaxed(&memo_hits_, n); }
  void CountMemoMisses(uint64_t n) { AddRelaxed(&memo_misses_, n); }
  void CountPrefilterHits(uint64_t n) { AddRelaxed(&prefilter_hits_, n); }
  void CountClusterLocalSolves(uint64_t n) {
    AddRelaxed(&cluster_local_, n);
  }
  void CountWarmStarts(uint64_t n) { AddRelaxed(&warm_starts_, n); }
  void CountRefinementRounds(uint64_t n) {
    AddRelaxed(&refinement_rounds_, n);
  }
  void CountCompoundsMaterialized(uint64_t n) {
    AddRelaxed(&compounds_materialized_, n);
  }
  void CountSpuriousWitnesses(uint64_t n) {
    AddRelaxed(&spurious_witnesses_, n);
  }
  void CountBlockingConstraints(uint64_t n) {
    AddRelaxed(&blocking_constraints_, n);
  }
  void CountCertificateClosures(uint64_t n) {
    AddRelaxed(&certificate_closures_, n);
  }
  void CountScalarPromotions(uint64_t n) {
    AddRelaxed(&scalar_promotions_, n);
  }
  /// Folds one solve's final tableau size into the peak-fill counters
  /// (atomic max; a sum would double-count the shared base tableau of
  /// warm-started solves).
  void RecordTableauFill(uint64_t nonzeros, uint64_t cells) {
    MaxRelaxed(&peak_tableau_nonzeros_, nonzeros);
    MaxRelaxed(&peak_tableau_cells_, cells);
  }

  // --- Inspection ----------------------------------------------------------

  uint64_t work_charged() const {
    return work_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  ProgressSnapshot progress() const;

  /// Copy of the first trip's report (kind kNone if still running). The
  /// progress fields are filled at snapshot time.
  LimitReport report() const;

 private:
  static constexpr uint64_t kNoBudget = ~uint64_t{0};
  /// Work-unit stride between opportunistic deadline checks in
  /// ChargeWork (the deadline is also checked by every Check()).
  static constexpr uint64_t kDeadlineStride = 1024;

  static void AddRelaxed(std::atomic<uint64_t>* counter, uint64_t n) {
    counter->fetch_add(n, std::memory_order_relaxed);
  }

  static void MaxRelaxed(std::atomic<uint64_t>* counter, uint64_t n) {
    uint64_t current = counter->load(std::memory_order_relaxed);
    while (current < n && !counter->compare_exchange_weak(
                              current, n, std::memory_order_relaxed)) {
    }
  }

  /// True when the cumulative counter moving [pre, pre + units) crossed
  /// `threshold` (exactly one charge observes the crossing).
  static bool Crossed(uint64_t pre, uint64_t units, uint64_t threshold) {
    return threshold != kNoBudget && pre <= threshold &&
           threshold < pre + units;
  }

  Status TripStatus() const;
  Status DeadlineStatus(const char* phase);

  std::atomic<uint64_t> work_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> compounds_{0};
  std::atomic<uint64_t> pivots_{0};
  std::atomic<uint64_t> lp_solves_{0};
  std::atomic<uint64_t> configurations_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> memo_misses_{0};
  std::atomic<uint64_t> prefilter_hits_{0};
  std::atomic<uint64_t> cluster_local_{0};
  std::atomic<uint64_t> warm_starts_{0};
  std::atomic<uint64_t> scalar_promotions_{0};
  std::atomic<uint64_t> peak_tableau_nonzeros_{0};
  std::atomic<uint64_t> peak_tableau_cells_{0};
  std::atomic<uint64_t> refinement_rounds_{0};
  std::atomic<uint64_t> compounds_materialized_{0};
  std::atomic<uint64_t> spurious_witnesses_{0};
  std::atomic<uint64_t> blocking_constraints_{0};
  std::atomic<uint64_t> certificate_closures_{0};

  std::atomic<uint64_t> work_budget_{kNoBudget};
  std::atomic<uint64_t> byte_budget_{kNoBudget};
  std::atomic<uint64_t> inject_after_{kNoBudget};
  std::atomic<uint64_t> io_ops_{0};
  std::atomic<uint64_t> io_fault_after_{kNoBudget};
  /// Deadline as nanoseconds on the steady clock; 0 = none.
  std::atomic<int64_t> deadline_ns_{0};
  /// The configured deadline budget in ms, for the report.
  std::atomic<uint64_t> deadline_budget_ms_{0};

  std::atomic<bool> tripped_{false};
  mutable std::mutex mutex_;
  LimitReport first_trip_;  // Guarded by mutex_; valid once tripped_.
};

// --- Nullable-context helpers ---------------------------------------------
// All governed layers accept an optional ExecContext*; a null context
// means "ungoverned" and every helper below degrades to a no-op.

inline bool GovCancelled(const ExecContext* ctx) {
  return ctx != nullptr && ctx->cancelled();
}

inline Status GovChargeWork(ExecContext* ctx, uint64_t units,
                            const char* phase) {
  return ctx == nullptr ? Status::Ok() : ctx->ChargeWork(units, phase);
}

inline Status GovChargeBytes(ExecContext* ctx, uint64_t bytes,
                             const char* phase) {
  return ctx == nullptr ? Status::Ok() : ctx->ChargeBytes(bytes, phase);
}

inline Status GovCheck(ExecContext* ctx, const char* phase) {
  return ctx == nullptr ? Status::Ok() : ctx->Check(phase);
}

/// Records the trip when a context is present, otherwise builds the
/// structured status locally — either way the caller gets the
/// "limit=... phase=... count=..." message.
inline Status GovRecordTrip(ExecContext* ctx, LimitKind kind,
                            const char* phase, uint64_t limit,
                            uint64_t count) {
  return ctx == nullptr ? LimitTripStatus(kind, phase, limit, count)
                        : ctx->RecordTrip(kind, phase, limit, count);
}

}  // namespace car

#endif  // CAR_BASE_EXEC_CONTEXT_H_
