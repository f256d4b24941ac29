#ifndef CAR_REASONER_REASONER_H_
#define CAR_REASONER_REASONER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/exec_context.h"
#include "base/result.h"
#include "expansion/expansion.h"
#include "model/schema.h"
#include "reasoner/lazy_engine.h"
#include "solver/solve.h"

namespace car {

struct ReasonerOptions {
  ExpansionOptions expansion;
  PsiSolverOptions solver;
  /// Worker threads for phase 1 (expansion sharding), phase 2
  /// (certificate post-processing), the per-shape LP feasibility sweeps
  /// of the global typing implications, and batched implication queries.
  /// Any value != 1 overrides the per-stage settings in `expansion` and
  /// `solver`. Results are bit-identical for every thread count;
  /// 1 = the serial reference path, 0 = hardware concurrency.
  int num_threads = 1;
  /// Optional resource governor (borrowed; may be null = ungoverned).
  /// It replaces the expansion and solver stages' own governors
  /// (FanOutToStages), and when set, CheckSchema degrades gracefully: a
  /// tripped deadline, cancellation or budget yields Verdict::kUnknown
  /// with a populated LimitReport instead of an error status. Ungoverned
  /// runs keep the historical error-status behavior.
  ExecContext* exec = nullptr;
  /// Routes implication queries through an IncrementalSession: one base
  /// expansion + Ψ solve per reasoner, then expansion deltas,
  /// warm-started LP re-solves and a canonical-form memo per query.
  /// Answers are bit-identical to the from-scratch path; only the cost
  /// differs.
  bool incremental = false;
  /// Incremental sessions only: run the static-analysis prefilter tiers
  /// ahead of the memo and the solver — tier-0 answers queries by table
  /// lookup on the propagated inclusion/disjointness closure, tier-2
  /// solves probes on a dependency-closed sub-schema when the closure is
  /// small. Both tiers are sound (certificate-only / exact projection),
  /// so answers stay bit-identical; only the cost and the per-tier hit
  /// counters change.
  bool prefilter = true;
  /// Lazy (counterexample-guided) expansion: CheckSchema,
  /// IsClassSatisfiable and implication probes first try to answer over
  /// a small materialized subset of the compound classes — seeded from
  /// the targets' dependency closure, grown on uncovered targets — and
  /// fall back to the full eager expansion whenever inconclusive.
  /// Verdicts are bit-identical either way; on dense schemas, where the
  /// full enumeration is exponential, the lazy path can answer after
  /// materializing a tiny subset (or answer at all where eager trips its
  /// caps). See DESIGN.md §5i.
  bool lazy_expansion = false;
  LazyExpansionOptions lazy;
};

/// Three-valued outcome of a governed satisfiability check.
enum class Verdict {
  /// Every class of the schema is satisfiable.
  kSat,
  /// At least one class is unsatisfiable.
  kUnsat,
  /// A resource limit tripped before the answer was reached; see
  /// SatReport::limit for which one, and SatReport::progress for the
  /// partial statistics at trip time.
  kUnknown,
};

const char* VerdictToString(Verdict verdict);

/// Per-schema satisfiability report.
struct SatReport {
  Verdict verdict = Verdict::kSat;
  /// One entry per class id. Empty when verdict == Verdict::kUnknown.
  std::vector<bool> class_satisfiable;
  std::vector<ClassId> unsatisfiable_classes;
  size_t num_compound_classes = 0;
  size_t num_compound_attributes = 0;
  size_t num_compound_relations = 0;
  size_t lp_solves = 0;
  size_t fixpoint_rounds = 0;
  /// Which limit ended the run; tripped() is true iff verdict ==
  /// Verdict::kUnknown.
  LimitReport limit;
  /// Progress counters from the governor (populated whenever the run was
  /// governed; for kUnknown these are the partial statistics).
  ProgressSnapshot progress;
  /// Lazy-expansion observability: `lazy` is set when the lazy engine
  /// produced this report, in which case num_compound_* count the
  /// MATERIALIZED subset rather than the full expansion (answers are
  /// identical either way; only these statistics differ).
  bool lazy = false;
  size_t refinement_rounds = 0;
  size_t compounds_materialized = 0;
  /// UNSAT-side refinement observability: Farkas certificates learned as
  /// blocking constraints, and certificates whose dual zero-extension
  /// closed (each closure is one lazily concluded UNSAT target).
  size_t blocking_constraints = 0;
  size_t certificate_closures = 0;
};

/// One logical-implication query for the batched API. Every kind reduces
/// to satisfiability of one auxiliary class in a private extended schema,
/// which makes queries independent of each other and of the reasoner's
/// cached state — the property the parallel batch execution relies on.
struct ImplicationQuery {
  enum class Kind {
    kIsa,               // class_id ⊑ formula?
    kDisjoint,          // class_id and other disjoint?
    kMinCardinality,    // every class_id instance has >= bound term-succs?
    kMaxCardinality,    // ... at most bound term-successors?
    kMinParticipation,  // ... occurs >= bound times as relation[role]?
    kMaxParticipation,  // ... occurs <= bound times as relation[role]?
  };
  Kind kind = Kind::kIsa;
  ClassId class_id = kInvalidId;
  /// kDisjoint only.
  ClassId other = kInvalidId;
  /// kIsa only.
  ClassFormula formula = ClassFormula::True();
  /// kMinCardinality / kMaxCardinality only.
  AttributeTerm term{};
  /// kMinParticipation / kMaxParticipation only.
  RelationId relation = kInvalidId;
  RoleId role = kInvalidId;
  /// The cardinality bound for the four cardinality/participation kinds.
  uint64_t bound = 0;
};

/// Checks every id `query` names against `schema`, before anything is
/// built: the class (both classes of kDisjoint, every literal of every
/// kIsa clause), the attribute, and for the participation kinds the
/// relation, its definition and the role's membership in it. NotFound
/// for an id outside its table or a role of another relation,
/// FailedPrecondition for an undefined relation. Every engine validates
/// a query here once, so malformed queries fail identically everywhere.
Status ValidateImplicationQuery(const Schema& schema,
                                const ImplicationQuery& query);

/// The bound shapes implied by every schema — a minimum of 0 and a
/// maximum of infinity — which DecideImplication answers (true) without
/// a probe.
bool IsTriviallyImplied(const ImplicationQuery& query);

/// The oracle DecideImplication asks: is class `aux` of `extended` — the
/// base schema plus the one fresh auxiliary class `aux` — satisfiable?
/// Called concurrently by batch workers.
using AuxSatisfiableFn =
    std::function<Result<bool>(const Schema& extended, ClassId aux)>;

/// The reduction of S ⊨ δ to class satisfiability (Section 3), written
/// once for every engine: each property δ of `query` holds iff a fresh
/// auxiliary class violating it — C ∧ ¬L1 ∧ ... ∧ ¬Lm per kIsa clause,
/// A ∧ B for kDisjoint, a C-instance with at most bound-1 (at least
/// bound+1) successors or participations — is unsatisfiable in the
/// schema extended by it. Models of the extended schema are exactly the
/// models of `schema` with an arbitrary extension for the fresh class, so
/// the reduction is sound and complete. Trivial shapes are answered
/// without a probe; clauses are probed in order and the first refuted
/// one answers. Precondition: ValidateImplicationQuery(schema, query).
Result<bool> DecideImplication(const Schema& schema,
                               const ImplicationQuery& query,
                               const AuxSatisfiableFn& aux_satisfiable);

/// Decides validated `queries` with DecideImplication, concurrently on
/// `num_threads` pool workers (1 = serial), under the governor `exec`
/// (may be null): every query is charged one unit of "implication" work
/// and counted once decided, and a trip is reported in the "implication"
/// phase whatever the schedule — a tripped batch fails identically for
/// every thread count. Answers are positionally aligned; on error the
/// status of the lowest-indexed failing query is returned. Both engines'
/// batches run here.
Result<std::vector<bool>> DecideImplicationBatch(
    const Schema& schema, const std::vector<const ImplicationQuery*>& queries,
    const AuxSatisfiableFn& aux_satisfiable, int num_threads,
    ExecContext* exec);

/// Fans the reasoner-level settings out to the expansion and solver
/// stages, which read their own: `num_threads` when it is not 1, and
/// `exec` always (null leaves every stage ungoverned). Both engines apply
/// it on construction and IncrementalSession::set_exec on every re-point.
void FanOutToStages(ReasonerOptions* options);

/// The reasoning engine of Section 3: class satisfiability via the
/// two-phase method (expansion, then the disequation system), and logical
/// implication by reduction to satisfiability of auxiliary classes.
///
/// The reasoner owns a copy of nothing: it borrows the schema, computes
/// the expansion and the Ψ_S solution lazily on first use, and caches them
/// for subsequent queries (the phase-1/phase-2 computation is
/// query-independent). Implication queries run DecideImplication with the
/// from-scratch oracle — the lazy engine, then a full expansion and Ψ
/// solve of the private extended schema — the reference every other
/// engine is checked against; the borrowed schema is never mutated.
/// Nor may the caller change it while the reasoner lives: the cached
/// state is built for it once and never re-checked, so a changed schema
/// gets a new Reasoner.
class IncrementalSession;

class Reasoner {
 public:
  explicit Reasoner(const Schema* schema, ReasonerOptions options = {});
  ~Reasoner();
  Reasoner(Reasoner&&) = default;
  Reasoner& operator=(Reasoner&&) = default;

  const Schema& schema() const { return *schema_; }

  /// The incremental session backing implication queries, or null when
  /// options.incremental is off or no implication query ran yet.
  /// Exposed for statistics (memo hits, warm starts, fallbacks).
  const IncrementalSession* incremental_session() const {
    return incremental_.get();
  }

  /// Phase 1 + 2, cached. Exposed for benchmarks and diagnostics.
  Result<const Expansion*> GetExpansion();
  Result<const PsiSolution*> GetSolution();

  /// Class satisfiability (paper, Section 2.3): does some model of the
  /// schema give the class a nonempty extension?
  Result<bool> IsClassSatisfiable(ClassId class_id);
  Result<bool> IsClassSatisfiable(std::string_view class_name);

  /// Full report over all classes.
  Result<SatReport> CheckSchema();

  // --- Logical implication (S ⊨ δ) ---------------------------------------
  // Each method is the from-scratch DecideImplication of the matching
  // ImplicationQuery kind, whatever options.incremental says.

  /// S ⊨ C isa F? (checked clause by clause: C ⊑ γ iff C ∧ ¬γ is empty).
  Result<bool> ImpliesIsa(ClassId subclass, const ClassFormula& formula);

  /// S ⊨ "A and B are disjoint"?
  Result<bool> ImpliesDisjoint(ClassId a, ClassId b);

  /// S ⊨ "every instance of C has at least `min` att-successors"?
  /// (The 0 case is trivially true.)
  Result<bool> ImpliesMinCardinality(ClassId class_id, AttributeTerm term,
                                     uint64_t min);
  /// S ⊨ "every instance of C has at most `max` att-successors"?
  Result<bool> ImpliesMaxCardinality(ClassId class_id, AttributeTerm term,
                                     uint64_t max);

  /// S ⊨ "every instance of C occurs at least `min` times as the
  /// U-component of R"?
  Result<bool> ImpliesMinParticipation(ClassId class_id, RelationId relation,
                                       RoleId role, uint64_t min);
  /// S ⊨ "every instance of C occurs at most `max` times as the
  /// U-component of R"?
  Result<bool> ImpliesMaxParticipation(ClassId class_id, RelationId relation,
                                       RoleId role, uint64_t max);

  /// Evaluates a batch of implication queries: every query is validated
  /// first (the first malformed one fails the batch before any probe),
  /// then decided by DecideImplicationBatch — with options.num_threads > 1
  /// concurrently on the shared pool. Answers are positionally aligned
  /// with `queries` and identical to issuing the queries one by one.
  /// Routed through the IncrementalSession under options.incremental.
  Result<std::vector<bool>> RunImplicationBatch(
      const std::vector<ImplicationQuery>& queries);

  /// Evaluates a single ImplicationQuery (the batch of one).
  Result<bool> RunImplicationQuery(const ImplicationQuery& query);

  // --- Global typing implications -----------------------------------------
  // These are decided on the solved expansion: a pair/tuple with the given
  // compound shape can appear in some model iff its compound classes are
  // in the final support and the corresponding counted unknown (if any)
  // can be strictly positive; the queries below enumerate the possible
  // shapes and test the offending ones against Ψ_S.

  /// S ⊨ "in every model, every tuple of R has its `role`-component in F"?
  Result<bool> ImpliesRoleTyping(RelationId relation, RoleId role,
                                 const ClassFormula& formula);

  /// S ⊨ "in every model, every att-successor lies in F"? (The *implied
  /// global range* of the attribute term; for (inv A) this is the implied
  /// domain of A.)
  Result<bool> ImpliesAttributeRange(AttributeTerm term,
                                     const ClassFormula& formula);

  /// The tightest cardinality interval (u, v) such that S implies every
  /// instance of C has between u and v att-successors, with the searched
  /// minimum capped at `search_limit` (the implied max is either found
  /// below `search_limit` or reported unbounded). Returns (0, infinity)
  /// when nothing is implied. For an unsatisfiable class every bound is
  /// implied; (search_limit, 0)-style degenerate answers are normalized
  /// to Cardinality::Exactly(0).
  Result<Cardinality> ImpliedCardinalityBounds(ClassId class_id,
                                               AttributeTerm term,
                                               uint64_t search_limit = 64);

 private:
  /// Computes the cached expansion/solution on first use (and again
  /// after a failed attempt).
  Status Prepare();

  /// Lazily constructs the incremental session (options.incremental).
  IncrementalSession* GetIncrementalSession();

  /// Validates and decides `query` with the from-scratch oracle.
  Result<bool> DecideFromScratch(const ImplicationQuery& query);

  /// The from-scratch oracle: the lazy engine (options.lazy_expansion),
  /// then a full expansion and Ψ solve of the extended schema.
  AuxSatisfiableFn FromScratchOracle() const;

  const Schema* schema_;
  ReasonerOptions options_;
  std::optional<Expansion> expansion_;
  std::optional<PsiSolution> solution_;
  std::unique_ptr<IncrementalSession> incremental_;
};

}  // namespace car

#endif  // CAR_REASONER_REASONER_H_
