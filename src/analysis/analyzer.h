#ifndef CAR_ANALYSIS_ANALYZER_H_
#define CAR_ANALYSIS_ANALYZER_H_

#include <utility>
#include <vector>

#include "analysis/clusters.h"
#include "analysis/diagnostics.h"
#include "analysis/pair_tables.h"
#include "model/schema.h"

namespace car {

struct AnalyzerOptions {
  PairTableOptions tables;
  /// Emit lint diagnostics (cycles, redundancies, contradictions with
  /// messages). The structural artifacts — tables, clusters, unsat
  /// flags, dependency adjacency — are always computed; turning lint
  /// off skips only the message construction and the per-edge
  /// redundancy scan, for the always-on prefilter use.
  bool lint = true;
};

/// The result of the linear-time static pass over a (validated) schema:
/// the paper's preselection structures promoted to a reusable artifact,
/// plus sound satisfiability verdicts and lint findings.
///
/// Soundness contract relied on by the prefilter tiers and enforced by
/// the differential tests:
///  - class_unsat[c] == true implies the reasoner (finite and
///    unrestricted alike) reports class c unsatisfiable. The rules only
///    certify emptiness that holds in *every* model: self-disjointness
///    from the propagated pair tables, inclusion in an unsat class,
///    an isa clause every literal of which is falsified, an empty
///    inherited cardinality interval, and required links into provably
///    empty ranges/relations. The converse is NOT true: a false flag
///    means "not statically certified", never "satisfiable".
///  - relation_dead[r] == true implies relation r is empty in every
///    model (some role clause admits no tuple).
struct SchemaAnalysis {
  explicit SchemaAnalysis(PairTables built_tables)
      : tables(std::move(built_tables)) {}

  PairTables tables;
  ClusterPartition clusters;
  /// Statically certified empty classes (see soundness contract).
  std::vector<char> class_unsat;
  /// Statically certified empty relations.
  std::vector<char> relation_dead;
  /// Dependency adjacency for cluster-local reasoning: depends_on[c]
  /// lists every class whose interpretation the constraints on c's
  /// instances can mention — classes in c's isa formula, classes in the
  /// ranges of c's attribute specs, and classes in the role clauses of
  /// every relation c participates in. A sub-schema closed under this
  /// adjacency decides satisfiability of its classes exactly as the
  /// full schema does (see DESIGN.md §5f): a model of the sub-schema
  /// extends to the full schema by interpreting everything dropped as
  /// the empty set, and a full model restricts to the sub-schema.
  std::vector<std::vector<ClassId>> depends_on;
  /// Lint findings, deterministically sorted (SortDiagnostics order).
  /// Empty when AnalyzerOptions::lint is off.
  std::vector<Diagnostic> diagnostics;

  size_t num_unsat_classes() const;
};

/// Runs the static pass. Precondition: schema.Validate() succeeded (the
/// parser guarantees this for parsed schemas); ids out of range are
/// undefined behavior here, exactly as in the expansion.
SchemaAnalysis AnalyzeSchema(const Schema& schema,
                             const AnalyzerOptions& options = {});

}  // namespace car

#endif  // CAR_ANALYSIS_ANALYZER_H_
