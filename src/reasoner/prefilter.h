#ifndef CAR_REASONER_PREFILTER_H_
#define CAR_REASONER_PREFILTER_H_

#include <optional>

#include "analysis/analyzer.h"
#include "model/schema.h"
#include "reasoner/reasoner.h"

namespace car {

/// Tier-0 of the implication answerer: a pure table lookup on the
/// static analysis (propagated inclusion/disjointness closure, inherited
/// cardinality intervals, statically-certified-empty classes) that
/// answers a query without touching the expansion or the simplex.
///
/// Returns a value only when a sound certificate exists; nullopt means
/// "fall through to the next tier", never "false". Because every
/// certificate is a consequence of the schema that holds in all models,
/// a returned answer is bit-identical to the full reasoner's — the
/// differential suite enforces this.
///
/// Precondition: `query` passed ValidateImplicationQuery against
/// `schema` and is not IsTriviallyImplied — the session's resolve pass
/// settles both before consulting this tier, so every id indexes the
/// analysis tables safely.
std::optional<bool> ClosurePrefilterAnswer(const Schema& schema,
                                           const SchemaAnalysis& analysis,
                                           const ImplicationQuery& query);

}  // namespace car

#endif  // CAR_REASONER_PREFILTER_H_
