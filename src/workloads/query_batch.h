#ifndef CAR_WORKLOADS_QUERY_BATCH_H_
#define CAR_WORKLOADS_QUERY_BATCH_H_

#include <vector>

#include "base/rng.h"
#include "model/schema.h"
#include "reasoner/reasoner.h"

namespace car {

/// A deterministic batch of `count` implication queries mixing every
/// query kind — isa and disjointness between random classes, minimum and
/// maximum cardinalities of random (possibly inverse) attribute terms,
/// minimum and maximum participations in random relation roles — with
/// bounds in 1..3, drawn from `rng` over the schema's symbols.
///
/// Repeats are kept unless `distinct` is set, in which case a query whose
/// IncrementalSession::CanonicalQueryKey was already drawn is dropped and
/// drawing stops after 64 * count attempts, so a small schema can yield
/// a shorter batch. Both modes consume `rng` identically per draw.
std::vector<ImplicationQuery> GenerateImplicationBatch(const Schema& schema,
                                                       Rng* rng, int count,
                                                       bool distinct = false);

}  // namespace car

#endif  // CAR_WORKLOADS_QUERY_BATCH_H_
