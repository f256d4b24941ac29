#ifndef CAR_ANALYSIS_UNION_FREE_H_
#define CAR_ANALYSIS_UNION_FREE_H_

#include "analysis/pair_tables.h"
#include "model/schema.h"

namespace car {

/// The "optimal strategy" for union-free schemas (Section 4.4): complete
/// the disjointness table so that the number of disjointness assumptions
/// is maximized without influencing class satisfiability.
///
/// In a union-free schema, an object's memberships are forced only
/// through (a) upward isa closure of single positive literals and
/// (b) conjunctive range/role formulae (each a set of positive literals
/// whose up-closures the filler must inhabit together). Therefore two
/// classes may be *required* to share an instance only if they appear
/// together in one of the following "required co-membership" cliques:
///
///   * Up(D) for some class D — the up-closure {D} ∪ transitive positive
///     isa parents (every D-object inhabits all of Up(D));
///   * the union of Up(E) over positive literals E of one attribute-range
///     formula with minimum >= 1 (the mandatory filler inhabits all);
///   * for each relation role: Up(C) of every class participating with
///     minimum >= 1 at that role, together with the up-closures of the
///     positive literals of that role's single-literal clauses (the
///     component object inhabits all of them at once).
///
/// Every pair NOT covered by some clique is marked disjoint in `tables`.
/// For a generalization hierarchy this yields exactly the sibling- and
/// cross-group disjointness the paper assumes, and the expansion's
/// compound classes become the root-to-node paths (classes + 1 compounds
/// including the empty one).
///
/// Only call on union-free schemas (checked; returns without changes
/// otherwise) that validate. Mixed negation is fine — explicit
/// disjointness in `tables` is kept and only ever grows.
///
/// The contexts are bit rows of one matrix (a witness row per class, two
/// filler rows per attribute, one row per relation role), each formula's
/// positive single literals are one precomputed row, and the rules merge
/// rows a word at a time until nothing grows.
void CompleteDisjointnessUnionFree(const Schema& schema, PairTables* tables);

}  // namespace car

#endif  // CAR_ANALYSIS_UNION_FREE_H_
