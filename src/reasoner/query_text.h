#ifndef CAR_REASONER_QUERY_TEXT_H_
#define CAR_REASONER_QUERY_TEXT_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "model/schema.h"
#include "reasoner/reasoner.h"

namespace car {

/// The textual implication-query format shared by `car_tool query`
/// (--queries files), the car_serve wire protocol and the serve load
/// generator. One query per line:
///
///   isa A B                    S ⊨ A isa B?
///   disjoint A B               S ⊨ A, B disjoint?
///   min-card A att N           every A has >= N att-successors?
///   max-card A att N|inf       ... at most N (or unbounded)?
///   min-part A Rel role N      A occurs >= N times as Rel[role]?
///   max-part A Rel role N|inf  ... at most N times?
///
/// `att` may be `inv:att` for the inverse term. `#` starts a comment;
/// blank and comment-only lines are skipped by the file-level parser.

/// Splits one line into tokens separated by runs of the C locale's
/// whitespace bytes (space, \t, \n, \v, \f, \r), dropping everything
/// from the first token that starts with '#'. An empty result means the
/// line carries no query (blank or comment-only).
std::vector<std::string> TokenizeQueryLine(std::string_view line);

/// Parses one tokenized query, resolving names against the schema.
/// `tokens` must be non-empty.
Result<ImplicationQuery> ParseQueryTokens(
    const Schema& schema, const std::vector<std::string>& tokens);

/// Parses a whole query text (one query per line, '#' comments and blank
/// lines skipped). On success the queries are positionally aligned with
/// `normalized_lines` (when non-null): the i-th entry is the i-th query's
/// token text re-joined with single spaces. The first malformed line
/// fails the whole parse with its line's diagnostic.
Result<std::vector<ImplicationQuery>> ParseQueryText(
    const Schema& schema, std::string_view text,
    std::vector<std::string>* normalized_lines = nullptr);

}  // namespace car

#endif  // CAR_REASONER_QUERY_TEXT_H_
