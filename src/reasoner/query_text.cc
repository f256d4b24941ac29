#include "reasoner/query_text.h"

#include <algorithm>
#include <charconv>
#include <system_error>
#include <utility>

#include "base/strings.h"
#include "model/cardinality.h"

namespace car {

namespace {

/// The whitespace bytes of the C locale, which stream extraction
/// (`std::istream >> std::string`) skips and splits on.
bool IsQuerySpace(char byte) {
  return byte == ' ' || byte == '\t' || byte == '\n' || byte == '\v' ||
         byte == '\f' || byte == '\r';
}

}  // namespace

std::vector<std::string> TokenizeQueryLine(std::string_view line) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (true) {
    while (pos < line.size() && IsQuerySpace(line[pos])) ++pos;
    if (pos == line.size()) break;
    const size_t start = pos;
    while (pos < line.size() && !IsQuerySpace(line[pos])) ++pos;
    if (line[start] == '#') break;
    tokens.emplace_back(line.substr(start, pos - start));
  }
  return tokens;
}

Result<ImplicationQuery> ParseQueryTokens(
    const Schema& schema, const std::vector<std::string>& tokens) {
  auto class_of = [&schema](const std::string& name) -> Result<ClassId> {
    ClassId id = schema.LookupClass(name);
    if (id == kInvalidId) {
      return NotFound(StrCat("unknown class '", Elide(name), "'"));
    }
    return id;
  };
  auto term_of = [&schema](
                     const std::string& text) -> Result<AttributeTerm> {
    bool inverse = text.rfind("inv:", 0) == 0;
    std::string name = inverse ? text.substr(4) : text;
    AttributeId id = schema.LookupAttribute(name);
    if (id == kInvalidId) {
      return NotFound(StrCat("unknown attribute '", Elide(name), "'"));
    }
    return inverse ? AttributeTerm::Inverse(id) : AttributeTerm::Direct(id);
  };
  auto bound_of = [](const std::string& text) -> Result<uint64_t> {
    if (text == "inf") return Cardinality::kInfinity;
    // from_chars, not stoull: stoull wraps "-1" to 2^64-1 instead of
    // rejecting it, silently turning a typo into a huge bound.
    uint64_t value = 0;
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size()) {
      return InvalidArgument(StrCat("bad bound '", Elide(text), "'"));
    }
    return value;
  };

  ImplicationQuery query;
  const std::string& op = tokens[0];
  if (op == "isa" && tokens.size() == 3) {
    query.kind = ImplicationQuery::Kind::kIsa;
    CAR_ASSIGN_OR_RETURN(query.class_id, class_of(tokens[1]));
    CAR_ASSIGN_OR_RETURN(ClassId super, class_of(tokens[2]));
    query.formula = ClassFormula::OfClass(super);
    return query;
  }
  if (op == "disjoint" && tokens.size() == 3) {
    query.kind = ImplicationQuery::Kind::kDisjoint;
    CAR_ASSIGN_OR_RETURN(query.class_id, class_of(tokens[1]));
    CAR_ASSIGN_OR_RETURN(query.other, class_of(tokens[2]));
    return query;
  }
  if ((op == "min-card" || op == "max-card") && tokens.size() == 4) {
    query.kind = op == "min-card" ? ImplicationQuery::Kind::kMinCardinality
                                  : ImplicationQuery::Kind::kMaxCardinality;
    CAR_ASSIGN_OR_RETURN(query.class_id, class_of(tokens[1]));
    CAR_ASSIGN_OR_RETURN(query.term, term_of(tokens[2]));
    CAR_ASSIGN_OR_RETURN(query.bound, bound_of(tokens[3]));
    return query;
  }
  if ((op == "min-part" || op == "max-part") && tokens.size() == 5) {
    query.kind = op == "min-part"
                     ? ImplicationQuery::Kind::kMinParticipation
                     : ImplicationQuery::Kind::kMaxParticipation;
    CAR_ASSIGN_OR_RETURN(query.class_id, class_of(tokens[1]));
    query.relation = schema.LookupRelation(tokens[2]);
    if (query.relation == kInvalidId) {
      return NotFound(StrCat("unknown relation '", Elide(tokens[2]), "'"));
    }
    query.role = schema.LookupRole(tokens[3]);
    if (query.role == kInvalidId) {
      return NotFound(StrCat("unknown role '", Elide(tokens[3]), "'"));
    }
    CAR_ASSIGN_OR_RETURN(query.bound, bound_of(tokens[4]));
    return query;
  }
  return InvalidArgument(
      StrCat("bad query '", Elide(op), "' (or wrong arity)"));
}

Result<std::vector<ImplicationQuery>> ParseQueryText(
    const Schema& schema, std::string_view text,
    std::vector<std::string>* normalized_lines) {
  std::vector<ImplicationQuery> queries;
  // Lines as std::getline splits them: on '\n', with no empty line after
  // a final '\n'.
  for (size_t pos = 0; pos < text.size();) {
    const size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    std::vector<std::string> tokens = TokenizeQueryLine(line);
    if (tokens.empty()) continue;
    auto query = ParseQueryTokens(schema, tokens);
    if (!query.ok()) {
      return Status(
          query.status().code(),
          StrCat("query '", Elide(line), "': ", query.status().message()));
    }
    if (normalized_lines != nullptr) {
      std::string normalized;
      for (const std::string& token : tokens) {
        if (!normalized.empty()) normalized += " ";
        normalized += token;
      }
      normalized_lines->push_back(std::move(normalized));
    }
    queries.push_back(std::move(query.value()));
  }
  return queries;
}

}  // namespace car
