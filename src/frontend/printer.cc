#include "frontend/printer.h"

#include <sstream>
#include <utility>

#include "base/hashing.h"
#include "base/strings.h"

namespace car {

namespace {

std::string PrintLiteral(const Schema& schema, const ClassLiteral& literal) {
  return StrCat(literal.negated ? "!" : "",
                schema.ClassName(literal.class_id));
}

std::string PrintClause(const Schema& schema, const ClassClause& clause) {
  std::vector<std::string> parts;
  parts.reserve(clause.literals().size());
  for (const ClassLiteral& literal : clause.literals()) {
    parts.push_back(PrintLiteral(schema, literal));
  }
  return StrJoin(parts, " | ");
}

std::string PrintCardinality(const Cardinality& cardinality) {
  return StrCat("(", cardinality.min(), ", ",
                cardinality.has_finite_max() ? StrCat(cardinality.max())
                                             : std::string("*"),
                ")");
}

}  // namespace

std::string PrintFormula(const Schema& schema, const ClassFormula& formula) {
  std::vector<std::string> parts;
  parts.reserve(formula.clauses().size());
  for (const ClassClause& clause : formula.clauses()) {
    // Parenthesize multi-literal clauses so "&" and "|" re-parse the same.
    if (clause.literals().size() > 1 && formula.clauses().size() > 1) {
      parts.push_back(StrCat("(", PrintClause(schema, clause), ")"));
    } else {
      parts.push_back(PrintClause(schema, clause));
    }
  }
  return StrJoin(parts, " & ");
}

std::string PrintSchema(const Schema& schema) {
  std::ostringstream os;
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const ClassDefinition& definition = schema.class_definition(c);
    os << "class " << schema.ClassName(c) << "\n";
    if (!definition.isa.IsTriviallyTrue()) {
      os << "  isa " << PrintFormula(schema, definition.isa) << "\n";
    }
    if (!definition.attributes.empty()) {
      os << "  attributes\n";
      for (size_t i = 0; i < definition.attributes.size(); ++i) {
        const AttributeSpec& spec = definition.attributes[i];
        os << "    ";
        if (spec.term.inverse) {
          os << "(inv " << schema.AttributeName(spec.term.attribute) << ")";
        } else {
          os << schema.AttributeName(spec.term.attribute);
        }
        os << " : " << PrintCardinality(spec.cardinality) << " "
           << PrintFormula(schema, spec.range);
        os << (i + 1 < definition.attributes.size() ? ";" : "") << "\n";
      }
    }
    if (!definition.participations.empty()) {
      os << "  participates_in\n";
      for (size_t i = 0; i < definition.participations.size(); ++i) {
        const ParticipationSpec& spec = definition.participations[i];
        os << "    " << schema.RelationName(spec.relation) << "["
           << schema.RoleName(spec.role)
           << "] : " << PrintCardinality(spec.cardinality);
        os << (i + 1 < definition.participations.size() ? ";" : "") << "\n";
      }
    }
    os << "endclass\n\n";
  }

  for (RelationId r = 0; r < schema.num_relations(); ++r) {
    const RelationDefinition* definition = schema.relation_definition(r);
    if (definition == nullptr) continue;
    std::vector<std::string> roles;
    for (RoleId role : definition->roles) {
      roles.push_back(schema.RoleName(role));
    }
    os << "relation " << schema.RelationName(r) << "(" << StrJoin(roles, ", ")
       << ")\n";
    if (!definition->constraints.empty()) {
      os << "  constraints\n";
      for (size_t i = 0; i < definition->constraints.size(); ++i) {
        const RoleClause& clause = definition->constraints[i];
        std::vector<std::string> literals;
        for (const RoleLiteral& literal : clause.literals) {
          literals.push_back(StrCat("(", schema.RoleName(literal.role), " : ",
                                    PrintFormula(schema, literal.formula),
                                    ")"));
        }
        os << "    " << StrJoin(literals, " | ")
           << (i + 1 < definition->constraints.size() ? ";" : "") << "\n";
      }
    }
    os << "endrelation\n\n";
  }
  return os.str();
}

uint64_t SchemaFingerprint(const Schema& schema, std::string* canonical) {
  std::string text = PrintSchema(schema);
  const uint64_t fingerprint = Fnv1a64(text);
  if (canonical != nullptr) *canonical = std::move(text);
  return fingerprint;
}

}  // namespace car
