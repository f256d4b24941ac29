#include "model/schema.h"

#include <functional>
#include <utility>

#include "base/strings.h"

namespace car {

ClassId Schema::InternClass(std::string_view name) {
  ClassId id = classes_.Intern(name);
  if (id >= static_cast<int>(class_definitions_.size())) {
    ClassDefinition definition;
    definition.class_id = id;
    class_definitions_.push_back(std::move(definition));
  }
  return id;
}

AttributeId Schema::InternAttribute(std::string_view name) {
  return attributes_.Intern(name);
}

RelationId Schema::InternRelation(std::string_view name) {
  RelationId id = relations_.Intern(name);
  if (id >= static_cast<int>(relation_definitions_.size())) {
    relation_definitions_.emplace_back();
  }
  return id;
}

RoleId Schema::InternRole(std::string_view name) {
  return roles_.Intern(name);
}

const ClassDefinition& Schema::class_definition(ClassId id) const {
  CAR_CHECK_GE(id, 0);
  CAR_CHECK_LT(id, num_classes());
  return class_definitions_[id];
}

ClassDefinition* Schema::mutable_class_definition(ClassId id) {
  CAR_CHECK_GE(id, 0);
  CAR_CHECK_LT(id, num_classes());
  return &class_definitions_[id];
}

Status Schema::SetRelationDefinition(RelationDefinition definition) {
  RelationId id = definition.relation_id;
  if (id < 0 || id >= num_relations()) {
    return NotFound(StrCat("relation id ", id, " is not interned"));
  }
  if (relation_definitions_[id].has_value()) {
    return AlreadyExists(
        StrCat("relation '", RelationName(id), "' is defined twice"));
  }
  relation_definitions_[id] = std::move(definition);
  return Status::Ok();
}

const RelationDefinition* Schema::relation_definition(RelationId id) const {
  CAR_CHECK_GE(id, 0);
  CAR_CHECK_LT(id, num_relations());
  const auto& definition = relation_definitions_[id];
  return definition.has_value() ? &*definition : nullptr;
}

bool Schema::IsUnionFree() const {
  for (const ClassDefinition& definition : class_definitions_) {
    if (!definition.isa.IsUnionFree()) return false;
    for (const AttributeSpec& spec : definition.attributes) {
      if (!spec.range.IsUnionFree()) return false;
    }
  }
  for (const auto& definition : relation_definitions_) {
    if (!definition.has_value()) continue;
    for (const RoleClause& clause : definition->constraints) {
      if (clause.literals.size() != 1) return false;
      for (const RoleLiteral& literal : clause.literals) {
        if (!literal.formula.IsUnionFree()) return false;
      }
    }
  }
  return true;
}

bool Schema::IsNegationFree() const {
  for (const ClassDefinition& definition : class_definitions_) {
    if (!definition.isa.IsNegationFree()) return false;
    for (const AttributeSpec& spec : definition.attributes) {
      if (!spec.range.IsNegationFree()) return false;
    }
  }
  for (const auto& definition : relation_definitions_) {
    if (!definition.has_value()) continue;
    for (const RoleClause& clause : definition->constraints) {
      for (const RoleLiteral& literal : clause.literals) {
        if (!literal.formula.IsNegationFree()) return false;
      }
    }
  }
  return true;
}

int Schema::MaxArity() const {
  int max_arity = 0;
  for (const auto& definition : relation_definitions_) {
    if (definition.has_value() && definition->arity() > max_arity) {
      max_arity = definition->arity();
    }
  }
  return max_arity;
}

namespace {

/// Checks every clause of `formula` against `num_classes`. `context`
/// renders where the formula sits; it runs only once a check has failed,
/// so a valid formula costs no string.
template <typename Context>
Status ValidateFormula(const ClassFormula& formula, int num_classes,
                       const Context& context) {
  for (const ClassClause& clause : formula.clauses()) {
    if (clause.empty()) {
      return InvalidArgument(
          StrCat("empty class-clause in ", context(),
                 " (an empty disjunction is unsatisfiable by fiat; "
                 "write an explicit contradiction instead)"));
    }
    for (const ClassLiteral& literal : clause.literals()) {
      if (literal.class_id < 0 || literal.class_id >= num_classes) {
        return NotFound(StrCat("class id ", literal.class_id,
                               " out of range in ", context()));
      }
    }
  }
  return Status::Ok();
}

/// Whether `items[0, i)` holds an element equal to `items[i]` under
/// `same`: the repeat checks scan a definition's few specs rather than
/// fill a set.
template <typename T, typename Same>
bool RepeatsEarlier(const std::vector<T>& items, size_t i, const Same& same) {
  for (size_t j = 0; j < i; ++j) {
    if (same(items[j], items[i])) return true;
  }
  return false;
}

}  // namespace

Status Schema::ValidateRoleOf(RelationId relation, RoleId role) const {
  if (relation < 0 || relation >= num_relations()) {
    return NotFound(StrCat("relation id ", relation, " out of range"));
  }
  const RelationDefinition* definition = relation_definition(relation);
  if (definition == nullptr) {
    return FailedPrecondition(
        StrCat("relation '", RelationName(relation), "' is never defined"));
  }
  if (role < 0 || role >= num_roles()) {
    return NotFound(StrCat("role id ", role, " out of range"));
  }
  if (definition->RoleIndex(role) < 0) {
    return NotFound(StrCat("role '", RoleName(role),
                           "' is not a role of relation '",
                           RelationName(relation), "'"));
  }
  return Status::Ok();
}

Status Schema::Validate() const {
  for (const ClassDefinition& definition : class_definitions_) {
    const std::string& name = ClassName(definition.class_id);
    CAR_RETURN_IF_ERROR(ValidateFormula(definition.isa, num_classes(), [&] {
      return StrCat("isa of class ", name);
    }));

    const std::vector<AttributeSpec>& attributes = definition.attributes;
    for (size_t i = 0; i < attributes.size(); ++i) {
      const AttributeSpec& spec = attributes[i];
      if (spec.term.attribute < 0 || spec.term.attribute >= num_attributes()) {
        return NotFound(StrCat("attribute id ", spec.term.attribute,
                               " out of range in class ", name));
      }
      if (RepeatsEarlier(attributes, i,
                         [](const AttributeSpec& a, const AttributeSpec& b) {
                           return a.term == b.term;
                         })) {
        return InvalidArgument(
            StrCat("attribute term '", spec.term.inverse ? "inv " : "",
                   AttributeName(spec.term.attribute),
                   "' appears twice in class ", name));
      }
      CAR_RETURN_IF_ERROR(ValidateFormula(spec.range, num_classes(), [&] {
        return StrCat("range of attribute ",
                      AttributeName(spec.term.attribute), " in class ", name);
      }));
    }

    const std::vector<ParticipationSpec>& participations =
        definition.participations;
    for (size_t i = 0; i < participations.size(); ++i) {
      const ParticipationSpec& spec = participations[i];
      Status role_of = ValidateRoleOf(spec.relation, spec.role);
      if (!role_of.ok()) {
        return Status(role_of.code(),
                      StrCat(role_of.message(), " (participation in class ",
                             name, ")"));
      }
      if (RepeatsEarlier(
              participations, i,
              [](const ParticipationSpec& a, const ParticipationSpec& b) {
                return a.relation == b.relation && a.role == b.role;
              })) {
        return InvalidArgument(StrCat(
            "participation ", RelationName(spec.relation), "[",
            RoleName(spec.role), "] appears twice in class ", name));
      }
    }
  }

  for (RelationId id = 0; id < num_relations(); ++id) {
    const RelationDefinition* definition = relation_definition(id);
    if (definition == nullptr) {
      return FailedPrecondition(
          StrCat("relation '", RelationName(id), "' is never defined"));
    }
    if (definition->roles.empty()) {
      return InvalidArgument(
          StrCat("relation '", RelationName(id), "' has no roles"));
    }
    const std::vector<RoleId>& roles = definition->roles;
    for (size_t i = 0; i < roles.size(); ++i) {
      const RoleId role = roles[i];
      if (role < 0 || role >= num_roles()) {
        return NotFound(StrCat("role id ", role, " out of range in relation ",
                               RelationName(id)));
      }
      if (RepeatsEarlier(roles, i, std::equal_to<RoleId>())) {
        return InvalidArgument(StrCat("role '", RoleName(role),
                                      "' appears twice in relation ",
                                      RelationName(id)));
      }
    }
    for (const RoleClause& clause : definition->constraints) {
      if (clause.literals.empty()) {
        return InvalidArgument(StrCat("empty role-clause in relation ",
                                      RelationName(id)));
      }
      for (size_t i = 0; i < clause.literals.size(); ++i) {
        const RoleLiteral& literal = clause.literals[i];
        if (literal.role < 0 || literal.role >= num_roles()) {
          return NotFound(StrCat("role-clause of relation ", RelationName(id),
                                 " mentions role id ", literal.role,
                                 " out of range"));
        }
        if (definition->RoleIndex(literal.role) < 0) {
          return NotFound(StrCat("role-clause of relation ", RelationName(id),
                                 " mentions role '", RoleName(literal.role),
                                 "' which is not a role of the relation"));
        }
        if (RepeatsEarlier(clause.literals, i,
                           [](const RoleLiteral& a, const RoleLiteral& b) {
                             return a.role == b.role;
                           })) {
          return InvalidArgument(
              StrCat("role '", RoleName(literal.role),
                     "' appears twice in one role-clause of relation ",
                     RelationName(id)));
        }
        CAR_RETURN_IF_ERROR(
            ValidateFormula(literal.formula, num_classes(), [&] {
              return StrCat("role-clause of relation ", RelationName(id));
            }));
      }
    }
  }
  return Status::Ok();
}

std::string Schema::Summary() const {
  return StrCat("schema: ", num_classes(), " classes, ", num_attributes(),
                " attributes, ", num_relations(), " relations, ", num_roles(),
                " roles");
}

}  // namespace car
