#include "model/schema.h"

#include <set>
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

Status Schema::ValidateFormula(const ClassFormula& formula,
                               std::string_view context) const {
  for (const ClassClause& clause : formula.clauses()) {
    if (clause.empty()) {
      return InvalidArgument(
          StrCat("empty class-clause in ", context,
                 " (an empty disjunction is unsatisfiable by fiat; "
                 "write an explicit contradiction instead)"));
    }
    for (const ClassLiteral& literal : clause.literals()) {
      if (literal.class_id < 0 || literal.class_id >= num_classes()) {
        return NotFound(StrCat("class id ", literal.class_id,
                               " out of range in ", context));
      }
    }
  }
  return Status::Ok();
}

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
    CAR_RETURN_IF_ERROR(
        ValidateFormula(definition.isa, StrCat("isa of class ", name)));

    std::set<std::pair<AttributeId, bool>> seen_terms;
    for (const AttributeSpec& spec : definition.attributes) {
      if (spec.term.attribute < 0 || spec.term.attribute >= num_attributes()) {
        return NotFound(StrCat("attribute id ", spec.term.attribute,
                               " out of range in class ", name));
      }
      if (!seen_terms.emplace(spec.term.attribute, spec.term.inverse)
               .second) {
        return InvalidArgument(
            StrCat("attribute term '", spec.term.inverse ? "inv " : "",
                   AttributeName(spec.term.attribute),
                   "' appears twice in class ", name));
      }
      CAR_RETURN_IF_ERROR(ValidateFormula(
          spec.range, StrCat("range of attribute ",
                             AttributeName(spec.term.attribute), " in class ",
                             name)));
    }

    std::set<std::pair<RelationId, RoleId>> seen_participations;
    for (const ParticipationSpec& spec : definition.participations) {
      Status role_of = ValidateRoleOf(spec.relation, spec.role);
      if (!role_of.ok()) {
        return Status(role_of.code(),
                      StrCat(role_of.message(), " (participation in class ",
                             name, ")"));
      }
      if (!seen_participations.emplace(spec.relation, spec.role).second) {
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
    std::set<RoleId> seen_roles;
    for (RoleId role : definition->roles) {
      if (role < 0 || role >= num_roles()) {
        return NotFound(StrCat("role id ", role, " out of range in relation ",
                               RelationName(id)));
      }
      if (!seen_roles.insert(role).second) {
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
      std::set<RoleId> clause_roles;
      for (const RoleLiteral& literal : clause.literals) {
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
        if (!clause_roles.insert(literal.role).second) {
          return InvalidArgument(
              StrCat("role '", RoleName(literal.role),
                     "' appears twice in one role-clause of relation ",
                     RelationName(id)));
        }
        CAR_RETURN_IF_ERROR(ValidateFormula(
            literal.formula, StrCat("role-clause of relation ",
                                    RelationName(id))));
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
