#ifndef CAR_MODEL_SCHEMA_H_
#define CAR_MODEL_SCHEMA_H_

#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "model/definitions.h"
#include "model/symbols.h"

namespace car {

/// A CAR schema: a collection of class and relation definitions over an
/// alphabet of class, attribute, relation and role symbols (paper,
/// Section 2.2).
///
/// Symbols are interned into dense ids. Every interned class has a
/// definition (a fresh class starts with the empty definition — no isa
/// constraint, no attributes, no participations — which is how classes
/// like `String` that are only mentioned appear). Relations must be given
/// an explicit definition before the schema validates.
class Schema {
 public:
  Schema() = default;

  // --- Symbol interning -------------------------------------------------

  ClassId InternClass(std::string_view name);
  AttributeId InternAttribute(std::string_view name);
  RelationId InternRelation(std::string_view name);
  RoleId InternRole(std::string_view name);

  ClassId LookupClass(std::string_view name) const {
    return classes_.Lookup(name);
  }
  AttributeId LookupAttribute(std::string_view name) const {
    return attributes_.Lookup(name);
  }
  RelationId LookupRelation(std::string_view name) const {
    return relations_.Lookup(name);
  }
  RoleId LookupRole(std::string_view name) const {
    return roles_.Lookup(name);
  }

  const std::string& ClassName(ClassId id) const {
    return classes_.NameOf(id);
  }
  const std::string& AttributeName(AttributeId id) const {
    return attributes_.NameOf(id);
  }
  const std::string& RelationName(RelationId id) const {
    return relations_.NameOf(id);
  }
  const std::string& RoleName(RoleId id) const { return roles_.NameOf(id); }

  int num_classes() const { return classes_.size(); }
  int num_attributes() const { return attributes_.size(); }
  int num_relations() const { return relations_.size(); }
  int num_roles() const { return roles_.size(); }

  // --- Definitions ------------------------------------------------------

  const ClassDefinition& class_definition(ClassId id) const;
  ClassDefinition* mutable_class_definition(ClassId id);

  /// Installs the definition of a relation; fails if already defined or if
  /// the id is unknown.
  Status SetRelationDefinition(RelationDefinition definition);

  /// Returns the relation's definition, or nullptr if not yet defined.
  const RelationDefinition* relation_definition(RelationId id) const;

  // --- Schema-level queries ----------------------------------------------

  /// Union-free (paper, §4.1): all class-clauses and role-clauses in every
  /// definition have exactly one literal.
  bool IsUnionFree() const;
  /// Negation-free (paper, §4.1): "¬" appears in no class-formula.
  bool IsNegationFree() const;
  /// Largest relation arity (0 if no relations).
  int MaxArity() const;

  /// Checks that `relation` is in range and defined and that `role` is
  /// one of its roles: the well-formedness of a participation R[U].
  /// NotFound for an out-of-range relation or role id or a role of
  /// another relation, FailedPrecondition for an undefined relation.
  Status ValidateRoleOf(RelationId relation, RoleId role) const;

  /// Checks structural well-formedness: unique attribute terms and
  /// participation targets per class definition, declared roles, distinct
  /// roles per relation and per role-clause, every relation defined, every
  /// referenced symbol in range. Allocates nothing on success: an error's
  /// message is built only once its check has failed.
  Status Validate() const;

  /// Renders a human-oriented summary (counts per category).
  std::string Summary() const;

 private:
  SymbolTable classes_;
  SymbolTable attributes_;
  SymbolTable relations_;
  SymbolTable roles_;

  // Deques, not vectors: pointers returned by mutable_class_definition()
  // must survive interning of further symbols (the parser and builders
  // intern classes while a definition is being filled in).
  std::deque<ClassDefinition> class_definitions_;  // By ClassId.
  std::deque<std::optional<RelationDefinition>> relation_definitions_;
};

}  // namespace car

#endif  // CAR_MODEL_SCHEMA_H_
