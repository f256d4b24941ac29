#ifndef CAR_MODEL_DEFINITIONS_H_
#define CAR_MODEL_DEFINITIONS_H_

#include <vector>

#include "model/cardinality.h"
#include "model/formula.h"
#include "model/symbols.h"

namespace car {

/// Provenance of a declaration in the `.car` source text: the 1-based
/// line/column of its first token and that token's length. Schemas built
/// programmatically (SchemaBuilder, generators) leave spans unknown —
/// line 0 — and diagnostics fall back to naming the symbol only. Spans
/// are carried alongside definitions and never participate in schema
/// equality, printing or fingerprints.
struct SourceSpan {
  int line = 0;
  int column = 0;
  int length = 0;

  bool known() const { return line > 0; }
};

/// An attribute term `att`: either an attribute symbol A or its inverse
/// (inv A). Used both in class definitions and as the key of the Natt
/// cardinality-constraint set of the expansion.
struct AttributeTerm {
  AttributeId attribute = kInvalidId;
  bool inverse = false;

  static AttributeTerm Direct(AttributeId id) { return {id, false}; }
  static AttributeTerm Inverse(AttributeId id) { return {id, true}; }

  bool operator==(const AttributeTerm& other) const {
    return attribute == other.attribute && inverse == other.inverse;
  }
  bool operator<(const AttributeTerm& other) const {
    if (attribute != other.attribute) return attribute < other.attribute;
    return inverse < other.inverse;
  }
};

/// One line of the attributes part of a class definition:
///   att : (u, v) F
/// Every instance of the class is related by `att` to between u and v
/// objects, all of which are instances of the class-formula `range`.
struct AttributeSpec {
  AttributeTerm term;
  Cardinality cardinality;
  ClassFormula range = ClassFormula::True();
  /// Where the spec line starts in the source text (unknown if built
  /// programmatically).
  SourceSpan span{};
};

/// One line of the participates-in part of a class definition:
///   R[U] : (x, y)
/// Every instance of the class appears as the U-component of between x and
/// y tuples of relation R.
struct ParticipationSpec {
  RelationId relation = kInvalidId;
  RoleId role = kInvalidId;
  Cardinality cardinality;
  /// Where the spec line starts in the source text.
  SourceSpan span{};
};

/// A class definition (paper, Section 2.2): isa class-formula, attribute
/// specifications, and relation-participation specifications.
struct ClassDefinition {
  ClassId class_id = kInvalidId;
  ClassFormula isa;
  std::vector<AttributeSpec> attributes;
  std::vector<ParticipationSpec> participations;
  /// Span of the class name token in the `class NAME ... endclass`
  /// declaration that defined this class.
  SourceSpan span;
  /// Span of the first token of the isa formula (if any).
  SourceSpan isa_span;
};

/// A role-literal (U : F): the U-component of a tuple is an instance of F.
struct RoleLiteral {
  RoleId role = kInvalidId;
  ClassFormula formula;
};

/// A role-clause (U1 : F1) ∨ ... ∨ (Us : Fs): every tuple satisfies at
/// least one of the role-literals. Role symbols within a clause are
/// pairwise distinct (paper's w.l.o.g. assumption, enforced at
/// validation).
struct RoleClause {
  std::vector<RoleLiteral> literals;
};

/// A relation definition: the ordered set of roles and the role-clause
/// constraints that every tuple must satisfy.
struct RelationDefinition {
  RelationId relation_id = kInvalidId;
  std::vector<RoleId> roles;
  std::vector<RoleClause> constraints;
  /// Span of the relation name token in its declaration.
  SourceSpan span;

  int arity() const { return static_cast<int>(roles.size()); }

  /// Returns the position of `role` in `roles`, or -1 if absent.
  int RoleIndex(RoleId role) const {
    for (size_t i = 0; i < roles.size(); ++i) {
      if (roles[i] == role) return static_cast<int>(i);
    }
    return -1;
  }
};

}  // namespace car

#endif  // CAR_MODEL_DEFINITIONS_H_
