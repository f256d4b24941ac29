#include "analysis/union_free.h"

#include <vector>

namespace car {

namespace {

/// The completion's rows, all over class columns except the triggers.
///
/// A context is a set of classes some single object may be forced to
/// inhabit together: one per class (its canonical witness), one per
/// attribute side (merged mandatory fillers), one per relation role
/// (merged mandatory co-components). Context ids: class c is witness c;
/// attribute term t = 2 * attribute + inverse is filler n + t (the
/// targets of a direct term, the sources of an inverse one); role index
/// i of relation r is n + 2 * num_attributes + role_base[r] + i.
///
/// Formula rows hold the positive single literals of one formula, each
/// computed once per call: an isa, an attribute range, or the formula of
/// a single-literal role clause.
struct CompletionRows {
  explicit CompletionRows(const Schema& schema);

  int num_terms;
  int num_contexts;
  BitRows contexts;
  /// Row per term over context ids: the contexts whose witness made the
  /// term's filler context mandatory (the feedback receivers).
  BitRows triggers;
  /// Row per class over terms: the terms the class demands min >= 1 of.
  BitRows mandatory_terms;
  BitRows formulas;
  /// Formula row of class c's isa is c; of its j-th attribute spec,
  /// spec_base[c] + j; of relation r's k-th role clause,
  /// clause_base[r] + k (meaningful for single-literal clauses only).
  std::vector<int> spec_base;
  std::vector<int> clause_base;
  std::vector<int> role_base;
};

int TermOf(const AttributeTerm& term) {
  return 2 * term.attribute + (term.inverse ? 1 : 0);
}

/// Marks the positive single literals of a union-free formula.
void MarkPositives(const ClassFormula& formula, BitRows* rows, int row) {
  for (const ClassClause& clause : formula.clauses()) {
    if (clause.literals().size() != 1) continue;
    const ClassLiteral& literal = clause.literals()[0];
    if (!literal.negated) rows->Set(row, literal.class_id);
  }
}

CompletionRows::CompletionRows(const Schema& schema)
    : num_terms(2 * schema.num_attributes()) {
  const int n = schema.num_classes();
  int num_formulas = n;
  spec_base.resize(n);
  for (ClassId c = 0; c < n; ++c) {
    spec_base[c] = num_formulas;
    num_formulas +=
        static_cast<int>(schema.class_definition(c).attributes.size());
  }
  int num_roles = 0;
  clause_base.resize(schema.num_relations());
  role_base.resize(schema.num_relations());
  for (RelationId r = 0; r < schema.num_relations(); ++r) {
    const RelationDefinition* relation = schema.relation_definition(r);
    clause_base[r] = num_formulas;
    role_base[r] = num_roles;
    if (relation == nullptr) continue;
    num_formulas += static_cast<int>(relation->constraints.size());
    num_roles += relation->arity();
  }
  num_contexts = n + num_terms + num_roles;
  contexts = BitRows(num_contexts, n);
  triggers = BitRows(num_terms, num_contexts);
  mandatory_terms = BitRows(n, num_terms);
  formulas = BitRows(num_formulas, n);

  for (ClassId c = 0; c < n; ++c) {
    contexts.Set(c, c);
    const ClassDefinition& definition = schema.class_definition(c);
    MarkPositives(definition.isa, &formulas, c);
    for (size_t j = 0; j < definition.attributes.size(); ++j) {
      const AttributeSpec& spec = definition.attributes[j];
      MarkPositives(spec.range, &formulas, spec_base[c] + static_cast<int>(j));
      if (spec.cardinality.min() >= 1) {
        mandatory_terms.Set(c, TermOf(spec.term));
      }
    }
  }
  for (RelationId r = 0; r < schema.num_relations(); ++r) {
    const RelationDefinition* relation = schema.relation_definition(r);
    if (relation == nullptr) continue;
    for (size_t k = 0; k < relation->constraints.size(); ++k) {
      const RoleClause& clause = relation->constraints[k];
      if (clause.literals.size() != 1) continue;
      MarkPositives(clause.literals[0].formula, &formulas,
                    clause_base[r] + static_cast<int>(k));
    }
  }
}

}  // namespace

void CompleteDisjointnessUnionFree(const Schema& schema,
                                   PairTables* tables) {
  if (!schema.IsUnionFree()) return;
  const int n = schema.num_classes();
  if (n == 0) return;

  CompletionRows rows(schema);
  BitRows& contexts = rows.contexts;
  const int class_words = contexts.words_per_row();
  const int term_words = rows.mandatory_terms.words_per_row();
  const int context_words = rows.triggers.words_per_row();
  // Work rows: a context's members as the round found them (the rules grow
  // the context while its members are visited), the terms mandatory in
  // that context, and a filler's members for the feedback rule.
  std::vector<uint64_t> members(class_words);
  std::vector<uint64_t> mandatory(term_words);
  std::vector<uint64_t> filler(class_words);

  bool changed = true;
  while (changed) {
    changed = false;
    for (int context = 0; context < rows.num_contexts; ++context) {
      const uint64_t* live = contexts.row(context);
      members.assign(live, live + class_words);

      // Which attribute terms have a mandatory filler in this context?
      // (some member demands min >= 1 for the term).
      mandatory.assign(term_words, 0);
      ForEachSetBit(members.data(), class_words, [&](ClassId member) {
        const uint64_t* demands = rows.mandatory_terms.row(member);
        for (int w = 0; w < term_words; ++w) mandatory[w] |= demands[w];
      });

      ForEachSetBit(members.data(), class_words, [&](ClassId member) {
        const ClassDefinition& definition = schema.class_definition(member);
        // Rule 1: isa up-closure.
        changed |= contexts.OrInto(context, rows.formulas.row(member));

        // Rule 2: mandatory attribute fillers. The filler must realize
        // the ranges of *every* same-term spec owned anywhere in the
        // context (including min-0 ones — they type all links), so all
        // of them feed the filler context once the term is mandatory.
        for (size_t j = 0; j < definition.attributes.size(); ++j) {
          const int term = TermOf(definition.attributes[j].term);
          if (((mandatory[term / 64] >> (term % 64)) & 1) == 0) continue;
          changed |= contexts.OrInto(
              n + term, rows.formulas.row(rows.spec_base[member] +
                                          static_cast<int>(j)));
          changed |= rows.triggers.Set(term, context);
        }

        // Rule 3: mandatory relation participation.
        for (const ParticipationSpec& spec : definition.participations) {
          if (spec.cardinality.min() == 0) continue;
          const RelationDefinition* relation =
              schema.relation_definition(spec.relation);
          if (relation == nullptr) continue;
          const int own_index = relation->RoleIndex(spec.role);
          for (size_t k = 0; k < relation->constraints.size(); ++k) {
            const RoleClause& clause = relation->constraints[k];
            if (clause.literals.size() != 1) continue;
            const int index = relation->RoleIndex(clause.literals[0].role);
            // The witness itself is the component at its own role.
            const int target =
                index == own_index
                    ? context
                    : n + rows.num_terms + rows.role_base[spec.relation] +
                          index;
            changed |= contexts.OrInto(
                target, rows.formulas.row(rows.clause_base[spec.relation] +
                                          static_cast<int>(k)));
          }
        }
      });
    }

    // Rule 4 (feedback): classes in a filler context carry opposite-side
    // specs of the same attribute that constrain the *triggering* witness.
    // A filler on the target side owns (inv A) specs constraining the
    // source, and vice versa: the spec's term is the filler's term ^ 1.
    for (int term = 0; term < rows.num_terms; ++term) {
      const uint64_t* live = contexts.row(n + term);
      filler.assign(live, live + class_words);
      ForEachSetBit(filler.data(), class_words, [&](ClassId member) {
        const std::vector<AttributeSpec>& specs =
            schema.class_definition(member).attributes;
        for (size_t j = 0; j < specs.size(); ++j) {
          if (TermOf(specs[j].term) != (term ^ 1)) continue;
          const uint64_t* range =
              rows.formulas.row(rows.spec_base[member] + static_cast<int>(j));
          ForEachSetBit(rows.triggers.row(term), context_words,
                        [&](int receiver) {
                          changed |= contexts.OrInto(receiver, range);
                        });
        }
      });
    }
  }

  // Every pair not co-resident in any context may be assumed disjoint.
  BitRows required(n, n);
  for (int context = 0; context < rows.num_contexts; ++context) {
    const uint64_t* row = contexts.row(context);
    ForEachSetBit(row, class_words,
                  [&](ClassId a) { required.OrInto(a, row); });
  }
  for (ClassId a = 0; a < n; ++a) {
    for (ClassId b = a + 1; b < n; ++b) {
      if (!required.Test(a, b) && !tables->AreDisjoint(a, b)) {
        tables->MarkDisjoint(a, b);
      }
    }
  }
}

}  // namespace car
