#include "analysis/pair_tables.h"

#include <algorithm>

#include "base/check.h"

namespace car {

void PairTables::MarkDisjoint(ClassId a, ClassId b) {
  CAR_CHECK_GE(a, 0);
  CAR_CHECK_LT(a, num_classes_);
  CAR_CHECK_GE(b, 0);
  CAR_CHECK_LT(b, num_classes_);
  if (!disjoint_bits_.Set(a, b)) return;
  ++num_disjoint_pairs_;
  disjoint_bits_.Set(b, a);
}

void PairTables::MarkIncluded(ClassId subclass, ClassId superclass) {
  CAR_CHECK_GE(subclass, 0);
  CAR_CHECK_LT(subclass, num_classes_);
  CAR_CHECK_GE(superclass, 0);
  CAR_CHECK_LT(superclass, num_classes_);
  if (subclass == superclass) return;  // Reflexive inclusions are trivial.
  if (!included_bits_.Set(subclass, superclass)) return;
  ++num_inclusion_pairs_;
  std::vector<ClassId>& row = superclasses_[subclass];
  row.insert(std::upper_bound(row.begin(), row.end(), superclass),
             superclass);
}

const std::vector<ClassId>& PairTables::SuperclassesOf(
    ClassId subclass) const {
  CAR_CHECK_GE(subclass, 0);
  CAR_CHECK_LT(subclass, num_classes_);
  return superclasses_[subclass];
}

PairTables BuildPairTables(const Schema& schema,
                           const PairTableOptions& options) {
  const int n = schema.num_classes();
  PairTables tables(n);

  // Explicit entries from single-literal isa clauses.
  for (ClassId c = 0; c < n; ++c) {
    const ClassDefinition& definition = schema.class_definition(c);
    for (const ClassClause& clause : definition.isa.clauses()) {
      if (clause.literals().size() != 1) continue;
      const ClassLiteral& literal = clause.literals()[0];
      if (literal.negated) {
        // C isa ¬C (literal.class_id == c) records C disjoint from
        // itself: C is empty in every model, so enumeration drops every
        // compound class containing C.
        tables.MarkDisjoint(c, literal.class_id);
      } else if (literal.class_id != c) {
        tables.MarkIncluded(c, literal.class_id);
      }
    }
  }

  if (!options.propagate) return tables;

  // Sound propagation to a fixpoint. The rules only ever add entries, and
  // the number of pairs is bounded by num_classes^2, so this terminates;
  // the fixpoint does not depend on the order entries are found in.
  // Each row word is read into a local before its bits are marked, and
  // c's own superclass row is copied first: marking grows the rows being
  // read (with D isa C and C isa ¬C, MarkDisjoint(D, C) adds D to C's
  // disjointness row).
  const int words = tables.included_bits().words_per_row();
  std::vector<uint64_t> supers(words);
  bool changed = true;
  while (changed) {
    changed = false;
    for (ClassId c = 0; c < n; ++c) {
      const uint64_t* own_supers = tables.included_bits().row(c);
      supers.assign(own_supers, own_supers + words);
      ForEachSetBit(supers.data(), words, [&](ClassId super) {
        const uint64_t* grand_row = tables.included_bits().row(super);
        const uint64_t* enemy_row = tables.disjoint_bits().row(super);
        for (int w = 0; w < words; ++w) {
          // Transitivity of inclusion.
          const uint64_t grands =
              grand_row[w] & ~tables.included_bits().row(c)[w];
          ForEachSetBit(&grands, 1, [&](int bit) {
            const ClassId grand = w * 64 + bit;
            if (grand == c) return;
            tables.MarkIncluded(c, grand);
            changed = true;
          });
          // Disjointness inherited through inclusion.
          const uint64_t enemies =
              enemy_row[w] & ~tables.disjoint_bits().row(c)[w];
          ForEachSetBit(&enemies, 1, [&](int bit) {
            tables.MarkDisjoint(c, w * 64 + bit);
            changed = true;
          });
        }
      });
    }
  }
  return tables;
}

}  // namespace car
