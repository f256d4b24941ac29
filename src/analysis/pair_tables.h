#ifndef CAR_ANALYSIS_PAIR_TABLES_H_
#define CAR_ANALYSIS_PAIR_TABLES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/schema.h"

namespace car {

/// A matrix of bit rows over a fixed number of columns in one flat array
/// of 64-bit words: column c of row r is bit c % 64 of word c / 64 of the
/// row. The pair tables and the union-free completion keep their rows
/// here, so a membership test is one word test and merging two rows is
/// one OR per word.
class BitRows {
 public:
  BitRows() = default;
  BitRows(int num_rows, int num_columns)
      : words_per_row_((num_columns + 63) / 64),
        words_(static_cast<size_t>(num_rows) * words_per_row_, 0) {}

  int words_per_row() const { return words_per_row_; }
  uint64_t* row(int r) {
    return words_.data() + static_cast<size_t>(r) * words_per_row_;
  }
  const uint64_t* row(int r) const {
    return words_.data() + static_cast<size_t>(r) * words_per_row_;
  }

  bool Test(int r, int c) const {
    return ((row(r)[c / 64] >> (c % 64)) & 1) != 0;
  }
  /// Sets column c of row r; returns whether it was clear.
  bool Set(int r, int c) {
    uint64_t& word = row(r)[c / 64];
    const uint64_t bit = uint64_t{1} << (c % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }
  /// ORs `words_per_row()` words from `source` into row r; returns
  /// whether the row grew. `source` may not alias row r.
  bool OrInto(int r, const uint64_t* source) {
    uint64_t* target = row(r);
    uint64_t grew = 0;
    for (int w = 0; w < words_per_row_; ++w) {
      grew |= source[w] & ~target[w];
      target[w] |= source[w];
    }
    return grew != 0;
  }

 private:
  int words_per_row_ = 0;
  std::vector<uint64_t> words_;
};

/// Calls `visit(column)` for every set bit of `words[0, count)`, in
/// ascending order. Each word is read once, before its bits are visited.
template <typename Visit>
void ForEachSetBit(const uint64_t* words, int count, Visit&& visit) {
  for (int w = 0; w < count; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      visit(w * 64 + std::countr_zero(bits));
    }
  }
}

/// The two preselection data structures of Section 4.3: a disjointness
/// table (pairs of classes with no common instance in any model) and an
/// inclusion table (pairs where the first class is included in the second
/// in every model).
///
/// Entries are *sound* consequences of the schema (criterion (a) of the
/// paper). The tables are deliberately incomplete — computing all such
/// pairs is NP-complete for unrestricted isa formulae — and are used to
/// prune the enumeration of compound classes; the per-leaf consistency
/// check remains the source of truth.
///
/// Each table is one bit row per class (AreDisjoint and IsIncluded are
/// one word test); the inclusion table is mirrored by a sorted id row per
/// class for iteration. Reads are safe from many threads once marking is
/// done.
class PairTables {
 public:
  explicit PairTables(int num_classes)
      : num_classes_(num_classes),
        disjoint_bits_(num_classes, num_classes),
        included_bits_(num_classes, num_classes),
        superclasses_(num_classes) {}

  void MarkDisjoint(ClassId a, ClassId b);
  void MarkIncluded(ClassId subclass, ClassId superclass);

  bool AreDisjoint(ClassId a, ClassId b) const {
    return disjoint_bits_.Test(a, b);
  }
  bool IsIncluded(ClassId subclass, ClassId superclass) const {
    return included_bits_.Test(subclass, superclass);
  }

  /// All superclasses recorded for `subclass` (not reflexive), ascending.
  const std::vector<ClassId>& SuperclassesOf(ClassId subclass) const;

  /// The bit rows behind AreDisjoint and IsIncluded (row = first class).
  const BitRows& disjoint_bits() const { return disjoint_bits_; }
  const BitRows& included_bits() const { return included_bits_; }

  size_t num_disjoint_pairs() const { return num_disjoint_pairs_; }
  size_t num_inclusion_pairs() const { return num_inclusion_pairs_; }
  int num_classes() const { return num_classes_; }

 private:
  int num_classes_;
  size_t num_disjoint_pairs_ = 0;
  size_t num_inclusion_pairs_ = 0;
  BitRows disjoint_bits_;  // Symmetric.
  BitRows included_bits_;  // subclass row, superclass column.
  std::vector<std::vector<ClassId>> superclasses_;
};

struct PairTableOptions {
  /// Apply the sound propagation rules (inclusion transitivity;
  /// disjointness inherited through inclusion) to a fixpoint. This is the
  /// "more sophisticated method" of criterion (a); it stays polynomial.
  bool propagate = true;
};

/// Criterion (a): fills the tables from the isa parts of class
/// definitions. A clause consisting of the single literal C2 in the isa
/// of C1 yields inclusion C1 ⊆ C2; a single-literal clause ¬C2 yields
/// disjointness {C1, C2}. With propagation enabled, the tables are closed
/// under:
///   C1 ⊆ C2, C2 ⊆ C3            =>  C1 ⊆ C3
///   C1 ⊆ C2, disjoint(C2, C3)   =>  disjoint(C1, C3)
PairTables BuildPairTables(const Schema& schema,
                           const PairTableOptions& options = {});

}  // namespace car

#endif  // CAR_ANALYSIS_PAIR_TABLES_H_
