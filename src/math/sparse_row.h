#ifndef CAR_MATH_SPARSE_ROW_H_
#define CAR_MATH_SPARSE_ROW_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "base/check.h"
#include "math/scalar.h"

namespace car {

/// One compressed sparse row of a simplex tableau: (column, value) entries
/// sorted by column, with every stored value nonzero.
///
/// Ψ_S rows are extremely sparse — a disequation touches only the
/// compound classes of one cluster or one Natt/Nrel constraint — so a
/// pivot that walks entries instead of columns skips the zeros that
/// dominate a dense sweep. All mutators preserve both invariants
/// (ascending columns, no explicit zeros); cancellation during a merge
/// drops the entry rather than storing a zero.
class SparseRow {
 public:
  struct Entry {
    int col = 0;
    Scalar value;
  };

  size_t nnz() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  void clear() { entries_.clear(); }
  void reserve(size_t n) { entries_.reserve(n); }
  /// Drops the merge headroom SubtractScaled leaves behind (its buffer is
  /// sized |row| + |pivot row|). For rows that outlive their solve.
  void ShrinkToFit() { entries_.shrink_to_fit(); }

  /// Pointer to the value at `col`, or null when the cell is zero.
  const Scalar* Find(int col) const {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), col,
        [](const Entry& entry, int c) { return entry.col < c; });
    if (it == entries_.end() || it->col != col) return nullptr;
    return &it->value;
  }

  /// The value at `col` (zero when absent).
  Scalar Get(int col) const {
    const Scalar* value = Find(col);
    return value != nullptr ? *value : Scalar();
  }

  /// Appends an entry with a column strictly beyond the current last.
  /// For building rows in ascending column order; `value` must be
  /// nonzero.
  void Append(int col, Scalar value) {
    CAR_CHECK(entries_.empty() || entries_.back().col < col);
    CAR_CHECK(!value.is_zero());
    entries_.push_back(Entry{col, std::move(value)});
  }

  /// Adds `delta` into the cell at `col`, inserting, merging, or erasing
  /// (on exact cancellation) as needed.
  void AddAt(int col, const Scalar& delta) {
    if (delta.is_zero()) return;
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), col,
        [](const Entry& entry, int c) { return entry.col < c; });
    if (it != entries_.end() && it->col == col) {
      it->value += delta;
      if (it->value.is_zero()) entries_.erase(it);
      return;
    }
    entries_.insert(it, Entry{col, delta});
  }

  /// Divides every entry by `divisor` (nonzero): no entry can become
  /// zero, so the pattern is unchanged.
  void DivideAll(const Scalar& divisor) {
    for (Entry& entry : entries_) entry.value /= divisor;
  }

  /// this -= factor * other, as a two-pointer merge. `scratch` is the
  /// caller's reusable buffer (the row swaps its storage with it), so a
  /// pivot's sweep over all rows performs no per-row allocation once the
  /// buffer has grown to the working size.
  void SubtractScaled(const Scalar& factor, const SparseRow& other,
                      std::vector<Entry>* scratch) {
    scratch->clear();
    scratch->reserve(entries_.size() + other.entries_.size());
    size_t i = 0, j = 0;
    while (i < entries_.size() && j < other.entries_.size()) {
      const int my_col = entries_[i].col;
      const int other_col = other.entries_[j].col;
      if (my_col == other_col) {
        Scalar value = std::move(entries_[i].value);
        value -= factor * other.entries_[j].value;
        if (!value.is_zero()) {
          scratch->push_back(Entry{my_col, std::move(value)});
        }
        ++i;
        ++j;
      } else if (my_col < other_col) {
        scratch->push_back(std::move(entries_[i]));
        ++i;
      } else {
        Scalar value = -(factor * other.entries_[j].value);
        if (!value.is_zero()) {
          scratch->push_back(Entry{other_col, std::move(value)});
        }
        ++j;
      }
    }
    for (; i < entries_.size(); ++i) {
      scratch->push_back(std::move(entries_[i]));
    }
    for (; j < other.entries_.size(); ++j) {
      Scalar value = -(factor * other.entries_[j].value);
      if (!value.is_zero()) {
        scratch->push_back(Entry{other.entries_[j].col, std::move(value)});
      }
    }
    entries_.swap(*scratch);
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace car

#endif  // CAR_MATH_SPARSE_ROW_H_
