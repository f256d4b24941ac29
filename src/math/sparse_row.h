#ifndef CAR_MATH_SPARSE_ROW_H_
#define CAR_MATH_SPARSE_ROW_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "math/rational.h"

namespace car {

namespace row_internal {

/// A row over the integer type Int: the cell at entries[k].col holds
/// entries[k].num / den and the right-hand side holds rhs / den, with
/// den > 0. Entries are sorted by column and every num is nonzero.
template <typename Int>
struct Form {
  struct Entry {
    int col;
    Int num;
  };
  std::vector<Entry> entries;
  Int rhs = 0;
  Int den = 1;
};

}  // namespace row_internal

/// One row of an exact simplex tableau, right-hand side included, in
/// integer form: int64 numerators over one positive row denominator,
/// stored as compressed sparse (column, numerator) entries.
///
/// Ψ_S rows are extremely sparse — a disequation touches only the
/// compound classes of one cluster or one Natt/Nrel constraint — so a
/// pivot that walks entries instead of columns skips the zeros that
/// dominate a dense sweep. Sharing the denominator makes eliminating a
/// column integer-preserving elimination (Edmonds 1967, Bareiss 1968):
/// one multiply-subtract of words per cell, n'_j = n_j·q − k·p_j, and
/// one content gcd per row, taken only when the denominator grew.
///
/// Overflow is detected with __builtin_*_overflow, never wrapped. A row
/// whose operation overflows is recomputed in BigInt form on its own,
/// and returns to words once its values fit again; the other rows stay
/// in words. Either way every cell holds exactly the value the same
/// Rational computation gives, so pivot sequences, verdicts and
/// certificates do not depend on the representation.
class SparseRow {
 public:
  /// A word-form entry: the cell at `col` holds num / den.
  using Entry = row_internal::Form<int64_t>::Entry;
  /// Reusable merge buffer for Eliminate: the row swaps its storage
  /// with it, so a pivot's sweep allocates once the buffer has grown.
  using Scratch = row_internal::Form<int64_t>;

  SparseRow() = default;
  SparseRow(const SparseRow& other);
  SparseRow& operator=(const SparseRow& other);
  SparseRow(SparseRow&&) noexcept = default;
  SparseRow& operator=(SparseRow&&) noexcept = default;

  /// True while the row is held in words.
  bool is_small() const { return big_ == nullptr; }
  size_t nnz() const {
    return big_ == nullptr ? small_.entries.size() : big_->entries.size();
  }
  bool empty() const { return nnz() == 0; }
  /// Entry capacity of the active form (merge headroom included).
  size_t capacity() const {
    return big_ == nullptr ? small_.entries.capacity()
                           : big_->entries.capacity();
  }
  void reserve(size_t n) { small_.entries.reserve(n); }
  /// Drops the merge headroom Eliminate leaves behind. For rows that
  /// outlive their solve.
  void ShrinkToFit();

  /// Position of `col` among the entries, or -1 when the cell is zero.
  int IndexOf(int col) const {
    return big_ == nullptr ? Find(small_.entries, col)
                           : Find(big_->entries, col);
  }
  int ColAt(size_t k) const {
    return big_ == nullptr ? small_.entries[k].col : big_->entries[k].col;
  }
  /// Sign of the cell at position k (the denominator is positive).
  int SignAt(size_t k) const {
    if (big_ != nullptr) return big_->entries[k].num.sign();
    const int64_t num = small_.entries[k].num;
    return (num > 0) - (num < 0);
  }
  int rhs_sign() const {
    if (big_ != nullptr) return big_->rhs.sign();
    return (small_.rhs > 0) - (small_.rhs < 0);
  }
  /// Whether the cell at position k equals 1.
  bool IsOneAt(size_t k) const;
  /// Exact (reduced) values of a cell and of the right-hand side.
  Rational ValueAt(size_t k) const;
  Rational RhsValue() const;

  /// Appends a nonzero cell beyond the last column, for building rows in
  /// ascending column order.
  void Append(int col, int64_t value);
  void Append(int col, const Rational& value);
  void SetRhs(const Rational& value);

  /// Divides the row by its cell at position k, which becomes 1.
  void Normalize(size_t k);
  /// Subtracts (cell k / pivot's cell pivot_k) · pivot, which zeroes
  /// cell k. The pivot's cell must be positive.
  void Eliminate(size_t k, const SparseRow& pivot, size_t pivot_k,
                 Scratch* scratch);
  void Negate();
  /// Adds factor · (cell unit_k) into the cell at `col`, inserting or
  /// erasing (on exact cancellation) as needed.
  void AddMultipleOfCell(int col, const Rational& factor, size_t unit_k);

  /// Compares a's ratio rhs / (cell ka) with b's rhs / (cell kb), both
  /// cells positive: -1, 0 or +1. The row denominators cancel.
  static int CompareRatios(const SparseRow& a, size_t ka, const SparseRow& b,
                           size_t kb);

  /// Word rows that moved to BigInt form (an operation left them there)
  /// on THIS thread since it started. The simplex kernel snapshots this
  /// around a solve to report the solve's promotion count; counts are
  /// deterministic because each solve runs on one thread and promotion
  /// depends only on the value sequence.
  static uint64_t promotions_this_thread();

 private:
  using BigForm = row_internal::Form<BigInt>;

  template <typename E>
  static int Find(const std::vector<E>& entries, int col) {
    // Most rows miss a given column entirely; their column range says so
    // before any search.
    if (entries.empty() || col < entries.front().col ||
        col > entries.back().col) {
      return -1;
    }
    auto it = std::lower_bound(
        entries.begin(), entries.end(), col,
        [](const E& entry, int c) { return entry.col < c; });
    if (it == entries.end() || it->col != col) return -1;
    return static_cast<int>(it - entries.begin());
  }

  /// The BigInt form, converting a word row first.
  BigForm& Big();
  /// After a BigInt-form operation: back to words when every value fits,
  /// else counted as a promotion if the row started it in words.
  void Settle(bool was_small);

  row_internal::Form<int64_t> small_;  // Active iff big_ is null.
  std::unique_ptr<BigForm> big_;
};

}  // namespace car

#endif  // CAR_MATH_SPARSE_ROW_H_
