#include "math/sparse_row.h"

#include <numeric>
#include <utility>

#include "base/check.h"

namespace car {

using row_internal::Form;

namespace {

/// Word rows moved to BigInt form on this thread (see
/// promotions_this_thread()).
thread_local uint64_t tls_promotions = 0;

// Word arithmetic that reports overflow instead of wrapping, and its BigInt
// counterpart, which never fails: each row algorithm below is written once
// for both forms, and the word instance returning false sends the row to
// the BigInt one.
bool Mul(int64_t a, int64_t b, int64_t* out) {
  return !__builtin_mul_overflow(a, b, out);
}
bool Mul(const BigInt& a, const BigInt& b, BigInt* out) {
  *out = a * b;
  return true;
}
bool Add(int64_t a, int64_t b, int64_t* out) {
  return !__builtin_add_overflow(a, b, out);
}
bool Add(const BigInt& a, const BigInt& b, BigInt* out) {
  *out = a + b;
  return true;
}
/// out = a·q − k·p.
bool MulSub(int64_t a, int64_t q, int64_t k, int64_t p, int64_t* out) {
  int64_t aq, kp;
  return !__builtin_mul_overflow(a, q, &aq) &&
         !__builtin_mul_overflow(k, p, &kp) &&
         !__builtin_sub_overflow(aq, kp, out);
}
bool MulSub(const BigInt& a, const BigInt& q, const BigInt& k,
            const BigInt& p, BigInt* out) {
  *out = a * q - k * p;
  return true;
}
bool Negatable(int64_t a) { return a != INT64_MIN; }
bool Negatable(const BigInt&) { return true; }
int Sign(int64_t a) { return (a > 0) - (a < 0); }
int Sign(const BigInt& a) { return a.sign(); }
bool IsOne(int64_t a) { return a == 1; }
bool IsOne(const BigInt& a) { return a == BigInt(1); }

/// gcd(g, |x|) for g > 0, so the result fits as g does.
int64_t Gcd(int64_t g, int64_t x) {
  const uint64_t magnitude =
      x < 0 ? ~static_cast<uint64_t>(x) + 1 : static_cast<uint64_t>(x);
  return static_cast<int64_t>(std::gcd(static_cast<uint64_t>(g), magnitude));
}
BigInt Gcd(const BigInt& g, const BigInt& x) { return BigInt::Gcd(g, x); }

/// Divides the numerators and the denominator by their gcd, the row's
/// content, ending the scan as soon as the gcd reaches 1.
template <typename Int>
void DivideContent(Form<Int>* row) {
  Int g = Gcd(row->den, row->rhs);
  for (size_t k = 0; k < row->entries.size() && !IsOne(g); ++k) {
    g = Gcd(g, row->entries[k].num);
  }
  if (IsOne(g)) return;
  for (auto& entry : row->entries) entry.num /= g;
  row->rhs /= g;
  row->den /= g;
}

/// out = a − (k / q)·p, where k is a's numerator and q > 0 p's numerator
/// at the eliminated column: each cell is n_j = a_j·q − k·p_j over
/// den(a)·q, as a merge written through a buffer sized for both rows,
/// after dividing gcd(q, k) out of both. A unit q then leaves the
/// denominator as it was; otherwise the content is divided out. False on
/// word overflow, with `a` untouched.
template <typename Int>
bool EliminateInto(const Form<Int>& a, Int k, const Form<Int>& p, Int q,
                   Form<Int>* out) {
  if (!IsOne(q)) {
    const Int g = Gcd(q, k);
    q /= g;
    k /= g;
  }
  const auto& ae = a.entries;
  const auto& pe = p.entries;
  out->entries.resize(ae.size() + pe.size());
  auto* write = out->entries.data();
  const bool unit = IsOne(q);
  const Int zero = 0;
  // A cell of `a` alone is a_j·q, one of `p` alone is −k·p_j: neither
  // can cancel. Only cells in both rows can.
  auto only_a = [&](const auto& entry) {
    if (unit) {
      write->num = entry.num;
    } else if (!Mul(entry.num, q, &write->num)) {
      return false;
    }
    (write++)->col = entry.col;
    return true;
  };
  auto only_p = [&](const auto& entry) {
    if (!MulSub(zero, q, k, entry.num, &write->num)) return false;
    (write++)->col = entry.col;
    return true;
  };
  size_t i = 0, j = 0;
  while (i < ae.size() && j < pe.size()) {
    if (ae[i].col < pe[j].col) {
      if (!only_a(ae[i++])) return false;
    } else if (pe[j].col < ae[i].col) {
      if (!only_p(pe[j++])) return false;
    } else {
      if (!MulSub(ae[i].num, q, k, pe[j].num, &write->num)) return false;
      if (Sign(write->num) != 0) (write++)->col = ae[i].col;
      ++i;
      ++j;
    }
  }
  for (; i < ae.size(); ++i) {
    if (!only_a(ae[i])) return false;
  }
  for (; j < pe.size(); ++j) {
    if (!only_p(pe[j])) return false;
  }
  out->entries.resize(static_cast<size_t>(write - out->entries.data()));
  if (!MulSub(a.rhs, q, k, p.rhs, &out->rhs) || !Mul(a.den, q, &out->den)) {
    return false;
  }
  if (!IsOne(q)) DivideContent(out);
  return true;
}

/// Negates every numerator; false (row untouched) when one is INT64_MIN.
template <typename Int>
bool NegateForm(Form<Int>* row) {
  if (!Negatable(row->rhs)) return false;
  for (const auto& entry : row->entries) {
    if (!Negatable(entry.num)) return false;
  }
  for (auto& entry : row->entries) entry.num = -entry.num;
  row->rhs = -row->rhs;
  return true;
}

/// Divides the row by its cell k: the denominator becomes |num_k|.
template <typename Int>
bool NormalizeForm(Form<Int>* row, size_t k) {
  if (Sign(row->entries[k].num) < 0 && !NegateForm(row)) return false;
  row->den = row->entries[k].num;
  DivideContent(row);
  return true;
}

/// Adds `delta` into the numerator at `col`; false (row untouched) on
/// word overflow.
template <typename Int>
bool AddAtForm(Form<Int>* row, int col, Int delta) {
  auto& entries = row->entries;
  auto it = std::lower_bound(
      entries.begin(), entries.end(), col,
      [](const auto& entry, int c) { return entry.col < c; });
  if (it == entries.end() || it->col != col) {
    entries.insert(it, {col, std::move(delta)});
    return true;
  }
  Int sum;
  if (!Add(it->num, delta, &sum)) return false;
  if (Sign(sum) == 0) {
    entries.erase(it);
  } else {
    it->num = std::move(sum);
  }
  return true;
}

void Scale(Form<BigInt>* row, const BigInt& factor) {
  if (IsOne(factor)) return;
  for (auto& entry : row->entries) entry.num *= factor;
  row->rhs *= factor;
  row->den *= factor;
}

/// Rescales `row` to the least common multiple of its denominator and
/// value's, and returns value's numerator over it.
BigInt OverDenominator(Form<BigInt>* row, const Rational& value) {
  Scale(row, value.denominator() /
                 BigInt::Gcd(row->den, value.denominator()));
  return value.numerator() * (row->den / value.denominator());
}

Form<BigInt> ToBig(const Form<int64_t>& row) {
  Form<BigInt> big;
  big.entries.reserve(row.entries.size());
  for (const auto& entry : row.entries) {
    big.entries.push_back({entry.col, BigInt(entry.num)});
  }
  big.rhs = BigInt(row.rhs);
  big.den = BigInt(row.den);
  return big;
}

/// The value as a word, when it is an integer that fits in one.
bool WordValue(const Rational& value, int64_t* out) {
  if (!value.is_integer() || !value.numerator().FitsInt64()) return false;
  *out = value.numerator().ToInt64();
  return true;
}

}  // namespace

SparseRow::SparseRow(const SparseRow& other)
    : small_(other.small_),
      big_(other.big_ == nullptr ? nullptr
                                 : std::make_unique<BigForm>(*other.big_)) {}

SparseRow& SparseRow::operator=(const SparseRow& other) {
  if (this == &other) return *this;
  small_ = other.small_;
  big_ = other.big_ == nullptr ? nullptr
                               : std::make_unique<BigForm>(*other.big_);
  return *this;
}

void SparseRow::ShrinkToFit() {
  small_.entries.shrink_to_fit();
  if (big_ != nullptr) big_->entries.shrink_to_fit();
}

bool SparseRow::IsOneAt(size_t k) const {
  if (big_ != nullptr) return big_->entries[k].num == big_->den;
  return small_.entries[k].num == small_.den;
}

Rational SparseRow::ValueAt(size_t k) const {
  if (big_ != nullptr) return Rational(big_->entries[k].num, big_->den);
  return Rational(BigInt(small_.entries[k].num), BigInt(small_.den));
}

Rational SparseRow::RhsValue() const {
  if (big_ != nullptr) return Rational(big_->rhs, big_->den);
  return Rational(BigInt(small_.rhs), BigInt(small_.den));
}

void SparseRow::Append(int col, int64_t value) {
  int64_t num = 0;
  if (big_ == nullptr && value != 0 &&
      (small_.entries.empty() || small_.entries.back().col < col) &&
      Mul(value, small_.den, &num)) {
    small_.entries.push_back(Entry{col, num});
    return;
  }
  Append(col, Rational(value));
}

void SparseRow::Append(int col, const Rational& value) {
  CAR_CHECK(!value.is_zero());
  CAR_CHECK(empty() || ColAt(nnz() - 1) < col);
  int64_t word = 0;
  int64_t num = 0;
  if (big_ == nullptr && WordValue(value, &word) &&
      Mul(word, small_.den, &num)) {
    small_.entries.push_back(Entry{col, num});
    return;
  }
  const bool was_small = is_small();
  BigForm& big = Big();
  BigInt over = OverDenominator(&big, value);
  big.entries.push_back({col, std::move(over)});
  Settle(was_small);
}

void SparseRow::SetRhs(const Rational& value) {
  int64_t word = 0;
  int64_t num = 0;
  if (big_ == nullptr && WordValue(value, &word) &&
      Mul(word, small_.den, &num)) {
    small_.rhs = num;
    return;
  }
  const bool was_small = is_small();
  BigForm& big = Big();
  big.rhs = OverDenominator(&big, value);
  Settle(was_small);
}

void SparseRow::Normalize(size_t k) {
  if (big_ == nullptr && NormalizeForm(&small_, k)) return;
  const bool was_small = is_small();
  NormalizeForm(&Big(), k);
  Settle(was_small);
}

void SparseRow::Eliminate(size_t k, const SparseRow& pivot, size_t pivot_k,
                          Scratch* scratch) {
  if (big_ == nullptr && pivot.big_ == nullptr &&
      EliminateInto(small_, small_.entries[k].num, pivot.small_,
                    pivot.small_.entries[pivot_k].num, scratch)) {
    std::swap(small_, *scratch);
    return;
  }
  const bool was_small = is_small();
  BigForm& row = Big();
  BigForm converted;
  if (pivot.big_ == nullptr) converted = ToBig(pivot.small_);
  const BigForm& p = pivot.big_ != nullptr ? *pivot.big_ : converted;
  BigForm out;
  EliminateInto(row, row.entries[k].num, p, p.entries[pivot_k].num, &out);
  row = std::move(out);
  Settle(was_small);
}

void SparseRow::Negate() {
  if (big_ == nullptr && NegateForm(&small_)) return;
  const bool was_small = is_small();
  NegateForm(&Big());
  Settle(was_small);
}

void SparseRow::AddMultipleOfCell(int col, const Rational& factor,
                                  size_t unit_k) {
  int64_t word = 0;
  int64_t delta = 0;
  if (big_ == nullptr && WordValue(factor, &word) &&
      Mul(word, small_.entries[unit_k].num, &delta) &&
      AddAtForm(&small_, col, delta)) {
    return;
  }
  const bool was_small = is_small();
  BigForm& big = Big();
  // Over den·d (d the factor's denominator) the added numerator is the
  // factor's numerator times the unit cell's current one.
  BigInt big_delta = factor.numerator() * big.entries[unit_k].num;
  Scale(&big, factor.denominator());
  AddAtForm(&big, col, std::move(big_delta));
  DivideContent(&big);
  Settle(was_small);
}

int SparseRow::CompareRatios(const SparseRow& a, size_t ka,
                             const SparseRow& b, size_t kb) {
  if (a.big_ == nullptr && b.big_ == nullptr) {
    // rhs_a / a_k against rhs_b / b_k with a_k, b_k > 0; the int64
    // products cannot overflow 128 bits.
    const __int128 lhs =
        static_cast<__int128>(a.small_.rhs) * b.small_.entries[kb].num;
    const __int128 rhs =
        static_cast<__int128>(b.small_.rhs) * a.small_.entries[ka].num;
    return (lhs > rhs) - (lhs < rhs);
  }
  const Rational lhs = a.RhsValue() * b.ValueAt(kb);
  const Rational rhs = b.RhsValue() * a.ValueAt(ka);
  return lhs < rhs ? -1 : (rhs < lhs ? 1 : 0);
}

uint64_t SparseRow::promotions_this_thread() { return tls_promotions; }

SparseRow::BigForm& SparseRow::Big() {
  if (big_ == nullptr) {
    big_ = std::make_unique<BigForm>(ToBig(small_));
    small_ = {};
  }
  return *big_;
}

void SparseRow::Settle(bool was_small) {
  const BigForm& big = *big_;
  bool fits = big.den.FitsInt64() && big.rhs.FitsInt64();
  for (size_t k = 0; fits && k < big.entries.size(); ++k) {
    fits = big.entries[k].num.FitsInt64();
  }
  if (!fits) {
    if (was_small) ++tls_promotions;
    return;
  }
  small_.entries.clear();
  small_.entries.reserve(big.entries.size());
  for (const auto& entry : big.entries) {
    small_.entries.push_back(Entry{entry.col, entry.num.ToInt64()});
  }
  small_.rhs = big.rhs.ToInt64();
  small_.den = big.den.ToInt64();
  big_.reset();
}

}  // namespace car
