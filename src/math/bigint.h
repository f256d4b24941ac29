#ifndef CAR_MATH_BIGINT_H_
#define CAR_MATH_BIGINT_H_

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

#include "base/result.h"

namespace car {

/// Limb storage for BigInt magnitudes with a small inline buffer.
///
/// The simplex solver allocates, copies, and snapshots dense tableaus of
/// Rationals whose magnitudes are almost always one or two limbs — and
/// every zero Rational carries a denominator of 1. With std::vector limbs,
/// each such value costs a heap allocation to construct and another to
/// copy, and that malloc traffic (not pivoting) dominates warm-started
/// incremental solves. Storing up to kInlineLimbs limbs inline makes
/// small values allocation-free; larger magnitudes spill to a heap buffer.
/// Only the operations BigInt needs are provided.
class LimbVector {
 public:
  LimbVector() = default;
  LimbVector(size_t count, uint32_t fill) {
    EnsureCapacity(count);
    uint32_t* out = data();
    for (size_t i = 0; i < count; ++i) out[i] = fill;
    size_ = static_cast<uint32_t>(count);
  }
  LimbVector(const uint32_t* limbs, size_t count) {
    // A zero magnitude may arrive as (nullptr, 0), e.g. from an empty
    // decoded limb list; memcpy's source must be non-null even for zero
    // bytes. (The other copies below read data(), which never is null.)
    if (count == 0) return;
    EnsureCapacity(count);
    std::memcpy(data(), limbs, count * sizeof(uint32_t));
    size_ = static_cast<uint32_t>(count);
  }
  LimbVector(const LimbVector& other)
      : LimbVector(other.data(), other.size()) {}
  LimbVector(LimbVector&& other) noexcept
      : heap_(other.heap_), size_(other.size_), capacity_(other.capacity_) {
    std::memcpy(inline_, other.inline_, sizeof(inline_));
    other.heap_ = nullptr;
    other.size_ = 0;
    other.capacity_ = kInlineLimbs;
  }
  LimbVector& operator=(const LimbVector& other) {
    if (this == &other) return *this;
    size_ = 0;  // Nothing to preserve if growth reallocates.
    EnsureCapacity(other.size());
    std::memcpy(data(), other.data(), other.size() * sizeof(uint32_t));
    size_ = other.size_;
    return *this;
  }
  LimbVector& operator=(LimbVector&& other) noexcept {
    if (this == &other) return *this;
    delete[] heap_;
    heap_ = other.heap_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    std::memcpy(inline_, other.inline_, sizeof(inline_));
    other.heap_ = nullptr;
    other.size_ = 0;
    other.capacity_ = kInlineLimbs;
    return *this;
  }
  ~LimbVector() { delete[] heap_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t* data() { return heap_ != nullptr ? heap_ : inline_; }
  const uint32_t* data() const {
    return heap_ != nullptr ? heap_ : inline_;
  }
  uint32_t operator[](size_t i) const { return data()[i]; }
  uint32_t& operator[](size_t i) { return data()[i]; }
  uint32_t back() const { return data()[size_ - 1]; }

  void clear() { size_ = 0; }
  void reserve(size_t count) { EnsureCapacity(count); }
  void push_back(uint32_t limb) {
    if (size_ == capacity_) EnsureCapacity(size_ + 1);
    data()[size_++] = limb;
  }
  void pop_back() { --size_; }
  void assign(size_t count, uint32_t fill) {
    size_ = 0;
    EnsureCapacity(count);
    uint32_t* out = data();
    for (size_t i = 0; i < count; ++i) out[i] = fill;
    size_ = static_cast<uint32_t>(count);
  }

  bool operator==(const LimbVector& other) const {
    return size_ == other.size_ &&
           std::memcmp(data(), other.data(), size_ * sizeof(uint32_t)) == 0;
  }

 private:
  static constexpr uint32_t kInlineLimbs = 4;

  /// Grows the buffer to at least `count` limbs, preserving the first
  /// size_ limbs.
  void EnsureCapacity(size_t count) {
    if (count <= capacity_) return;
    uint32_t new_capacity = capacity_;
    while (new_capacity < count) new_capacity *= 2;
    uint32_t* grown = new uint32_t[new_capacity];
    std::memcpy(grown, data(), size_ * sizeof(uint32_t));
    delete[] heap_;
    heap_ = grown;
    capacity_ = new_capacity;
  }

  uint32_t* heap_ = nullptr;  // Null while the inline buffer is in use.
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineLimbs;
  uint32_t inline_[kInlineLimbs] = {};
};

/// An arbitrary-precision signed integer.
///
/// The decision procedure of libcar (Section 3.2 of the paper) must be
/// exact: the satisfiability answer is derived from the feasibility of a
/// system of linear disequations, and a single rounding error could flip
/// it. BigInt is the integer layer under Rational (see rational.h) and
/// under simplex tableau rows that overflow int64 (see sparse_row.h).
///
/// Representation: sign/magnitude with base-2^32 limbs stored little-endian.
/// Zero is represented by an empty limb vector and sign 0. All operations
/// keep the representation normalized (no leading zero limbs; sign 0 iff
/// magnitude empty).
class BigInt {
 public:
  /// Constructs zero.
  BigInt() : sign_(0) {}

  /// Constructs from a machine integer. Inline: the solver constructs
  /// huge numbers of small values (every zero Rational has denominator
  /// 1), and the call must collapse to a few stores.
  BigInt(int64_t value) {  // NOLINT(runtime/explicit): numeric promotion.
    if (value == 0) {
      sign_ = 0;
      return;
    }
    sign_ = value > 0 ? 1 : -1;
    // Avoid overflow on INT64_MIN by working in uint64.
    uint64_t magnitude = value > 0 ? static_cast<uint64_t>(value)
                                   : ~static_cast<uint64_t>(value) + 1;
    limbs_.push_back(static_cast<uint32_t>(magnitude & 0xffffffffull));
    if (magnitude >> 32) {
      limbs_.push_back(static_cast<uint32_t>(magnitude >> 32));
    }
  }

  /// Parses a decimal string with optional leading '-'.
  static Result<BigInt> FromString(std::string_view text);

  /// Rebuilds a value from serialized parts (the snapshot codec of
  /// src/persist). Total: kParseError unless the representation is
  /// normalized — sign in {-1, 0, +1}, no leading zero limb, and sign 0
  /// exactly when the magnitude is empty — so a decoded BigInt is
  /// byte-identical to a constructed one.
  static Result<BigInt> FromParts(int sign, const uint32_t* limbs,
                                  size_t count);

  /// Read-only limb view: the normalized little-endian base-2^32
  /// magnitude (serialization counterpart of FromParts).
  const LimbVector& limbs() const { return limbs_; }

  /// Returns -1, 0 or +1.
  int sign() const { return sign_; }
  bool is_zero() const { return sign_ == 0; }
  bool is_negative() const { return sign_ < 0; }
  bool is_positive() const { return sign_ > 0; }

  /// Returns true if the value fits in an int64_t.
  bool FitsInt64() const;
  /// Returns the value as int64_t; CHECK-fails if it does not fit.
  int64_t ToInt64() const;

  /// Returns the number of bits in the magnitude (0 for zero).
  size_t BitLength() const;

  std::string ToString() const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated division (C++ semantics: quotient rounds toward zero and
  /// the remainder has the sign of the dividend). CHECK-fails on zero
  /// divisor.
  BigInt operator/(const BigInt& other) const;
  BigInt operator%(const BigInt& other) const;

  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator-=(const BigInt& other) { return *this = *this - other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }
  BigInt& operator/=(const BigInt& other) { return *this = *this / other; }
  BigInt& operator%=(const BigInt& other) { return *this = *this % other; }

  /// Computes quotient and remainder in one pass (truncated division).
  static void DivMod(const BigInt& dividend, const BigInt& divisor,
                     BigInt* quotient, BigInt* remainder);

  bool operator==(const BigInt& other) const;
  bool operator!=(const BigInt& other) const { return !(*this == other); }
  bool operator<(const BigInt& other) const;
  bool operator<=(const BigInt& other) const { return !(other < *this); }
  bool operator>(const BigInt& other) const { return other < *this; }
  bool operator>=(const BigInt& other) const { return !(*this < other); }

  /// Greatest common divisor; always nonnegative. Gcd(0, 0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);
  /// Least common multiple; always nonnegative. Lcm with 0 is 0.
  static BigInt Lcm(const BigInt& a, const BigInt& b);

 private:
  /// Compares magnitudes only: -1, 0, +1.
  static int CompareMagnitude(const LimbVector& a, const LimbVector& b);
  static LimbVector AddMagnitude(const LimbVector& a, const LimbVector& b);
  /// Requires |a| >= |b|.
  static LimbVector SubMagnitude(const LimbVector& a, const LimbVector& b);
  static LimbVector MulMagnitude(const LimbVector& a, const LimbVector& b);
  /// Magnitude division (Knuth algorithm D). Requires non-empty divisor.
  static void DivModMagnitude(const LimbVector& dividend,
                              const LimbVector& divisor,
                              LimbVector* quotient, LimbVector* remainder);
  static void Trim(LimbVector* limbs);

  void Normalize();

  int sign_;
  LimbVector limbs_;  // Little-endian magnitude.
};

inline std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace car

#endif  // CAR_MATH_BIGINT_H_
