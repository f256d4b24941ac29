#ifndef CAR_MATH_RATIONAL_H_
#define CAR_MATH_RATIONAL_H_

#include <ostream>
#include <string>

#include "math/bigint.h"

namespace car {

/// An exact rational number: BigInt numerator over positive BigInt
/// denominator, always in lowest terms.
///
/// Rational is the value type of the simplex solver's results (simplex.h);
/// exactness here is what makes the decision procedure sound.
class Rational {
 public:
  /// Constructs zero.
  Rational() : numerator_(0), denominator_(1) {}

  /// Constructs an integer value.
  Rational(int64_t value)  // NOLINT(runtime/explicit): numeric promotion.
      : numerator_(value), denominator_(1) {}

  Rational(BigInt value)  // NOLINT(runtime/explicit): numeric promotion.
      : numerator_(std::move(value)), denominator_(1) {}

  /// Constructs numerator/denominator; CHECK-fails on zero denominator.
  Rational(BigInt numerator, BigInt denominator);

  /// Parses "a", "-a", or "a/b".
  static Result<Rational> FromString(std::string_view text);

  const BigInt& numerator() const { return numerator_; }
  const BigInt& denominator() const { return denominator_; }

  bool is_zero() const { return numerator_.is_zero(); }
  bool is_negative() const { return numerator_.is_negative(); }
  bool is_positive() const { return numerator_.is_positive(); }
  bool is_integer() const { return denominator_ == BigInt(1); }
  int sign() const { return numerator_.sign(); }

  /// Renders "a" for integers, "a/b" otherwise.
  std::string ToString() const;

  /// Largest integer <= this.
  BigInt Floor() const;
  /// Smallest integer >= this.
  BigInt Ceil() const;

  Rational operator-() const;
  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  /// CHECK-fails on division by zero.
  Rational operator/(const Rational& other) const;

  // In-place operators update the members directly instead of routing
  // through `*this = *this + other` (which built and destroyed a full
  // temporary Rational per call — measurable on the simplex hot path).
  // Debug builds micro-assert that each one matches its binary operator.
  Rational& operator+=(const Rational& other);
  Rational& operator-=(const Rational& other);
  Rational& operator*=(const Rational& other);
  /// CHECK-fails on division by zero.
  Rational& operator/=(const Rational& other);

  bool operator==(const Rational& other) const {
    return numerator_ == other.numerator_ &&
           denominator_ == other.denominator_;
  }
  bool operator!=(const Rational& other) const { return !(*this == other); }
  bool operator<(const Rational& other) const;
  bool operator<=(const Rational& other) const { return !(other < *this); }
  bool operator>(const Rational& other) const { return other < *this; }
  bool operator>=(const Rational& other) const { return !(*this < other); }

 private:
  void Reduce();

  BigInt numerator_;
  BigInt denominator_;  // Always positive.
};

inline std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.ToString();
}

}  // namespace car

#endif  // CAR_MATH_RATIONAL_H_
