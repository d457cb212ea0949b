// Prime-field arithmetic modulo the secp160r1 field prime
// p = 2^160 - 2^31 - 1.
//
// The prime is pseudo-Mersenne, so products are reduced on 64-bit words
// with two rounds of "fold the high half down as hi*(2^31+1)" instead of
// generic division.
#pragma once

#include <optional>

#include "ratt/crypto/bigint.hpp"

namespace ratt::crypto {

/// An element of GF(p), p = 2^160 - 2^31 - 1, kept fully reduced.
class Fp160 {
 public:
  /// The field prime.
  static const U160& modulus();

  constexpr Fp160() = default;

  /// Reduces v modulo p.
  explicit Fp160(const U160& v);
  explicit Fp160(std::uint64_t v) : Fp160(U160(v)) {}

  static Fp160 from_hex(std::string_view hex) {
    return Fp160(U160::from_hex(hex));
  }

  const U160& value() const { return value_; }
  bool is_zero() const { return value_.is_zero(); }

  friend bool operator==(const Fp160&, const Fp160&) = default;

  friend Fp160 operator+(const Fp160& a, const Fp160& b);
  friend Fp160 operator-(const Fp160& a, const Fp160& b);
  friend Fp160 operator*(const Fp160& a, const Fp160& b);

  Fp160 negated() const;
  Fp160 squared() const { return *this * *this; }

  /// Multiplicative inverse (binary extended Euclid); throws
  /// std::domain_error on zero.
  Fp160 inverse() const;

  /// Square root, if one exists (p = 3 mod 4, so a^((p+1)/4) works).
  /// Returns nullopt for quadratic non-residues.
  std::optional<Fp160> sqrt() const;

  /// this^e (mod p) by square-and-multiply.
  Fp160 pow(const U160& e) const;

 private:
  U160 value_{};  // invariant: value_ < p
};

namespace detail {

/// a mod p for any 320-bit a: the word-wise fold behind Fp160
/// multiplication, declared here so tests can cross-check it.
U160 fp160_reduce(const U320& a);

}  // namespace detail

}  // namespace ratt::crypto
