// The secp160r1 elliptic-curve group (SEC 2):
//   y^2 = x^3 + ax + b over GF(p), p = 2^160 - 2^31 - 1, cofactor 1.
//
// This is the curve the paper prices in Table 1 ("ECC (secp160r1)") when
// arguing that public-key request authentication is itself a DoS vector on
// a 24 MHz prover.
#pragma once

#include <optional>

#include "ratt/crypto/fp160.hpp"

namespace ratt::crypto {

/// Affine point; the default-constructed value is the point at infinity.
struct EcPoint {
  Fp160 x;
  Fp160 y;
  bool infinity = true;

  static EcPoint make(const Fp160& x, const Fp160& y) {
    return EcPoint{x, y, false};
  }

  /// SEC1 encoding: 0x00 (infinity, 1 byte), 0x04||x||y (uncompressed,
  /// 41 bytes) or 0x02/0x03||x (compressed, 21 bytes).
  Bytes encode(bool compressed = true) const;
  /// Decode + on-curve validation; nullopt for malformed or off-curve
  /// input.
  static std::optional<EcPoint> decode(ByteView wire);

  friend bool operator==(const EcPoint& a, const EcPoint& b) {
    if (a.infinity || b.infinity) return a.infinity == b.infinity;
    return a.x == b.x && a.y == b.y;
  }
};

/// Group operations on secp160r1. All entry points validate nothing beyond
/// their stated preconditions; use on_curve() to vet untrusted points.
class Secp160r1 {
 public:
  /// Curve coefficient a = p - 3.
  static const Fp160& a();
  /// Curve coefficient b.
  static const Fp160& b();
  /// Base point G.
  static const EcPoint& generator();
  /// Group order n (161 bits).
  static const U192& order();

  /// Whether `pt` satisfies the curve equation (infinity counts as on-curve).
  static bool on_curve(const EcPoint& pt);

  static EcPoint add(const EcPoint& p, const EcPoint& q);
  static EcPoint double_point(const EcPoint& p);

  /// Scalar multiplication k·P: left-to-right double-and-add in Jacobian
  /// coordinates, one field inversion at the end. Not constant-time.
  static EcPoint scalar_mul(const U192& k, const EcPoint& p);

  /// k·G by a fixed-base comb over k mod n: 33 doublings and at most 33
  /// mixed additions against a 31-point table built on first use. Not
  /// constant-time.
  static EcPoint scalar_mul_base(const U192& k);

  /// u1·G + u2·Q by two fixed-base combs sharing one doubling chain:
  /// 33 doublings and at most 66 mixed additions, against G's table and a
  /// 31-point table of Q built on the first call with that Q (one cached
  /// Q per thread). Q must be on the curve. Not constant-time.
  static EcPoint joint_mul(const U192& u1, const U192& u2, const EcPoint& q);
};

}  // namespace ratt::crypto
