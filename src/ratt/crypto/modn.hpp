// Arithmetic modulo the secp160r1 group order
//   n = 2^160 + c, c = 0x1f4c8f927aed3ca752257 < 2^81,
// the scalar field of ECDSA (ecdsa.cpp). Reductions fold the high part
// down with 2^160 ≡ -c (mod n) instead of dividing; the inverse is a
// binary extended Euclid. Declared here so the differential tests can
// drive each kernel directly. None of it is constant-time.
#pragma once

#include "ratt/crypto/bigint.hpp"

namespace ratt::crypto {

/// a mod n for any 384-bit a.
U192 modn(const U384& a);

/// (a + b) mod n for a, b < n.
U192 modn_add(const U192& a, const U192& b);

/// (a · b) mod n for any 192-bit a, b.
U192 modn_mul(const U192& a, const U192& b);

/// a^-1 mod n; throws std::domain_error when a ≡ 0 (mod n).
U192 modn_inv(const U192& a);

}  // namespace ratt::crypto
