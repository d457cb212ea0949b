// Test-only reference arithmetic for secp160r1: the plain implementations
// the runtime kernels replaced, kept as differential oracles. Each one is
// written the obvious way (binary long division, Fermat powers, generic
// shift/add folds, separate scalar multiplications) so that agreement with
// the specialised kernels in src/ratt/crypto is evidence, not tautology.
// Nothing outside tests/ includes this header.
#pragma once

#include "ratt/crypto/bigint.hpp"
#include "ratt/crypto/ec.hpp"
#include "ratt/crypto/fp160.hpp"

namespace ratt::crypto::reference {

/// Remainder of a (2W wide) modulo m, by binary long division.
/// Precondition: m != 0. O(bits) compare/subtract passes over the full
/// 2W width: slow, generic, and easy to trust.
template <std::size_t W>
UInt<W> mod_wide(const UInt<2 * W>& a, const UInt<W>& m) {
  if (m.is_zero()) throw std::invalid_argument("mod_wide: zero modulus");
  const UInt<2 * W> m_wide = m.template resized<2 * W>();
  UInt<2 * W> rem;
  for (int i = a.bit_length(); i-- > 0;) {
    rem = rem.shifted_left(1);
    if (a.bit(static_cast<std::size_t>(i))) {
      rem.set_limb(0, rem.limb(0) | 1);
    }
    if (rem >= m_wide) {
      rem = rem - m_wide;
    }
  }
  return rem.template resized<W>();
}

/// (a · b) mod n through mod_wide.
inline U192 modn_mul(const U192& a, const U192& b) {
  return mod_wide(mul_wide(a, b), Secp160r1::order());
}

/// a^-1 mod n by Fermat: a^(n-2), square-and-multiply over mod_wide.
inline U192 modn_inv(const U192& a) {
  const U192 e = Secp160r1::order() - U192(2);
  U192 result(1);
  U192 acc = mod_wide(a.resized<12>(), Secp160r1::order());
  for (int i = 0; i < e.bit_length(); ++i) {
    if (e.bit(static_cast<std::size_t>(i))) {
      result = reference::modn_mul(result, acc);
    }
    acc = reference::modn_mul(acc, acc);
  }
  return result;
}

/// a mod p by the generic fold: two rounds of lo + hi + (hi << 31) in
/// U320 temporaries, then subtract p until below it.
inline U160 reduce_p(const U320& a) {
  auto split = [](const U320& v, U160& lo, U160& hi) {
    for (std::size_t i = 0; i < 5; ++i) {
      lo.set_limb(i, v.limb(i));
      hi.set_limb(i, v.limb(i + 5));
    }
  };
  U160 lo, hi;
  split(a, lo, hi);
  U320 acc = lo.resized<10>();
  U320 hi_wide = hi.resized<10>();
  acc = acc + hi_wide + hi_wide.shifted_left(31);
  split(acc, lo, hi);
  U320 acc2 = lo.resized<10>();
  hi_wide = hi.resized<10>();
  acc2 = acc2 + hi_wide + hi_wide.shifted_left(31);
  U192 r = acc2.resized<6>();
  const U192 p_wide = Fp160::modulus().resized<6>();
  while (r >= p_wide) r = r - p_wide;
  return r.resized<5>();
}

/// a^-1 in GF(p) by Fermat: a^(p-2).
inline Fp160 fp_inverse(const Fp160& a) {
  return a.pow(Fp160::modulus() - U160(2));
}

/// u1·G + u2·Q as two independent scalar multiplications and an affine
/// add.
inline EcPoint joint_mul(const U192& u1, const U192& u2, const EcPoint& q) {
  return Secp160r1::add(Secp160r1::scalar_mul(u1, Secp160r1::generator()),
                        Secp160r1::scalar_mul(u2, q));
}

}  // namespace ratt::crypto::reference
