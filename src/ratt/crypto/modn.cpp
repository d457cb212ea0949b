#include "ratt/crypto/modn.hpp"

#include <stdexcept>

namespace ratt::crypto {

namespace {

// c = n - 2^160, three limbs.
constexpr std::uint32_t kC[3] = {0xca752257u, 0xf927aed3u, 0x0001f4c8u};

constexpr U192 kN = [] {
  U192 n;
  for (std::size_t i = 0; i < 3; ++i) n.set_limb(i, kC[i]);
  n.set_limb(5, 1);
  return n;
}();

bool below_2_160(const U384& x) {
  for (std::size_t i = 5; i < U384::kLimbs; ++i) {
    if (x.limb(i) != 0) return false;
  }
  return true;
}

// (x >> 160) · c: a 224-bit high part times an 81-bit c, < 2^305.
U384 high_times_c(const U384& x) {
  U384 out;
  for (std::size_t i = 0; i + 5 < U384::kLimbs; ++i) {
    const std::uint64_t h = x.limb(i + 5);
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 3; ++j) {
      const std::uint64_t cur = std::uint64_t{out.limb(i + j)} + h * kC[j] +
                                carry;
      out.set_limb(i + j, static_cast<std::uint32_t>(cur));
      carry = cur >> 32;
    }
    out.set_limb(i + 3, static_cast<std::uint32_t>(carry));
  }
  return out;
}

}  // namespace

U192 modn(const U384& a) {
  // x = hi·2^160 + lo ≡ lo - hi·c. Replace x by |lo - hi·c| and track
  // the sign: each fold drops ~79 bits, so a 384-bit input needs at most
  // four, and the last leaves x < 2^160 < n, already canonical.
  U384 x = a;
  bool negated = false;  // x ≡ (negated ? -a : a) (mod n)
  while (!below_2_160(x)) {
    const U384 hc = high_times_c(x);
    U384 lo;
    for (std::size_t i = 0; i < 5; ++i) lo.set_limb(i, x.limb(i));
    if (hc <= lo) {
      x = lo - hc;
    } else {
      x = hc - lo;
      negated = !negated;
    }
  }
  U192 r = x.resized<6>();
  if (negated && !r.is_zero()) r = kN - r;
  return r;
}

U192 modn_add(const U192& a, const U192& b) {
  // Inputs are < n, so a widened add then single reduce suffices.
  U192 sum;
  const std::uint32_t carry = U192::add(a, b, sum);
  if (carry != 0) {
    // 192-bit overflow cannot happen for inputs < n < 2^161.
    throw std::logic_error("modn_add: inputs out of range");
  }
  if (sum >= kN) sum = sum - kN;
  return sum;
}

U192 modn_mul(const U192& a, const U192& b) { return modn(mul_wide(a, b)); }

U192 modn_inv(const U192& a) {
  const U192 r = modn(a.resized<12>());
  if (r.is_zero()) throw std::domain_error("modn_inv: zero");
  return inverse_mod_odd(r, kN);
}

}  // namespace ratt::crypto
