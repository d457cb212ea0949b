#include "ratt/crypto/fp160.hpp"

#include <stdexcept>

namespace ratt::crypto {

namespace {

// GCC/Clang 128-bit integers; __extension__ keeps -Wpedantic quiet.
__extension__ typedef unsigned __int128 u128;
using u64 = std::uint64_t;

// p = 2^160 - 2^31 - 1: limb 0 is 0x7fffffff, limbs 1..4 are all ones.
// A constant (not a function-local static) so every use is a plain load
// and it is initialized before any other translation unit's statics run.
constexpr U160 kPrime = [] {
  U160 p;
  p.set_limb(0, 0x7fffffffu);
  for (std::size_t i = 1; i < 5; ++i) p.set_limb(i, 0xffffffffu);
  return p;
}();

// 2^160 - p, the constant every fold adds.
constexpr u64 kFold = (u64{1} << 31) + 1;
constexpr u64 kLow32 = 0xffffffffu;

// The arithmetic below works on 64-bit words: a 160-bit value is
// (w0, w1, w2) with w2 < 2^32, read from and written back to the U160's
// 32-bit limbs.
u64 word(const U160& v, std::size_t i) {
  return i == 2 ? v.limb(4) : (v.limb(2 * i) | u64{v.limb(2 * i + 1)} << 32);
}

U160 from_words(u64 w0, u64 w1, u64 w2) {
  U160 out;
  out.set_limb(0, static_cast<std::uint32_t>(w0));
  out.set_limb(1, static_cast<std::uint32_t>(w0 >> 32));
  out.set_limb(2, static_cast<std::uint32_t>(w1));
  out.set_limb(3, static_cast<std::uint32_t>(w1 >> 32));
  out.set_limb(4, static_cast<std::uint32_t>(w2));
  return out;
}

// (w0, w1, w2) + k for k < 2^64; w2 picks up the carry.
void add_small(u64& w0, u64& w1, u64& w2, u64 k) {
  const u128 s0 = u128{w0} + k;
  w0 = static_cast<u64>(s0);
  const u128 s1 = u128{w1} + static_cast<u64>(s0 >> 64);
  w1 = static_cast<u64>(s1);
  w2 += static_cast<u64>(s1 >> 64);
}

// s mod p for s < 2^160 + p: if s + (2^31 + 1) reaches 2^160, then
// s >= p and the wrapped sum is s - p.
U160 normalize(u64 w0, u64 w1, u64 w2) {
  u64 t0 = w0, t1 = w1, t2 = w2;
  add_small(t0, t1, t2, kFold);
  if ((t2 >> 32) != 0) return from_words(t0, t1, t2 & kLow32);
  return from_words(w0, w1, w2);
}

// a mod p for a 320-bit a = r0 + r1·2^64 + ... + r4·2^256, using
// 2^160 ≡ 2^31 + 1 (mod p): a = hi·2^160 + lo ≡ lo + hi + hi·2^31.
// The first fold leaves t < 2^192, a top word t2 < 2^64; its bits above
// 2^160 fold again as top·(2^31 + 1) < 2^64. A carry out of that leaves
// less than 2^64 behind, so one more 2^31 + 1 cannot carry, and
// normalize() finishes below p.
U160 reduce(u64 r0, u64 r1, u64 r2, u64 r3, u64 r4) {
  const u64 h0 = (r2 >> 32) | (r3 << 32);
  const u64 h1 = (r3 >> 32) | (r4 << 32);
  const u64 h2 = r4 >> 32;
  u128 s = u128{r0} + h0 + (h0 << 31);
  u64 t0 = static_cast<u64>(s);
  s = (s >> 64) + r1 + h1 + ((h1 << 31) | (h0 >> 33));
  u64 t1 = static_cast<u64>(s);
  s = (s >> 64) + (r2 & kLow32) + h2 + ((h2 << 31) | (h1 >> 33));
  const u64 t2_full = static_cast<u64>(s);  // s < 2^64 here

  const u64 top = t2_full >> 32;
  u64 t2 = t2_full & kLow32;
  add_small(t0, t1, t2, top * kFold);
  if ((t2 >> 32) != 0) {
    // Wrapped past 2^160: add 2^160 mod p = 2^31 + 1 back in.
    t2 &= kLow32;
    add_small(t0, t1, t2, kFold);
  }
  return normalize(t0, t1, t2);
}

}  // namespace

namespace detail {

U160 fp160_reduce(const U320& a) {
  auto w = [&a](std::size_t i) {
    return a.limb(2 * i) | u64{a.limb(2 * i + 1)} << 32;
  };
  return reduce(w(0), w(1), w(2), w(3), w(4));
}

}  // namespace detail

const U160& Fp160::modulus() { return kPrime; }

Fp160::Fp160(const U160& v) {
  value_ = v;
  while (value_ >= kPrime) {
    value_ = value_ - kPrime;
  }
}

Fp160 operator+(const Fp160& a, const Fp160& b) {
  u64 w0 = word(a.value_, 0), w1 = word(a.value_, 1), w2 = word(a.value_, 2);
  const u128 s0 = u128{w0} + word(b.value_, 0);
  const u128 s1 = u128{w1} + word(b.value_, 1) + static_cast<u64>(s0 >> 64);
  w0 = static_cast<u64>(s0);
  w1 = static_cast<u64>(s1);
  w2 += word(b.value_, 2) + static_cast<u64>(s1 >> 64);  // sum < 2p
  Fp160 out;
  out.value_ = normalize(w0, w1, w2);
  return out;
}

Fp160 operator-(const Fp160& a, const Fp160& b) {
  // Three-word subtract with explicit borrows. A borrow out of the top
  // word means a < b; adding p then is subtracting 2^31 + 1 and dropping
  // the bits above 2^160.
  const u64 a0 = word(a.value_, 0), b0 = word(b.value_, 0);
  const u64 a1 = word(a.value_, 1), b1 = word(b.value_, 1);
  u64 w0 = a0 - b0;
  const u64 borrow0 = a0 < b0 ? 1 : 0;
  u64 w1 = a1 - b1 - borrow0;
  const u64 borrow1 = (a1 < b1 || (a1 == b1 && borrow0 != 0)) ? 1 : 0;
  u64 w2 = word(a.value_, 2) - word(b.value_, 2) - borrow1;
  if ((w2 >> 63) != 0) {
    const u64 fold_borrow0 = w0 < kFold ? 1 : 0;
    w0 -= kFold;
    const u64 fold_borrow1 = w1 < fold_borrow0 ? 1 : 0;
    w1 -= fold_borrow0;
    w2 = (w2 - fold_borrow1) & kLow32;
  }
  Fp160 out;
  out.value_ = from_words(w0, w1, w2);
  return out;
}

Fp160 operator*(const Fp160& a, const Fp160& b) {
  // 3x3 schoolbook on 64-bit words (a2, b2 < 2^32). Columns 1 and 2 sum
  // two full 128-bit products, so their carries out of 128 bits are
  // tracked separately.
  const u64 a0 = word(a.value_, 0), a1 = word(a.value_, 1);
  const u64 a2 = word(a.value_, 2);
  const u64 b0 = word(b.value_, 0), b1 = word(b.value_, 1);
  const u64 b2 = word(b.value_, 2);

  u128 s = u128{a0} * b0;
  const u64 r0 = static_cast<u64>(s);
  u128 carry = s >> 64;

  u128 x = u128{a0} * b1;
  s = x + u128{a1} * b0;
  u64 over = s < x ? 1 : 0;
  s += carry;
  over += s < carry ? 1 : 0;
  const u64 r1 = static_cast<u64>(s);
  carry = (s >> 64) | (u128{over} << 64);

  x = u128{a1} * b1;
  s = x + (u128{a0} * b2 + u128{a2} * b0);  // the pair is < 2^97
  over = s < x ? 1 : 0;
  s += carry;
  over += s < carry ? 1 : 0;
  const u64 r2 = static_cast<u64>(s);
  carry = (s >> 64) | (u128{over} << 64);

  s = u128{a1} * b2 + u128{a2} * b1 + carry;
  const u64 r3 = static_cast<u64>(s);
  s = u128{a2} * b2 + (s >> 64);
  const u64 r4 = static_cast<u64>(s);

  Fp160 out;
  out.value_ = reduce(r0, r1, r2, r3, r4);
  return out;
}

Fp160 Fp160::negated() const {
  if (value_.is_zero()) return *this;
  Fp160 out;
  U160::sub(kPrime, value_, out.value_);
  return out;
}

Fp160 Fp160::pow(const U160& e) const {
  Fp160 result(std::uint64_t{1});
  Fp160 base = *this;
  const int bits = e.bit_length();
  for (int i = 0; i < bits; ++i) {
    if (e.bit(static_cast<std::size_t>(i))) {
      result = result * base;
    }
    base = base.squared();
  }
  return result;
}

std::optional<Fp160> Fp160::sqrt() const {
  if (value_.is_zero()) return Fp160();
  // p = 3 (mod 4): candidate = a^((p+1)/4); verify by squaring, since
  // non-residues produce a wrong answer rather than an error.
  const U160 exponent = (kPrime + U160(1)).shifted_right(2);
  const Fp160 candidate = pow(exponent);
  if (candidate.squared() == *this) return candidate;
  return std::nullopt;
}

Fp160 Fp160::inverse() const {
  if (value_.is_zero()) {
    throw std::domain_error("Fp160::inverse: zero has no inverse");
  }
  Fp160 out;
  out.value_ = inverse_mod_odd(value_, kPrime);
  return out;
}

}  // namespace ratt::crypto
