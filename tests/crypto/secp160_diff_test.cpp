// Differential tests for the secp160r1 arithmetic kernels: each
// specialised kernel runs in lockstep with its test-only oracle
// (reference_arith.hpp) over edge values and seeded random inputs.
//
//   modn (fold with 2^160 ≡ -c)      vs  binary long division (mod_wide)
//   modn_inv (binary Euclid)         vs  Fermat a^(n-2) over mod_wide
//   fp160_reduce (word-wise fold)    vs  the generic U320 shift/add fold
//   Fp160 + and - (64-bit words)     vs  U192 arithmetic + mod_wide
//   Fp160::inverse (binary Euclid)   vs  Fermat a^(p-2)
//   scalar_mul_base (fixed-base comb) vs  scalar_mul(k, G), double-and-add
//   joint_mul (G comb + cached Q comb) vs two scalar_mul calls + add
//   ecdsa_sign / ecdsa_verify        vs  the same algorithm on the oracles
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/ecdsa.hpp"
#include "ratt/crypto/modn.hpp"
#include "ratt/crypto/sha1.hpp"
#include "reference_arith.hpp"

namespace ratt::crypto {
namespace {

const U192& n() { return Secp160r1::order(); }
const U160& p() { return Fp160::modulus(); }

template <std::size_t W>
UInt<W> rand_uint(HmacDrbg& drbg) {
  return UInt<W>::from_bytes_be(drbg.generate(UInt<W>::kBytes));
}

// A random value whose bit length is itself uniform in [0, W*32], so short
// and full-width operands are drawn equally often.
template <std::size_t W>
UInt<W> rand_width(HmacDrbg& drbg) {
  const auto bits = static_cast<unsigned>(drbg.uniform(UInt<W>::kBits + 1));
  if (bits == 0) return UInt<W>();
  return rand_uint<W>(drbg).shifted_right(
      static_cast<unsigned>(UInt<W>::kBits) - bits);
}

// Uniform-ish scalar below n (rejection on the 161-bit mask).
U192 rand_below_n(HmacDrbg& drbg) {
  for (;;) {
    const U192 v = rand_uint<6>(drbg).shifted_right(31);
    if (v < n()) return v;
  }
}

U192 pow2(unsigned k) { return U192(1).shifted_left(k); }

// v / d for a small divisor, by limb-wise long division.
U160 div_small(const U160& v, std::uint32_t d) {
  U160 q;
  std::uint64_t rem = 0;
  for (std::size_t i = U160::kLimbs; i-- > 0;) {
    const std::uint64_t cur = (rem << 32) | v.limb(i);
    q.set_limb(i, static_cast<std::uint32_t>(cur / d));
    rem = cur % d;
  }
  return q;
}

// Scalars where carries, borrows and folds change behaviour.
std::vector<U192> edge_scalars() {
  const U192 one(1);
  return {U192(0),       one,           U192(2),
          n() - one,     n() - U192(2), n(),
          n() + one,     pow2(160) - one, pow2(160),
          pow2(160) + one, pow2(161) - one, pow2(161),
          U192(0) - one};
}

// ---- Order-n reduction -------------------------------------------------

TEST(ModnFold, EdgeValuesMatchLongDivision) {
  std::vector<U384> inputs;
  for (const U192& a : edge_scalars()) {
    inputs.push_back(a.resized<12>());
    for (const U192& b : edge_scalars()) inputs.push_back(mul_wide(a, b));
  }
  inputs.push_back(U384(0) - U384(1));                       // 2^384 - 1
  inputs.push_back(U384(1).shifted_left(320) - U384(1));     // 2^320 - 1
  inputs.push_back(U384(1).shifted_left(383));
  for (const U384& a : inputs) {
    SCOPED_TRACE(a.to_hex());
    EXPECT_EQ(modn(a), reference::mod_wide(a, n()));
  }
}

TEST(ModnFold, OrderConstantMatchesCurve) {
  EXPECT_TRUE(modn(n().resized<12>()).is_zero());
  EXPECT_EQ(modn((n() - U192(1)).resized<12>()), n() - U192(1));
  // 2^160 ≡ -c, so 2^160 + c ≡ 0 and 2^160 itself stays put (< n).
  EXPECT_EQ(modn(pow2(160).resized<12>()), pow2(160));
}

class ModnLockstep : public ::testing::TestWithParam<int> {
 protected:
  HmacDrbg drbg_{from_string("modn-lockstep-" + std::to_string(GetParam()))};
};

TEST_P(ModnLockstep, FoldMatchesLongDivision) {
  for (int i = 0; i < 200; ++i) {
    const U384 a = rand_width<12>(drbg_);
    ASSERT_EQ(modn(a), reference::mod_wide(a, n())) << a.to_hex();
    const U192 x = rand_width<6>(drbg_);
    const U192 y = rand_width<6>(drbg_);
    ASSERT_EQ(modn_mul(x, y), reference::modn_mul(x, y))
        << x.to_hex() << " * " << y.to_hex();
  }
}

TEST_P(ModnLockstep, ProductsOfReducedScalars) {
  // The shape every ECDSA call site produces: both operands already < n.
  for (int i = 0; i < 200; ++i) {
    const U192 x = rand_below_n(drbg_);
    const U192 y = rand_below_n(drbg_);
    ASSERT_EQ(modn_mul(x, y), reference::modn_mul(x, y));
    const U192 sum = modn_add(x, y);
    ASSERT_EQ(sum, reference::mod_wide((x + y).resized<12>(), n()));
  }
}

TEST_P(ModnLockstep, InverseMatchesFermat) {
  for (int i = 0; i < 12; ++i) {
    const U192 a = rand_below_n(drbg_);
    if (a.is_zero()) continue;
    const U192 inv = modn_inv(a);
    ASSERT_EQ(inv, reference::modn_inv(a)) << a.to_hex();
    ASSERT_EQ(modn_mul(a, inv), U192(1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModnLockstep, ::testing::Range(0, 4));

TEST(ModnInverse, EdgeValuesMatchFermat) {
  const U192 one(1);
  const U192 half = (n() + one).shifted_right(1);  // 2^-1 mod n
  for (const U192& a : {one, U192(2), n() - one, n() - U192(2), half,
                        pow2(160) - one, pow2(160), pow2(160) + one}) {
    SCOPED_TRACE(a.to_hex());
    EXPECT_EQ(modn_inv(a), reference::modn_inv(a));
    EXPECT_EQ(modn_mul(a, modn_inv(a)), one);
  }
  EXPECT_EQ(modn_inv(one), one);
  EXPECT_EQ(modn_inv(n() - one), n() - one);
  EXPECT_EQ(modn_inv(U192(2)), half);
}

TEST(ModnInverse, ReducesItsOperandFirst) {
  // n + 2 ≡ 2: the inverse sees the residue, not the raw value.
  EXPECT_EQ(modn_inv(n() + U192(2)), modn_inv(U192(2)));
}

TEST(ModnInverse, ZeroResidueThrows) {
  EXPECT_THROW(modn_inv(U192(0)), std::domain_error);
  EXPECT_THROW(modn_inv(n()), std::domain_error);
}

TEST(InverseModOdd, ExhaustiveOverSmallPrimes) {
  // 0xfffffffb is the largest 32-bit prime: x + m overflows one limb,
  // which is exactly the carry the halving step must shift back in.
  for (const std::uint32_t m : {3u, 251u, 65521u}) {
    const UInt<1> mod(m);
    for (std::uint32_t a = 1; a < std::min(m, 3000u); ++a) {
      const UInt<1> inv = inverse_mod_odd(UInt<1>(a), mod);
      ASSERT_EQ(std::uint64_t{a} * inv.limb(0) % m, 1u) << a << " mod " << m;
    }
  }
  const std::uint32_t big = 0xfffffffbu;
  HmacDrbg drbg(from_string("inverse-mod-odd"));
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint32_t>(1 + drbg.uniform(big - 1));
    const UInt<1> inv = inverse_mod_odd(UInt<1>(a), UInt<1>(big));
    ASSERT_EQ(std::uint64_t{a} * inv.limb(0) % big, 1u) << a;
  }
}

TEST(InverseModOdd, RejectsOperandsOutsideRange) {
  EXPECT_THROW(inverse_mod_odd(UInt<1>(0), UInt<1>(251)), std::domain_error);
  EXPECT_THROW(inverse_mod_odd(UInt<1>(251), UInt<1>(251)),
               std::domain_error);
  EXPECT_THROW(inverse_mod_odd(UInt<1>(300), UInt<1>(251)),
               std::domain_error);
}

// ---- Field reduction ---------------------------------------------------

U320 hi_lo(const U160& hi, const U160& lo) {
  U320 out = lo.resized<10>();
  for (std::size_t i = 0; i < 5; ++i) out.set_limb(i + 5, hi.limb(i));
  return out;
}

TEST(Fp160Reduce, EdgeValuesMatchGenericFold) {
  const U160 one(1);
  const U160 all_ones = U160(0) - one;  // 2^160 - 1, in [p, 2^160)
  const std::vector<U160> halves = {
      U160(0),  one,        p() - one,     p(),         p() + one,
      all_ones, all_ones - one, U160(std::uint64_t{1} << 31),
      U160((std::uint64_t{1} << 31) + 1), one.shifted_left(159)};
  for (const U160& hi : halves) {
    for (const U160& lo : halves) {
      const U320 a = hi_lo(hi, lo);
      SCOPED_TRACE(a.to_hex());
      EXPECT_EQ(detail::fp160_reduce(a), reference::reduce_p(a));
    }
  }
}

TEST(Fp160Reduce, EveryLowValueInTopGapReduces) {
  // [p, 2^160) is 2^31 + 1 wide; walk its ends and a stride through it.
  const U160 top = U160(0) - U160(1);
  for (std::uint64_t k = 0; k <= (std::uint64_t{1} << 31);
       k += (k < 64 || k > (std::uint64_t{1} << 31) - 64) ? 1 : 99991) {
    const U160 lo = top - U160(k);
    ASSERT_GE(lo, p());
    const U320 a = lo.resized<10>();
    ASSERT_EQ(detail::fp160_reduce(a), reference::reduce_p(a)) << k;
    ASSERT_EQ(detail::fp160_reduce(a), lo - p());
  }
}

TEST(Fp160Reduce, ProductsLandingInTopGap) {
  // a · floor((2^160 - 1) / a) lies in [2^160 - a, 2^160 - 1], inside
  // [p, 2^160) for a <= 2^31 + 1; both factors are reduced elements.
  const U160 top = U160(0) - U160(1);
  HmacDrbg drbg(from_string("fp160-top-gap"));
  std::vector<std::uint32_t> factors = {2, 3, 5, 17, 257, 641, 65537,
                                        0x7fffffffu, 0x80000000u,
                                        0x80000001u};
  for (int i = 0; i < 200; ++i) {
    factors.push_back(
        static_cast<std::uint32_t>(2 + drbg.uniform(0x80000000u)));
  }
  for (const std::uint32_t f : factors) {
    const U160 a(f);
    const U160 b = div_small(top, f);
    const U320 prod = mul_wide(a, b);
    ASSERT_TRUE(prod.shifted_right(160).is_zero());
    ASSERT_GE(prod.resized<5>(), p()) << f;
    ASSERT_EQ(detail::fp160_reduce(prod), reference::reduce_p(prod)) << f;
    ASSERT_EQ((Fp160(a) * Fp160(b)).value(), reference::reduce_p(prod));
  }
  // (2^80 - 1)(2^80 + 1) = 2^160 - 1 exactly.
  const U160 lo80 = U160(1).shifted_left(80) - U160(1);
  const U160 hi80 = U160(1).shifted_left(80) + U160(1);
  EXPECT_EQ((Fp160(lo80) * Fp160(hi80)).value(), top - p());
}

class Fp160Lockstep : public ::testing::TestWithParam<int> {
 protected:
  HmacDrbg drbg_{from_string("fp160-lockstep-" + std::to_string(GetParam()))};
};

TEST_P(Fp160Lockstep, ReduceMatchesGenericFold) {
  for (int i = 0; i < 500; ++i) {
    const U320 a = rand_width<10>(drbg_);
    ASSERT_EQ(detail::fp160_reduce(a), reference::reduce_p(a)) << a.to_hex();
    const Fp160 x(rand_uint<5>(drbg_));
    const Fp160 y(rand_uint<5>(drbg_));
    ASSERT_EQ((x * y).value(),
              reference::reduce_p(mul_wide(x.value(), y.value())));
  }
}

// (x + y) mod p and (x - y) mod p the long way, through mod_wide.
U160 reference_add(const Fp160& x, const Fp160& y) {
  const U192 sum = x.value().resized<6>() + y.value().resized<6>();
  return reference::mod_wide(sum.resized<12>(), p().resized<6>())
      .resized<5>();
}

U160 reference_sub(const Fp160& x, const Fp160& y) {
  const U192 diff =
      x.value().resized<6>() + p().resized<6>() - y.value().resized<6>();
  return reference::mod_wide(diff.resized<12>(), p().resized<6>())
      .resized<5>();
}

TEST(Fp160AddSub, EdgeValuesMatchGenericArithmetic) {
  const U160 one(1);
  const std::vector<Fp160> values = {
      Fp160(), Fp160(one), Fp160(p() - one), Fp160(p() - U160(2)),
      Fp160(one.shifted_left(31)), Fp160(one.shifted_left(31) + one),
      Fp160(one.shifted_left(64) - one), Fp160(one.shifted_left(128)),
      Fp160(one.shifted_left(159))};
  for (const Fp160& x : values) {
    for (const Fp160& y : values) {
      SCOPED_TRACE(x.value().to_hex() + " , " + y.value().to_hex());
      EXPECT_EQ((x + y).value(), reference_add(x, y));
      EXPECT_EQ((x - y).value(), reference_sub(x, y));
    }
  }
}

TEST_P(Fp160Lockstep, AddSubMatchGenericArithmetic) {
  for (int i = 0; i < 500; ++i) {
    const Fp160 x(rand_width<5>(drbg_));
    const Fp160 y(rand_width<5>(drbg_));
    ASSERT_EQ((x + y).value(), reference_add(x, y));
    ASSERT_EQ((x - y).value(), reference_sub(x, y));
  }
}

TEST_P(Fp160Lockstep, InverseMatchesFermat) {
  for (int i = 0; i < 24; ++i) {
    const Fp160 a(rand_width<5>(drbg_));
    if (a.is_zero()) continue;
    ASSERT_EQ(a.inverse(), reference::fp_inverse(a)) << a.value().to_hex();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fp160Lockstep, ::testing::Range(0, 4));

TEST(Fp160Inverse, EdgeValuesMatchFermat) {
  const U160 one(1);
  for (const U160& v : {one, U160(2), p() - one, p() - U160(2),
                        one.shifted_left(159), one.shifted_left(31)}) {
    const Fp160 a(v);
    SCOPED_TRACE(v.to_hex());
    EXPECT_EQ(a.inverse(), reference::fp_inverse(a));
    EXPECT_EQ(a * a.inverse(), Fp160(one));
  }
}

// ---- Fixed-base comb ---------------------------------------------------

TEST(BaseComb, EdgeScalarsMatchDoubleAndAdd) {
  const EcPoint& g = Secp160r1::generator();
  std::vector<U192> scalars = edge_scalars();
  // One set bit under each comb tooth, and the last bit of each column.
  for (const unsigned bit : {0u, 32u, 33u, 65u, 66u, 98u, 99u, 131u, 132u,
                             159u, 164u, 191u}) {
    scalars.push_back(pow2(bit));
  }
  for (const U192& k : scalars) {
    SCOPED_TRACE(k.to_hex());
    EXPECT_EQ(Secp160r1::scalar_mul_base(k), Secp160r1::scalar_mul(k, g));
  }
}

TEST(BaseComb, LockstepWithDoubleAndAdd) {
  HmacDrbg drbg(from_string("base-comb-lockstep"));
  const EcPoint& g = Secp160r1::generator();
  for (int i = 0; i < 24; ++i) {
    const U192 k = i % 2 == 0 ? rand_below_n(drbg) : rand_width<6>(drbg);
    ASSERT_EQ(Secp160r1::scalar_mul_base(k), Secp160r1::scalar_mul(k, g))
        << k.to_hex();
  }
}

// ---- Joint multiplication ----------------------------------------------

EcPoint rand_point(HmacDrbg& drbg) {
  return Secp160r1::scalar_mul_base(rand_below_n(drbg));
}

TEST(JointMul, EdgeScalarsAndPoints) {
  // Q = ±G shares (or negates) every entry of the G comb, and Q =
  // infinity takes the u1·G path. Scalars at and above n are reduced mod
  // n first; the oracle multiplies them unreduced.
  const EcPoint g = Secp160r1::generator();
  const EcPoint neg_g = EcPoint::make(g.x, g.y.negated());
  const EcPoint q = Secp160r1::scalar_mul_base(U192(0xc0ffee));
  std::vector<U192> scalars = edge_scalars();
  scalars.push_back(U192(3));
  for (const EcPoint& pt : {g, neg_g, q, EcPoint{}}) {
    for (const U192& u1 : scalars) {
      for (const U192& u2 : scalars) {
        SCOPED_TRACE(u1.to_hex() + " / " + u2.to_hex());
        EXPECT_EQ(Secp160r1::joint_mul(u1, u2, pt),
                  reference::joint_mul(u1, u2, pt));
      }
    }
  }
}

TEST(JointMul, GPlusQAtInfinity) {
  // Q = -G: every Q-comb entry is the negation of the G-comb entry of the
  // same column, so equal scalars cancel step by step (the P + (-P)
  // branch of the mixed add) and u·G + u·(-G) vanishes.
  const EcPoint g = Secp160r1::generator();
  const EcPoint neg_g = EcPoint::make(g.x, g.y.negated());
  HmacDrbg drbg(from_string("joint-neg-g"));
  for (int i = 0; i < 8; ++i) {
    const U192 u = rand_below_n(drbg);
    EXPECT_TRUE(Secp160r1::joint_mul(u, u, neg_g).infinity);
    const U192 v = rand_below_n(drbg);
    EXPECT_EQ(Secp160r1::joint_mul(u, v, neg_g),
              reference::joint_mul(u, v, neg_g));
  }
  // Q = G: both combs add the same entry, reached through the doubling
  // branch of the mixed add.
  EXPECT_EQ(Secp160r1::joint_mul(U192(1), U192(1), g),
            Secp160r1::double_point(g));
  EXPECT_TRUE(Secp160r1::joint_mul(n() - U192(1), U192(1), g).infinity);
}

TEST(JointMul, InfinityAddend) {
  const U192 u1(12345);
  EXPECT_EQ(Secp160r1::joint_mul(u1, U192(678), EcPoint{}),
            Secp160r1::scalar_mul_base(u1));
  EXPECT_TRUE(Secp160r1::joint_mul(U192(0), U192(0), EcPoint{}).infinity);
}

TEST(JointMul, AlternatingQEvictsTheCachedComb) {
  // One cached Q comb per thread: alternating keys rebuild it on every
  // call, repeating a key reuses it; both must match the oracle.
  HmacDrbg drbg(from_string("joint-alternating-q"));
  const EcPoint keys[2] = {rand_point(drbg), rand_point(drbg)};
  for (const int k : {0, 1, 0, 1, 1, 0, 0, 1}) {
    const U192 u1 = rand_below_n(drbg);
    const U192 u2 = rand_below_n(drbg);
    ASSERT_EQ(Secp160r1::joint_mul(u1, u2, keys[k]),
              reference::joint_mul(u1, u2, keys[k]))
        << "key " << k;
  }
}

class JointMulLockstep : public ::testing::TestWithParam<int> {
 protected:
  HmacDrbg drbg_{from_string("joint-lockstep-" + std::to_string(GetParam()))};
};

TEST_P(JointMulLockstep, MatchesSeparateMultiplies) {
  for (int i = 0; i < 6; ++i) {
    const EcPoint q = rand_point(drbg_);
    const U192 u1 = rand_below_n(drbg_);
    const U192 u2 = rand_below_n(drbg_);
    ASSERT_EQ(Secp160r1::joint_mul(u1, u2, q),
              reference::joint_mul(u1, u2, q));
    // Unequal scalar lengths: one side runs out of bits early.
    const U192 short_u = u1.shifted_right(100);
    ASSERT_EQ(Secp160r1::joint_mul(short_u, u2, q),
              reference::joint_mul(short_u, u2, q));
    ASSERT_EQ(Secp160r1::joint_mul(u1, short_u, q),
              reference::joint_mul(u1, short_u, q));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JointMulLockstep, ::testing::Range(0, 4));

// ---- ECDSA end to end on the oracles -----------------------------------

U192 reference_digest(ByteView message) {
  const auto digest = Sha1::hash(message);
  Bytes padded(U192::kBytes - digest.size(), 0);
  padded.insert(padded.end(), digest.begin(), digest.end());
  return reference::mod_wide(U192::from_bytes_be(padded).resized<12>(), n());
}

// ecdsa_sign's algorithm (DRBG seeded with d || SHA-1(m), 161-bit masked
// rejection sampling) with every order-n operation on the oracles.
EcdsaSignature reference_sign(const U192& d, ByteView message) {
  const U192 e = reference_digest(message);
  Bytes seed = d.to_bytes_be();
  const auto digest = Sha1::hash(message);
  append(seed, ByteView(digest.data(), digest.size()));
  HmacDrbg drbg(seed);
  for (;;) {
    Bytes raw = drbg.generate(U192::kBytes);
    raw[0] = raw[1] = raw[2] = 0;
    raw[3] &= 0x01;
    const U192 k = U192::from_bytes_be(raw);
    if (k.is_zero() || k >= n()) continue;
    const EcPoint big_r = Secp160r1::scalar_mul(k, Secp160r1::generator());
    const U192 r = reference::mod_wide(big_r.x.value().resized<12>(), n());
    if (r.is_zero()) continue;
    const U192 sum =
        reference::mod_wide((e + reference::modn_mul(r, d)).resized<12>(),
                            n());
    const U192 s = reference::modn_mul(reference::modn_inv(k), sum);
    if (s.is_zero()) continue;
    return EcdsaSignature{r, s};
  }
}

bool reference_verify(const EcPoint& q, ByteView message,
                      const EcdsaSignature& sig) {
  if (q.infinity || !Secp160r1::on_curve(q)) return false;
  if (sig.r.is_zero() || sig.r >= n()) return false;
  if (sig.s.is_zero() || sig.s >= n()) return false;
  const U192 w = reference::modn_inv(sig.s);
  const U192 u1 = reference::modn_mul(reference_digest(message), w);
  const U192 u2 = reference::modn_mul(sig.r, w);
  const EcPoint x = reference::joint_mul(u1, u2, q);
  if (x.infinity) return false;
  return reference::mod_wide(x.x.value().resized<12>(), n()) == sig.r;
}

class EcdsaLockstep : public ::testing::TestWithParam<int> {
 protected:
  HmacDrbg drbg_{from_string("ecdsa-lockstep-" + std::to_string(GetParam()))};
};

TEST_P(EcdsaLockstep, SignAndVerifyMatchOracles) {
  for (int i = 0; i < 3; ++i) {
    const EcdsaKeyPair kp = ecdsa_generate_key(drbg_.generate(16));
    ASSERT_EQ(kp.public_key,
              Secp160r1::scalar_mul(kp.private_key, Secp160r1::generator()));
    const Bytes msg = drbg_.generate(1 + drbg_.uniform(64));
    const EcdsaSignature sig = ecdsa_sign(kp.private_key, msg);
    ASSERT_EQ(sig, reference_sign(kp.private_key, msg));

    EcdsaSignature bad_s = sig;
    bad_s.s = modn_add(bad_s.s, U192(1));
    EcdsaSignature random_sig{rand_below_n(drbg_), rand_below_n(drbg_)};
    Bytes other = msg;
    other[0] ^= 0x80;
    for (const auto& [m, s] :
         {std::pair<const Bytes&, const EcdsaSignature&>{msg, sig},
          {msg, bad_s},
          {msg, random_sig},
          {other, sig}}) {
      ASSERT_EQ(ecdsa_verify(kp.public_key, m, s),
                reference_verify(kp.public_key, m, s));
    }
    ASSERT_TRUE(ecdsa_verify(kp.public_key, msg, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdsaLockstep, ::testing::Range(0, 2));

}  // namespace
}  // namespace ratt::crypto
