// Fixed-width big-integer arithmetic: exact vectors plus algebraic
// property sweeps driven by a deterministic DRBG.
#include <gtest/gtest.h>

#include "ratt/crypto/bigint.hpp"
#include "ratt/crypto/drbg.hpp"
#include "reference_arith.hpp"

namespace ratt::crypto {
namespace {

U160 rand_u160(HmacDrbg& drbg) {
  return U160::from_bytes_be(drbg.generate(U160::kBytes));
}

TEST(BigInt, ZeroAndComparisons) {
  const U160 zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0);
  const U160 one(1);
  EXPECT_FALSE(one.is_zero());
  EXPECT_TRUE(one.is_odd());
  EXPECT_LT(zero, one);
  EXPECT_GT(one, zero);
  EXPECT_EQ(one, U160(1));
}

TEST(BigInt, BitLengthCountsSignificantBits) {
  EXPECT_EQ(U160(0).bit_length(), 0);
  EXPECT_EQ(U160(1).bit_length(), 1);
  EXPECT_EQ(U160(std::uint64_t{1} << 32).bit_length(), 33);
}

TEST(BigInt, FromU64SpansTwoLimbs) {
  const U160 v(0x0123456789abcdefull);
  EXPECT_EQ(v.limb(0), 0x89abcdefu);
  EXPECT_EQ(v.limb(1), 0x01234567u);
  EXPECT_EQ(v.limb(2), 0u);
  EXPECT_EQ(v.bit_length(), 57);
}

TEST(BigInt, HexRoundTrip) {
  const auto v = U160::from_hex("ffffffffffffffffffffffffffffffff7fffffff");
  EXPECT_EQ(v.to_hex(), "ffffffffffffffffffffffffffffffff7fffffff");
  EXPECT_EQ(v.bit_length(), 160);
}

TEST(BigInt, ShortHexIsLeftPadded) {
  const auto v = U160::from_hex("ff");
  EXPECT_EQ(v, U160(255));
}

TEST(BigInt, FromHexRejectsTooWide) {
  EXPECT_THROW(
      U160::from_hex("01ffffffffffffffffffffffffffffffff7fffffff"),
      std::invalid_argument);
}

TEST(BigInt, BytesRoundTrip) {
  const auto v = U160::from_hex("0102030405060708090a0b0c0d0e0f1011121314");
  const Bytes b = v.to_bytes_be();
  ASSERT_EQ(b.size(), 20u);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[19], 0x14);
  EXPECT_EQ(U160::from_bytes_be(b), v);
}

TEST(BigInt, FromBytesRejectsWrongLength) {
  EXPECT_THROW(U160::from_bytes_be(Bytes(19, 0)), std::invalid_argument);
  EXPECT_THROW(U160::from_bytes_be(Bytes(21, 0)), std::invalid_argument);
}

TEST(BigInt, AddCarryPropagation) {
  const auto max = U160::from_hex("ffffffffffffffffffffffffffffffffffffffff");
  U160 out;
  const auto carry = U160::add(max, U160(1), out);
  EXPECT_EQ(carry, 1u);
  EXPECT_TRUE(out.is_zero());
}

TEST(BigInt, SubBorrowPropagation) {
  U160 out;
  const auto borrow = U160::sub(U160(0), U160(1), out);
  EXPECT_EQ(borrow, 1u);
  EXPECT_EQ(out,
            U160::from_hex("ffffffffffffffffffffffffffffffffffffffff"));
}

TEST(BigInt, MulWideKnownValue) {
  // (2^160 - 1)^2 = 2^320 - 2^161 + 1
  const auto max = U160::from_hex("ffffffffffffffffffffffffffffffffffffffff");
  const U320 sq = mul_wide(max, max);
  const auto expected = U320::from_hex(
      "fffffffffffffffffffffffffffffffffffffffe"
      "0000000000000000000000000000000000000001");
  EXPECT_EQ(sq, expected);
}

TEST(BigInt, MulWideSmall) {
  const U320 p = mul_wide(U160(0xffffffffull), U160(0xffffffffull));
  EXPECT_EQ(p, U320(0xfffffffe00000001ull));
}

TEST(BigInt, ShiftLeftRight) {
  const auto v = U160::from_hex("0000000000000000000000000000000000000001");
  EXPECT_EQ(v.shifted_left(159).bit_length(), 160);
  EXPECT_EQ(v.shifted_left(33), U160(0x200000000ull));
  EXPECT_EQ(v.shifted_left(33).shifted_right(33), v);
  EXPECT_TRUE(v.shifted_right(1).is_zero());
}

TEST(BigInt, ShiftAcrossLimbBoundary) {
  const auto v = U160::from_hex("00000000000000000000000000000000ffffffff");
  const auto shifted = v.shifted_left(16);
  EXPECT_EQ(shifted,
            U160::from_hex("000000000000000000000000ffffffff0000"
                           "0000").shifted_right(16));
}

TEST(BigInt, ResizeTruncatesAndExtends) {
  const auto v = U192::from_hex("0100000000000000000001f4c8f927aed3ca752257");
  const U160 truncated = v.resized<5>();
  EXPECT_EQ(truncated,
            U160::from_hex("00000000000000000001f4c8f927aed3ca752257"));
  const U192 back = truncated.resized<6>();
  EXPECT_EQ(back.limb(5), 0u);
}

TEST(BigInt, ModWideBasics) {
  // 100 mod 7 = 2
  const U320 a(100);
  EXPECT_EQ(reference::mod_wide(a, U160(7)), U160(2));
  // x mod x = 0, x mod 1 = 0
  EXPECT_TRUE(reference::mod_wide(U320(12345), U160(12345)).is_zero());
  EXPECT_TRUE(reference::mod_wide(U320(12345), U160(1)).is_zero());
  // x < m => x
  EXPECT_EQ(reference::mod_wide(U320(5), U160(7)), U160(5));
}

TEST(BigInt, ModWideRejectsZeroModulus) {
  EXPECT_THROW(reference::mod_wide(U320(1), U160(0)), std::invalid_argument);
}

TEST(BigInt, ModWideLarge) {
  // (2^160-1)^2 mod (2^160 - 2^31 - 1): cross-check against the identity
  // (p + d)^2 mod p = d^2 mod p with d = 2^31.
  const auto p = U160::from_hex("ffffffffffffffffffffffffffffffff7fffffff");
  const auto max = U160::from_hex("ffffffffffffffffffffffffffffffffffffffff");
  // max = p + 2^31, so max^2 ≡ (2^31)^2 = 2^62 (mod p).
  EXPECT_EQ(reference::mod_wide(mul_wide(max, max), p),
            U160(std::uint64_t{1} << 62));
}

// ---- Property sweeps -------------------------------------------------

class BigIntProperties : public ::testing::TestWithParam<int> {
 protected:
  HmacDrbg drbg_{from_string("bigint-prop-seed-" +
                             std::to_string(GetParam()))};
};

TEST_P(BigIntProperties, AddCommutes) {
  const U160 a = rand_u160(drbg_);
  const U160 b = rand_u160(drbg_);
  EXPECT_EQ(a + b, b + a);
}

TEST_P(BigIntProperties, AddSubInverse) {
  const U160 a = rand_u160(drbg_);
  const U160 b = rand_u160(drbg_);
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ((a - b) + b, a);
}

TEST_P(BigIntProperties, MulCommutes) {
  const U160 a = rand_u160(drbg_);
  const U160 b = rand_u160(drbg_);
  EXPECT_EQ(mul_wide(a, b), mul_wide(b, a));
}

TEST_P(BigIntProperties, MulDistributesOverAdd) {
  // Work in 64-bit-bounded values so (a+b) does not overflow 160 bits.
  const U160 a(drbg_.uniform(~std::uint64_t{0}));
  const U160 b(drbg_.uniform(~std::uint64_t{0}));
  const U160 c(drbg_.uniform(~std::uint64_t{0}));
  const U320 lhs = mul_wide(a + b, c);
  U320 rhs;
  U320::add(mul_wide(a, c), mul_wide(b, c), rhs);
  EXPECT_EQ(lhs, rhs);
}

TEST_P(BigIntProperties, ModWideInRange) {
  const U160 a = rand_u160(drbg_);
  const U160 b = rand_u160(drbg_);
  U160 m = rand_u160(drbg_);
  if (m.is_zero()) m = U160(1);
  const U160 r = reference::mod_wide(mul_wide(a, b), m);
  EXPECT_LT(r, m);
}

TEST_P(BigIntProperties, ModWideCongruence) {
  // (a*b) mod m stays fixed if we add m to the product.
  const U160 a = rand_u160(drbg_);
  U160 m = rand_u160(drbg_);
  if (m.is_zero()) m = U160(1);
  const U320 prod = mul_wide(a, U160(2));
  U320 shifted;
  U320::add(prod, m.resized<10>(), shifted);
  EXPECT_EQ(reference::mod_wide(prod, m), reference::mod_wide(shifted, m));
}

TEST_P(BigIntProperties, ShiftMulEquivalence) {
  const U160 a = rand_u160(drbg_);
  // a << 1 == a + a (mod 2^160)
  EXPECT_EQ(a.shifted_left(1), a + a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntProperties, ::testing::Range(0, 16));

}  // namespace
}  // namespace ratt::crypto
