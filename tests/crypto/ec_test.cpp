// secp160r1 group law: curve-membership of published constants, group
// axioms, and scalar-multiplication identities.
#include <gtest/gtest.h>

#include "ratt/crypto/drbg.hpp"
#include "reference_arith.hpp"
#include "ratt/crypto/ec.hpp"

namespace ratt::crypto {
namespace {

U192 rand_scalar(HmacDrbg& drbg) {
  // Any 160-bit value is a valid (possibly large) scalar for these tests.
  Bytes raw = drbg.generate(U192::kBytes);
  raw[0] = raw[1] = raw[2] = raw[3] = 0;
  return U192::from_bytes_be(raw);
}

TEST(Secp160r1, GeneratorOnCurve) {
  EXPECT_TRUE(Secp160r1::on_curve(Secp160r1::generator()));
  EXPECT_FALSE(Secp160r1::generator().infinity);
}

TEST(Secp160r1, InfinityOnCurve) {
  EXPECT_TRUE(Secp160r1::on_curve(EcPoint{}));
}

TEST(Secp160r1, OffCurvePointDetected) {
  EcPoint bogus = Secp160r1::generator();
  bogus.y = bogus.y + Fp160(std::uint64_t{1});
  EXPECT_FALSE(Secp160r1::on_curve(bogus));
}

TEST(Secp160r1, OrderAnnihilatesGenerator) {
  // n·G = O — the defining property of the group order.
  const EcPoint r = Secp160r1::scalar_mul_base(Secp160r1::order());
  EXPECT_TRUE(r.infinity);
}

TEST(Secp160r1, OrderMinusOneGivesNegatedGenerator) {
  const EcPoint r =
      Secp160r1::scalar_mul_base(Secp160r1::order() - U192(1));
  ASSERT_FALSE(r.infinity);
  EXPECT_EQ(r.x, Secp160r1::generator().x);
  EXPECT_EQ(r.y, Secp160r1::generator().y.negated());
  // And G + (n-1)G = O.
  EXPECT_TRUE(Secp160r1::add(r, Secp160r1::generator()).infinity);
}

TEST(Secp160r1, AdditionIdentity) {
  const EcPoint g = Secp160r1::generator();
  EXPECT_EQ(Secp160r1::add(g, EcPoint{}), g);
  EXPECT_EQ(Secp160r1::add(EcPoint{}, g), g);
  EXPECT_TRUE(Secp160r1::add(EcPoint{}, EcPoint{}).infinity);
}

TEST(Secp160r1, DoubleMatchesAdd) {
  const EcPoint g = Secp160r1::generator();
  EXPECT_EQ(Secp160r1::double_point(g), Secp160r1::add(g, g));
}

TEST(Secp160r1, SmallMultiplesConsistent) {
  const EcPoint g = Secp160r1::generator();
  EcPoint acc;  // infinity
  for (std::uint64_t k = 1; k <= 20; ++k) {
    acc = Secp160r1::add(acc, g);
    EXPECT_EQ(Secp160r1::scalar_mul_base(U192(k)), acc) << "k=" << k;
    EXPECT_TRUE(Secp160r1::on_curve(acc));
  }
}

TEST(Secp160r1, ScalarMulByZeroIsInfinity) {
  EXPECT_TRUE(Secp160r1::scalar_mul_base(U192(0)).infinity);
  EXPECT_TRUE(
      Secp160r1::scalar_mul(U192(12345), EcPoint{}).infinity);
}

class EcProperties : public ::testing::TestWithParam<int> {
 protected:
  HmacDrbg drbg_{from_string("ec-prop-seed-" + std::to_string(GetParam()))};
};

TEST_P(EcProperties, AdditionCommutes) {
  const EcPoint p = Secp160r1::scalar_mul_base(rand_scalar(drbg_));
  const EcPoint q = Secp160r1::scalar_mul_base(rand_scalar(drbg_));
  EXPECT_EQ(Secp160r1::add(p, q), Secp160r1::add(q, p));
}

TEST_P(EcProperties, ScalarMulDistributes) {
  // (a+b)·G == a·G + b·G (a, b chosen so a+b does not overflow 192 bits).
  const U192 a(drbg_.uniform(~std::uint64_t{0}));
  const U192 b(drbg_.uniform(~std::uint64_t{0}));
  const EcPoint lhs = Secp160r1::scalar_mul_base(a + b);
  const EcPoint rhs = Secp160r1::add(Secp160r1::scalar_mul_base(a),
                                     Secp160r1::scalar_mul_base(b));
  EXPECT_EQ(lhs, rhs);
}

TEST_P(EcProperties, ScalarMulComposes) {
  // a·(b·G) == (a·b mod n)·G
  const U192 a(drbg_.uniform(1u << 20));
  const U192 b(drbg_.uniform(1u << 20));
  const EcPoint bg = Secp160r1::scalar_mul_base(b);
  const EcPoint lhs = Secp160r1::scalar_mul(a, bg);
  const U192 ab = reference::mod_wide(mul_wide(a, b), Secp160r1::order());
  EXPECT_EQ(lhs, Secp160r1::scalar_mul_base(ab));
}

TEST_P(EcProperties, ResultsStayOnCurve) {
  const EcPoint p = Secp160r1::scalar_mul_base(rand_scalar(drbg_));
  const EcPoint q = Secp160r1::scalar_mul_base(rand_scalar(drbg_));
  EXPECT_TRUE(Secp160r1::on_curve(p));
  EXPECT_TRUE(Secp160r1::on_curve(Secp160r1::add(p, q)));
  EXPECT_TRUE(Secp160r1::on_curve(Secp160r1::double_point(p)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcProperties, ::testing::Range(0, 8));

}  // namespace
}  // namespace ratt::crypto
