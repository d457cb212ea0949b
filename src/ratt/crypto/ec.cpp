#include "ratt/crypto/ec.hpp"

#include <array>

#include "ratt/crypto/modn.hpp"

namespace ratt::crypto {

namespace {

// Lazily initialized (function-local statics) to stay immune to static
// initialization order across translation units.
const Fp160& coeff_a() {
  static const Fp160 v =
      Fp160::from_hex("ffffffffffffffffffffffffffffffff7ffffffc");
  return v;
}

const Fp160& coeff_b() {
  static const Fp160 v =
      Fp160::from_hex("1c97befc54bd7a8b65acf89f81d4d4adc565fa45");
  return v;
}

// Jacobian coordinates (X : Y : Z), affine (X/Z^2, Y/Z^3); Z == 0 is the
// point at infinity. Scalar multiplication works here so that only one
// field inversion is needed, at the final conversion back to affine.
struct Jacobian {
  Fp160 x;
  Fp160 y;
  Fp160 z;  // zero => infinity

  bool is_infinity() const { return z.is_zero(); }
};

Jacobian to_jacobian(const EcPoint& p) {
  if (p.infinity) return Jacobian{};
  return Jacobian{p.x, p.y, Fp160(std::uint64_t{1})};
}

EcPoint to_affine(const Jacobian& p) {
  if (p.is_infinity()) return EcPoint{};
  const Fp160 z_inv = p.z.inverse();
  const Fp160 z_inv2 = z_inv.squared();
  return EcPoint::make(p.x * z_inv2, p.y * z_inv2 * z_inv);
}

Fp160 twice(const Fp160& v) { return v + v; }

// dbl-2001-b (a = -3, which holds for secp160r1: a = p - 3). Small
// constant factors are additions, not field multiplications.
Jacobian jacobian_double(const Jacobian& p) {
  if (p.is_infinity() || p.y.is_zero()) return Jacobian{};
  const Fp160 delta = p.z.squared();
  const Fp160 gamma = p.y.squared();
  const Fp160 beta4 = twice(twice(p.x * gamma));
  const Fp160 t = (p.x - delta) * (p.x + delta);
  const Fp160 alpha = twice(t) + t;
  const Fp160 x3 = alpha.squared() - twice(beta4);
  const Fp160 z3 = (p.y + p.z).squared() - gamma - delta;
  const Fp160 y3 =
      alpha * (beta4 - x3) - twice(twice(twice(gamma.squared())));
  return Jacobian{x3, y3, z3};
}

// madd-2007-bl: mixed Jacobian + affine addition.
Jacobian jacobian_add_affine(const Jacobian& p, const EcPoint& q) {
  if (q.infinity) return p;
  if (p.is_infinity()) return to_jacobian(q);

  const Fp160 z1z1 = p.z.squared();
  const Fp160 u2 = q.x * z1z1;
  const Fp160 s2 = q.y * p.z * z1z1;
  const Fp160 h = u2 - p.x;
  const Fp160 r = twice(s2 - p.y);

  if (h.is_zero()) {
    if (r.is_zero()) return jacobian_double(p);
    return Jacobian{};  // P + (-P)
  }

  const Fp160 hh = h.squared();
  const Fp160 i = twice(twice(hh));
  const Fp160 j = h * i;
  const Fp160 v = p.x * i;
  const Fp160 x3 = r.squared() - j - twice(v);
  const Fp160 y3 = r * (v - x3) - twice(p.y * j);
  const Fp160 z3 = (p.z + h).squared() - z1z1 - hh;
  return Jacobian{x3, y3, z3};
}

}  // namespace

Bytes EcPoint::encode(bool compressed) const {
  if (infinity) return Bytes{0x00};
  Bytes out;
  if (compressed) {
    out.reserve(21);
    out.push_back(y.value().is_odd() ? 0x03 : 0x02);
    crypto::append(out, x.value().to_bytes_be());
  } else {
    out.reserve(41);
    out.push_back(0x04);
    crypto::append(out, x.value().to_bytes_be());
    crypto::append(out, y.value().to_bytes_be());
  }
  return out;
}

std::optional<EcPoint> EcPoint::decode(ByteView wire) {
  if (wire.size() == 1 && wire[0] == 0x00) return EcPoint{};
  if (wire.size() == 41 && wire[0] == 0x04) {
    const U160 x_raw = U160::from_bytes_be(wire.subspan(1, 20));
    const U160 y_raw = U160::from_bytes_be(wire.subspan(21, 20));
    // Reject non-canonical coordinates (>= p).
    if (x_raw >= Fp160::modulus() || y_raw >= Fp160::modulus()) {
      return std::nullopt;
    }
    const EcPoint pt = EcPoint::make(Fp160(x_raw), Fp160(y_raw));
    if (!Secp160r1::on_curve(pt)) return std::nullopt;
    return pt;
  }
  if (wire.size() == 21 && (wire[0] == 0x02 || wire[0] == 0x03)) {
    const U160 x_raw = U160::from_bytes_be(wire.subspan(1, 20));
    if (x_raw >= Fp160::modulus()) return std::nullopt;
    const Fp160 x(x_raw);
    const Fp160 rhs =
        x.squared() * x + Secp160r1::a() * x + Secp160r1::b();
    const auto y = rhs.sqrt();
    if (!y.has_value()) return std::nullopt;  // x not on the curve
    const bool want_odd = wire[0] == 0x03;
    const Fp160 y_final =
        (y->value().is_odd() == want_odd) ? *y : y->negated();
    return EcPoint::make(x, y_final);
  }
  return std::nullopt;
}

const Fp160& Secp160r1::a() { return coeff_a(); }
const Fp160& Secp160r1::b() { return coeff_b(); }

const EcPoint& Secp160r1::generator() {
  static const EcPoint g = EcPoint::make(
      Fp160::from_hex("4a96b5688ef573284664698968c38bb913cbfc82"),
      Fp160::from_hex("23a628553168947d59dcc912042351377ac5fb32"));
  return g;
}

const U192& Secp160r1::order() {
  static const U192 n =
      U192::from_hex("0100000000000000000001f4c8f927aed3ca752257");
  return n;
}

bool Secp160r1::on_curve(const EcPoint& pt) {
  if (pt.infinity) return true;
  const Fp160 lhs = pt.y.squared();
  const Fp160 rhs = pt.x.squared() * pt.x + coeff_a() * pt.x + coeff_b();
  return lhs == rhs;
}

EcPoint Secp160r1::double_point(const EcPoint& p) {
  return to_affine(jacobian_double(to_jacobian(p)));
}

EcPoint Secp160r1::add(const EcPoint& p, const EcPoint& q) {
  if (p.infinity) return q;
  return to_affine(jacobian_add_affine(to_jacobian(p), q));
}

// None of the scalar multiplications below is constant-time: the
// simulated prover's timing model prices ECDSA analytically, and no
// secret-dependent host timing crosses a trust boundary in this codebase.

EcPoint Secp160r1::scalar_mul(const U192& k, const EcPoint& p) {
  // Left-to-right double-and-add.
  Jacobian result{};
  for (int i = k.bit_length(); i-- > 0;) {
    result = jacobian_double(result);
    if (k.bit(static_cast<std::size_t>(i))) {
      result = jacobian_add_affine(result, p);
    }
  }
  return to_affine(result);
}

namespace {

// Fixed-base comb (Lim-Lee) for k·P: kTeeth teeth kSpacing bits apart
// cover 165 >= 161 bits, so any k mod n is kSpacing doublings and at most
// kSpacing mixed additions.
constexpr int kTeeth = 5;
constexpr int kSpacing = 33;
using CombTable = std::array<EcPoint, (1u << kTeeth) - 1>;

// table[b - 1] = sum over the set bits t of b of 2^(t·kSpacing)·P, for P
// on the curve and not infinity: 132 doublings (each tooth after the
// first goes back to affine, one inversion apiece) and 26 mixed
// additions, then one batched inversion (Montgomery's trick) brings the
// whole table back to affine. No entry is infinity: each is a multiple
// of P by a nonzero integer below 2^133 < n.
CombTable build_comb(const EcPoint& p) {
  std::array<Jacobian, (1u << kTeeth) - 1> jac;
  EcPoint tooth = p;
  for (unsigned j = 0; j < kTeeth; ++j) {
    if (j > 0) {
      Jacobian acc = to_jacobian(tooth);
      for (int i = 0; i < kSpacing; ++i) acc = jacobian_double(acc);
      tooth = to_affine(acc);
    }
    const unsigned bit = 1u << j;
    jac[bit - 1] = to_jacobian(tooth);
    for (unsigned low = 1; low < bit; ++low) {
      jac[bit + low - 1] = jacobian_add_affine(jac[low - 1], tooth);
    }
  }
  // prefix[i] = z_0 · ... · z_i; inv walks back from 1 / prefix[30].
  std::array<Fp160, (1u << kTeeth) - 1> prefix;
  Fp160 acc(std::uint64_t{1});
  for (std::size_t i = 0; i < jac.size(); ++i) {
    acc = acc * jac[i].z;
    prefix[i] = acc;
  }
  Fp160 inv = acc.inverse();
  CombTable table;
  for (std::size_t i = jac.size(); i-- > 0;) {
    const Fp160 z_inv = i == 0 ? inv : inv * prefix[i - 1];
    inv = inv * jac[i].z;
    const Fp160 z_inv2 = z_inv.squared();
    table[i] = EcPoint::make(jac[i].x * z_inv2, jac[i].y * z_inv2 * z_inv);
  }
  return table;
}

// The comb of G, built once per process, then read-only.
const CombTable& comb_table() {
  static const CombTable table = build_comb(Secp160r1::generator());
  return table;
}

// The comb of the last Q joint_mul saw on this thread. ECDSA verifies
// against a handful of long-lived public keys (every prover checks one
// vendor key), so one slot per thread hits on all but the first verify
// and needs no lock.
const CombTable& q_comb(const EcPoint& q) {
  thread_local EcPoint key;  // infinity = empty slot (q never is)
  thread_local CombTable table;
  if (key != q) {
    table = build_comb(q);
    key = q;
  }
  return table;
}

// The comb column of k at doubling step i: bit t of the result is bit
// t·kSpacing + i of k.
unsigned comb_column(const U192& k, int i) {
  unsigned b = 0;
  for (unsigned t = 0; t < kTeeth; ++t) {
    b |= static_cast<unsigned>(k.bit(t * kSpacing + i)) << t;
  }
  return b;
}

}  // namespace

EcPoint Secp160r1::scalar_mul_base(const U192& k) {
  // k·G = (k mod n)·G; the residue fits the comb's 165 bits.
  const U192 r = modn(k.resized<12>());
  const CombTable& table = comb_table();
  Jacobian result{};
  for (int i = kSpacing; i-- > 0;) {
    result = jacobian_double(result);
    const unsigned b = comb_column(r, i);
    if (b != 0) result = jacobian_add_affine(result, table[b - 1]);
  }
  return to_affine(result);
}

EcPoint Secp160r1::joint_mul(const U192& u1, const U192& u2,
                             const EcPoint& q) {
  if (q.infinity) return scalar_mul_base(u1);
  // Two combs sharing one doubling chain: u1 mod n against G's table,
  // u2 mod n against Q's (Q has order n, as every finite point on the
  // curve does).
  const U192 r1 = modn(u1.resized<12>());
  const U192 r2 = modn(u2.resized<12>());
  const CombTable& g_table = comb_table();
  const CombTable& q_table = q_comb(q);
  Jacobian result{};
  for (int i = kSpacing; i-- > 0;) {
    result = jacobian_double(result);
    const unsigned b1 = comb_column(r1, i);
    if (b1 != 0) result = jacobian_add_affine(result, g_table[b1 - 1]);
    const unsigned b2 = comb_column(r2, i);
    if (b2 != 0) result = jacobian_add_affine(result, q_table[b2 - 1]);
  }
  return to_affine(result);
}

}  // namespace ratt::crypto
