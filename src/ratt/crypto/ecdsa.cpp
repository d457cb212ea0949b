#include "ratt/crypto/ecdsa.hpp"

#include <stdexcept>

#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/modn.hpp"
#include "ratt/crypto/sha1.hpp"

namespace ratt::crypto {

namespace {

const U192& order() { return Secp160r1::order(); }

/// Message digest as an integer modulo n (SHA-1 is 160 bits < 161 = |n|,
/// so no truncation is needed).
U192 digest_to_scalar(ByteView message) {
  const auto digest = Sha1::hash(message);
  Bytes padded(U192::kBytes, 0);
  std::copy(digest.begin(), digest.end(),
            padded.begin() + (U192::kBytes - digest.size()));
  return modn(U192::from_bytes_be(padded).resized<12>());
}

/// Scalar in [1, n-1] from a DRBG, by rejection sampling.
U192 random_scalar(HmacDrbg& drbg) {
  for (;;) {
    const Bytes raw = drbg.generate(U192::kBytes);
    // Clear the top 31 bits so candidates are < 2^161; n is just above
    // 2^160, so acceptance probability is ~1/2.
    Bytes masked = raw;
    masked[0] = 0;
    masked[1] = 0;
    masked[2] = 0;
    masked[3] &= 0x01;
    const U192 candidate = U192::from_bytes_be(masked);
    if (!candidate.is_zero() && candidate < order()) return candidate;
  }
}

}  // namespace

Bytes EcdsaSignature::to_bytes() const {
  Bytes out = r.to_bytes_be();
  append(out, s.to_bytes_be());
  return out;
}

EcdsaSignature EcdsaSignature::from_bytes(ByteView bytes) {
  if (bytes.size() != 2 * U192::kBytes) {
    throw std::invalid_argument("EcdsaSignature::from_bytes: wrong length");
  }
  EcdsaSignature sig;
  sig.r = U192::from_bytes_be(bytes.subspan(0, U192::kBytes));
  sig.s = U192::from_bytes_be(bytes.subspan(U192::kBytes));
  return sig;
}

EcdsaKeyPair ecdsa_generate_key(ByteView seed) {
  HmacDrbg drbg(seed);
  EcdsaKeyPair kp;
  kp.private_key = random_scalar(drbg);
  kp.public_key = Secp160r1::scalar_mul_base(kp.private_key);
  return kp;
}

EcdsaSignature ecdsa_sign(const U192& d, ByteView message) {
  if (d.is_zero() || d >= order()) {
    throw std::invalid_argument("ecdsa_sign: private key out of range");
  }
  const U192 e = digest_to_scalar(message);

  // Deterministic per-signature secret: DRBG seeded with d || H(m).
  Bytes seed = d.to_bytes_be();
  const auto digest = Sha1::hash(message);
  append(seed, ByteView(digest.data(), digest.size()));
  HmacDrbg drbg(seed);

  for (;;) {
    const U192 k = random_scalar(drbg);
    const EcPoint big_r = Secp160r1::scalar_mul_base(k);
    // big_r cannot be infinity for k in [1, n-1].
    const U192 r = modn(big_r.x.value().resized<12>());
    if (r.is_zero()) continue;
    const U192 s = modn_mul(modn_inv(k), modn_add(e, modn_mul(r, d)));
    if (s.is_zero()) continue;
    return EcdsaSignature{r, s};
  }
}

bool ecdsa_verify(const EcPoint& q, ByteView message,
                  const EcdsaSignature& sig) {
  if (q.infinity || !Secp160r1::on_curve(q)) return false;
  if (sig.r.is_zero() || sig.r >= order()) return false;
  if (sig.s.is_zero() || sig.s >= order()) return false;

  const U192 e = digest_to_scalar(message);
  const U192 w = modn_inv(sig.s);
  const U192 u1 = modn_mul(e, w);
  const U192 u2 = modn_mul(sig.r, w);

  const EcPoint x = Secp160r1::joint_mul(u1, u2, q);
  if (x.infinity) return false;
  const U192 v = modn(x.x.value().resized<12>());
  return v == sig.r;
}

}  // namespace ratt::crypto
