// HMAC-DRBG (NIST SP 800-90A) over SHA-256.
//
// Deterministic randomness for the simulation: verifier nonces, key
// generation, and ECDSA per-signature secrets all come from seeded DRBG
// instances so every experiment in the repository is reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/sha256.hpp"

namespace ratt::crypto {

/// Deterministic random bit generator. Not thread-safe.
class HmacDrbg {
 public:
  /// Instantiate from seed material (entropy || nonce || personalization).
  explicit HmacDrbg(ByteView seed);

  /// Generate `n` pseudorandom bytes.
  Bytes generate(std::size_t n);

  /// Fill `out` with the bytes generate(out.size()) would return, and
  /// advance the state the same way, without allocating.
  void generate_into(std::span<std::uint8_t> out);

  /// Mix fresh seed material into the state.
  void reseed(ByteView seed);

  /// Uniform value in [0, bound) via rejection sampling. bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

 private:
  using Digest = Sha256::Digest;

  void update(ByteView provided);
  /// K = HMAC(K, V || sep || provided), then V = HMAC(K, V).
  void update_step(std::uint8_t sep, ByteView provided);
  /// Replace K (32 bytes): absorb K ^ ipad and K ^ opad into fresh
  /// midstates.
  void rekey(const std::uint8_t* key);

  // K itself is never read again once keyed: only the SHA-256 states
  // after absorbing its ipad / opad block are kept (64 B), so every
  // HMAC(K, .) skips both key-padding compressions.
  Digest value_{};
  Sha256::State inner_{};
  Sha256::State outer_{};
};

}  // namespace ratt::crypto
