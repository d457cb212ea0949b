// SHA-256 (FIPS 180-4).
//
// Used by secure boot (image digests compared against the signed reference
// hash in ROM) and by the HMAC-DRBG that generates nonces and ECDSA
// per-signature secrets.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "ratt/crypto/bytes.hpp"

namespace ratt::crypto {

/// Incremental SHA-256. Usable as `Hash` in Hmac<Hash>.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  using State = std::array<std::uint32_t, 8>;

  /// The FIPS 180-4 initial chaining words.
  static constexpr State kInitState = {
      0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
      0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

  Sha256() { reset(); }

  void reset();
  void update(ByteView data);
  Digest finish();

  static Digest hash(ByteView data);

  /// Block-aligned compression state, as Sha1::Midstate: the chaining
  /// words after absorbing `total_len` bytes (a multiple of kBlockSize) —
  /// the shape of HMAC ipad/opad midstates.
  struct Midstate {
    State h;
    std::uint64_t total_len;
  };

  /// Resume from a midstate: update()/finish() continue exactly as the
  /// hash that absorbed those bytes would have. Throws
  /// std::invalid_argument if `mid.total_len` is not block-aligned.
  explicit Sha256(const Midstate& mid);

  /// One compression of a 64-byte block into `state` (SHA-NI when the
  /// CPU has it) — for callers that pad fixed-size messages themselves.
  static void compress(State& state, const std::uint8_t* block);

 private:
  void process_block(const std::uint8_t* block) { compress(state_, block); }

  State state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace ratt::crypto
