// SHA-1 (FIPS 180-4).
//
// The paper's attestation measurement and request authentication use
// SHA1-HMAC (RFC 2104 over SHA-1), matching Table 1's "SHA1-HMAC" column.
// SHA-1 is cryptographically broken for collision resistance, but remains
// the primitive the paper evaluates; HMAC-SHA1 is unaffected by the known
// collision attacks. The library also provides SHA-256 for secure boot.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "ratt/crypto/bytes.hpp"

namespace ratt::crypto {

/// Incremental SHA-1. Usable as `Hash` in Hmac<Hash>.
class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1() { reset(); }

  /// Restore the initial state; the object can be reused after finish().
  void reset();

  /// Absorb `data`. May be called any number of times.
  void update(ByteView data);

  /// Finalize and return the digest. The object must be reset() before reuse.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(ByteView data);

  /// Block-aligned compression state: the five chaining words plus the
  /// byte count absorbed so far. Exportable only when no partial block
  /// is buffered (absorbed length a multiple of kBlockSize) — exactly
  /// the shape of HMAC ipad/opad midstates. Seeds the multi-buffer
  /// engine's lanes (Sha1xN / MacBatch).
  struct Midstate {
    std::array<std::uint32_t, 5> h;
    std::uint64_t total_len;
  };

  /// Resume from an exported midstate: update()/finish() continue
  /// exactly as the exporting object would have. Throws
  /// std::invalid_argument if `mid.total_len` is not block-aligned.
  explicit Sha1(const Midstate& mid);

  /// Export the current block-aligned state. Throws std::logic_error if
  /// a partial block is buffered.
  Midstate midstate() const;

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace ratt::crypto
