// Multi-buffer SHA-1: N independent messages hashed in lockstep.
//
// The verifier side of the swarm spends most of its cycles in HMAC-SHA1
// compressions over *independent* messages (request headers, expected
// response measurements). A single SHA-1 instance is a long dependency
// chain and cannot use data-level parallelism, but N independent hashes
// can: this engine keeps the five chaining words of W lanes in
// structure-of-arrays form (`uint32_t h[5][W]`) and runs the 80-round
// compression with fixed-trip per-lane inner loops, which GCC/Clang
// auto-vectorize to 4-wide (SSE2) or 8-wide (AVX2) integer ops at -O3.
// There is no hand-written intrinsic path; the portable transposed form
// *is* the SIMD path, and the scalar `Sha1` engine remains the
// differential oracle (tests/crypto/sha1xn_test.cpp runs both in
// lockstep).
//
// Lane widths 4 and 8 are instantiated; `hash_many` picks 4 for n <= 4
// and 8 otherwise. Ragged batches are handled by running every lane for
// max-blocks and snapshotting each lane's digest the moment its own
// padded stream ends (finished lanes keep compressing a dummy block;
// their columns become don't-care). The hot verifier batches are
// uniform-length, so no cycles are wasted there.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/sha1.hpp"

namespace ratt::crypto {

class Sha1xN {
 public:
  static constexpr std::size_t kMaxLanes = 8;

  /// One lane's message as a logical concatenation head || tail. The
  /// two-part shape exists for the verifier's measurement MACs (a
  /// 16-byte per-round head followed by the shared reference memory)
  /// without staging the concatenation. Either part may be empty.
  struct LaneMsg {
    ByteView head;
    ByteView tail;
  };

  /// Hash `n` (1..kMaxLanes) messages, lane i continuing from
  /// `mids[i]` (a block-aligned Sha1::Midstate, e.g. an HMAC ipad
  /// midstate). `digests[i]` receives lane i's 20-byte digest.
  /// `mids == nullptr` starts every lane from the SHA-1 IV.
  static void hash_many(const Sha1::Midstate* mids, const LaneMsg* msgs,
                        std::size_t n,
                        std::uint8_t (*digests)[Sha1::kDigestSize]);

  /// Fresh-IV, single-part convenience (known-answer tests).
  static void hash_many(const ByteView* msgs, std::size_t n,
                        std::uint8_t (*digests)[Sha1::kDigestSize]);

  /// True when hash_many() runs its lanes side by side (the AVX2 or
  /// portable transposed kernels), so n lanes cost about as much as one.
  /// False on SHA-NI hosts, where hash_many() hashes the lanes one after
  /// another and each lane costs a full scalar hash: callers that would
  /// batch speculative work should then do only the work they need.
  static bool lanes_parallel();
};

}  // namespace ratt::crypto
