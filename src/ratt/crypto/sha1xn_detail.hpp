// Internal dispatch seam between the portable (baseline ISA) and AVX2
// builds of the multi-buffer SHA-1 kernel. Not part of the public API;
// declared here so tests can run every lane kernel directly, whichever
// one Sha1xN::hash_many dispatches to on the host.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ratt/crypto/sha1.hpp"
#include "ratt/crypto/sha1xn.hpp"

namespace ratt::crypto::detail {

/// True iff the AVX2 kernel was compiled in AND the CPU supports it.
bool sha1xn_avx2_supported();

/// 4- and 8-lane kernels at the baseline ISA (any x86-64 CPU), same
/// contract as Sha1xN::hash_many with n <= 4 / n <= 8.
void hash_lanes4_portable(const Sha1::Midstate* mids,
                          const Sha1xN::LaneMsg* msgs, std::size_t n,
                          std::uint8_t (*digests)[Sha1::kDigestSize]);
void hash_lanes8_portable(const Sha1::Midstate* mids,
                          const Sha1xN::LaneMsg* msgs, std::size_t n,
                          std::uint8_t (*digests)[Sha1::kDigestSize]);

/// The same kernels compiled for AVX2. Call only when
/// sha1xn_avx2_supported().

void hash_lanes4_avx2(const Sha1::Midstate* mids, const Sha1xN::LaneMsg* msgs,
                      std::size_t n,
                      std::uint8_t (*digests)[Sha1::kDigestSize]);
void hash_lanes8_avx2(const Sha1::Midstate* mids, const Sha1xN::LaneMsg* msgs,
                      std::size_t n,
                      std::uint8_t (*digests)[Sha1::kDigestSize]);

}  // namespace ratt::crypto::detail
