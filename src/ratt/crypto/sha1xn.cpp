#include "ratt/crypto/sha1xn.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "ratt/crypto/sha1xn_detail.hpp"
#include "ratt/crypto/sha_shani.hpp"

namespace ratt::crypto {

#define RATT_SHA1XN_NS sha1xn_base
#include "ratt/crypto/sha1xn_kernel.inc"
#undef RATT_SHA1XN_NS

void detail::hash_lanes4_portable(const Sha1::Midstate* mids,
                                  const Sha1xN::LaneMsg* msgs, std::size_t n,
                                  std::uint8_t (*digests)[Sha1::kDigestSize]) {
  sha1xn_base::hash_lanes<4>(mids, msgs, n, digests);
}

void detail::hash_lanes8_portable(const Sha1::Midstate* mids,
                                  const Sha1xN::LaneMsg* msgs, std::size_t n,
                                  std::uint8_t (*digests)[Sha1::kDigestSize]) {
  sha1xn_base::hash_lanes<8>(mids, msgs, n, digests);
}

void Sha1xN::hash_many(const Sha1::Midstate* mids, const LaneMsg* msgs,
                       std::size_t n,
                       std::uint8_t (*digests)[Sha1::kDigestSize]) {
  if (n == 0) {
    return;
  }
  if (n > kMaxLanes) {
    throw std::invalid_argument("Sha1xN::hash_many: too many lanes");
  }
  // Hardware SHA beats the 4/8-wide software lanes: one sha1rnds4-based
  // compression per lane is still ~3x faster than an AVX2 lane slot, and
  // Sha1 already compresses on SHA-NI, so each lane is a plain Sha1
  // resumed from its midstate.
  if (!lanes_parallel()) {
    for (std::size_t j = 0; j < n; ++j) {
      Sha1 lane = mids != nullptr ? Sha1(mids[j]) : Sha1();
      lane.update(msgs[j].head);
      lane.update(msgs[j].tail);
      const Sha1::Digest d = lane.finish();
      std::memcpy(digests[j], d.data(), d.size());
    }
    return;
  }
  static const bool use_avx2 = detail::sha1xn_avx2_supported();
  if (n <= 4) {
    if (use_avx2) {
      detail::hash_lanes4_avx2(mids, msgs, n, digests);
    } else {
      detail::hash_lanes4_portable(mids, msgs, n, digests);
    }
  } else {
    if (use_avx2) {
      detail::hash_lanes8_avx2(mids, msgs, n, digests);
    } else {
      detail::hash_lanes8_portable(mids, msgs, n, digests);
    }
  }
}

bool Sha1xN::lanes_parallel() {
  static const bool parallel = !detail::sha_ni_supported();
  return parallel;
}

void Sha1xN::hash_many(const ByteView* msgs, std::size_t n,
                       std::uint8_t (*digests)[Sha1::kDigestSize]) {
  LaneMsg lm[kMaxLanes];
  if (n > kMaxLanes) {
    throw std::invalid_argument("Sha1xN::hash_many: too many lanes");
  }
  for (std::size_t j = 0; j < n; ++j) {
    lm[j] = LaneMsg{msgs[j], ByteView()};
  }
  hash_many(nullptr, lm, n, digests);
}

}  // namespace ratt::crypto
