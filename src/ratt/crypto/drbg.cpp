#include "ratt/crypto/drbg.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace ratt::crypto {

namespace {

constexpr std::size_t kBlock = Sha256::kBlockSize;
constexpr std::size_t kDigest = Sha256::kDigestSize;

// Pads block[0, 32) as the tail of a 96-byte message (one ipad/opad block
// plus 32 bytes): the single final block of both HMAC-SHA256
// compressions over a 32-byte input — V in, or the inner digest out.
void pad_after_digest(std::uint8_t* block) {
  block[kDigest] = 0x80;
  std::memset(block + kDigest + 1, 0, kBlock - 8 - kDigest - 1);
  store_be64(block + kBlock - 8, (kBlock + kDigest) * 8);
}

// Finishes the hash resumed from `mid` over the padded `block` and
// writes its digest over block[0, 32), keeping the padding.
void absorb(const Sha256::State& mid, std::uint8_t* block) {
  Sha256::State state = mid;
  Sha256::compress(state, block);
  for (std::size_t i = 0; i < state.size(); ++i) {
    store_be32(block + 4 * i, state[i]);
  }
}

}  // namespace

HmacDrbg::HmacDrbg(ByteView seed) {
  const std::uint8_t zero_key[kDigest] = {};
  value_.fill(0x01);
  rekey(zero_key);
  update(seed);
}

void HmacDrbg::rekey(const std::uint8_t* key) {
  std::uint8_t pad[kBlock];
  std::memset(pad + kDigest, 0x36, kBlock - kDigest);
  for (std::size_t i = 0; i < kDigest; ++i) {
    pad[i] = static_cast<std::uint8_t>(key[i] ^ 0x36);
  }
  inner_ = Sha256::kInitState;
  Sha256::compress(inner_, pad);
  for (std::uint8_t& b : pad) b ^= 0x36 ^ 0x5c;
  outer_ = Sha256::kInitState;
  Sha256::compress(outer_, pad);
}

void HmacDrbg::update_step(std::uint8_t sep, ByteView provided) {
  // K = HMAC(K, V || sep || provided); V || sep fills 33 bytes, so an
  // empty `provided` (every generate()'s refresh) pads into one block.
  Sha256 inner(Sha256::Midstate{inner_, kBlock});
  inner.update(value_);
  inner.update(ByteView(&sep, 1));
  inner.update(provided);
  const Digest inner_digest = inner.finish();
  std::uint8_t block[kBlock];
  std::memcpy(block, inner_digest.data(), kDigest);
  pad_after_digest(block);
  absorb(outer_, block);
  rekey(block);
  // V = HMAC(K, V).
  std::memcpy(block, value_.data(), kDigest);
  absorb(inner_, block);
  absorb(outer_, block);
  std::memcpy(value_.data(), block, kDigest);
}

void HmacDrbg::update(ByteView provided) {
  update_step(0x00, provided);
  if (!provided.empty()) update_step(0x01, provided);
}

Bytes HmacDrbg::generate(std::size_t n) {
  Bytes out(n);
  generate_into(out);
  return out;
}

void HmacDrbg::generate_into(std::span<std::uint8_t> out) {
  const std::size_t n = out.size();
  // V lives in the block between steps: each V = HMAC(K, V) overwrites
  // it in place, and the padding after it never changes.
  std::uint8_t block[kBlock];
  std::memcpy(block, value_.data(), kDigest);
  pad_after_digest(block);
  for (std::size_t off = 0; off < n; off += kDigest) {
    absorb(inner_, block);
    absorb(outer_, block);
    std::memcpy(out.data() + off, block, std::min(kDigest, n - off));
  }
  std::memcpy(value_.data(), block, kDigest);
  update({});
}

void HmacDrbg::reseed(ByteView seed) { update(seed); }

std::uint64_t HmacDrbg::uniform(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("HmacDrbg::uniform: bound 0");
  // Rejection sampling over the smallest power-of-two superset of bound.
  const int bits = 64 - std::countl_zero(bound - 1);
  const std::uint64_t mask =
      (bits >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
  for (;;) {
    std::uint8_t raw[8];
    generate_into(raw);
    const std::uint64_t v = load_be64(raw) & mask;
    if (v < bound) return v;
  }
}

}  // namespace ratt::crypto
