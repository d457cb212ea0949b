#include "ratt/crypto/sha1.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "ratt/crypto/sha_shani.hpp"

namespace ratt::crypto {

void Sha1::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::update(ByteView data) {
  // An empty view may carry a null data(), which memcpy must never see.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + kBlockSize <= data.size()) {
    process_block(data.data() + offset);
    offset += kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha1::Digest Sha1::finish() {
  // Pad in place: 0x80, zeros up to the length field, the bit length —
  // one extra block when the 0x80 leaves no room for the 8-byte length.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  store_be64(buffer_.data() + kBlockSize - 8, bit_len);
  process_block(buffer_.data());
  buffer_len_ = 0;

  Digest out{};
  for (std::size_t i = 0; i < 5; ++i) {
    store_be32(out.data() + 4 * i, state_[i]);
  }
  return out;
}

Sha1::Digest Sha1::hash(ByteView data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

Sha1::Sha1(const Midstate& mid)
    : state_(mid.h), total_len_(mid.total_len) {
  if (mid.total_len % kBlockSize != 0) {
    throw std::invalid_argument("Sha1: midstate is not block-aligned");
  }
}

Sha1::Midstate Sha1::midstate() const {
  if (buffer_len_ != 0) {
    throw std::logic_error("Sha1::midstate: partial block buffered");
  }
  return Midstate{state_, total_len_};
}

void Sha1::process_block(const std::uint8_t* block) {
  static const bool kUseNi = detail::sha_ni_supported();
  if (kUseNi) {
    detail::sha1_compress_ni(state_.data(), block);
  } else {
    detail::sha1_compress_portable(state_.data(), block);
  }
}

void detail::sha1_compress_portable(std::uint32_t* state,
                                    const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = load_be32(block + 4 * i);
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];

  // Four unrolled 20-round quarters with a 16-word schedule ring: the
  // per-round f/k selection branches of the naive loop cost ~15% of the
  // whole compression once everything else is streamlined.
  const auto mix = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t tmp = std::rotl(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = std::rotl(b, 30);
    b = a;
    a = tmp;
  };
  const auto sched = [&](int i) {
    const std::uint32_t x = std::rotl(
        w[(i - 3) & 15] ^ w[(i - 8) & 15] ^ w[(i - 14) & 15] ^ w[i & 15], 1);
    w[i & 15] = x;
    return x;
  };

  int i = 0;
  for (; i < 16; ++i) {
    mix((b & c) | (~b & d), 0x5a827999u, w[i]);
  }
  for (; i < 20; ++i) {
    mix((b & c) | (~b & d), 0x5a827999u, sched(i));
  }
  for (; i < 40; ++i) {
    mix(b ^ c ^ d, 0x6ed9eba1u, sched(i));
  }
  for (; i < 60; ++i) {
    mix((b & c) | (b & d) | (c & d), 0x8f1bbcdcu, sched(i));
  }
  for (; i < 80; ++i) {
    mix(b ^ c ^ d, 0xca62c1d6u, sched(i));
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

}  // namespace ratt::crypto
