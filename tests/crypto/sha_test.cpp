// FIPS 180-4 test vectors and incremental-update properties for SHA-1 and
// SHA-256, plus the compression kernels run directly: the portable
// kernels on a known answer (on SHA-NI hosts dispatch never reaches
// them) and portable vs SHA-NI on random chaining states and blocks.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/sha1.hpp"
#include "ratt/crypto/sha256.hpp"
#include "ratt/crypto/sha_shani.hpp"

namespace ratt::crypto {
namespace {

std::string sha1_hex(ByteView data) {
  const auto d = Sha1::hash(data);
  return to_hex(ByteView(d.data(), d.size()));
}

std::string sha256_hex(ByteView data) {
  const auto d = Sha256::hash(data);
  return to_hex(ByteView(d.data(), d.size()));
}

TEST(Sha1, EmptyInput) {
  EXPECT_EQ(sha1_hex({}), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(sha1_hex(from_string("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(sha1_hex(from_string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  const Bytes data(1000000, 'a');
  EXPECT_EQ(sha1_hex(data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, ExactBlockBoundary) {
  // 64-byte input exercises the padding-into-new-block path.
  const Bytes data(64, 'x');
  Sha1 h;
  h.update(data);
  const auto one_shot = Sha1::hash(data);
  EXPECT_EQ(h.finish(), one_shot);
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const Bytes data = from_string("The quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha1 h;
    h.update(ByteView(data).subspan(0, split));
    h.update(ByteView(data).subspan(split));
    EXPECT_EQ(h.finish(), Sha1::hash(data)) << "split=" << split;
  }
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update(from_string("garbage"));
  (void)h.finish();
  h.reset();
  h.update(from_string("abc"));
  const auto d = h.finish();
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(sha256_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256_hex(from_string("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256_hex(from_string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  const Bytes data(1000000, 'a');
  EXPECT_EQ(sha256_hex(data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = from_string(
      "a string that is longer than one 64-byte compression block so the "
      "buffered path is exercised too");
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.update(ByteView(data).subspan(0, split));
    h.update(ByteView(data).subspan(split));
    EXPECT_EQ(h.finish(), Sha256::hash(data)) << "split=" << split;
  }
}

// An empty ByteView (null data()) fed while bytes sit in the block buffer
// must be a no-op — and must never reach memcpy with a null source, which
// UBSan rejects even at length zero.
TEST(Sha1, EmptyViewMidStream) {
  Sha1 h;
  h.update(from_string("ab"));
  h.update(ByteView{});
  h.update(from_string("c"));
  h.update(ByteView{});
  EXPECT_EQ(h.finish(), Sha1::hash(from_string("abc")));
}

TEST(Sha256, EmptyViewMidStream) {
  Sha256 h;
  h.update(from_string("ab"));
  h.update(ByteView{});
  h.update(from_string("c"));
  h.update(ByteView{});
  EXPECT_EQ(h.finish(), Sha256::hash(from_string("abc")));
}

// Padding edge cases: lengths around the 56-byte threshold where the
// length field no longer fits the current block.
class ShaPaddingEdge : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShaPaddingEdge, DigestStableUnderChunking) {
  const std::size_t len = GetParam();
  Bytes data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  // Byte-at-a-time must equal one-shot for both hashes.
  Sha1 h1;
  Sha256 h2;
  for (std::uint8_t b : data) {
    h1.update(ByteView(&b, 1));
    h2.update(ByteView(&b, 1));
  }
  EXPECT_EQ(h1.finish(), Sha1::hash(data));
  EXPECT_EQ(h2.finish(), Sha256::hash(data));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, ShaPaddingEdge,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65,
                                           119, 120, 127, 128, 129));

TEST(Sha1, ResumeFromMidstateMatchesStraightHash) {
  const Bytes prefix(2 * Sha1::kBlockSize, 0x36);
  const Bytes rest = from_string("continues after the midstate");
  Sha1 pre;
  pre.update(ByteView(prefix));
  Sha1 resumed(pre.midstate());
  resumed.update(ByteView(rest));
  Sha1 straight;
  straight.update(ByteView(prefix));
  straight.update(ByteView(rest));
  EXPECT_EQ(resumed.finish(), straight.finish());
}

TEST(Sha1, ResumeRejectsUnalignedMidstate) {
  Sha1::Midstate mid = Sha1().midstate();
  mid.total_len = 5;
  EXPECT_THROW(Sha1{mid}, std::invalid_argument);
}

TEST(Sha256, ResumeFromMidstateMatchesStraightHash) {
  // Two blocks absorbed by hand through compress(), then resumed.
  const Bytes prefix(2 * Sha256::kBlockSize, 0x5c);
  const Bytes rest = from_string("continues after the midstate");
  Sha256::State state = Sha256::kInitState;
  Sha256::compress(state, prefix.data());
  Sha256::compress(state, prefix.data() + Sha256::kBlockSize);
  Sha256 resumed(Sha256::Midstate{state, prefix.size()});
  resumed.update(ByteView(rest));
  Sha256 straight;
  straight.update(ByteView(prefix));
  straight.update(ByteView(rest));
  EXPECT_EQ(resumed.finish(), straight.finish());
}

TEST(Sha256, ResumeRejectsUnalignedMidstate) {
  EXPECT_THROW(Sha256(Sha256::Midstate{Sha256::kInitState, 70}),
               std::invalid_argument);
}

/// The FIPS 180-4 "abc" message, padded to one block.
std::array<std::uint8_t, 64> padded_abc() {
  std::array<std::uint8_t, 64> block{};
  block[0] = 'a';
  block[1] = 'b';
  block[2] = 'c';
  block[3] = 0x80;
  block[63] = 24;  // bit length
  return block;
}

TEST(ShaCompress, PortableKernelsMatchFipsAbc) {
  const auto block = padded_abc();
  std::uint32_t h1[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u,
                         0xc3d2e1f0u};
  detail::sha1_compress_portable(h1, block.data());
  const std::uint32_t want1[5] = {0xa9993e36u, 0x4706816au, 0xba3e2571u,
                                  0x7850c26cu, 0x9cd0d89du};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(h1[i], want1[i]) << "sha1 word " << i;

  std::uint32_t h256[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                           0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                           0x1f83d9abu, 0x5be0cd19u};
  detail::sha256_compress_portable(h256, block.data());
  const std::uint32_t want256[8] = {0xba7816bfu, 0x8f01cfeau, 0x414140deu,
                                    0x5dae2223u, 0xb00361a3u, 0x96177a9cu,
                                    0xb410ff61u, 0xf20015adu};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(h256[i], want256[i]) << "sha256 word " << i;
  }
}

TEST(ShaCompress, PortableMatchesNiOnRandomBlocks) {
  if (!detail::sha_ni_supported()) {
    GTEST_SKIP() << "SHA-NI kernels not available on this CPU/build";
  }
  // Random chaining states and blocks, each kernel pair fed the same
  // input; the states are chained so a mismatch anywhere propagates.
  HmacDrbg drbg(from_string("portable-vs-ni"));
  std::uint32_t a1[5], b1[5], a256[8], b256[8];
  const Bytes init = drbg.generate(sizeof(a1) + sizeof(a256));
  for (int i = 0; i < 5; ++i) a1[i] = b1[i] = load_be32(init.data() + 4 * i);
  for (int i = 0; i < 8; ++i) {
    a256[i] = b256[i] = load_be32(init.data() + 20 + 4 * i);
  }
  for (int round = 0; round < 512; ++round) {
    const Bytes block = drbg.generate(64);
    detail::sha1_compress_portable(a1, block.data());
    detail::sha1_compress_ni(b1, block.data());
    detail::sha256_compress_portable(a256, block.data());
    detail::sha256_compress_ni(b256, block.data());
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(a1[i], b1[i]) << "sha1 round " << round << " word " << i;
    }
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(a256[i], b256[i]) << "sha256 round " << round << " word " << i;
    }
  }
}

/// FIPS 180-4 padding written out literally (0x80, zeros to 56 mod 64,
/// the 64-bit big-endian bit length) and run through `compress` block by
/// block from `iv`.
template <std::size_t W>
std::array<std::uint8_t, 4 * W> literal_digest(
    ByteView data, const std::array<std::uint32_t, W>& iv,
    void (*compress)(std::uint32_t*, const std::uint8_t*)) {
  Bytes m(data.begin(), data.end());
  m.push_back(0x80);
  while (m.size() % 64 != 56) m.push_back(0x00);
  std::uint8_t bits[8];
  store_be64(bits, data.size() * 8);
  m.insert(m.end(), bits, bits + 8);
  std::array<std::uint32_t, W> h = iv;
  for (std::size_t off = 0; off < m.size(); off += 64) {
    compress(h.data(), m.data() + off);
  }
  std::array<std::uint8_t, 4 * W> out{};
  for (std::size_t i = 0; i < W; ++i) store_be32(out.data() + 4 * i, h[i]);
  return out;
}

TEST(ShaCompress, EveryLengthTo200MatchesLiteralPadding) {
  // finish() pads in place; for every length from 0 to 200 bytes its
  // one-shot digest must equal the digest fed one byte at a time and the
  // literal padding on the portable compressor — and on the NI one when
  // the CPU has it (dispatch only ever runs one of them here).
  const std::array<std::uint32_t, 5> iv1 = {
      0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};
  const std::array<std::uint32_t, 8> iv256 = {
      0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
      0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  HmacDrbg drbg(from_string("sha-every-length"));
  const Bytes pool = drbg.generate(200);
  for (std::size_t len = 0; len <= 200; ++len) {
    SCOPED_TRACE(len);
    const ByteView data(pool.data(), len);
    Sha1 b1;
    Sha256 b256;
    for (const std::uint8_t b : data) {
      b1.update(ByteView(&b, 1));
      b256.update(ByteView(&b, 1));
    }
    const Sha1::Digest one1 = Sha1::hash(data);
    const Sha256::Digest one256 = Sha256::hash(data);
    EXPECT_EQ(b1.finish(), one1);
    EXPECT_EQ(b256.finish(), one256);
    EXPECT_EQ(literal_digest(data, iv1, detail::sha1_compress_portable), one1);
    EXPECT_EQ(literal_digest(data, iv256, detail::sha256_compress_portable),
              one256);
    if (detail::sha_ni_supported()) {
      EXPECT_EQ(literal_digest(data, iv1, detail::sha1_compress_ni), one1);
      EXPECT_EQ(literal_digest(data, iv256, detail::sha256_compress_ni),
                one256);
    }
  }
}

}  // namespace
}  // namespace ratt::crypto
