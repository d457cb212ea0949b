// FIPS 180-4 test vectors and incremental-update properties for SHA-1 and
// SHA-256.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/sha1.hpp"
#include "ratt/crypto/sha256.hpp"

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

}  // namespace
}  // namespace ratt::crypto
