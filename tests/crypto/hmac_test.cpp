// HMAC-SHA1 vectors from RFC 2202 and HMAC-SHA256 vectors from RFC 4231.
#include <gtest/gtest.h>

#include <string>

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/hmac.hpp"
#include "ratt/crypto/sha1.hpp"
#include "ratt/crypto/sha256.hpp"

namespace ratt::crypto {
namespace {

std::string hmac_sha1_hex(ByteView key, ByteView data) {
  const auto d = Hmac<Sha1>::mac(key, data);
  return to_hex(ByteView(d.data(), d.size()));
}

std::string hmac_sha256_hex(ByteView key, ByteView data) {
  const auto d = Hmac<Sha256>::mac(key, data);
  return to_hex(ByteView(d.data(), d.size()));
}

struct HmacVector {
  std::string name;
  Bytes key;
  Bytes data;
  std::string expected;
};

// Without a printer gtest dumps the struct's raw bytes, heap pointers
// included, and that dump becomes part of the discovered ctest name, which
// then changes from build to build.
void PrintTo(const HmacVector& v, std::ostream* os) { *os << v.name; }

class HmacSha1Rfc2202 : public ::testing::TestWithParam<HmacVector> {};

TEST_P(HmacSha1Rfc2202, MatchesVector) {
  const auto& v = GetParam();
  EXPECT_EQ(hmac_sha1_hex(v.key, v.data), v.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, HmacSha1Rfc2202,
    ::testing::Values(
        HmacVector{"case1", Bytes(20, 0x0b), from_string("Hi There"),
                   "b617318655057264e28bc0b6fb378c8ef146be00"},
        HmacVector{"case2", from_string("Jefe"),
                   from_string("what do ya want for nothing?"),
                   "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
        HmacVector{"case3", Bytes(20, 0xaa), Bytes(50, 0xdd),
                   "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
        HmacVector{"case4",
                   from_hex("0102030405060708090a0b0c0d0e0f10111213141516171"
                            "819"),
                   Bytes(50, 0xcd),
                   "4c9007f4026250c6bc8414f9bf50c86c2d7235da"},
        HmacVector{"case6", Bytes(80, 0xaa),
                   from_string("Test Using Larger Than Block-Size Key - Hash "
                               "Key First"),
                   "aa4ae5e15272d00e95705637ce8a3b55ed402112"},
        HmacVector{"case7", Bytes(80, 0xaa),
                   from_string("Test Using Larger Than Block-Size Key and "
                               "Larger Than One Block-Size Data"),
                   "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"}),
    [](const auto& info) { return info.param.name; });

TEST(HmacSha256, Rfc4231Case1) {
  EXPECT_EQ(hmac_sha256_hex(Bytes(20, 0x0b), from_string("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(hmac_sha256_hex(from_string("Jefe"),
                            from_string("what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231LargeKey) {
  // Case 6: 131-byte key forces the hash-the-key path.
  EXPECT_EQ(hmac_sha256_hex(Bytes(131, 0xaa),
                            from_string("Test Using Larger Than Block-Size "
                                        "Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, IncrementalMatchesOneShot) {
  const Bytes key = from_string("test key");
  const Bytes data = from_string("a message split across updates");
  Hmac<Sha1> h(key);
  h.update(ByteView(data).subspan(0, 10));
  h.update(ByteView(data).subspan(10));
  EXPECT_EQ(h.finish(), Hmac<Sha1>::mac(key, data));
}

TEST(Hmac, ResetAllowsReuse) {
  const Bytes key = from_string("test key");
  Hmac<Sha1> h(key);
  h.update(from_string("first"));
  (void)h.finish();
  h.reset();
  h.update(from_string("second"));
  EXPECT_EQ(h.finish(), Hmac<Sha1>::mac(key, from_string("second")));
}

TEST(Hmac, DistinctKeysDistinctTags) {
  const Bytes data = from_string("message");
  const auto t1 = Hmac<Sha1>::mac(from_string("key1"), data);
  const auto t2 = Hmac<Sha1>::mac(from_string("key2"), data);
  EXPECT_NE(t1, t2);
}

TEST(Hmac, KeyExactlyBlockSize) {
  // A 64-byte key is used as-is (no hashing, no padding beyond zero-fill).
  const Bytes key(64, 0x42);
  const Bytes data = from_string("payload");
  // Consistency: same key as view vs copy.
  EXPECT_EQ(Hmac<Sha1>::mac(key, data), Hmac<Sha1>::mac(key, data));
  // And differs from a 63-byte prefix key.
  const Bytes key63(63, 0x42);
  EXPECT_NE(Hmac<Sha1>::mac(key, data), Hmac<Sha1>::mac(key63, data));
}

}  // namespace
}  // namespace ratt::crypto
