// HMAC-DRBG determinism and distribution sanity.
#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <span>

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/hmac.hpp"
#include "ratt/crypto/sha256.hpp"

namespace ratt::crypto {
namespace {

TEST(HmacDrbg, DeterministicFromSeed) {
  HmacDrbg a(from_string("seed"));
  HmacDrbg b(from_string("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(HmacDrbg, DifferentSeedsDiverge) {
  HmacDrbg a(from_string("seed-a"));
  HmacDrbg b(from_string("seed-b"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, SequentialOutputsDiffer) {
  HmacDrbg d(from_string("seed"));
  const Bytes first = d.generate(32);
  const Bytes second = d.generate(32);
  EXPECT_NE(first, second);
}

TEST(HmacDrbg, ChunkingChangesStream) {
  // NIST HMAC-DRBG reseeds internal state after every generate() call, so
  // generate(16)+generate(16) differs from generate(32). Both must still be
  // deterministic.
  HmacDrbg a(from_string("seed"));
  HmacDrbg b(from_string("seed"));
  Bytes chunked = a.generate(16);
  append(chunked, a.generate(16));
  const Bytes whole = b.generate(32);
  EXPECT_EQ(chunked.size(), whole.size());
  EXPECT_NE(chunked, whole);
}

TEST(HmacDrbg, ReseedChangesOutput) {
  HmacDrbg a(from_string("seed"));
  HmacDrbg b(from_string("seed"));
  b.reseed(from_string("extra entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, GenerateZeroBytes) {
  HmacDrbg d(from_string("seed"));
  EXPECT_TRUE(d.generate(0).empty());
}

TEST(HmacDrbg, GenerateLargeRequest) {
  HmacDrbg d(from_string("seed"));
  const Bytes big = d.generate(1000);
  EXPECT_EQ(big.size(), 1000u);
  // Non-degenerate: not all identical bytes.
  EXPECT_NE(big, Bytes(1000, big[0]));
}

TEST(HmacDrbg, UniformStaysInBound) {
  HmacDrbg d(from_string("seed"));
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(d.uniform(17), 17u);
  }
}

TEST(HmacDrbg, UniformBoundOne) {
  HmacDrbg d(from_string("seed"));
  EXPECT_EQ(d.uniform(1), 0u);
}

TEST(HmacDrbg, UniformRejectsZeroBound) {
  HmacDrbg d(from_string("seed"));
  EXPECT_THROW(d.uniform(0), std::invalid_argument);
}

TEST(HmacDrbg, GenerateIntoMatchesGenerate) {
  // generate_into(span) writes exactly span.size() bytes, the ones
  // generate(n) returns, and leaves the next draw where generate would.
  HmacDrbg a(from_string("into-seed"));
  HmacDrbg b(from_string("into-seed"));
  for (std::size_t n = 1; n <= 100; ++n) {
    SCOPED_TRACE(n);
    Bytes buf(n + 1, 0xee);
    b.generate_into(std::span<std::uint8_t>(buf.data(), n));
    EXPECT_EQ(buf[n], 0xee) << "wrote past the span";
    buf.pop_back();
    EXPECT_EQ(a.generate(n), buf);
  }
  EXPECT_EQ(a.generate(16), b.generate(16));
}

TEST(HmacDrbg, GenerateIntoInterleavesWithGenerateAndUniform) {
  // The same stream of requests, served by generate on one side and by
  // generate_into on the other, with uniform draws and a reseed mixed
  // in: every output and the state after it agree.
  HmacDrbg a(from_string("interleave-seed"));
  HmacDrbg b(from_string("interleave-seed"));
  for (std::size_t i = 0; i < 40; ++i) {
    SCOPED_TRACE(i);
    const std::size_t n = 1 + (i * 37) % 70;
    if (i % 2 == 0) {
      Bytes buf(n);
      b.generate_into(buf);
      EXPECT_EQ(a.generate(n), buf);
    } else {
      Bytes buf(n);
      a.generate_into(buf);
      EXPECT_EQ(buf, b.generate(n));
    }
    EXPECT_EQ(a.uniform(1000 + i), b.uniform(1000 + i));
    if (i == 20) {
      a.reseed(from_string("mid"));
      b.reseed(from_string("mid"));
    }
  }
  std::uint8_t x[33];
  std::uint8_t y[33];
  a.generate_into(x);
  b.generate_into(y);
  EXPECT_EQ(Bytes(x, x + 33), Bytes(y, y + 33));
}

TEST(HmacDrbg, UniformCoversRange) {
  HmacDrbg d(from_string("seed"));
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) {
    seen.insert(d.uniform(8));
  }
  EXPECT_EQ(seen.size(), 8u);  // all 8 values hit in 400 draws
}

TEST(HmacDrbg, PowerOfTwoBoundIsUnbiased) {
  // For a power-of-two bound the mask path accepts every draw; check the
  // histogram is not wildly skewed.
  HmacDrbg d(from_string("histogram-seed"));
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    ++counts[d.uniform(4)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 350);
    EXPECT_LT(c, 650);
  }
}

// SP 800-90A HMAC_DRBG (10.1.2) written out step by step over the
// generic Hmac<Sha256>: the oracle HmacDrbg's midstate shortcuts must
// reproduce bit for bit.
class LiteralHmacDrbg {
 public:
  explicit LiteralHmacDrbg(ByteView seed)
      : key_(Sha256::kDigestSize, 0x00), value_(Sha256::kDigestSize, 0x01) {
    update(seed);
  }

  Bytes generate(std::size_t n) {
    Bytes temp;
    while (temp.size() < n) {
      value_ = hmac(value_);
      append(temp, value_);
    }
    temp.resize(n);
    update({});
    return temp;
  }

  void reseed(ByteView seed) { update(seed); }

  std::uint64_t uniform(std::uint64_t bound) {
    const int bits = 64 - std::countl_zero(bound - 1);
    const std::uint64_t mask =
        bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    for (;;) {
      const std::uint64_t v = load_be64(generate(8).data()) & mask;
      if (v < bound) return v;
    }
  }

 private:
  Bytes hmac(ByteView data) const {
    const auto d = Hmac<Sha256>::mac(key_, data);
    return Bytes(d.begin(), d.end());
  }

  // HMAC_DRBG_Update (10.1.2.2).
  void update(ByteView provided) {
    for (const std::uint8_t sep : {0x00, 0x01}) {
      Bytes msg = value_;
      msg.push_back(sep);
      append(msg, provided);
      key_ = hmac(msg);
      value_ = hmac(value_);
      if (provided.empty()) return;
    }
  }

  Bytes key_;
  Bytes value_;
};

TEST(HmacDrbg, MatchesLiteralSp80090aOverHmacSha256) {
  // Seeds of 0-95 bytes straddle the one-block (<= 22 B of provided
  // data) and streamed update paths; every generate size crosses a
  // 32-byte output boundary or the image-sized 16 640 bytes.
  HmacDrbg seeds(from_string("drbg-literal-oracle"));
  for (std::size_t i = 0; i < 96; ++i) {
    SCOPED_TRACE(i);
    const Bytes seed = seeds.generate(i);
    HmacDrbg fast(seed);
    LiteralHmacDrbg slow(seed);
    for (const std::size_t n : {0u, 1u, 8u, 31u, 32u, 33u, 256u, 16640u}) {
      if (n == 16640u && i % 8 != 0) continue;
      ASSERT_EQ(fast.generate(n), slow.generate(n)) << "generate " << n;
    }
    Bytes into(65);
    fast.generate_into(into);
    ASSERT_EQ(into, slow.generate(65)) << "generate_into";
    const Bytes extra = seeds.generate((i * 7) % 80);
    fast.reseed(extra);
    slow.reseed(extra);
    ASSERT_EQ(fast.generate(40), slow.generate(40)) << "after reseed";
    for (const std::uint64_t bound :
         {std::uint64_t{1}, std::uint64_t{17}, std::uint64_t{1} << 40,
          ~std::uint64_t{0}}) {
      ASSERT_EQ(fast.uniform(bound), slow.uniform(bound)) << bound;
    }
  }
}

}  // namespace
}  // namespace ratt::crypto
