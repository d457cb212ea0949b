// Multi-buffer SHA-1 / MacBatch differential suite.
//
// Two layers of evidence that the transposed-lane engine is
// byte-identical to the scalar oracle:
//  1. NIST CAVP SHA-1 known-answer vectors (SHA1ShortMsg.rsp /
//     SHA1LongMsg.rsp selections) run through every lane of every
//     width — a lane that mangles scheduling or padding fails the
//     published digest, not just self-consistency.
//     Each lane kernel (portable and AVX2, 4- and 8-wide) also runs on
//     the vectors directly: on SHA-NI hosts hash_many never dispatches
//     to them, so this is their only tier-1 coverage there.
//  2. An 8-seed lockstep fuzz sweep: random messages with lengths
//     straddling the 64-byte block boundary and the 55/56-byte padding
//     split, ragged batches (every lane a different length), two-part
//     head||tail splits at random offsets, and HMAC batches under
//     shared and per-lane keys — each compared against Sha1 / Hmac<Sha1>.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/hmac.hpp"
#include "ratt/crypto/mac_batch.hpp"
#include "ratt/crypto/sha1.hpp"
#include "ratt/crypto/sha1xn.hpp"
#include "ratt/crypto/sha1xn_detail.hpp"

namespace ratt::crypto {
namespace {

struct Kat {
  const char* msg_hex;
  const char* digest_hex;
};

// NIST CAVP SHA1ShortMsg.rsp / SHA1LongMsg.rsp selections (byte-aligned
// lengths 0..163), plus the FIPS 180-4 appendix vectors.
constexpr Kat kCavp[] = {
    {"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
    {"36", "c1dfd96eea8cc2b62785275bca38ac261256e278"},
    {"195a", "0a1c2d555bbe431ad6288af5a54f93e0449c9232"},
    {"df4bd2", "bf36ed5d74727dfd5d7854ec6b1d49468d8ee8aa"},
    {"549e959e", "b78bae6d14338ffccfd5d5b5674a275f6ef9c717"},
    {"f7fb1be205", "60b7d5bb560a1acf6fa45721bd0abb419a841a89"},
    {"c0e5abeaea63", "a6d338459780c08363090fd8fc7d28dc80e8e01f"},
    {"63bfc1ed7f78ab", "860328d80509500c1783169ebf0ba0c4b94da5e5"},
    {"7e3d7b3eada98866", "24a2c34b976305277ce58c2f42d5092031572520"},
    {"9e61e55d9ed37b1c20", "411ccee1f6e3677df12698411eb09d3ff580af97"},
    {"9777cf90dd7c7e863506", "05c915b5ed4e4c4afffc202961f3174371e90b5c"},
    {"4eb08c9e683c94bea00dfa", "af320b42d7785ca6c8dd220463be23a2d2cb5afc"},
    {"0938f2e2ebb64f8af8bbfc91", "9f4e66b6ceea40dcf4b9166c28f1c88474141da9"},
    {"74c9996d14e87d3e6cbea7029d", "e6c4363c0852951991057f40de27ec0890466f01"},
    {"51dca5c0f8e5d49596f32d3eb874", "046a7b396c01379a684a894558779b07d8c7da20"},
    {"3a36ea49684820a2adc7fc4175ba78", "d58a262ee7b6577c07228e71ae9b3e04c8abcda9"},
    {"3552694cdf663fd94b224747ac406aaf",
     "a150de927454202d94e656de4c7c0ca691de955d"},
    {"f216a1cbde2446b1edf41e93481d33e2ed",
     "35a4b39fef560e7ea61246676e1b7e13d587be30"},
    {"a3cf714bf112647e727e8cfd46499acd35a6",
     "7ce69b1acdce52ea7dbd382531fa1a83df13cae7"},
    {"148de640f3c11591a6f8c5c48632c5fb79d3b7",
     "b47be2c64124fa9a124a887af9551a74354ca411"},
    {"63a3cc83fd1ec1b6680e9974a0514e1a9ecebb6a",
     "8bb8c0d815a9c68a1d2910f39d942603d807fbcc"},
    {"875a90909a8afc92fb7070047e9d081ec92f3d08b8",
     "b486f87fb833ebf0328393128646a6f6e660fcb1"},
    {"444b25f9c9259dc217772cc4478c44b6feff62353673",
     "76159368f99dece30aadcfb9b7b41dab33688858"},
    {"487351c8a5f440e4d03386483d5fe7bb669d41adcbfdb7",
     "dbc1cb575ce6aeb9dc4ebf0f843ba8aeb1451e89"},
    {"46b061ef132b87f6d3b0ee2462f67d910977da20aed13705",
     "d7a98289679005eb930ab75efd8f650f991ee952"},
    {"3842b6137bb9d27f3ca5bafe5bbb62858344fe4ba5c41589a5",
     "fda26fa9b4874ab701ed0bb64d134f89b9c4cc50"},
    {"44d91d3d465a4111462ba0c7ec223da6735f4f5200453cf132c3",
     "c2ff7ccde143c8f0601f6974b1903eb8d5741b6e"},
    {"cce73f2eabcb52f785d5a6df63c0a105f34a91ca237fe534ee399d",
     "643c9dc20a929608f6caa9709d843ca6fa7a76f4"},
    {"664e6e7946839203037a65a12174b244de8cbc6ec3f578967a84f9ce",
     "509ef787343d5b5a269229b961b96241864a3d74"},
    {"9597f714b2e45e3399a7f02aec44921bd78be0fefee0c5e9b499488f6e",
     "b61ce538f1a1e6c90432b233d7af5b6524ebfbe3"},
    {"75c5ad1f3cbd22e8a95fc3b089526788fb4ebceed3e7d4443da6e081a35e",
     "5b7b94076b2fc20d6adb82479e6b28d07c902b75"},
    {"dd245bffe6a638806667768360a95d0574e1a0bd0d18329fdb915ca484ac0d",
     "6066db99fc358952cf7fb0ec4d89cb0158ed91d7"},
    {"0321794b739418c24e7c2e565274791c4be749752ad234ed56cb0a6347430c6b",
     "b89962c94d60f6a332fd60f6f07d4f032a586b76"},
    {"4c3dcf95c2f0b5258c651fcd1d51bd10425d6203067d0748d37d1340d9ddda7db3",
     "17bda899c13d35413d2546212bcd8a93ceb0657b"},
    {"b8d12582d25b45290a6e1bb95da429befcfdbf5b4dd41cdf3311d6988fa17cec0723",
     "badcdd53fdc144b8bf2cc1e64d10f676eebe66ed"},
    {"6fda97527a662552be15efaeba32a3aea4ed449abb5c1ed8d9bfff544708a425d69b72",
     "01b4646180f1f6d2e06bbe22c20e50030322673a"},
    {"09fa2792acbb2417e8ed269041cc03c77006466e6e7ae002cf3f1af551e8ce0bb506d705",
     "10016dc3a2719f9034ffcc689426d28292c42fc9"},
    {"5efa2987da0baf0a54d8d728792bcfa707a15798dc66743754406914d1cfe3709b1374eaeb"
     "2f1545f9d9531b2b3ab9bf8437bfef57e73ac94803dd754cc8c71f",
     "9b3904419056e79292898a33b224c1dfac6d6c56"},
    {"c5a22dd9eda35b6256c8f7c30b5e01bac34d01056a2f6f5d3c5cac6c07ba06fe36af07f354"
     "f857ebf9870d9d69e26e971af26232bd1acc27cf17f02d322d7735ebe28344dcfd5e90b979"
     "771faf87bf1b1b92b90cdb43b4ff42af6d2bd159d7a2565bf0ff9201cafda028a2d3462a53"
     "84ffc88f62ca77e8f5b0d716ad8f9e04ea4d17e86c4b7b6a83c93021ef16f2d0d33dbfd060"
     "0754c847e9bd",
     "5c0b87ab8794bd5259c3018562f24025b98d28b4"},
};

std::array<std::uint8_t, Sha1::kDigestSize> scalar_digest(ByteView msg) {
  Sha1 h;
  h.update(msg);
  const auto d = h.finish();
  std::array<std::uint8_t, Sha1::kDigestSize> out{};
  std::copy(d.begin(), d.end(), out.begin());
  return out;
}

using LaneKernel = void (*)(const Sha1::Midstate*, const Sha1xN::LaneMsg*,
                            std::size_t,
                            std::uint8_t (*)[Sha1::kDigestSize]);

/// Runs `kernel` on every CAVP vector in every lane position of every
/// batch size 1..width (fresh IV), then once more from a one-block
/// midstate with the vector split head||tail, against the Sha1 oracle.
void check_lane_kernel(LaneKernel kernel, std::size_t width,
                       const char* name) {
  std::vector<Bytes> msgs;
  std::vector<std::string> want;
  for (const auto& kat : kCavp) {
    msgs.push_back(from_hex(kat.msg_hex));
    want.emplace_back(kat.digest_hex);
  }
  const std::size_t v = msgs.size();
  for (std::size_t n = 1; n <= width; ++n) {
    for (std::size_t start = 0; start < v; ++start) {
      Sha1xN::LaneMsg lanes[Sha1xN::kMaxLanes];
      std::uint8_t got[Sha1xN::kMaxLanes][Sha1::kDigestSize];
      for (std::size_t j = 0; j < n; ++j) {
        lanes[j] = Sha1xN::LaneMsg{ByteView(msgs[(start + j) % v]), {}};
      }
      kernel(nullptr, lanes, n, got);
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(to_hex(ByteView(got[j], Sha1::kDigestSize)),
                  want[(start + j) % v])
            << name << " n=" << n << " start=" << start << " lane=" << j;
      }
    }
  }
  const Bytes prefix(Sha1::kBlockSize, 0x5c);
  Sha1 pre;
  pre.update(ByteView(prefix));
  Sha1::Midstate mids[Sha1xN::kMaxLanes];
  Sha1xN::LaneMsg lanes[Sha1xN::kMaxLanes];
  std::uint8_t got[Sha1xN::kMaxLanes][Sha1::kDigestSize];
  for (std::size_t j = 0; j < width; ++j) {
    const Bytes& m = msgs[v - 1 - j];
    const std::size_t split = m.size() / (j + 2);
    mids[j] = pre.midstate();
    lanes[j] = Sha1xN::LaneMsg{ByteView(m.data(), split),
                               ByteView(m.data() + split, m.size() - split)};
  }
  kernel(mids, lanes, width, got);
  for (std::size_t j = 0; j < width; ++j) {
    Sha1 oracle;
    oracle.update(ByteView(prefix));
    oracle.update(ByteView(msgs[v - 1 - j]));
    const auto d = oracle.finish();
    EXPECT_EQ(to_hex(ByteView(got[j], Sha1::kDigestSize)),
              to_hex(ByteView(d.data(), d.size())))
        << name << " midstate lane=" << j;
  }
}

TEST(Sha1xN, CavpKnownAnswersEveryLanePosition) {
  // Through the dispatcher: whichever kernel this host selects.
  check_lane_kernel(static_cast<LaneKernel>(&Sha1xN::hash_many),
                    Sha1xN::kMaxLanes, "hash_many");
}

TEST(Sha1xN, PortableLaneKernelsMatchCavp) {
  check_lane_kernel(detail::hash_lanes4_portable, 4, "portable4");
  check_lane_kernel(detail::hash_lanes8_portable, 8, "portable8");
}

TEST(Sha1xN, Avx2LaneKernelsMatchCavp) {
  if (!detail::sha1xn_avx2_supported()) {
    GTEST_SKIP() << "AVX2 lane kernel not available on this CPU/build";
  }
  check_lane_kernel(detail::hash_lanes4_avx2, 4, "avx2_4");
  check_lane_kernel(detail::hash_lanes8_avx2, 8, "avx2_8");
}

TEST(Sha1xN, BlockBoundaryStraddleAllLengths) {
  // Every length 0..200 covers both padding shapes (len%64 < 56 and
  // >= 56) and multi-block spills; uniform batch of 8 identical lanes.
  Bytes msg;
  for (std::size_t len = 0; len <= 200; ++len) {
    msg.assign(len, static_cast<std::uint8_t>(len * 37 + 11));
    const auto want = scalar_digest(ByteView(msg));
    ByteView views[Sha1xN::kMaxLanes];
    std::uint8_t got[Sha1xN::kMaxLanes][Sha1::kDigestSize];
    for (std::size_t j = 0; j < Sha1xN::kMaxLanes; ++j) {
      views[j] = ByteView(msg);
    }
    Sha1xN::hash_many(views, Sha1xN::kMaxLanes, got);
    for (std::size_t j = 0; j < Sha1xN::kMaxLanes; ++j) {
      EXPECT_EQ(to_hex(ByteView(got[j], Sha1::kDigestSize)),
                to_hex(ByteView(want.data(), want.size())))
          << "len=" << len << " lane=" << j;
    }
  }
}

TEST(Sha1xN, LockstepFuzzRaggedBatches) {
  // 8 seeds x 64 batches of random-length messages with random
  // head||tail split points, every batch size 1..8 — all compared
  // against the scalar oracle.
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    Bytes seed_bytes = from_string("sha1xn-fuzz");
    seed_bytes.resize(seed_bytes.size() + 4);
    store_le32(seed_bytes.data() + seed_bytes.size() - 4, seed);
    HmacDrbg drbg{ByteView(seed_bytes)};
    for (int iter = 0; iter < 64; ++iter) {
      const Bytes r = drbg.generate(4);
      const std::size_t n = 1 + r[0] % Sha1xN::kMaxLanes;
      std::vector<Bytes> datas(n);
      std::vector<Sha1xN::LaneMsg> lanes(n);
      std::vector<std::string> want(n);
      for (std::size_t j = 0; j < n; ++j) {
        const Bytes lr = drbg.generate(4);
        // Lengths cluster around block boundaries: 0..255, biased to
        // 48..80 half the time.
        std::size_t len = lr[0];
        if (lr[1] & 1) {
          len = 48 + lr[0] % 33;
        }
        datas[j] = drbg.generate(len == 0 ? 1 : len);
        datas[j].resize(len);
        const std::size_t split = len == 0 ? 0 : lr[2] % (len + 1);
        lanes[j] = Sha1xN::LaneMsg{
            ByteView(datas[j].data(), split),
            ByteView(datas[j].data() + split, len - split)};
        const auto w = scalar_digest(ByteView(datas[j]));
        want[j] = to_hex(ByteView(w.data(), w.size()));
      }
      std::uint8_t got[Sha1xN::kMaxLanes][Sha1::kDigestSize];
      Sha1xN::hash_many(nullptr, lanes.data(), n, got);
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(to_hex(ByteView(got[j], Sha1::kDigestSize)), want[j])
            << "seed=" << seed << " iter=" << iter << " lane=" << j;
      }
    }
  }
}

TEST(Sha1xN, MidstateContinuationMatchesScalar) {
  // Lanes resume from distinct block-aligned midstates (1, 2, 4 blocks
  // absorbed) and must match a scalar hash over prefix || message.
  const Bytes prefix = from_string(
      "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  ASSERT_EQ(prefix.size(), 64u);
  for (std::size_t blocks : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    Bytes full;
    for (std::size_t b = 0; b < blocks; ++b) {
      full.insert(full.end(), prefix.begin(), prefix.end());
    }
    Sha1 pre;
    pre.update(ByteView(full));
    const Sha1::Midstate mid = pre.midstate();

    Sha1::Midstate mids[Sha1xN::kMaxLanes];
    Sha1xN::LaneMsg lanes[Sha1xN::kMaxLanes];
    std::vector<Bytes> tails(Sha1xN::kMaxLanes);
    std::uint8_t got[Sha1xN::kMaxLanes][Sha1::kDigestSize];
    for (std::size_t j = 0; j < Sha1xN::kMaxLanes; ++j) {
      mids[j] = mid;
      tails[j].assign(17 * j + 3, static_cast<std::uint8_t>(j + 1));
      lanes[j] = Sha1xN::LaneMsg{ByteView(tails[j]), ByteView()};
    }
    Sha1xN::hash_many(mids, lanes, Sha1xN::kMaxLanes, got);
    for (std::size_t j = 0; j < Sha1xN::kMaxLanes; ++j) {
      Sha1 oracle;
      oracle.update(ByteView(full));
      oracle.update(ByteView(tails[j]));
      const auto want = oracle.finish();
      EXPECT_EQ(to_hex(ByteView(got[j], Sha1::kDigestSize)),
                to_hex(ByteView(want.data(), want.size())))
          << "blocks=" << blocks << " lane=" << j;
    }
  }
}

TEST(Sha1xN, MidstateRejectsPartialBlock) {
  Sha1 h;
  h.update(from_string("short"));
  EXPECT_THROW((void)h.midstate(), std::logic_error);
}

TEST(MacBatch, RfcHmacVectorsEveryLane) {
  // RFC 2202 test case 1 and 2 in every lane, shared and per-lane keys.
  const Bytes key1(20, 0x0b);
  const Bytes msg1 = from_string("Hi There");
  const char* want1 = "b617318655057264e28bc0b6fb378c8ef146be00";
  const Bytes key2 = from_string("Jefe");
  const Bytes msg2 = from_string("what do ya want for nothing?");
  const char* want2 = "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79";

  MacBatch shared{ByteView(key1)};
  MacBatch::LaneMsg lanes[MacBatch::kMaxLanes];
  std::uint8_t tags[MacBatch::kMaxLanes][MacBatch::kTagSize];
  for (std::size_t j = 0; j < MacBatch::kMaxLanes; ++j) {
    lanes[j] = MacBatch::LaneMsg{ByteView(msg1), ByteView()};
  }
  shared.compute_many(lanes, MacBatch::kMaxLanes, tags);
  for (std::size_t j = 0; j < MacBatch::kMaxLanes; ++j) {
    EXPECT_EQ(to_hex(ByteView(tags[j], MacBatch::kTagSize)), want1);
  }

  MacBatch mixed;
  for (std::size_t j = 0; j < MacBatch::kMaxLanes; ++j) {
    mixed.set_key(j, (j & 1) ? ByteView(key2) : ByteView(key1));
    lanes[j] = (j & 1) ? MacBatch::LaneMsg{ByteView(msg2), ByteView()}
                       : MacBatch::LaneMsg{ByteView(msg1), ByteView()};
  }
  mixed.compute_many(lanes, MacBatch::kMaxLanes, tags);
  for (std::size_t j = 0; j < MacBatch::kMaxLanes; ++j) {
    EXPECT_EQ(to_hex(ByteView(tags[j], MacBatch::kTagSize)),
              (j & 1) ? want2 : want1);
  }
}

TEST(MacBatch, LockstepFuzzAgainstScalarHmac) {
  // 8 seeds: random keys (incl. > 64-byte keys that trigger the key
  // hashing path), ragged two-part messages, every batch size.
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    Bytes seed_bytes = from_string("macbatch-fuzz");
    seed_bytes.resize(seed_bytes.size() + 4);
    store_le32(seed_bytes.data() + seed_bytes.size() - 4, seed);
    HmacDrbg drbg{ByteView(seed_bytes)};
    for (int iter = 0; iter < 32; ++iter) {
      const Bytes r = drbg.generate(4);
      const std::size_t n = 1 + r[0] % MacBatch::kMaxLanes;
      MacBatch batch;
      std::vector<Bytes> keys(n);
      std::vector<Bytes> heads(n);
      std::vector<Bytes> tails(n);
      std::vector<MacBatch::LaneMsg> lanes(n);
      for (std::size_t j = 0; j < n; ++j) {
        const Bytes lr = drbg.generate(4);
        const std::size_t key_len = (lr[0] & 3) == 0 ? 64 + lr[1] % 64
                                                     : 1 + lr[1] % 32;
        keys[j] = drbg.generate(key_len);
        heads[j] = drbg.generate(1 + lr[2] % 40);
        tails[j] = drbg.generate(lr[3] % 150);
        tails[j].resize(lr[3] % 150);
        batch.set_key(j, ByteView(keys[j]));
        lanes[j] = MacBatch::LaneMsg{ByteView(heads[j]), ByteView(tails[j])};
      }
      std::uint8_t tags[MacBatch::kMaxLanes][MacBatch::kTagSize];
      batch.compute_many(lanes.data(), n, tags);
      for (std::size_t j = 0; j < n; ++j) {
        Hmac<Sha1> oracle{ByteView(keys[j])};
        oracle.update(ByteView(heads[j]));
        oracle.update(ByteView(tails[j]));
        const auto want = oracle.finish();
        EXPECT_EQ(to_hex(ByteView(tags[j], MacBatch::kTagSize)),
                  to_hex(ByteView(want.data(), want.size())))
            << "seed=" << seed << " iter=" << iter << " lane=" << j;
      }
    }
  }
}

TEST(MacBatch, SupportsOnlyHmacSha1) {
  EXPECT_TRUE(MacBatch::supports(MacAlgorithm::kHmacSha1));
  EXPECT_FALSE(MacBatch::supports(MacAlgorithm::kAesCbcMac));
  EXPECT_FALSE(MacBatch::supports(MacAlgorithm::kSpeckCbcMac));
  EXPECT_FALSE(MacBatch::supports(MacAlgorithm::kAesCmac));
  EXPECT_FALSE(MacBatch::supports(MacAlgorithm::kSpeckCmac));
}

TEST(MacBatch, RejectsOversizedBatch) {
  MacBatch batch(from_string("k"));
  MacBatch::LaneMsg lanes[MacBatch::kMaxLanes + 1] = {};
  std::uint8_t tags[MacBatch::kMaxLanes + 1][MacBatch::kTagSize];
  EXPECT_THROW(batch.compute_many(lanes, MacBatch::kMaxLanes + 1, tags),
               std::invalid_argument);
}

}  // namespace
}  // namespace ratt::crypto
