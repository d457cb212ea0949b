// ECDSA known-answer tests: key pairs and signatures for fixed seeds and
// messages, pinned byte for byte. The vectors were produced by the
// original arithmetic (Fermat inverse over binary long division, separate
// scalar multiplications in verify), so they hold the specialised kernels
// to the exact same keys and signatures. "prover-vendor-key" is the
// process-wide secure-boot vendor key (src/ratt/attest/prover.cpp).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/ecdsa.hpp"

namespace ratt::crypto {
namespace {

struct KeyVector {
  const char* seed;
  const char* private_key;  // 24 bytes, big-endian hex
  const char* public_key;   // SEC1 uncompressed
};

struct SigVector {
  const char* seed;
  const char* message;
  const char* signature;  // r || s, 24 bytes each
};

const KeyVector kKeys[] = {
    {"prover-vendor-key",
     "00000000e6ce136a6a91baf4fe154536e752ff8910744a16",
     "044378bbf73f986c960d3b8d4b5dad08ccd3b0c0d5f016ad"
     "5a28290e7b0851995662951d4d5bd81921"},
    {"ecdsa-test-seed",
     "00000000d30d803b09796823b4ff19186630f076ed6edd99",
     "046f769c57a7c69feb4ce635f0d216fbfff09917345605ef"
     "d2ac6c08a55b5f06cd561e8259afe81acf"},
    {"bench",
     "000000003ab0949328df3368601d48b360a71f885b94179e",
     "04ffdbba51f039cfca55850ca8eb33a8c8bc2daa1afc7686"
     "f4b2156335b94e6493e838c526763acd6a"},
    {"key-seed-0",
     "00000000f7e35243f3961fcefeee4ef7d7b7073b6ecc716f",
     "0405aede4a364425f6ca3ba67b9682be16e9c3b1ef4bebf7"
     "bcc4b7f48d687668380304d9a35a45cbce"},
    {"kat-seed-a",
     "00000000e9a486b74ff57b63f569209b38dbd89d57a2bd4c",
     "04e30ff6a4610b152c386aef00f228040eac310d7fdc7805"
     "9b9f4b804dab2920b1d40ef6e2a6c4a4aa"},
    {"kat-seed-b",
     "000000009ca6d563a3e2d1da4b71e131a8c8e4bc57accfae",
     "041a06285389e03a1fe977d68f9eb14a53189534ec3e8ea1"
     "9c3e02c2cdf867ba5a6b202e75b6a81986"},
};
const SigVector kSigs[] = {
    {"prover-vendor-key", "",
     "0000000049cc8d04a0867379af5f162785cede718d293688"
     "00000000ebb7065b0980cfeb787310e6e59ae54c6e595c05"},
    {"prover-vendor-key", "abc",
     "00000000cb94cc0a5e62e6adb01984572abf5e59904c0865"
     "0000000086db531dc5d407fa47ffb01ef2e96f036fe9f50b"},
    {"prover-vendor-key", "attestation request #42",
     "00000000e29ea3820bb9a807e61cbdc65db3849de9cc5ea3"
     "00000000ed590665744e73cbf7f12e512da03bd5fdc270e1"},
    {"prover-vendor-key", "prover-firmware",
     "00000000a5cbb8e84d0e2e5e73bcda633bb272d201126572"
     "000000004c4e7694201f635a5de4b4d63ba8281c13d1f04e"},
    {"ecdsa-test-seed", "",
     "000000003a23471c7084a49814253b22441b6d3f74285886"
     "00000000d58052cf7b1232230225d888ae393af4abc1491e"},
    {"ecdsa-test-seed", "abc",
     "00000000f717a4203d9b5084d67aa6233d920c29f55603e2"
     "000000009023c71563f877a05b0aceb80b096730f77d100e"},
    {"ecdsa-test-seed", "attestation request #42",
     "00000000d07f34b48726ddc548f5784a29965978076f071d"
     "00000000f9e75feeb82d2fde56e8e1f62fb3d63a2f0b69d2"},
    {"ecdsa-test-seed", "prover-firmware",
     "000000007ab2e6b2df348e291b0507b49edfde45eb0f9989"
     "000000005c340e5408e9945ed4b9517cfc570699efe70657"},
    {"bench", "",
     "000000004b32c28d43da03e4e12f4458cb40785720829e33"
     "000000006e7f43095f251c3e33a76d3a3cdd4f8b971600c8"},
    {"bench", "abc",
     "00000000eb6af6496c95aef7d61d7fd2a4f697d31f735ae0"
     "00000000c9ca2ab403986148c7ebae89986cb79830377ebb"},
    {"bench", "attestation request #42",
     "00000000251f8b1cbf29ee17a5fd57d16729e096b4531550"
     "0000000085effdd98b5bfadd142c621b41d8137ef9d4f1b8"},
    {"bench", "prover-firmware",
     "00000000040f92584dd56c59b96a2ba2bf8cbf576f416e73"
     "000000007a21d1691849b65c5984900ae2f9bccc441a7e95"},
    {"key-seed-0", "",
     "00000000090727dd13231d81795afb2180e571092f01c775"
     "0000000047ab51af7b998902bbd6535cc58eee10320bc939"},
    {"key-seed-0", "abc",
     "00000000c20e9e5a4ed9d31cd9c56c4c589f04fabb97c28e"
     "000000006ffd2b7565155f5a344844a934c8a592898140f8"},
    {"key-seed-0", "attestation request #42",
     "0000000045d3aa20d21dfd6e0fc26f50cdd9b20f1648e917"
     "00000000dc6e74b1e198fb308c6af9ce7445c725d35af295"},
    {"key-seed-0", "prover-firmware",
     "00000000b9f22eef98f03e9c091a9fd4179e94ee12e959e5"
     "00000000b3193fffa29e96862abde7984738eb4d8af3e7e9"},
    {"kat-seed-a", "",
     "00000000e5a5287e53f6f28c4ecc76d5b91ae3080c782461"
     "0000000023b9c95c1076a4b9c3e1c46670d334086bae4943"},
    {"kat-seed-a", "abc",
     "00000000bf1c0c5d9d1d0f52b016c91d5c308efe0a705571"
     "00000000e969126e907c4d113cf8ee604141f1df6d7dafdd"},
    {"kat-seed-a", "attestation request #42",
     "0000000077dc186ae1f7f8c361e13b3556e40af89f61c696"
     "000000005a65dc3ec1263427637369d3f90f61bf4a517d7f"},
    {"kat-seed-a", "prover-firmware",
     "00000000bb804482d65df4d904cc4c51558a9e5125bce327"
     "000000004673c938b96fe10b3b79c71a13e567d91e29f514"},
    {"kat-seed-b", "",
     "00000000208e5a38729fb1c5f3dc32a2203acaae0bf35e1a"
     "0000000036016c42dee323b5c3a94c15c6859b8f5beb063c"},
    {"kat-seed-b", "abc",
     "000000001d95763b1b26c1c8f7972a7124f75b74d0cd22cb"
     "00000000a02423dab54cb7c10b36dc5fc96c9292c9530c53"},
    {"kat-seed-b", "attestation request #42",
     "000000001234b0d9738e20eb109ecab31ea443e164c31b9a"
     "0000000076431eca91e32fb05f6a1376dcd52dfd039734b3"},
    {"kat-seed-b", "prover-firmware",
     "00000000106df5552d7105bb7af898305103b6adf5de8ee3"
     "00000000fe69d505ca830fc506ffd0372e28806d482cafb8"},
};

const KeyVector& key_for(const char* seed) {
  for (const KeyVector& v : kKeys) {
    if (std::string(v.seed) == seed) return v;
  }
  throw std::invalid_argument("no key vector for seed");
}

TEST(EcdsaKnownAnswer, KeyPairs) {
  for (const KeyVector& v : kKeys) {
    SCOPED_TRACE(v.seed);
    const EcdsaKeyPair kp = ecdsa_generate_key(from_string(v.seed));
    EXPECT_EQ(kp.private_key.to_hex(), v.private_key);
    EXPECT_EQ(to_hex(kp.public_key.encode(false)), v.public_key);
  }
}

TEST(EcdsaKnownAnswer, Signatures) {
  for (const SigVector& v : kSigs) {
    SCOPED_TRACE(std::string(v.seed) + " / '" + v.message + "'");
    const EcdsaKeyPair kp = ecdsa_generate_key(from_string(v.seed));
    const Bytes msg = from_string(v.message);
    const EcdsaSignature sig = ecdsa_sign(kp.private_key, msg);
    EXPECT_EQ(to_hex(sig.to_bytes()), v.signature);
    EXPECT_TRUE(ecdsa_verify(kp.public_key, msg, sig));
  }
}

TEST(EcdsaKnownAnswer, PinnedSignaturesVerifyFromBytes) {
  // Verify the stored bytes against the stored key, so the verifier is
  // pinned even if key generation and signing drifted together.
  for (const SigVector& v : kSigs) {
    SCOPED_TRACE(std::string(v.seed) + " / '" + v.message + "'");
    const auto q = EcPoint::decode(from_hex(key_for(v.seed).public_key));
    ASSERT_TRUE(q.has_value());
    const EcdsaSignature sig =
        EcdsaSignature::from_bytes(from_hex(v.signature));
    EXPECT_TRUE(ecdsa_verify(*q, from_string(v.message), sig));
    EXPECT_FALSE(ecdsa_verify(*q, from_string("not the message"), sig));
  }
}

}  // namespace
}  // namespace ratt::crypto
