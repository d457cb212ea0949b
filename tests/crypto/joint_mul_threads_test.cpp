// joint_mul's per-thread Q comb under concurrency: four threads verify
// against alternating public keys at once, every result checked against
// the oracle (reference_arith.hpp) computed up front. Runs in the TSan
// row (ctest -L crypto_mt): each thread must build and read only its own
// cached comb, and share nothing but the read-only G comb.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/ecdsa.hpp"
#include "reference_arith.hpp"

namespace ratt::crypto {
namespace {

U192 rand_scalar(HmacDrbg& drbg) {
  for (;;) {
    const U192 v = U192::from_bytes_be(drbg.generate(U192::kBytes))
                       .shifted_right(31);
    if (v < Secp160r1::order()) return v;
  }
}

struct Case {
  U192 u1;
  U192 u2;
  std::size_t key;
  EcPoint want;
};

TEST(JointMulThreads, FourThreadsAlternatingKeysMatchOracle) {
  HmacDrbg drbg(from_string("joint-mul-threads"));
  std::vector<EcPoint> keys;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(Secp160r1::scalar_mul_base(rand_scalar(drbg)));
  }
  std::vector<Case> cases;
  for (std::size_t i = 0; i < 12; ++i) {
    Case c{rand_scalar(drbg), rand_scalar(drbg), i % keys.size(), {}};
    c.want = reference::joint_mul(c.u1, c.u2, keys[c.key]);
    cases.push_back(c);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the cases from its own offset. Consecutive
      // cases switch keys (rebuilding the thread's comb), and each case
      // runs twice (the second call reuses it).
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t k = 0; k < cases.size(); ++k) {
          const Case& c = cases[(k + t * 5) % cases.size()];
          if (!(Secp160r1::joint_mul(c.u1, c.u2, keys[c.key]) == c.want)) {
            mismatches.fetch_add(1);
          }
          if (!(Secp160r1::joint_mul(c.u1, c.u2, keys[c.key]) == c.want)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(JointMulThreads, ConcurrentVerifiesAgainstOneKey) {
  // The fleet's shape: every worker verifies signatures under one vendor
  // key, first call per thread building its comb.
  const EcdsaKeyPair kp = ecdsa_generate_key(from_string("vendor-like"));
  std::vector<Bytes> messages;
  std::vector<EcdsaSignature> sigs;
  for (int i = 0; i < 8; ++i) {
    messages.push_back(from_string("image-" + std::to_string(i)));
    sigs.push_back(ecdsa_sign(kp.private_key, messages.back()));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < messages.size(); ++i) {
        if (!ecdsa_verify(kp.public_key, messages[i], sigs[i])) {
          failures.fetch_add(1);
        }
        // A signature for another message must still fail.
        if (ecdsa_verify(kp.public_key, messages[i],
                         sigs[(i + 1) % sigs.size()])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ratt::crypto
