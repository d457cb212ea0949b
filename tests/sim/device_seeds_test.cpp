// Per-device secrets (sim::derive_device_seeds): each device's key, app
// seed and verifier seed are a pure function of (fleet seed, device id,
// purpose), so they cannot depend on the shard plan, the drain's thread
// count or the order in which devices materialize.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ratt/sim/channel.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::sim {
namespace {

using attest::FreshnessScheme;

const crypto::Bytes kFleetSeed = crypto::from_string("fleet-seed");

// Expected bytes come from an independent RFC 5869 implementation:
//
//   import hmac, hashlib, struct
//   prk = hmac.new(b"ratt::swarm-device-v1", b"fleet-seed",
//                  hashlib.sha256).digest()
//   for i in (0, 999999):
//       for label in (b"k_attest", b"app_seed", b"verifier_seed"):
//           info = label + struct.pack(">Q", i)
//           print(hmac.new(prk, info + b"\x01",
//                          hashlib.sha256).digest()[:16].hex())
TEST(DeviceSeeds, KnownAnswerForIds0And999999) {
  const crypto::Bytes prk = device_seed_prk(kFleetSeed);
  EXPECT_EQ(crypto::to_hex(prk),
            "fc0e15ef3ba86c9e2be03a561803763953ca4c798c1a6318456d3e95fe42c7ad");

  const DeviceSeeds first = derive_device_seeds(prk, 0);
  EXPECT_EQ(crypto::to_hex(first.key), "1391f6f17c57b0e32829b49b4c481def");
  EXPECT_EQ(crypto::to_hex(first.app), "72e8fd74c520083135778f8a7cbf74ef");
  EXPECT_EQ(crypto::to_hex(first.verifier),
            "7006e9d476515192f55665d77a156085");

  const DeviceSeeds last = derive_device_seeds(prk, 999'999);
  EXPECT_EQ(crypto::to_hex(last.key), "1ec001277cd32ed5fdd3690dc2629234");
  EXPECT_EQ(crypto::to_hex(last.app), "031525ee05c05afa8e2ff01b310f8649");
  EXPECT_EQ(crypto::to_hex(last.verifier),
            "48e1097f7df4802331390aec5afe7f4d");
}

TEST(DeviceSeeds, PairwiseDistinctOverOneMillionIds) {
  // All 3M seeds — keys, app seeds and verifier seeds together. Distinct
  // 8-byte prefixes imply distinct 16-byte seeds.
  constexpr std::uint64_t kIds = 1'000'000;
  const crypto::Bytes prk = device_seed_prk(kFleetSeed);
  std::vector<std::uint64_t> prefixes;
  prefixes.reserve(3 * kIds);
  for (std::uint64_t id = 0; id < kIds; ++id) {
    const DeviceSeeds seeds = derive_device_seeds(prk, id);
    for (const crypto::Bytes* seed :
         {&seeds.key, &seeds.app, &seeds.verifier}) {
      ASSERT_EQ(seed->size(), 16u) << "device " << id;
      prefixes.push_back(crypto::load_be64(seed->data()));
    }
  }
  std::sort(prefixes.begin(), prefixes.end());
  EXPECT_EQ(std::adjacent_find(prefixes.begin(), prefixes.end()),
            prefixes.end());
}

// What a device's three seeds show from outside: the key, the image the
// app seed built, and the verifier's first DRBG draw (the nonce and
// challenge of the first request on the wire).
struct Identity {
  crypto::Bytes key;
  crypto::Bytes reference_memory;
  crypto::Bytes first_request;

  friend bool operator==(const Identity&, const Identity&) = default;
};

constexpr std::size_t kDevices = 48;

SwarmConfig fleet(std::size_t shards) {
  SwarmConfig config;
  config.device_count = kDevices;
  config.shard_count = shards;
  config.prover.scheme = FreshnessScheme::kNonce;
  config.prover.measured_bytes = 512;
  return config;
}

// The channel accessor comes first, so this call materializes device i.
Identity touch(Swarm& swarm, std::size_t i, RecordingTap& tap) {
  swarm.channel(i).set_tap(&tap);
  swarm.session(i).send_request();
  return Identity{swarm.device_key(i), swarm.prover(i).reference_memory(),
                  tap.recorded_to_prover().at(0).payload};
}

std::vector<Identity> touch_in_order(std::size_t shards, bool reverse) {
  Swarm swarm(fleet(shards), kFleetSeed);
  std::vector<RecordingTap> taps(kDevices);
  std::vector<Identity> ids(kDevices);
  for (std::size_t k = 0; k < kDevices; ++k) {
    const std::size_t i = reverse ? kDevices - 1 - k : k;
    ids[i] = touch(swarm, i, taps[i]);
  }
  return ids;
}

// Materialization driven by the drain: one event per device, at times
// that permute the index order, run by `threads` shard workers.
std::vector<Identity> touch_in_drain(std::size_t shards,
                                     std::size_t threads) {
  Swarm swarm(fleet(shards), kFleetSeed);
  std::vector<RecordingTap> taps(kDevices);
  std::vector<Identity> ids(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) {
    const double at_ms = static_cast<double>((i * 7) % kDevices);
    swarm.queue_of(i).schedule_at(at_ms, [&swarm, &taps, &ids, i] {
      ids[i] = touch(swarm, i, taps[i]);
    });
  }
  EXPECT_EQ(swarm.materialized_count(), 0u);
  (void)swarm.run_parallel(0.0, threads);
  EXPECT_EQ(swarm.materialized_count(), kDevices);
  return ids;
}

void expect_same(const std::vector<Identity>& got,
                 const std::vector<Identity>& want, const char* plan) {
  ASSERT_EQ(got.size(), want.size()) << plan;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << plan << ", device " << i;
  }
}

TEST(DeviceSeeds, IdenticalAcrossShardsThreadsAndMaterializationOrder) {
  const std::vector<Identity> reference = touch_in_order(1, false);
  const crypto::Bytes prk = device_seed_prk(kFleetSeed);
  for (std::size_t i = 0; i < kDevices; ++i) {
    EXPECT_EQ(reference[i].key, derive_device_seeds(prk, i).key)
        << "device " << i;
  }
  for (std::size_t shards : {1, 4, 16}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    expect_same(touch_in_order(shards, false), reference, "ascending");
    expect_same(touch_in_order(shards, true), reference, "reverse");
    expect_same(touch_in_drain(shards, 1), reference, "drain, 1 thread");
    expect_same(touch_in_drain(shards, 4), reference, "drain, 4 threads");
  }
}

}  // namespace
}  // namespace ratt::sim
