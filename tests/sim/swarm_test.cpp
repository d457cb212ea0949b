// IoT fleet (future-work item 1): multi-device attestation, per-device
// keys, and cross-device attack containment.
#include <gtest/gtest.h>

#include "ratt/sim/swarm.hpp"

namespace ratt::sim {
namespace {

using attest::FreshnessScheme;

SwarmConfig small_fleet() {
  SwarmConfig config;
  config.device_count = 5;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.measured_bytes = 512;
  config.attest_period_ms = 100.0;
  return config;
}

TEST(Swarm, AllDevicesAttestOnSchedule) {
  Swarm swarm(small_fleet(), crypto::from_string("fleet-seed"));
  const SwarmReport report = swarm.run_parallel(1000.0, 1);
  ASSERT_EQ(report.devices.size(), 5u);
  for (const auto& d : report.devices) {
    // Stagger shifts later devices' schedules: device i's rounds land on
    // fmod(37*i, period) + k*period, so every device fits
    // floor((horizon - offset)/period) >= 8 rounds inside the horizon.
    EXPECT_GE(d.stats.requests_sent, 8u) << "device " << d.device;
    EXPECT_EQ(d.stats.responses_valid, d.stats.requests_sent)
        << "device " << d.device;
    EXPECT_EQ(d.stats.prover_rejects, 0u);
    EXPECT_GT(d.attest_device_ms, 0.0);
  }
  EXPECT_EQ(report.total_valid(), report.total_sent());
}

TEST(Swarm, PerDeviceKeysAreDistinct) {
  Swarm swarm(small_fleet(), crypto::from_string("fleet-seed"));
  for (std::size_t i = 0; i < swarm.size(); ++i) {
    for (std::size_t j = i + 1; j < swarm.size(); ++j) {
      EXPECT_NE(swarm.device_key(i), swarm.device_key(j));
    }
  }
}

TEST(Swarm, DeterministicAcrossRuns) {
  Swarm a(small_fleet(), crypto::from_string("fleet-seed"));
  Swarm b(small_fleet(), crypto::from_string("fleet-seed"));
  EXPECT_EQ(a.device_key(0), b.device_key(0));
  EXPECT_EQ(a.device_key(4), b.device_key(4));
  Swarm c(small_fleet(), crypto::from_string("other-seed"));
  EXPECT_NE(a.device_key(0), c.device_key(0));
}

TEST(Swarm, CrossDeviceReplayFailsAuthentication) {
  // A request recorded on device 0's link replayed against device 1:
  // wrong K_Attest, rejected at the MAC check — compromise containment.
  Swarm swarm(small_fleet(), crypto::from_string("fleet-seed"));
  RecordingTap tap;
  swarm.channel(0).set_tap(&tap);
  swarm.session(0).send_request();
  swarm.run_all();
  ASSERT_EQ(tap.recorded_to_prover().size(), 1u);

  const auto before = swarm.prover(1).anchor().attestations_performed();
  swarm.channel(1).inject_to_prover(tap.recorded_to_prover()[0].payload,
                                    1.0);
  swarm.run_all();
  EXPECT_EQ(swarm.prover(1).anchor().attestations_performed(), before);
  EXPECT_EQ(swarm.session(1).stats().prover_rejects, 1u);
}

TEST(Swarm, FloodOnOneDeviceDoesNotAffectOthers) {
  // Replay-flood device 2's link; devices 0/1/3/4 are unaffected and
  // device 2 (counter scheme) rejects everything cheaply.
  Swarm swarm(small_fleet(), crypto::from_string("fleet-seed"));
  RecordingTap tap;
  swarm.channel(2).set_tap(&tap);
  swarm.session(2).send_request();
  swarm.run_all();
  ASSERT_FALSE(tap.recorded_to_prover().empty());
  const crypto::Bytes recorded = tap.recorded_to_prover()[0].payload;
  for (int i = 0; i < 50; ++i) {
    swarm.channel(2).inject_to_prover(recorded, 10.0 + i);
  }
  const SwarmReport report = swarm.run_parallel(1000.0, 1);
  EXPECT_GE(report.devices[2].stats.prover_rejects, 50u);
  for (std::size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_EQ(report.devices[i].stats.responses_valid,
              report.devices[i].stats.requests_sent)
        << "device " << i;
  }
}

TEST(Swarm, UnprotectedFleetBleedsTime) {
  // The aggregate DoS picture: an unauthenticated fleet performs every
  // injected bogus attestation; the hardened fleet does not.
  SwarmConfig open_config = small_fleet();
  open_config.prover.scheme = FreshnessScheme::kNone;
  open_config.prover.authenticate_requests = false;
  open_config.prover.measured_bytes = 16 * 1024;
  open_config.attest_period_ms = 10'000.0;  // no genuine rounds: isolate
                                            // the attacker-extracted time
  SwarmConfig hard_config = small_fleet();
  hard_config.prover.measured_bytes = 16 * 1024;
  hard_config.attest_period_ms = 10'000.0;

  for (const bool hardened : {false, true}) {
    Swarm swarm(hardened ? hard_config : open_config,
                crypto::from_string("fleet-seed"));
    // Attacker floods every device with forged requests.
    for (std::size_t i = 0; i < swarm.size(); ++i) {
      attest::AttestRequest forged;
      forged.scheme = hardened ? FreshnessScheme::kCounter
                               : FreshnessScheme::kNone;
      forged.mac_alg = crypto::MacAlgorithm::kHmacSha1;
      forged.freshness = 1;
      forged.mac = crypto::Bytes(20, 0);
      for (int k = 0; k < 10; ++k) {
        swarm.channel(i).inject_to_prover(forged.to_bytes(),
                                          5.0 + 20.0 * k);
      }
    }
    const SwarmReport report = swarm.run_parallel(500.0, 1);
    if (hardened) {
      // 50 forged requests x 0.432 ms MAC checks.
      EXPECT_LT(report.total_attest_ms(), 100.0);
    } else {
      // 50 forged requests x ~24 ms (16 KB at 24 MHz).
      EXPECT_GT(report.total_attest_ms(), 800.0);
    }
  }
}

}  // namespace
}  // namespace ratt::sim
