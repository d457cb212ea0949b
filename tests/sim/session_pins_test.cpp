// Session behaviour pins: twelve 64-device fleets (4 shards, one thread,
// 3 s horizon) covering every AttestationSession round path — plain
// rounds under counter, nonce and timestamp freshness, plain rounds over
// a lossy link, reliable rounds over lossy and hostile links, and
// incremental rounds (dirty pages, injected frames, lossy / bursty /
// hostile links) — each pinned by FNV-1a over four surfaces:
//
//   * the merged trace JSONL,
//   * the merged phase-profile JSONL,
//   * Registry::to_text() (read at one thread: a double sum written by
//     several threads is exact only to rounding, obs/metrics.hpp),
//   * every device's Stats, duty fraction and attestation time.
//
// A refactor of the round paths must leave every value unchanged; an
// intended behaviour change updates the table below and says why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ratt/hw/mcu.hpp"
#include "ratt/obs/metrics.hpp"
#include "ratt/obs/trace.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::sim {
namespace {

using attest::FreshnessScheme;

constexpr std::size_t kDevices = 64;
constexpr std::size_t kShards = 4;
constexpr double kHorizonMs = 3000.0;
constexpr double kPeriodMs = 100.0;
constexpr double kStaggerMs = 1.5;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string stats_text(const SwarmReport& report) {
  std::ostringstream out;
  out.precision(17);
  for (const SwarmDeviceReport& d : report.devices) {
    const AttestationSession::Stats& s = d.stats;
    out << d.device << ' ' << s.requests_sent << ' ' << s.requests_delivered
        << ' ' << s.responses_received << ' ' << s.responses_valid << ' '
        << s.responses_invalid << ' ' << s.prover_rejects << ' '
        << s.responses_missing << ' ' << s.rejects_bad_mac << ' '
        << s.rejects_not_fresh << ' ' << s.rejects_rate_limited << ' '
        << s.rejects_other << ' ' << s.prover_attest_ms << ' '
        << s.requests_malformed << ' ' << s.responses_malformed << ' '
        << s.rounds_started << ' ' << s.retransmits << ' ' << s.timeouts
        << ' ' << s.duplicate_responses << ' ' << s.rounds_unreachable << ' '
        << s.inc_rounds << ' ' << s.inc_full_fallbacks << ' '
        << s.inc_pages_refreshed << ' ' << d.attest_device_ms << ' '
        << d.duty_fraction << '\n';
  }
  out << "leftover " << report.events_leftover << '\n';
  return out.str();
}

struct Pins {
  std::string trace;
  std::string profile;
  std::string registry;
  std::string stats;
};

/// Start time of device i's k-th scheduled round (Swarm's offset +
/// k * period plan).
double round_time(std::size_t device, std::uint64_t k) {
  return std::fmod(kStaggerMs * static_cast<double>(device), kPeriodMs) +
         static_cast<double>(k) * kPeriodMs;
}

/// Adversarial traffic on every device's link: forged requests (bad
/// MAC), a correctly MACed stale request (not fresh), a forged response
/// carrying round 5's live counter (checked, invalid) and forged
/// responses of both types for no pending round (unmatched). None of it
/// depends on which request type the session pairs with which response.
void inject_frames(Swarm& swarm, bool incremental) {
  for (std::size_t i = 0; i < swarm.size(); ++i) {
    Channel& ch = swarm.channel(i);
    const crypto::Bytes& key = swarm.device_key(i);
    const auto mac = crypto::make_mac(crypto::MacAlgorithm::kHmacSha1, key);
    const double at = 0.25 * static_cast<double>(i);

    attest::AttestRequest forged;
    forged.scheme = FreshnessScheme::kCounter;
    forged.freshness = 1000 + i;
    forged.challenge = i;
    forged.mac = crypto::Bytes(20, 0xa5);
    ch.inject_to_prover(forged.to_bytes(), 50.0 + at);

    attest::IncAttestRequest forged_inc;
    forged_inc.scheme = FreshnessScheme::kCounter;
    forged_inc.freshness = 2000 + i;
    forged_inc.since_gen = 1;
    forged_inc.mac = crypto::Bytes(20, 0x5a);
    ch.inject_to_prover(forged_inc.to_bytes(), 60.0 + at);

    // A stale counter under the right key: the prover's freshness
    // policy, not its MAC check, must turn it away.
    if (incremental) {
      attest::IncAttestRequest stale;
      stale.scheme = FreshnessScheme::kCounter;
      stale.freshness = 1;
      stale.since_gen = 1;
      stale.mac = mac->compute(stale.header_bytes());
      ch.inject_to_prover(stale.to_bytes(), 1000.0 + at);
    } else {
      attest::AttestRequest stale;
      stale.scheme = FreshnessScheme::kCounter;
      stale.freshness = 1;
      stale.challenge = 7;
      stale.mac = mac->compute(stale.header_bytes());
      ch.inject_to_prover(stale.to_bytes(), 1000.0 + at);
    }

    // Round 5's request is in flight 1 ms after it leaves.
    const double live_at = round_time(i, 5) + 1.0;
    if (incremental) {
      attest::IncAttestResponse live;
      live.flags = attest::IncAttestResponse::kFlagGenerationBound;
      live.freshness = 5;
      live.base_gen = 1;
      live.new_gen = 1;
      live.measurement = crypto::Bytes(20, 0x33);
      ch.inject_to_verifier(live.to_bytes(), live_at);
    } else {
      attest::AttestResponse live;
      live.freshness = 5;
      live.measurement = crypto::Bytes(20, 0x33);
      ch.inject_to_verifier(live.to_bytes(), live_at);
    }

    attest::AttestResponse orphan;
    orphan.freshness = 1ull << 40;
    orphan.measurement = crypto::Bytes(20, 0x44);
    ch.inject_to_verifier(orphan.to_bytes(), 1500.0 + at);
    attest::IncAttestResponse orphan_inc;
    orphan_inc.freshness = 1ull << 41;
    orphan_inc.new_gen = 1;
    orphan_inc.measurement = crypto::Bytes(20, 0x55);
    ch.inject_to_verifier(orphan_inc.to_bytes(), 1600.0 + at);
  }
}

/// Measured-memory writes between rounds: every fourth device rewrites
/// one page with its own contents (dirty, still genuine); every
/// sixteenth device (offset 1) is tampered once at 1.5 s.
using Writers = std::vector<std::unique_ptr<hw::SoftwareComponent>>;

void dirty_pages(Swarm& swarm, Writers& writers) {
  for (std::size_t i = 0; i < swarm.size(); ++i) {
    const bool rewrite = i % 4 == 0;
    const bool tamper = i % 16 == 1;
    if (!rewrite && !tamper) continue;
    attest::ProverDevice& prover = swarm.prover(i);
    writers.push_back(std::make_unique<hw::SoftwareComponent>(
        prover.mcu(), "writer", prover.surface().malware_region));
    const hw::SoftwareComponent* w = writers.back().get();
    const hw::Addr base = prover.surface().measured_memory.begin;
    EventQueue& q = swarm.queue_of(i);
    if (rewrite) {
      for (std::uint64_t k = 1; k <= 11; ++k) {
        const hw::Addr target =
            base + (k % 4) * attest::CodeAttest::kPageBytes + 8 * i;
        q.schedule_at(250.0 * static_cast<double>(k) + 3.0, [w, target] {
          std::uint32_t v = 0;
          (void)w->read32(target, v);
          (void)w->write32(target, v);
        });
      }
    }
    if (tamper) {
      q.schedule_at(1500.0, [w, base] {
        std::uint32_t v = 0;
        (void)w->read32(base + 64, v);
        (void)w->write32(base + 64, v ^ 0x1u);
      });
    }
  }
}

struct Fleet {
  const char* name;
  std::function<void(SwarmConfig&)> configure;
  std::function<void(Swarm&, Writers&)> prepare;
  Pins expected;
};

Pins run_fleet(const Fleet& fleet) {
  SwarmConfig config;
  config.device_count = kDevices;
  config.shard_count = kShards;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 1024;
  config.attest_period_ms = kPeriodMs;
  config.stagger_ms = kStaggerMs;
  config.share_app_image = true;
  fleet.configure(config);

  Swarm swarm(config, crypto::from_string("session-pins-seed"));
  Writers writers;  // outlive the run: scheduled writes point at them
  if (fleet.prepare) fleet.prepare(swarm, writers);
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  const SwarmReport report = swarm.run_parallel(kHorizonMs, /*threads=*/1);

  std::ostringstream trace;
  obs::write_jsonl(trace, swarm.merged_trace());
  std::ostringstream profile;
  swarm.merged_profile().write_jsonl(profile);
  return Pins{hex(fnv1a(trace.str())), hex(fnv1a(profile.str())),
              hex(fnv1a(registry.to_text())), hex(fnv1a(stats_text(report)))};
}

const std::vector<Fleet>& fleets() {
  static const std::vector<Fleet> kFleets = {
      {"plain_counter", [](SwarmConfig&) {}, nullptr,
       {"46440ef03e9171ee", "82bd6fe44ebb8fe2",
        "7b13b076d3d0799a", "b4ae91a4dbe42f1f"}},
      {"plain_nonce",
       [](SwarmConfig& c) { c.prover.scheme = FreshnessScheme::kNonce; },
       nullptr,
       {"46440ef03e9171ee", "82bd6fe44ebb8fe2",
        "7b13b076d3d0799a", "b4ae91a4dbe42f1f"}},
      {"plain_timestamp",
       [](SwarmConfig& c) {
         c.prover.scheme = FreshnessScheme::kTimestamp;
         c.prover.clock = attest::ClockDesign::kHw64;
         c.prover.timestamp_window_ticks = 2'400'000;  // 100 ms
       },
       nullptr,
       {"46440ef03e9171ee", "82bd6fe44ebb8fe2",
        "199de4e556c4218a", "b4ae91a4dbe42f1f"}},
      {"plain_injected", [](SwarmConfig&) {},
       [](Swarm& s, auto&) { inject_frames(s, /*incremental=*/false); },
       {"566101caf8d36f45", "4c4928033ee9deef",
        "784dce7c00bd16cc", "033027d2113cbbd2"}},
      // The three lossy fleets' registry pins moved only in their
      // verifier.batch.* lines when the verifier's lookahead became one
      // window that every fill redraws in full (lost attempts no longer
      // hold a slot).
      {"plain_lossy10", [](SwarmConfig& c) { c.link = net::lossy10_link(); },
       nullptr,
       {"71db07ce67a44a7f", "74e392fb6ce07103",
        "cf394ffe10bcdaab", "77ca72b2746bb43d"}},
      {"reliable_lossy10",
       [](SwarmConfig& c) {
         c.link = net::lossy10_link();
         c.reliable = true;
         c.retry.max_attempts = 4;
       },
       nullptr,
       {"20f578dbe16e6232", "c65efcf7d04ea8e7",
        "e50e3687fe038cf3", "48979f96ffa093cc"}},
      {"reliable_hostile",
       [](SwarmConfig& c) {
         c.link = net::hostile_link();
         c.reliable = true;
         c.retry.max_attempts = 4;
       },
       nullptr,
       {"3542fcd38a5c1257", "57e06e8363ef71eb",
        "c9aa792a97325d33", "f1c8b3ea1c6b8f35"}},
      {"inc_dirty_pages",
       [](SwarmConfig& c) {
         c.prover.enable_incremental = true;
         c.prover.measured_bytes = 4 * attest::CodeAttest::kPageBytes;
       },
       [](Swarm& s, auto& writers) { dirty_pages(s, writers); },
       {"1e0ea3c0eb651754", "2abf2a29b2efb987",
        "f34611c737358c83", "2b2051822a68af60"}},
      {"inc_injected",
       [](SwarmConfig& c) { c.prover.enable_incremental = true; },
       [](Swarm& s, auto&) { inject_frames(s, /*incremental=*/true); },
       {"ad861194448e1d69", "f692c4c28b0920b6",
        "4a52240e06d30f0f", "eaf79a5ed47b1c8c"}},
      {"inc_lossy10",
       [](SwarmConfig& c) {
         c.prover.enable_incremental = true;
         c.link = net::lossy10_link();
       },
       nullptr,
       {"64f521c3cd428419", "800cd1bf46d335e6",
        "03c2ea5eeff2801c", "33c2310a78c61c73"}},
      {"inc_bursty",
       [](SwarmConfig& c) {
         c.prover.enable_incremental = true;
         c.link = net::bursty_link();
       },
       nullptr,
       {"3f27fd2ccbbcd100", "1db4b347a94185f9",
        "9be588c34292fbca", "ca231065e446bad3"}},
      {"inc_hostile",
       [](SwarmConfig& c) {
         c.prover.enable_incremental = true;
         c.link = net::hostile_link();
       },
       nullptr,
       {"dcf6bbf77b361210", "58518a1dc4305aeb",
        "d4d33df379c80b0e", "2855eb128ef9078c"}},
  };
  return kFleets;
}

class SessionPins : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SessionPins, FleetOutputsMatchPins) {
  const Fleet& fleet = fleets()[GetParam()];
  const Pins got = run_fleet(fleet);
  EXPECT_EQ(got.trace, fleet.expected.trace) << "trace JSONL";
  EXPECT_EQ(got.profile, fleet.expected.profile) << "profile JSONL";
  EXPECT_EQ(got.registry, fleet.expected.registry) << "registry text";
  EXPECT_EQ(got.stats, fleet.expected.stats) << "device stats";
  // Regenerating the table after an intended change: copy these lines.
  if (HasFailure()) {
    std::printf("{\"%s\", \"%s\",\n \"%s\", \"%s\"}},  // %s\n",
                got.trace.c_str(), got.profile.c_str(), got.registry.c_str(),
                got.stats.c_str(), fleet.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRoundPaths, SessionPins,
    ::testing::Range<std::size_t>(0, 12),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(fleets()[info.param].name);
    });

}  // namespace
}  // namespace ratt::sim
