// Seed-sweep property harness: the reliable exchange (net::Retransmitter)
// over every LinkProfile, across hundreds of DRBG seeds per profile.
//
// For each (profile, seed) run we assert the three tentpole properties:
//   liveness    — every started round closes (valid or kUnreachable);
//                 the event queue fully drains, nothing hangs,
//   safety      — the prover never accepts the same freshness element
//                 twice (audit-log forensics), and performs at most one
//                 MAC per distinct request the verifier minted,
//   determinism — the same seed reproduces the byte-identical link event
//                 log, link stats and session stats.
//
// Each (profile, seed) also runs one incremental session over the same
// link without retries: the queue drains, no freshness element is
// accepted twice, no more rounds validate than were sent, and a rerun
// reproduces the link log and stats.
//
// RATT_NET_SEEDS overrides the per-profile seed count (default 500; CI's
// gated long sweep sets 5000).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "ratt/attest/audit_log.hpp"
#include "ratt/net/link.hpp"
#include "ratt/sim/fleet_health.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::sim {
namespace {

using attest::FreshnessScheme;
using attest::ProverConfig;
using attest::ProverDevice;
using attest::Verifier;

std::size_t seeds_per_profile() {
  if (const char* env = std::getenv("RATT_NET_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 500;
}

crypto::Bytes sweep_seed(const std::string& profile_name,
                         std::uint64_t seed_value) {
  crypto::Bytes seed = crypto::from_string("net-sweep:" + profile_name);
  seed.resize(seed.size() + 8);
  crypto::store_le64(seed.data() + seed.size() - 8, seed_value);
  return seed;
}

struct RunResult {
  AttestationSession::Stats stats;
  net::LinkStats link_stats;
  std::string link_log;
  std::uint64_t macs_performed = 0;
  std::size_t double_accepts = 0;
  std::size_t events_leftover = 0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// One session over a faulty link: 5 verifier-initiated rounds, drained
/// to quiescence. Reliable full rounds by default; `incremental` runs
/// incremental rounds without retries instead.
RunResult run_once(const net::LinkProfile& profile, std::uint64_t seed_value,
                   bool incremental = false) {
  const crypto::Bytes seed = sweep_seed(profile.name, seed_value);

  ProverConfig config;
  // Alternate the two distinct-element freshness schemes so both nonce
  // history and the monotonic counter face legitimate retransmission
  // replays (timestamps can legally collide, so they get no sweep).
  config.scheme = (seed_value % 2 == 0) ? FreshnessScheme::kNonce
                                        : FreshnessScheme::kCounter;
  config.measured_bytes = 1024;
  config.enable_audit_log = true;
  config.audit_capacity = 128;
  config.enable_incremental = incremental;
  ProverDevice prover(config, crypto::from_string("sweep-key-0123456"),
                      seed);

  Verifier::Config vc;
  vc.scheme = config.scheme;
  vc.mac_alg = config.mac_alg;
  vc.authenticate_requests = config.authenticate_requests;
  Verifier verifier(crypto::from_string("sweep-key-0123456"), vc, seed);
  verifier.set_reference_memory(prover.reference_memory());

  EventQueue queue;
  Channel channel(queue, /*latency_ms=*/2.0);
  net::FaultyLink link(profile, seed, /*event_capacity=*/4096);
  channel.set_tap(&link);
  AttestationSession session(queue, channel, prover, verifier);

  if (incremental) {
    session.set_incremental(true);
  } else {
    net::RetryPolicy policy;
    policy.max_attempts = 4;
    // Above the worst-case hostile wire delay (2×(2 ms latency + 25 ms
    // jitter) + 20 ms dup delay), so a delivered response normally beats
    // its attempt timer.
    policy.base_timeout_ms = 80.0;
    policy.jitter_ms = 5.0;
    session.enable_reliable(policy, seed);
  }

  session.schedule_rounds(/*period_ms=*/150.0, /*horizon_ms=*/750.0);

  RunResult result;
  result.events_leftover = queue.run_all();
  result.stats = session.stats();
  result.link_stats = link.stats();
  result.link_log = net::to_log(link.events());
  result.macs_performed = prover.anchor().attestations_performed();
  const auto records = prover.audit_log()->records();
  if (records.has_value()) {
    result.double_accepts =
        attest::duplicate_accepted_freshness(*records).size();
  }
  return result;
}

class LinkSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(LinkSweep, LivenessSafetyDeterminism) {
  const auto profile = net::link_profile_by_name(GetParam());
  ASSERT_TRUE(profile.has_value());
  const std::size_t seeds = seeds_per_profile();

  std::uint64_t unreachable_total = 0;
  for (std::uint64_t s = 0; s < seeds; ++s) {
    const RunResult run = run_once(*profile, s);

    // Liveness: the queue drained and every round settled.
    ASSERT_EQ(run.events_leftover, 0u) << "seed " << s;
    ASSERT_EQ(run.stats.rounds_started, 5u) << "seed " << s;
    ASSERT_EQ(run.stats.rounds_started,
              run.stats.responses_valid + run.stats.rounds_unreachable)
        << "seed " << s << ": a round neither validated nor gave up";

    // Safety: no freshness element accepted twice, ever; and the prover
    // MACed at most once per distinct minted request (deliveries of the
    // same request — network duplicates — must all bounce off the
    // freshness policy).
    ASSERT_EQ(run.double_accepts, 0u) << "seed " << s;
    ASSERT_LE(run.macs_performed, run.stats.requests_sent) << "seed " << s;
    ASSERT_LE(run.macs_performed, run.stats.requests_delivered)
        << "seed " << s;

    // Determinism: a same-seed rerun reproduces everything byte for byte
    // (sampled — the full double-run would dominate suite time).
    if (s % 16 == 0) {
      const RunResult rerun = run_once(*profile, s);
      ASSERT_EQ(run.link_log, rerun.link_log) << "seed " << s;
      ASSERT_EQ(run, rerun) << "seed " << s;
    }
    unreachable_total += run.stats.rounds_unreachable;

    // Incremental rounds over the same link, no retries: duplicated
    // and corrupted frames must not double-accept or over-validate.
    const RunResult inc = run_once(*profile, s, /*incremental=*/true);
    ASSERT_EQ(inc.events_leftover, 0u) << "incremental seed " << s;
    ASSERT_EQ(inc.stats.requests_sent, 5u) << "incremental seed " << s;
    ASSERT_EQ(inc.double_accepts, 0u) << "incremental seed " << s;
    ASSERT_LE(inc.stats.responses_valid, inc.stats.requests_sent)
        << "incremental seed " << s;
    if (profile->is_clean()) {
      ASSERT_EQ(inc.stats.responses_valid, 5u) << "incremental seed " << s;
    }
    if (s % 16 == 0) {
      const RunResult rerun = run_once(*profile, s, /*incremental=*/true);
      ASSERT_EQ(inc.link_log, rerun.link_log) << "incremental seed " << s;
      ASSERT_EQ(inc, rerun) << "incremental seed " << s;
    }
  }

  if (profile->is_clean()) {
    // A clean link never needs the retry machinery's terminal outcome.
    EXPECT_EQ(unreachable_total, 0u);
  }
  if (profile->name == "hostile") {
    // 25% loss each way must show the machinery actually firing.
    EXPECT_GT(unreachable_total, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, LinkSweep,
                         ::testing::Values("clean", "lossy10", "bursty",
                                           "hostile"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Sharded-Swarm determinism: the same fleet seed must produce identical
// reports, link logs and merged traces at ANY thread/shard count, with
// per-device link profiles and reliable rounds active.

struct SwarmRun {
  SwarmReport report;
  std::vector<obs::TraceRecord> trace;
  std::vector<std::string> link_logs;
};

SwarmRun run_swarm(std::size_t shards, std::size_t threads,
                   std::uint64_t seed_value) {
  SwarmConfig config;
  config.device_count = 16;
  config.shard_count = shards;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.measured_bytes = 1024;
  config.attest_period_ms = 200.0;
  config.stagger_ms = 13.0;
  config.reliable = true;
  config.retry.max_attempts = 3;
  config.retry.base_timeout_ms = 80.0;
  config.retry.jitter_ms = 5.0;
  // Mixed fleet: every fourth device rotates through the profile list.
  config.link_for = [](std::size_t device) {
    return net::all_link_profiles()[device % 4];
  };

  Swarm swarm(config, sweep_seed("swarm", seed_value));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  SwarmRun run;
  run.report = swarm.run_parallel(/*horizon_ms=*/1000.0, threads);
  run.trace = swarm.merged_trace();
  for (std::size_t i = 0; i < swarm.size(); ++i) {
    run.link_logs.push_back(net::to_log(swarm.faulty_link(i)->events()));
  }
  return run;
}

TEST(SwarmNetSweep, ByteIdenticalAcrossThreadAndShardCounts) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const SwarmRun serial = run_swarm(/*shards=*/1, /*threads=*/1, seed);
    const SwarmRun sharded = run_swarm(/*shards=*/8, /*threads=*/8, seed);
    const SwarmRun rerun = run_swarm(/*shards=*/8, /*threads=*/8, seed);

    EXPECT_EQ(serial.report, sharded.report);
    EXPECT_EQ(sharded.report, rerun.report);
    EXPECT_EQ(serial.link_logs, sharded.link_logs);
    EXPECT_EQ(sharded.trace, rerun.trace);

    // Liveness + the fleet_health feed across the mixed fleet.
    for (const auto& d : sharded.report.devices) {
      EXPECT_EQ(d.stats.rounds_started,
                d.stats.responses_valid + d.stats.rounds_unreachable)
          << "device " << d.device;
    }
    const auto verdicts = assess_fleet(sharded.report);
    ASSERT_EQ(verdicts.size(), 16u);
    // Device 0 rides the clean profile: healthy, no retransmits.
    EXPECT_EQ(verdicts[0].health, DeviceHealth::kHealthy);
    EXPECT_DOUBLE_EQ(verdicts[0].retransmit_ratio, 0.0);
  }
}

TEST(SwarmNetSweep, CleanRunKeysUnchangedByNetMode) {
  // Enabling ratt::net must not perturb the key-derivation stream: a
  // fleet with faults draws its per-device keys identically to the
  // legacy clean fleet.
  SwarmConfig clean;
  clean.device_count = 4;
  clean.prover.measured_bytes = 1024;
  SwarmConfig faulty = clean;
  faulty.link = net::hostile_link();
  faulty.reliable = true;
  faulty.retry.base_timeout_ms = 80.0;

  Swarm a(clean, sweep_seed("keys", 0));
  Swarm b(faulty, sweep_seed("keys", 0));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.device_key(i), b.device_key(i)) << "device " << i;
  }
  EXPECT_EQ(a.faulty_link(0), nullptr);
  EXPECT_NE(b.faulty_link(0), nullptr);
}

}  // namespace
}  // namespace ratt::sim
