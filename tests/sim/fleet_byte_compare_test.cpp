// Fleet byte-compares (ctest -L fleet): two pinned fleets — seed
// "fleet-bench-seed", 16 shards — run twice under two plans that must be
// invisible, and every deterministic surface is compared: the full
// SwarmReport, the merged trace JSONL, the queue.events_run counter, the
// materialized device count and the replay-reject counters. The fleets
// are bench_swarm_dos's replay flood and the periodic fleet (64 B
// measured every 125 ms, shared boot image) that benchmark/'s
// periodic_traced workload runs over a longer horizon. Their reference
// values (round and event counts, trace record counts and the FNV-1a of
// the merged JSONL) are pinned here.
//
//   * replay flood, 256 devices, 1 vs 4 vs 8 threads, and provers booted
//     on the calling thread vs at first delivery on the shard workers;
//   * periodic fleet, multi-buffer MAC batching vs scalar verifier MACs
//     at 512 x 4, 512 x 8 and 4096 x 4 (devices x threads);
//   * replay flood, 64 devices at 4 threads, bulk vs per-byte bus;
//   * incremental periodic fleet, 1024 devices, 1 vs 4 threads;
//   * periodic fleet, 4096 devices, lazy chains at 4 threads vs the
//     eager reference plant at 1 thread.
//
// Two more cases check where work runs rather than what it outputs: a
// primed replay flood boots no prover before run_all() and every one on
// its shard's worker inside it, and a lossy reliable fleet keeps >= 90%
// of its valid checks on the verifier's lookahead window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet_oracles.hpp"
#include "ratt/obs/metrics.hpp"
#include "ratt/obs/pool.hpp"
#include "ratt/obs/trace.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::sim {
namespace {

constexpr const char* kFleetSeed = "fleet-bench-seed";
constexpr std::size_t kShards = 16;

struct FleetRun {
  SwarmReport report;
  std::string jsonl;
  std::size_t trace_records = 0;
  std::uint64_t events_run = 0;
  std::size_t materialized = 0;
  std::uint64_t replays_rejected = 0;
};

double counter_value(const obs::Registry& registry, const char* name) {
  const obs::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0.0 : c->value();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void collect(const Swarm& swarm, const obs::Registry& registry,
             FleetRun* run) {
  const std::vector<obs::TraceRecord> merged = swarm.merged_trace();
  run->trace_records = merged.size();
  std::ostringstream out;
  obs::write_jsonl(out, merged);
  run->jsonl = out.str();
  const obs::Counter* events = registry.find_counter("queue.events_run");
  run->events_run = events == nullptr ? 0 : events->count();
  run->materialized = swarm.materialized_count();
  run->replays_rejected = static_cast<std::uint64_t>(
      counter_value(registry, "prover.outcome.not-fresh") +
      counter_value(registry, "prover.outcome.bad-request-mac"));
}

void expect_identical(const FleetRun& a, const FleetRun& b) {
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.materialized, b.materialized);
  EXPECT_EQ(a.replays_rejected, b.replays_rejected);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.jsonl.size(), b.jsonl.size());
  if (a.jsonl != b.jsonl) {
    const auto diff = std::mismatch(a.jsonl.begin(), a.jsonl.end(),
                                    b.jsonl.begin(), b.jsonl.end());
    ADD_FAILURE() << "merged JSONL differs at byte "
                  << (diff.first - a.jsonl.begin());
  }
}

// bench_swarm_dos --devices=N --threads=T: per-device boot images, phase
// I records one genuine request per link (untraced; its run_all drains
// the shards on the pool, and each prover secure-boots there at its first
// delivery), phase II replays it 20x per device under sharded tracing.
struct ReplayPlan {
  bool per_byte_bus = false;  // reference bus path (boots on the caller)
  bool boot_on_caller = false;  // boot every prover in phase I's loop
};

FleetRun replay_flood(std::size_t devices, std::size_t threads,
                      ReplayPlan plan = {}) {
  SwarmConfig config;
  config.device_count = devices;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 16 * 1024;
  config.attest_period_ms = 250.0;
  config.stagger_ms = 0.5;
  config.shard_count = std::min(devices, kShards);
  Swarm swarm(config, crypto::from_string(kFleetSeed));

  std::vector<RecordingTap> taps(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    swarm.channel(i).set_tap(&taps[i]);
    if (plan.per_byte_bus) {
      swarm.prover(i).mcu().bus().set_bulk_enabled(false);
    }
    if (plan.boot_on_caller) (void)swarm.prover(i);
    swarm.session(i).send_request();
  }
  swarm.run_all();

  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  for (std::size_t i = 0; i < devices; ++i) {
    if (taps[i].recorded_to_prover().empty()) continue;
    const crypto::Bytes recorded = taps[i].recorded_to_prover()[0].payload;
    for (int k = 0; k < 20; ++k) {
      swarm.channel(i).inject_to_prover(recorded, 10.0 + 45.0 * k);
    }
  }
  FleetRun run;
  run.report = swarm.run_parallel(1000.0, threads);
  collect(swarm, registry, &run);
  return run;
}

// Periodic fleet: shared boot image, 64 B measured every 125 ms over a
// 1000 ms horizon, sharded tracing (no adversary).
struct PeriodicPlan {
  bool mac_batch = true;
  bool incremental = false;
  bool eager = false;  // reference plant on one thread (threads ignored)
};

FleetRun periodic_fleet(std::size_t devices, std::size_t threads,
                        PeriodicPlan plan = {}) {
  SwarmConfig config;
  config.device_count = devices;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 64;
  config.prover.enable_incremental = plan.incremental;
  config.attest_period_ms = 125.0;
  config.shard_count = std::min(devices, kShards);
  config.share_app_image = true;
  config.mac_batch = plan.mac_batch;
  Swarm swarm(config, crypto::from_string(kFleetSeed));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  FleetRun run;
  run.report = plan.eager ? oracle::run_eager(swarm, config, 1000.0)
                          : swarm.run_parallel(1000.0, threads);
  collect(swarm, registry, &run);
  return run;
}

void expect_clean_periodic(const FleetRun& run, std::size_t devices) {
  EXPECT_EQ(run.report.events_leftover, 0u);
  EXPECT_GT(run.report.total_sent(), devices);
  EXPECT_EQ(run.report.total_valid(), run.report.total_sent());
  EXPECT_EQ(run.materialized, devices);
  EXPECT_FALSE(run.jsonl.empty());
}

TEST(FleetByteCompare, ReplayFloodIdenticalAt1And4And8Threads) {
  const FleetRun t1 = replay_flood(256, 1);
  // Every replay of every device is rejected as stale, and every genuine
  // round (one in phase I, four in the window) still validates.
  EXPECT_EQ(t1.replays_rejected, 256u * 20u);
  EXPECT_EQ(t1.report.total_valid(), t1.report.total_sent());
  EXPECT_GE(t1.report.total_sent(), 256u * 4u);
  EXPECT_EQ(t1.report.events_leftover, 0u);
  EXPECT_FALSE(t1.jsonl.empty());
  // The reference values `bench_swarm_dos --devices=256` prints.
  EXPECT_EQ(t1.report.total_sent(), 1025u);
  EXPECT_EQ(t1.report.total_valid(), 1025u);
  EXPECT_EQ(t1.trace_records, 6658u);
  EXPECT_EQ(fnv1a(t1.jsonl), 0xe2a4a4ca993b8eceull);
  {
    SCOPED_TRACE("4 threads");
    expect_identical(replay_flood(256, 4), t1);
  }
  {
    SCOPED_TRACE("8 threads");
    expect_identical(replay_flood(256, 8), t1);
  }
  {
    SCOPED_TRACE("every prover booted on the calling thread");
    expect_identical(replay_flood(256, 4, {.boot_on_caller = true}), t1);
  }
}

TEST(FleetPooledBoot, ReplayFloodBootsOnShardWorkers) {
  // Phase I of the replay flood primes every device from the calling
  // thread — tap, first request — without booting one; run_all() then
  // boots each prover at its first delivery, on the worker draining its
  // shard. Two probe events per shard bracket that delivery (t = 0 and
  // t = 2.5 ms; the channel latency is 2 ms) and record their thread.
  constexpr std::size_t kDevices = 256;
  constexpr std::size_t kPerShard = kDevices / kShards;
  SwarmConfig config;
  config.device_count = kDevices;
  config.prover.measured_bytes = 16 * 1024;
  config.shard_count = kShards;
  Swarm swarm(config, crypto::from_string(kFleetSeed));
  std::vector<RecordingTap> taps(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) {
    swarm.channel(i).set_tap(&taps[i]);
    swarm.session(i).send_request();
  }
  // Reports and footprint accounting read cold provers without booting
  // them: an unbooted prover has attested for 0 device ms.
  EXPECT_EQ(swarm.report(1000.0).total_attest_ms(), 0.0);
  EXPECT_EQ(swarm.resident().devices, kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) {
    ASSERT_TRUE(swarm.is_materialized(i));
    ASSERT_FALSE(swarm.is_booted(i)) << i;
  }

  struct Probe {
    std::thread::id before, after;
    std::size_t booted_before = 0, booted_after = 0;
  };
  std::vector<Probe> probes(kShards);
  const auto booted = [&swarm](std::size_t s) {
    std::size_t n = 0;
    for (std::size_t i = s * kPerShard; i < (s + 1) * kPerShard; ++i) {
      n += swarm.is_booted(i) ? 1 : 0;
    }
    return n;
  };
  for (std::size_t s = 0; s < kShards; ++s) {
    EventQueue& q = swarm.queue_of(s * kPerShard);
    q.schedule_at(0.0, [&, s] {
      probes[s].before = std::this_thread::get_id();
      probes[s].booted_before = booted(s);
    });
    q.schedule_at(2.5, [&, s] {
      probes[s].after = std::this_thread::get_id();
      probes[s].booted_after = booted(s);
    });
  }
  ASSERT_EQ(swarm.run_all(), 0u);

  std::vector<std::thread::id> workers;
  for (std::size_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(probes[s].booted_before, 0u);
    EXPECT_EQ(probes[s].booted_after, kPerShard);
    EXPECT_EQ(probes[s].before, probes[s].after);
    workers.push_back(probes[s].before);
  }
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  EXPECT_LE(workers.size(), obs::tail_workers(kShards));
  for (std::size_t i = 0; i < kDevices; ++i) {
    EXPECT_TRUE(swarm.is_booted(i)) << i;
    EXPECT_EQ(taps[i].recorded_to_prover().size(), 1u) << i;
  }
  const SwarmReport report = swarm.report(0.0);
  EXPECT_EQ(report.total_valid(), kDevices);
}

TEST(FleetBatch, LossyReliableFleetStaysOnTheLookaheadPipeline) {
  // Lost and retried attempts need no clean-up: every fill draws all 8
  // lanes over the rounds issued before it, so a lossy fleet keeps
  // checking through the pipeline instead of drifting onto scalar MACs.
  // Only late answers to rounds a later fill overwrote go scalar.
  SwarmConfig config;
  config.device_count = 512;
  config.shard_count = kShards;
  config.prover.measured_bytes = 1024;
  config.attest_period_ms = 250.0;
  config.stagger_ms = 0.5;
  config.share_app_image = true;
  config.link = net::lossy10_link();
  config.reliable = true;
  config.retry.max_attempts = 4;
  config.retry.base_timeout_ms = 0.0;  // derived
  config.retry.jitter_ms = 5.0;
  Swarm swarm(config, crypto::from_string(kFleetSeed));
  obs::Registry registry;
  swarm.attach_observer(&registry, nullptr);
  const SwarmReport report = swarm.run_parallel(16000.0, 4);
  EXPECT_EQ(report.events_leftover, 0u);
  const double valid = counter_value(registry, "verifier.checks.valid");
  const double invalid = counter_value(registry, "verifier.checks.invalid");
  const double hits = counter_value(registry, "verifier.batch.hits");
  const double misses = counter_value(registry, "verifier.batch.misses");
  const double fills = counter_value(registry, "verifier.batch.fills");
  const double lanes = counter_value(registry, "verifier.batch.lanes");
  EXPECT_GT(valid, 30000.0);
  EXPECT_GT(counter_value(registry, "net.retransmits"), 1000.0);
  EXPECT_GE(hits, 0.9 * valid) << hits << " hits of " << valid;
  // Every check is served either from the window or scalar.
  EXPECT_EQ(hits + misses, valid + invalid);
  ASSERT_GT(fills, 0.0);
  EXPECT_EQ(lanes, 8.0 * fills) << lanes << " lanes in " << fills;
}

TEST(FleetByteCompare, BatchedMatchesScalar512Devices4Threads) {
  const FleetRun batched = periodic_fleet(512, 4);
  expect_clean_periodic(batched, 512);
  expect_identical(periodic_fleet(512, 4, {.mac_batch = false}), batched);
}

TEST(FleetByteCompare, BatchedMatchesScalar512Devices8Threads) {
  const FleetRun batched = periodic_fleet(512, 8);
  expect_clean_periodic(batched, 512);
  expect_identical(periodic_fleet(512, 8, {.mac_batch = false}), batched);
}

TEST(FleetByteCompare, BatchedMatchesScalar4096Devices4Threads) {
  const FleetRun batched = periodic_fleet(4096, 4);
  expect_clean_periodic(batched, 4096);
  expect_identical(periodic_fleet(4096, 4, {.mac_batch = false}), batched);
}

TEST(FleetByteCompare, BulkBusMatchesPerByteBus64Devices4Threads) {
  // Every device's bus is flipped right after it materializes, so from
  // its first request on it serves every access through the per-byte
  // reference path.
  const FleetRun bulk = replay_flood(64, 4);
  EXPECT_EQ(bulk.replays_rejected, 64u * 20u);
  EXPECT_FALSE(bulk.jsonl.empty());
  expect_identical(replay_flood(64, 4, {.per_byte_bus = true}), bulk);
}

TEST(FleetByteCompare, IncrementalFleetIdenticalAt1And4Threads) {
  const FleetRun t1 = periodic_fleet(1024, 1, {.incremental = true});
  expect_clean_periodic(t1, 1024);
  expect_identical(periodic_fleet(1024, 4, {.incremental = true}), t1);
}

TEST(FleetByteCompare, LazyChainsMatchEagerPlant4096Devices) {
  const FleetRun lazy = periodic_fleet(4096, 4);
  expect_clean_periodic(lazy, 4096);
  // The pinned reference fleet: round, event and trace-record counts and
  // the FNV-1a of its merged trace JSONL.
  EXPECT_EQ(lazy.report.total_sent(), 28705u);
  EXPECT_EQ(lazy.report.total_valid(), 28705u);
  EXPECT_EQ(lazy.events_run, 86115u);
  EXPECT_EQ(lazy.trace_records, 57410u);
  EXPECT_EQ(fnv1a(lazy.jsonl), 0x17fc79fe1bd70478ull);
  expect_identical(periodic_fleet(4096, 1, {.eager = true}), lazy);
}

}  // namespace
}  // namespace ratt::sim
