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
//   * replay flood, 256 devices, 1 vs 4 vs 8 threads;
//   * periodic fleet, multi-buffer MAC batching vs scalar verifier MACs
//     at 512 x 4, 512 x 8 and 4096 x 4 (devices x threads);
//   * replay flood, 64 devices at 4 threads, bulk vs per-byte bus;
//   * incremental periodic fleet, 1024 devices, 1 vs 4 threads;
//   * periodic fleet, 4096 devices, lazy chains at 4 threads vs the
//     eager reference plant at 1 thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fleet_oracles.hpp"
#include "ratt/obs/metrics.hpp"
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
// the shards on the pool), phase II replays it 20x per device under
// sharded tracing.
FleetRun replay_flood(std::size_t devices, std::size_t threads,
                      bool per_byte_bus = false) {
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
    if (per_byte_bus) swarm.prover(i).mcu().bus().set_bulk_enabled(false);
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
  expect_identical(replay_flood(64, 4, /*per_byte_bus=*/true), bulk);
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
