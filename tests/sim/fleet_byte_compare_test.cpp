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
// The registry text (Registry::to_text(), fractional sums included) of
// the periodic fleet and of a lossy10 reliable fleet is compared byte for
// byte at 1, 4 and 8 threads.
//
// More cases check where work runs rather than what it outputs: a
// primed replay flood boots no prover before run_all() and every one on
// its shard's worker inside it; lossy reliable fleets (1 KB and 16 KB)
// keep >= 90% of their valid checks on the verifier's lookahead window,
// and the 16 KB one computes no more expected tags than it reads where
// SHA-1 lanes run one after another; and no two shards record into one
// registry instrument.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet_oracles.hpp"
#include "ratt/crypto/sha1xn.hpp"
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
  std::string registry_text;
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
  run->registry_text = registry.to_text();
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

// verifier.batch.* counters, the fleet's tag count and its retries
// after a lossy10 reliable fleet (4 attempts, 250 ms period) drains.
struct LossyBatchRun {
  double valid = 0;
  double invalid = 0;
  double hits = 0;
  double misses = 0;
  double fills = 0;
  double lanes = 0;
  double retransmits = 0;
  std::uint64_t tags_computed = 0;
  std::string registry_text;
};

LossyBatchRun lossy_reliable_fleet(std::size_t devices,
                                   std::size_t measured_bytes,
                                   double horizon_ms,
                                   std::size_t threads = 4) {
  SwarmConfig config;
  config.device_count = devices;
  config.shard_count = kShards;
  config.prover.measured_bytes = measured_bytes;
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
  swarm.attach_observer(&registry);
  const SwarmReport report = swarm.run_parallel(horizon_ms, threads);
  EXPECT_EQ(report.events_leftover, 0u);
  return {counter_value(registry, "verifier.checks.valid"),
          counter_value(registry, "verifier.checks.invalid"),
          counter_value(registry, "verifier.batch.hits"),
          counter_value(registry, "verifier.batch.misses"),
          counter_value(registry, "verifier.batch.fills"),
          counter_value(registry, "verifier.batch.lanes"),
          counter_value(registry, "net.retransmits"),
          swarm.batch_tags_computed(),
          registry.to_text()};
}

TEST(FleetBatch, LossyReliableFleetStaysOnTheLookaheadPipeline) {
  // Lost and retried attempts need no clean-up: every fill draws all 8
  // lanes over the rounds issued before it, so a lossy fleet keeps
  // checking through the pipeline instead of drifting onto scalar MACs.
  // Only late answers to rounds a later fill overwrote go scalar.
  const LossyBatchRun r = lossy_reliable_fleet(512, 1024, 16000.0);
  EXPECT_GT(r.valid, 30000.0);
  EXPECT_GT(r.retransmits, 1000.0);
  EXPECT_GE(r.hits, 0.9 * r.valid) << r.hits << " hits of " << r.valid;
  // Every check is served either from the window or scalar.
  EXPECT_EQ(r.hits + r.misses, r.valid + r.invalid);
  ASSERT_GT(r.fills, 0.0);
  EXPECT_EQ(r.lanes, 8.0 * r.fills) << r.lanes << " lanes in " << r.fills;
}

TEST(FleetBatch, LossyReliable16KBFleetTagsNoMoreThanItReads) {
  // At 16 KB each expected tag is a full-memory MAC. Where lanes run one
  // after another (SHA-NI), only rounds a check reads are tagged, so a
  // fleet whose attempts are lost and retried computes no more tags than
  // it has hits. Where lanes run in parallel a fill tags at most its 8
  // drawn rounds, in one wave.
  const LossyBatchRun r = lossy_reliable_fleet(256, 16384, 8000.0);
  EXPECT_GT(r.valid, 7000.0);
  EXPECT_GT(r.retransmits, 1000.0);
  EXPECT_GE(r.hits, 0.9 * r.valid) << r.hits << " hits of " << r.valid;
  EXPECT_EQ(r.hits + r.misses, r.valid + r.invalid);
  ASSERT_GT(r.fills, 0.0);
  EXPECT_EQ(r.lanes, 8.0 * r.fills);
  ASSERT_GT(r.tags_computed, 0u);
  if (crypto::Sha1xN::lanes_parallel()) {
    EXPECT_LE(static_cast<double>(r.tags_computed), 8.0 * r.fills);
  } else {
    EXPECT_LE(static_cast<double>(r.tags_computed), r.hits)
        << r.tags_computed << " tags for " << r.hits << " hits";
  }
}

TEST(FleetByteCompare, RegistryTextIdenticalAt1And4And8Threads) {
  // Shards record into private registries folded in shard order, so
  // every line of the export — fractional counter values and histogram
  // sums included — is independent of the thread count.
  {
    SCOPED_TRACE("periodic traced fleet, 16 shards");
    const FleetRun t1 = periodic_fleet(1024, 1);
    expect_clean_periodic(t1, 1024);
    ASSERT_NE(t1.registry_text.find("prover.busy_ms"), std::string::npos);
    for (const std::size_t threads : {4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      EXPECT_EQ(periodic_fleet(1024, threads).registry_text,
                t1.registry_text);
    }
  }
  {
    SCOPED_TRACE("lossy10 reliable fleet, 16 shards");
    const LossyBatchRun t1 = lossy_reliable_fleet(256, 1024, 4000.0, 1);
    EXPECT_GT(t1.retransmits, 0.0);
    ASSERT_NE(t1.registry_text.find("net.retransmits"), std::string::npos);
    for (const std::size_t threads : {4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      EXPECT_EQ(lossy_reliable_fleet(256, 1024, 4000.0, threads).registry_text,
                t1.registry_text);
    }
  }
}

TEST(FleetRegistry, ShardsRecordIntoPrivateInstruments) {
  // Fails when two shards' devices or queues record into one instrument.
  SwarmConfig config;
  config.device_count = 64;
  config.shard_count = 4;
  config.prover.measured_bytes = 64;
  config.attest_period_ms = 100.0;
  config.share_app_image = true;
  const std::size_t per_shard = config.device_count / config.shard_count;
  {
    // The caller's registry is only the fold target: a probe at the end
    // of every shard's drain finds it as the attach left it, although
    // each shard's devices have attested ~10 times by then.
    Swarm swarm(config, crypto::from_string(kFleetSeed));
    obs::Registry registry;
    swarm.attach_observer(&registry);
    std::vector<std::uint64_t> seen(config.shard_count, 1);
    for (std::size_t s = 0; s < config.shard_count; ++s) {
      swarm.queue_of(s * per_shard).schedule_at(999.0, [&registry, &seen, s] {
        const obs::Counter* requests = registry.find_counter("prover.requests");
        seen[s] = requests == nullptr ? 0 : requests->count();
      });
    }
    const SwarmReport report = swarm.run_parallel(1000.0, 4);
    EXPECT_EQ(seen, std::vector<std::uint64_t>(config.shard_count, 0));
    ASSERT_NE(registry.find_counter("prover.requests"), nullptr);
    EXPECT_EQ(registry.find_counter("prover.requests")->count(),
              report.total_sent());
  }
  {
    // One queue.backlog gauge per shard. The last shard sets it while
    // scheduling; only shard 0 runs in the slice. The fold takes the
    // last shard, in shard order, that set its gauge since the previous
    // fold (backlog 1), where one shared gauge would keep shard 0's
    // later write (backlog 0).
    Swarm swarm(config, crypto::from_string(kFleetSeed));
    obs::Registry registry;
    swarm.attach_observer(&registry);
    swarm.queue_of(config.device_count - 1).schedule_at(100.0, [] {});
    swarm.queue_of(0).schedule_at(10.0, [] {});
    swarm.queue_of(0).schedule_at(20.0, [] {});
    swarm.run_until(50.0);
    const obs::Gauge* backlog = registry.find_gauge("queue.backlog");
    ASSERT_NE(backlog, nullptr);
    EXPECT_EQ(backlog->value(), 1.0);
    EXPECT_EQ(backlog->max(), 2.0);
    EXPECT_EQ(backlog->sets(), 5u);
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
