// Fleet-scale Swarm semantics: stagger wrap (no starved devices at any
// fleet size), lazy self-rescheduling vs the test-planted eager
// reference schedule (clean and over lossy reliable rounds), lazy device
// materialization and its resident-bytes audit, the per-device footprint
// gate, shared app images, batched vs scalar verifier MACs, derived
// drain budgets, the observer plan's replay onto materialized devices,
// and drift-free long-horizon segmented replay.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fleet_oracles.hpp"
#include "ratt/obs/power/trace.hpp"
#include "ratt/obs/trace.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::sim {
namespace {

using attest::FreshnessScheme;

SwarmConfig fleet_config(std::size_t devices) {
  SwarmConfig config;
  config.device_count = devices;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.measured_bytes = 512;
  config.attest_period_ms = 100.0;
  return config;
}

std::string trace_jsonl(const Swarm& swarm) {
  std::ostringstream out;
  obs::write_jsonl(out, swarm.merged_trace());
  return out.str();
}

std::string power_jsonl(const Swarm& swarm) {
  std::ostringstream out;
  obs::power::write_jsonl(out, swarm.merged_power_traces(),
                          obs::power::PowerTraceConfig{});
  return out.str();
}

TEST(SwarmFleet, StaggerWrapKeepsEveryDeviceOnSchedule) {
  // 40 devices x 37 ms stagger = raw offsets up to 1443 ms — far past a
  // 500 ms horizon. Without the fmod wrap, every device from index 13 up
  // never attested at all; with it, every device's first round lands
  // inside the first two periods.
  SwarmConfig config = fleet_config(40);
  Swarm swarm(config, crypto::from_string("fleet-seed"));
  const SwarmReport report = swarm.run_parallel(500.0, 1);
  ASSERT_EQ(report.devices.size(), 40u);
  for (const auto& d : report.devices) {
    EXPECT_GE(d.stats.requests_sent, 3u) << "device " << d.device;
    EXPECT_EQ(d.stats.responses_valid, d.stats.requests_sent)
        << "device " << d.device;
  }
}

TEST(SwarmFleet, LazyScheduleMatchesEagerReference) {
  // The lazy one-event-per-device chain and the eager reference plant
  // must produce the same fleet behavior: identical reports and identical
  // merged traces (the re-arm event IS the send event, so even event
  // counts per round agree).
  SwarmConfig config = fleet_config(8);
  config.shard_count = 2;

  Swarm lazy_swarm(config, crypto::from_string("fleet-seed"));
  obs::Registry lazy_reg;
  lazy_swarm.attach_sharded_observer(&lazy_reg);
  const SwarmReport lazy_report = lazy_swarm.run_parallel(1000.0, 1);

  Swarm eager_swarm(config, crypto::from_string("fleet-seed"));
  obs::Registry eager_reg;
  eager_swarm.attach_sharded_observer(&eager_reg);
  const SwarmReport eager_report =
      oracle::run_eager(eager_swarm, config, 1000.0);

  EXPECT_EQ(lazy_report, eager_report);
  EXPECT_EQ(trace_jsonl(lazy_swarm), trace_jsonl(eager_swarm));
  // Eager materializes everything up front; lazy only what the horizon
  // touched (here: everything, since every device attests).
  EXPECT_EQ(lazy_swarm.materialized_count(), 8u);
}

TEST(SwarmFleet, LazyMatchesEagerOverLossyReliableRounds) {
  // Same seed, lazy chains on 4 threads vs the eager reference plant on
  // one, with a lossy link and reliable rounds so retry timers and
  // duplicate deliveries interleave with the round events: reports and
  // merged traces must be byte-identical.
  SwarmConfig config = fleet_config(16);
  config.shard_count = 4;
  config.reliable = true;
  config.link.name = "lossy";
  config.link.loss_to_prover = 0.1;
  config.link.loss_to_verifier = 0.05;
  config.link.jitter_ms = 3.0;
  config.link.dup_probability = 0.05;

  Swarm lazy_swarm(config, crypto::from_string("fleet-seed"));
  obs::Registry lazy_reg;
  lazy_swarm.attach_sharded_observer(&lazy_reg);
  const SwarmReport lazy_report = lazy_swarm.run_parallel(1500.0, 4);

  Swarm eager_swarm(config, crypto::from_string("fleet-seed"));
  obs::Registry eager_reg;
  eager_swarm.attach_sharded_observer(&eager_reg);
  const SwarmReport eager_report =
      oracle::run_eager(eager_swarm, config, 1500.0);

  EXPECT_EQ(lazy_report, eager_report);
  EXPECT_EQ(trace_jsonl(lazy_swarm), trace_jsonl(eager_swarm));
  EXPECT_GT(lazy_report.total_sent(), 0u);
}

TEST(SwarmFleet, LazyMaterializationOnlyBuildsScheduledDevices) {
  // Offsets are fmod(37 i, 100); round 1 fires at offset + 100. With a
  // 150 ms horizon only the devices whose offset <= 50 ever wake — the
  // rest must stay cold yet still appear in the report as idle rows.
  SwarmConfig config = fleet_config(16);
  Swarm swarm(config, crypto::from_string("fleet-seed"));
  EXPECT_EQ(swarm.materialized_count(), 0u);
  const SwarmReport report = swarm.run_parallel(150.0, 1);

  std::size_t expected_awake = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const double offset = std::fmod(37.0 * static_cast<double>(i), 100.0);
    const bool awake = offset + 100.0 <= 150.0;
    expected_awake += awake ? 1 : 0;
    EXPECT_EQ(swarm.is_materialized(i), awake) << "device " << i;
    EXPECT_EQ(report.devices[i].stats.requests_sent, awake ? 1u : 0u)
        << "device " << i;
  }
  EXPECT_EQ(swarm.materialized_count(), expected_awake);
  ASSERT_EQ(report.devices.size(), 16u);
  // An unmaterialized row is exactly a default report row.
  SwarmDeviceReport idle;
  idle.device = 2;
  EXPECT_EQ(report.devices[2], idle);
  // Touching a cold device through an accessor materializes it.
  EXPECT_FALSE(swarm.is_materialized(8));
  (void)swarm.device_key(8);
  EXPECT_TRUE(swarm.is_materialized(8));
}

TEST(SwarmFleet, SharedAppImageKeepsKeysAndReports) {
  // share_app_image swaps per-device boot images for one fleet-wide
  // template; keys, statuses and timing must not change.
  SwarmConfig config = fleet_config(6);
  config.prover.measured_bytes = 2048;
  SwarmConfig shared = config;
  shared.share_app_image = true;

  Swarm plain(config, crypto::from_string("fleet-seed"));
  Swarm templated(shared, crypto::from_string("fleet-seed"));
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(plain.device_key(i), templated.device_key(i)) << "device " << i;
  }
  const SwarmReport plain_report = plain.run_parallel(600.0, 1);
  const SwarmReport shared_report = templated.run_parallel(600.0, 1);
  EXPECT_EQ(plain_report, shared_report);
  EXPECT_GT(shared_report.total_valid(), 0u);
}

TEST(SwarmFleet, TemplateBootedDeviceKeepsUnderOneKilobyteOfPrivatePages) {
  // A device booted from the shared template aliases its image pages;
  // what it writes privately is K_Attest in ROM and its freshness state
  // in RAM. High-water bus pages keep only those prefixes, so one
  // attestation round leaves well under 1 KB of private pages (not a
  // 4 KB page per written byte range).
  SwarmConfig config = fleet_config(1);
  config.prover.measured_bytes = 64;
  config.share_app_image = true;
  Swarm swarm(config, crypto::from_string("fleet-seed"));
  // Round 1 fires at 100 ms.
  const SwarmReport report = swarm.run_parallel(150.0, 1);
  EXPECT_EQ(report.total_sent(), 1u);
  EXPECT_EQ(report.total_valid(), 1u);
  const Swarm::ResidentReport r = swarm.resident();
  EXPECT_EQ(r.devices, 1u);
  EXPECT_GT(r.shared_bytes, 0u);
  EXPECT_GT(r.bus_bytes, 0u);
  EXPECT_LT(r.bus_bytes, 1024u);
}

TEST(SwarmFleet, DrainBudgetCoversLargeCleanFleet) {
  // A clean fleet whose scheduled work exceeds the legacy fixed 1M-event
  // budget on every shard: the derived per-shard budget must drain it
  // completely (events_leftover == 0) instead of stranding the horizon
  // tail. Two shards on two workers with the registry-only plan
  // (attach_observer), so the sanitizer rows also watch that plan's
  // parallel drain.
  SwarmConfig config;
  config.device_count = 20'000;
  config.shard_count = 2;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.measured_bytes = 64;
  config.attest_period_ms = 10.0;
  config.share_app_image = true;  // one signature check for the fleet
  Swarm swarm(config, crypto::from_string("fleet-seed"));
  obs::Registry registry;
  swarm.attach_observer(&registry);
  const SwarmReport report = swarm.run_parallel(500.0, 2);
  EXPECT_EQ(report.events_leftover, 0u);
  EXPECT_EQ(report.total_valid(), report.total_sent());
  EXPECT_GE(report.total_sent(), 20'000u * 49u);
  // The point of the derived budget: each shard's healthy run really
  // does run more than the old 1'000'000-event flat allowance.
  const obs::Counter* events_run = registry.find_counter("queue.events_run");
  ASSERT_NE(events_run, nullptr);
  EXPECT_GT(events_run->count(), 2u * 1'000'000u);
}

TEST(SwarmFleet, LongHorizonSegmentedReplayMatchesStraightRun) {
  // A 10^6 ms horizon with an inexact period (333.3 has no finite binary
  // representation): round times are computed multiplicatively, so a
  // dashboard-style run_until replay in awkward slices lands every round
  // on the same bit-exact times as the straight run — reports, traces
  // and synthesized power waveforms all byte-identical.
  SwarmConfig config;
  config.device_count = 4;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.measured_bytes = 512;
  config.attest_period_ms = 333.3;
  const double horizon_ms = 1.0e6;

  Swarm straight(config, crypto::from_string("fleet-seed"));
  obs::Registry straight_reg;
  straight.attach_sharded_observer(&straight_reg, 1 << 18);
  straight.attach_power();
  const SwarmReport straight_report = straight.run_parallel(horizon_ms, 1);

  Swarm sliced(config, crypto::from_string("fleet-seed"));
  obs::Registry sliced_reg;
  sliced.attach_sharded_observer(&sliced_reg, 1 << 18);
  sliced.attach_power();
  sliced.schedule(horizon_ms);
  for (double t = 77'777.7; t < horizon_ms; t += 77'777.7) {
    sliced.run_until(t);
  }
  sliced.run_until(horizon_ms);
  const SwarmReport sliced_report = sliced.report(horizon_ms);

  EXPECT_EQ(sliced_report, straight_report);
  EXPECT_EQ(sliced_report.events_leftover, 0u);
  EXPECT_GT(straight_report.total_sent(), 4u * 2990u);
  EXPECT_EQ(trace_jsonl(sliced), trace_jsonl(straight));
  EXPECT_EQ(power_jsonl(sliced), power_jsonl(straight));
}

// --- Observer plan replay: attaching before any device exists and
// attaching after every device is materialized must be indistinguishable
// in every export. ---

struct ObservedRun {
  SwarmReport report;
  std::string trace;
  std::string profile;
  std::string power;
  std::string metrics;
};

SwarmConfig replay_fleet() {
  SwarmConfig config = fleet_config(12);
  config.shard_count = 4;
  config.prover.authenticate_requests = true;
  config.stagger_ms = 11.0;
  return config;
}

ObservedRun run_sharded_power(bool materialize_first) {
  Swarm swarm(replay_fleet(), crypto::from_string("fleet-seed"));
  if (materialize_first) {
    for (std::size_t i = 0; i < swarm.size(); ++i) swarm.prover(i);
    EXPECT_EQ(swarm.materialized_count(), swarm.size());
  } else {
    EXPECT_EQ(swarm.materialized_count(), 0u);
  }
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  swarm.attach_power();
  ObservedRun run;
  run.report = swarm.run_parallel(700.0, 2);
  run.trace = trace_jsonl(swarm);
  std::ostringstream profile;
  swarm.merged_profile().write_jsonl(profile);
  run.profile = profile.str();
  run.power = power_jsonl(swarm);
  run.metrics = registry.to_text();
  return run;
}

TEST(SwarmFleet, ShardedPowerPlanReplaysOntoMaterializedDevices) {
  const ObservedRun cold = run_sharded_power(false);
  const ObservedRun warm = run_sharded_power(true);
  EXPECT_GT(cold.report.total_sent(), 0u);
  EXPECT_EQ(cold.report.total_valid(), cold.report.total_sent());
  EXPECT_FALSE(cold.trace.empty());
  EXPECT_FALSE(cold.profile.empty());
  EXPECT_FALSE(cold.power.empty());
  EXPECT_EQ(warm.report, cold.report);
  EXPECT_EQ(warm.trace, cold.trace);
  EXPECT_EQ(warm.profile, cold.profile);
  EXPECT_EQ(warm.power, cold.power);
  EXPECT_EQ(warm.metrics, cold.metrics);
}

ObservedRun run_registry_only(bool materialize_first) {
  Swarm swarm(replay_fleet(), crypto::from_string("fleet-seed"));
  if (materialize_first) {
    for (std::size_t i = 0; i < swarm.size(); ++i) swarm.prover(i);
  }
  obs::Registry registry;
  swarm.attach_observer(&registry);
  ObservedRun run;
  run.report = swarm.run_parallel(700.0, 2);
  run.metrics = registry.to_text();
  return run;
}

TEST(SwarmFleet, RegistryPlanReplaysOntoMaterializedDevices) {
  const ObservedRun cold = run_registry_only(false);
  const ObservedRun warm = run_registry_only(true);
  EXPECT_GT(cold.report.total_sent(), 0u);
  EXPECT_EQ(cold.report.total_valid(), cold.report.total_sent());
  EXPECT_NE(cold.metrics.find("prover.requests"), std::string::npos);
  EXPECT_EQ(warm.report, cold.report);
  EXPECT_EQ(warm.metrics, cold.metrics);
}

// --- Sharded fleet storage: per-device components, resident-bytes
// audit, footprint gate and the batched-MAC toggle. (These cases keep
// the ShardBlock suite name they were written under, so their IDs stay
// stable in test history.) ---

SwarmConfig sharded_fleet(std::size_t devices) {
  SwarmConfig config;
  config.device_count = devices;
  config.shard_count = 4;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 256;
  config.attest_period_ms = 100.0;
  config.stagger_ms = 7.0;
  return config;
}

SwarmReport run_sharded(const SwarmConfig& config, std::string* jsonl) {
  Swarm swarm(config, crypto::from_string("shard-seed"));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  const SwarmReport report = swarm.run_parallel(400.0, 2);
  *jsonl = trace_jsonl(swarm);
  return report;
}

TEST(ShardBlock, MacBatchToggleInvisibleInReportsAndTraces) {
  SwarmConfig batched = sharded_fleet(8);
  batched.mac_batch = true;
  SwarmConfig scalar = sharded_fleet(8);
  scalar.mac_batch = false;
  std::string batched_jsonl;
  std::string scalar_jsonl;
  const SwarmReport batched_report = run_sharded(batched, &batched_jsonl);
  const SwarmReport scalar_report = run_sharded(scalar, &scalar_jsonl);
  EXPECT_EQ(batched_report, scalar_report);
  EXPECT_FALSE(batched_jsonl.empty());
  EXPECT_EQ(batched_jsonl, scalar_jsonl);
}

TEST(ShardBlock, ResidentReportAuditsLazyMaterialization) {
  Swarm swarm(sharded_fleet(16), crypto::from_string("shard-seed"));
  // Nothing materialized: the fleet costs nothing yet.
  const Swarm::ResidentReport empty = swarm.resident();
  EXPECT_EQ(empty.devices, 0u);
  EXPECT_EQ(empty.total_bytes(), 0u);
  // Touch three devices; only they may appear in the report.
  swarm.prover(0);
  swarm.prover(5);
  swarm.prover(11);
  const Swarm::ResidentReport three = swarm.resident();
  EXPECT_EQ(three.devices, 3u);
  EXPECT_GT(three.arena_bytes, 0u);
  EXPECT_GT(three.bus_bytes, 0u);
  EXPECT_GT(three.table_bytes, 0u);
  // Re-touching a materialized device is free.
  swarm.prover(5);
  const Swarm::ResidentReport retouch = swarm.resident();
  EXPECT_EQ(retouch.devices, 3u);
  EXPECT_EQ(retouch.total_bytes(), three.total_bytes());
  // Materializing the rest grows the report device by device.
  for (std::size_t i = 0; i < swarm.size(); ++i) swarm.prover(i);
  const Swarm::ResidentReport full = swarm.resident();
  EXPECT_EQ(full.devices, 16u);
  EXPECT_GT(full.total_bytes(), three.total_bytes());
  EXPECT_GT(full.per_device_bytes(), 0.0);
}

TEST(ShardBlock, SharedImageFleetStaysUnderFootprintBudget) {
  // The footprint gate, scaled down: a shared-image fleet (the bench
  // configuration) must materialize at <= 6 KB per device, with the
  // template's boot pages counted once in shared_bytes rather than once
  // per device.
  SwarmConfig config = sharded_fleet(256);
  config.share_app_image = true;
  config.prover.measured_bytes = 64;
  Swarm swarm(config, crypto::from_string("shard-seed"));
  for (std::size_t i = 0; i < swarm.size(); ++i) swarm.prover(i);
  const Swarm::ResidentReport r = swarm.resident();
  EXPECT_EQ(r.devices, 256u);
  EXPECT_GT(r.shared_bytes, 0u);
  EXPECT_LE(r.per_device_bytes(), 6.0 * 1024.0);
}

TEST(ShardBlock, ReliableAndIncrementalAreMutuallyExclusive) {
  // The retransmitter owns reliable round state and the incremental
  // path owns its own — combining them silently produced wire-level
  // divergence, so the ctor refuses.
  SwarmConfig config = sharded_fleet(4);
  config.reliable = true;
  config.prover.enable_incremental = true;
  EXPECT_THROW(Swarm(config, crypto::from_string("shard-seed")),
               std::invalid_argument);
  // Either flag alone is fine.
  SwarmConfig only_reliable = sharded_fleet(4);
  only_reliable.reliable = true;
  EXPECT_NO_THROW(Swarm(only_reliable, crypto::from_string("shard-seed")));
  SwarmConfig only_incremental = sharded_fleet(4);
  only_incremental.prover.enable_incremental = true;
  EXPECT_NO_THROW(Swarm(only_incremental, crypto::from_string("shard-seed")));
}

TEST(SwarmFleet, ThrowingComponentLeavesNoHalfBuiltDevice) {
  // A timestamp fleet without a clock design is rejected when the first
  // device's components are built. The exception must reach the caller
  // and leave no record behind: the count stays 0 and resident() (which
  // walks every recorded device) stays callable.
  SwarmConfig config = sharded_fleet(4);
  config.prover.scheme = FreshnessScheme::kTimestamp;
  Swarm swarm(config, crypto::from_string("shard-seed"));
  EXPECT_THROW(swarm.prover(0), std::invalid_argument);
  EXPECT_FALSE(swarm.is_materialized(0));
  EXPECT_EQ(swarm.materialized_count(), 0u);
  const Swarm::ResidentReport r = swarm.resident();
  EXPECT_EQ(r.devices, 0u);
  EXPECT_EQ(r.total_bytes(), 0u);
  // A second touch fails the same way instead of returning a husk.
  EXPECT_THROW(swarm.prover(0), std::invalid_argument);
  EXPECT_EQ(swarm.materialized_count(), 0u);
}

TEST(SwarmFleet, OutOfRangeDeviceIndexThrows) {
  // Every accessor taking a device index rejects index >= size(), and
  // shard_ring rejects index >= shard_count() — the empty fleet included
  // — and builds nothing on the way out.
  SwarmConfig lossy = sharded_fleet(8);
  lossy.link = net::lossy10_link();
  SwarmConfig empty = sharded_fleet(0);
  for (const SwarmConfig& config : {sharded_fleet(8), lossy, empty}) {
    Swarm swarm(config, crypto::from_string("shard-seed"));
    for (const std::size_t i :
         {swarm.size(), swarm.size() + 1, static_cast<std::size_t>(-1)}) {
      SCOPED_TRACE(testing::Message() << "size " << swarm.size() << ", index "
                                      << i);
      EXPECT_THROW(swarm.queue_of(i), std::out_of_range);
      EXPECT_THROW(swarm.prover(i), std::out_of_range);
      EXPECT_THROW(swarm.channel(i), std::out_of_range);
      EXPECT_THROW(swarm.session(i), std::out_of_range);
      EXPECT_THROW(swarm.device_key(i), std::out_of_range);
      EXPECT_THROW(swarm.faulty_link(i), std::out_of_range);
      EXPECT_THROW((void)swarm.is_materialized(i), std::out_of_range);
    }
    // Shard indices follow the same rule against shard_count().
    EXPECT_THROW((void)swarm.shard_ring(swarm.shard_count()),
                 std::out_of_range);
    EXPECT_THROW((void)swarm.shard_ring(static_cast<std::size_t>(-1)),
                 std::out_of_range);
    EXPECT_EQ(swarm.materialized_count(), 0u);
  }
}

}  // namespace
}  // namespace ratt::sim
