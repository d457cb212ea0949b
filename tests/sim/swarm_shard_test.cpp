// Sharded Swarm execution: the fleet partitioned across per-shard event
// queues and drained on worker threads must be indistinguishable — in
// keys, reports, and exported traces, byte for byte — from the legacy
// single-queue serial run for the same seed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <sstream>
#include <thread>
#include <type_traits>
#include <vector>

#include "ratt/sim/fleet_health.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::sim {
namespace {

using attest::FreshnessScheme;

SwarmConfig fleet(std::size_t devices, std::size_t shards) {
  SwarmConfig config;
  config.device_count = devices;
  config.shard_count = shards;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 512;
  config.attest_period_ms = 100.0;
  config.stagger_ms = 7.0;
  return config;
}

TEST(SwarmShard, PlanCoversEveryDeviceOnce) {
  Swarm swarm(fleet(10, 4), crypto::from_string("shard-seed"));
  EXPECT_EQ(swarm.size(), 10u);
  EXPECT_EQ(swarm.shard_count(), 4u);
  // Every device resolves to exactly one queue; contiguous blocks mean
  // neighbors mostly share one.
  for (std::size_t i = 0; i < swarm.size(); ++i) {
    EXPECT_NO_THROW(swarm.queue_of(i));
  }
}

// The registry-only plan takes no sink: one sink handed to every shard
// would be written by every drain worker at once.
static_assert(std::is_invocable_v<decltype(&Swarm::attach_observer), Swarm&,
                                  obs::Registry*, std::nullptr_t>);
static_assert(!std::is_invocable_v<decltype(&Swarm::attach_observer),
                                   Swarm&, obs::Registry*, obs::TraceSink*>);

enum class Plan { kNone, kRegistry, kSharded, kPower };

TEST(SwarmShard, RunAllDrainsShardsOnThePool) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs two hardware threads";
  }
  // Each shard's first event waits for the other's: both get past the
  // wait only when two workers drain the shards at the same time — under
  // every observer plan, since no plan shares anything across shards.
  for (const Plan plan :
       {Plan::kNone, Plan::kRegistry, Plan::kSharded, Plan::kPower}) {
    SCOPED_TRACE(static_cast<int>(plan));
    Swarm swarm(fleet(2, 2), crypto::from_string("shard-seed"));
    obs::Registry registry;
    switch (plan) {
      case Plan::kNone:
        break;
      case Plan::kRegistry:
        swarm.attach_observer(&registry);
        break;
      case Plan::kSharded:
        swarm.attach_sharded_observer(&registry);
        break;
      case Plan::kPower:
        // attach_power() brings up the shard rings itself, keeping the
        // attached registry.
        swarm.attach_observer(&registry);
        swarm.attach_power();
        break;
    }
    std::atomic<int> arrived{0};
    bool met[2] = {false, false};
    for (std::size_t i = 0; i < 2; ++i) {
      swarm.queue_of(i).schedule_at(0.5, [&arrived, &met, i] {
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (arrived.load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        met[i] = arrived.load() >= 2;
      });
      swarm.session(i).send_request();
    }
    EXPECT_EQ(swarm.run_all(), 0u);
    EXPECT_TRUE(met[0]);
    EXPECT_TRUE(met[1]);
    EXPECT_EQ(swarm.report(0.0).total_valid(), 2u);
    if (plan == Plan::kSharded || plan == Plan::kPower) {
      EXPECT_FALSE(swarm.merged_trace().empty());
    }
    if (plan == Plan::kPower) {
      EXPECT_EQ(swarm.merged_power_traces().size(), 2u);
    }
    if (plan != Plan::kNone) {
      const obs::Counter* events = registry.find_counter("queue.events_run");
      ASSERT_NE(events, nullptr);
      EXPECT_GT(events->count(), 0u);
    }
  }
}

TEST(SwarmShard, RunAllReturnsEveryShardsStrandedBacklog) {
  // Self-rescheduling chains never drain: with nothing scheduled, each
  // shard's run_all budget is the 1 M-event floor, after which shard 0
  // strands its one chain and shard 1 its two.
  Swarm swarm(fleet(2, 2), crypto::from_string("shard-seed"));
  ASSERT_NE(&swarm.queue_of(0), &swarm.queue_of(1));
  std::function<void()> ticks[2];
  for (std::size_t i = 0; i < 2; ++i) {
    EventQueue& queue = swarm.queue_of(i);
    ticks[i] = [&queue, &tick = ticks[i]] { queue.schedule_in(1.0, tick); };
    for (std::size_t chain = 0; chain <= i; ++chain) {
      queue.schedule_at(0.0, ticks[i]);
    }
  }
  const std::size_t leftover = swarm.run_all();
  EXPECT_EQ(swarm.queue_of(0).pending(), 1u);
  EXPECT_EQ(swarm.queue_of(1).pending(), 2u);
  EXPECT_EQ(leftover,
            swarm.queue_of(0).pending() + swarm.queue_of(1).pending());
  EXPECT_EQ(swarm.report(0.0).events_leftover, leftover);
}

TEST(SwarmShard, ShardCountClampedToDevices) {
  Swarm swarm(fleet(3, 64), crypto::from_string("shard-seed"));
  EXPECT_EQ(swarm.shard_count(), 3u);
  Swarm zero(fleet(3, 0), crypto::from_string("shard-seed"));
  EXPECT_EQ(zero.shard_count(), 1u);
}

TEST(SwarmShard, KeysIndependentOfShardPlan) {
  // Keys derive from (fleet seed, device id) alone, so the shard plan
  // must not perturb them.
  Swarm one(fleet(8, 1), crypto::from_string("shard-seed"));
  Swarm four(fleet(8, 4), crypto::from_string("shard-seed"));
  Swarm eight(fleet(8, 8), crypto::from_string("shard-seed"));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(one.device_key(i), four.device_key(i)) << "device " << i;
    EXPECT_EQ(one.device_key(i), eight.device_key(i)) << "device " << i;
  }
}

SwarmReport run_fleet(std::size_t shards, std::size_t threads,
                      std::string* jsonl) {
  Swarm swarm(fleet(8, shards), crypto::from_string("shard-seed"));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  const SwarmReport report = swarm.run_parallel(600.0, threads);
  if (jsonl != nullptr) {
    std::ostringstream out;
    obs::write_jsonl(out, swarm.merged_trace());
    *jsonl = out.str();
  }
  return report;
}

TEST(SwarmShard, ReportAndTraceIdenticalAtAnyThreadCount) {
  // The tentpole guarantee: same seed => byte-identical merged output at
  // any thread count, because shard streams are schedule-independent and
  // the merge is canonical.
  std::string jsonl1;
  std::string jsonl2;
  std::string jsonl8;
  const SwarmReport r1 = run_fleet(4, 1, &jsonl1);
  const SwarmReport r2 = run_fleet(4, 2, &jsonl2);
  const SwarmReport r8 = run_fleet(4, 8, &jsonl8);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r8);
  EXPECT_FALSE(jsonl1.empty());
  EXPECT_EQ(jsonl1, jsonl2);
  EXPECT_EQ(jsonl1, jsonl8);
}

TEST(SwarmShard, ReportAndTraceIdenticalAtAnyShardCount) {
  // Stronger: the shard plan itself doesn't show through (rings are large
  // enough that nothing is dropped), so the sharded runs reproduce the
  // legacy single-queue run byte for byte.
  std::string jsonl1;
  std::string jsonl3;
  std::string jsonl8;
  const SwarmReport r1 = run_fleet(1, 1, &jsonl1);
  const SwarmReport r3 = run_fleet(3, 2, &jsonl3);
  const SwarmReport r8 = run_fleet(8, 8, &jsonl8);
  EXPECT_EQ(r1, r3);
  EXPECT_EQ(r1, r8);
  EXPECT_EQ(jsonl1, jsonl3);
  EXPECT_EQ(jsonl1, jsonl8);
}

TEST(SwarmShard, ParallelRunMatchesSerialLegacyRun) {
  // A 1-shard fleet run on one thread and a 3-shard fleet on four
  // workers give the same report.
  Swarm legacy(fleet(6, 1), crypto::from_string("shard-seed"));
  const SwarmReport serial = legacy.run_parallel(600.0, 1);
  Swarm sharded(fleet(6, 3), crypto::from_string("shard-seed"));
  const SwarmReport parallel = sharded.run_parallel(600.0, 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.total_valid(), serial.total_sent());
}

TEST(SwarmShard, MergedTraceFeedsFleetHealth) {
  // End-to-end operator path: sharded parallel run -> merged trace ->
  // alert replay -> verdicts. The replay-flooded device is flagged from
  // its own metrics; verdicts are identical at any thread count.
  auto run_once = [](std::size_t threads) {
    Swarm swarm(fleet(6, 3), crypto::from_string("shard-seed"));
    RecordingTap tap;
    swarm.channel(2).set_tap(&tap);
    swarm.session(2).send_request();
    swarm.run_all();

    obs::Registry registry;
    swarm.attach_sharded_observer(&registry);
    if (!tap.recorded_to_prover().empty()) {
      for (int k = 0; k < 24; ++k) {
        swarm.channel(2).inject_to_prover(
            tap.recorded_to_prover()[0].payload, 20.0 + 20.0 * k);
      }
    }
    const SwarmReport report = swarm.run_parallel(600.0, threads);
    obs::ts::AlertConfig alert_config;
    alert_config.device_count = 6;
    return assess_fleet(report, swarm.merged_trace(), alert_config);
  };

  const auto verdicts1 = run_once(1);
  const auto verdicts4 = run_once(4);
  ASSERT_EQ(verdicts1.size(), 6u);
  for (std::size_t i = 0; i < verdicts1.size(); ++i) {
    EXPECT_EQ(verdicts1[i].health, verdicts4[i].health) << "device " << i;
    EXPECT_EQ(verdicts1[i].alerts, verdicts4[i].alerts) << "device " << i;
  }
  EXPECT_GT(verdicts1[2].alerts, 0u) << "flooded device must fire alerts";
  EXPECT_NE(verdicts1[2].health, DeviceHealth::kHealthy);
  // The flood stands out: strictly more alerts than any genuine device
  // (which may trip the rate floor once on its own periodic traffic).
  for (std::size_t i = 0; i < verdicts1.size(); ++i) {
    if (i == 2) continue;
    EXPECT_LT(verdicts1[i].alerts, verdicts1[2].alerts) << "device " << i;
  }
}

}  // namespace
}  // namespace ratt::sim
