// ratt::obs::power battery observability: sleep drain and fixed report
// boundaries, low/depleted grading, burn-rate estimation, checkpoint/
// restore byte-identity (segmented campaign == straight run when segments
// cut at report boundaries), and the power.battery_depletion alert latch.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ratt/obs/power/battery.hpp"
#include "ratt/obs/trace.hpp"
#include "ratt/obs/ts/alert.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::obs::power {
namespace {

TraceRecord active(double t, std::uint64_t dev, double energy_mj,
                   const char* kind = "prover.handle") {
  TraceRecord rec;
  rec.sim_time_ms = t;
  rec.device_id = dev;
  rec.kind = kind;
  rec.outcome = "ok";
  rec.energy_mj = energy_mj;
  return rec;
}

std::string reports_jsonl(const RingRecorder& ring) {
  std::ostringstream out;
  write_jsonl(out, ring.snapshot());
  return out.str();
}

TEST(PowerMeter, SleepDrainAndFixedReportBoundaries) {
  BatteryConfig config;
  config.capacity_mj = 10.0;
  config.report_period_ms = 100.0;
  config.sleep_mw = 1.0;  // 0.1 mJ per 100 ms — visible in the gauge
  config.burn_window_ms = 100.0;
  PowerMeter meter(config);
  RingRecorder ring(16);
  meter.set_sink(&ring);

  meter.record(active(250.0, 4, 2.0));
  meter.finish(300.0);

  // Boundaries 100/200/300 reported; sleep ran the whole 300 ms; the
  // 2 mJ of work landed at t=250.
  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.kind, "power.battery");
    EXPECT_EQ(rec.outcome, "ok");
    EXPECT_EQ(rec.device_id, 4u);
  }
  EXPECT_DOUBLE_EQ(records[0].sim_time_ms, 100.0);
  EXPECT_DOUBLE_EQ(records[0].energy_mj, 0.99);  // gauge = SoC fraction
  EXPECT_DOUBLE_EQ(records[1].energy_mj, 0.98);
  EXPECT_DOUBLE_EQ(records[2].sim_time_ms, 300.0);
  EXPECT_DOUBLE_EQ(records[2].energy_mj, 0.77);
  // Burn at t=300: last closed window holds the 2 mJ => 20 mJ/s + sleep.
  EXPECT_DOUBLE_EQ(records[2].power_mw, 21.0);
  EXPECT_DOUBLE_EQ(meter.soc(4), 0.77);
  EXPECT_DOUBLE_EQ(meter.remaining_mj(4), 7.7);
  EXPECT_FALSE(meter.depleted(4));
  EXPECT_EQ(meter.reports_emitted(), 3u);
  // Unknown devices read as full.
  EXPECT_DOUBLE_EQ(meter.soc(9), 1.0);
  EXPECT_DOUBLE_EQ(meter.burn_mw(9), config.sleep_mw);
}

TEST(PowerMeter, LowAndDepletedGrading) {
  BatteryConfig config;
  config.capacity_mj = 1.0;
  config.alert_soc = 0.5;
  config.report_period_ms = 100.0;
  config.sleep_mw = 0.0;
  PowerMeter meter(config);
  RingRecorder ring(8);
  meter.set_sink(&ring);

  meter.record(active(50.0, 0, 0.6));
  meter.finish(100.0);
  meter.record(active(150.0, 0, 0.9));  // overshoot clamps at capacity
  meter.finish(200.0);

  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome, "low");
  EXPECT_DOUBLE_EQ(records[0].energy_mj, 0.4);
  EXPECT_EQ(records[1].outcome, "depleted");
  EXPECT_DOUBLE_EQ(records[1].energy_mj, 0.0);
  EXPECT_TRUE(meter.depleted(0));
  EXPECT_DOUBLE_EQ(meter.remaining_mj(0), 0.0);
  EXPECT_DOUBLE_EQ(meter.min_soc(), 0.0);
  EXPECT_EQ(meter.depleted_count(), 1u);
  EXPECT_EQ(meter.devices(), 1u);
}

TEST(PowerMeter, OnlyActiveKindsDrain) {
  PowerMeter meter;
  meter.record(active(100.0, 0, 5.0, "verifier.round"));
  meter.record(active(100.0, 0, 5.0, "power.battery"));
  meter.record(active(100.0, 0, 5.0, "power.witness"));
  EXPECT_EQ(meter.devices(), 0u);
  meter.record(active(100.0, 0, 5.0, "dos.request"));
  EXPECT_EQ(meter.devices(), 1u);
}

// --- Checkpointing: a campaign split at a report boundary produces the
// exact report bytes and gauges of the straight run. ---

BatteryConfig campaign_config() {
  BatteryConfig config;
  config.capacity_mj = 50.0;
  config.alert_soc = 0.2;
  config.report_period_ms = 100.0;
  config.sleep_mw = 0.5;
  config.burn_window_ms = 100.0;
  config.burn_history = 4;  // small ring so eviction crosses the seam
  return config;
}

std::vector<TraceRecord> campaign_stream() {
  std::vector<TraceRecord> records;
  for (int i = 1; i <= 20; ++i) {
    records.push_back(active(30.0 * i, i % 2, 0.4));
  }
  return records;
}

TEST(PowerMeter, CheckpointedSegmentsMatchStraightRunByteForByte) {
  const std::vector<TraceRecord> stream = campaign_stream();
  const double seam_ms = 300.0;  // a report boundary
  const double horizon_ms = 700.0;

  // Straight run.
  PowerMeter straight(campaign_config());
  RingRecorder straight_ring(64);
  straight.set_sink(&straight_ring);
  for (const auto& rec : stream) straight.record(rec);
  straight.finish(horizon_ms);

  // Segment 1: feed up to the seam, finish there, checkpoint.
  PowerMeter first(campaign_config());
  RingRecorder first_ring(64);
  first.set_sink(&first_ring);
  for (const auto& rec : stream) {
    if (rec.sim_time_ms <= seam_ms) first.record(rec);
  }
  first.finish(seam_ms);
  std::stringstream checkpoint;
  first.checkpoint(checkpoint);

  // Segment 2: a fresh meter restores and continues.
  PowerMeter second(campaign_config());
  ASSERT_TRUE(second.restore(checkpoint));
  RingRecorder second_ring(64);
  second.set_sink(&second_ring);
  for (const auto& rec : stream) {
    if (rec.sim_time_ms > seam_ms) second.record(rec);
  }
  second.finish(horizon_ms);

  EXPECT_EQ(reports_jsonl(first_ring) + reports_jsonl(second_ring),
            reports_jsonl(straight_ring));
  for (const std::uint64_t dev : {0ull, 1ull}) {
    EXPECT_DOUBLE_EQ(second.soc(dev), straight.soc(dev));
    EXPECT_DOUBLE_EQ(second.burn_mw(dev), straight.burn_mw(dev));
  }
  EXPECT_EQ(second.reports_emitted(), straight.reports_emitted());

  // The checkpoint text itself is deterministic: re-checkpointing the
  // restored meter at the same point reproduces it byte for byte.
  PowerMeter third(campaign_config());
  std::stringstream replay(checkpoint.str());
  ASSERT_TRUE(third.restore(replay));
  std::ostringstream again;
  third.checkpoint(again);
  EXPECT_EQ(again.str(), checkpoint.str());
}

TEST(PowerMeter, RestoreRejectsForeignOrTruncatedCheckpoints) {
  PowerMeter meter(campaign_config());
  for (const auto& rec : campaign_stream()) meter.record(rec);
  meter.finish(700.0);
  std::ostringstream out;
  meter.checkpoint(out);
  const std::string text = out.str();

  // Wrong config: a checkpoint only resumes into the meter it came from.
  BatteryConfig other = campaign_config();
  other.capacity_mj = 99.0;
  PowerMeter mismatched(other);
  std::istringstream wrong(text);
  EXPECT_FALSE(mismatched.restore(wrong));

  // Truncation: drop the trailing "end".
  const std::string truncated = text.substr(0, text.rfind("end"));
  PowerMeter partial(campaign_config());
  std::istringstream cut(truncated);
  EXPECT_FALSE(partial.restore(cut));

  // Garbage header.
  PowerMeter fresh(campaign_config());
  std::istringstream garbage("not-a-checkpoint\n");
  EXPECT_FALSE(fresh.restore(garbage));

  // A good checkpoint still restores after the failed attempts.
  PowerMeter ok(campaign_config());
  std::istringstream good(text);
  EXPECT_TRUE(ok.restore(good));
  EXPECT_EQ(ok.devices(), meter.devices());
}

// --- Fleet replay: the meter consumes Swarm::merged_trace offline, and
// a checkpointed two-segment replay matches the straight replay. ---

TEST(PowerMeter, SwarmReplaySegmentsMatchStraight) {
  sim::SwarmConfig config;
  config.device_count = 4;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.measured_bytes = 2048;
  config.attest_period_ms = 150.0;
  sim::Swarm swarm(config, crypto::from_string("power-battery-seed"));
  Registry registry;
  swarm.attach_sharded_observer(&registry);
  (void)swarm.run_parallel(/*horizon_ms=*/1000.0, /*threads=*/1);
  const std::vector<TraceRecord> merged = swarm.merged_trace();
  ASSERT_FALSE(merged.empty());

  BatteryConfig battery;
  battery.capacity_mj = 20.0;  // small demo cell so SoC visibly moves
  battery.report_period_ms = 250.0;
  PowerMeter straight(battery);
  RingRecorder straight_ring(256);
  straight.set_sink(&straight_ring);
  for (const auto& rec : merged) straight.record(rec);
  straight.finish(1000.0);
  EXPECT_EQ(straight.devices(), config.device_count);
  EXPECT_LT(straight.min_soc(), 1.0);

  const double seam_ms = 500.0;  // report boundary
  PowerMeter first(battery);
  RingRecorder first_ring(256);
  first.set_sink(&first_ring);
  for (const auto& rec : merged) {
    if (rec.sim_time_ms <= seam_ms) first.record(rec);
  }
  first.finish(seam_ms);
  std::stringstream checkpoint;
  first.checkpoint(checkpoint);
  PowerMeter second(battery);
  ASSERT_TRUE(second.restore(checkpoint));
  RingRecorder second_ring(256);
  second.set_sink(&second_ring);
  for (const auto& rec : merged) {
    if (rec.sim_time_ms > seam_ms) second.record(rec);
  }
  second.finish(1000.0);

  EXPECT_EQ(reports_jsonl(first_ring) + reports_jsonl(second_ring),
            reports_jsonl(straight_ring));
  for (std::size_t dev = 0; dev < config.device_count; ++dev) {
    EXPECT_DOUBLE_EQ(second.soc(dev), straight.soc(dev));
  }
}

// --- AlertEngine integration: power.battery gauges trip the latched
// power.battery_depletion rule once per excursion. ---

TraceRecord gauge(double t, double soc) {
  TraceRecord rec;
  rec.sim_time_ms = t;
  rec.device_id = 2;
  rec.kind = "power.battery";
  rec.outcome = soc <= 0.2 ? "low" : "ok";
  rec.energy_mj = soc;
  return rec;
}

TEST(BatteryAlerts, DepletionLatchFiresOncePerExcursion) {
  ts::AlertConfig config;
  config.window_ms = 500.0;
  config.battery_alert_soc = 0.45;
  ts::AlertEngine engine(config);
  // Window 0: healthy. Window 1: dips to 0.4 — fires. Window 2: still
  // low — latched, silent. Window 3: recovers — unlatches. Window 4:
  // dips again — fires a second time.
  const double socs[] = {0.9, 0.4, 0.3, 0.8, 0.2};
  for (int w = 0; w < 5; ++w) {
    engine.record(gauge(500.0 * w + 100.0, socs[w]));
  }
  engine.finish(2600.0);
  std::size_t depletion_alerts = 0;
  for (const auto& alert : engine.alerts()) {
    if (alert.rule == "power.battery_depletion") {
      ++depletion_alerts;
      EXPECT_EQ(alert.device_id, 2u);
      EXPECT_DOUBLE_EQ(alert.threshold, 0.45);
    }
  }
  EXPECT_EQ(depletion_alerts, 2u);
}

TEST(BatteryAlerts, GaugeStreamAloneLeavesOtherRulesSilent) {
  ts::AlertEngine engine;  // default thresholds
  for (int w = 0; w < 5; ++w) {
    engine.record(gauge(500.0 * w + 100.0, 0.9));
  }
  engine.finish(3000.0);
  EXPECT_TRUE(engine.alerts().empty());
}

}  // namespace
}  // namespace ratt::obs::power
