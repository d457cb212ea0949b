// ratt::obs::power trace synthesis: RoundTrace arithmetic, waveform
// sampling (midpoint grid, sleep floor, coarsening), the JSONL golden,
// ShardPowerRecorder's anchor-batch layout and bounded-state accounting,
// and the swarm-level determinism acceptance — same seed => byte-identical
// power JSONL at any thread/shard count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ratt/obs/power/trace.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::obs::power {
namespace {

PhaseSegment seg(prof::Phase phase, double start_ms, double duration_ms,
                 double power_mw, double energy_mj) {
  PhaseSegment s;
  s.phase = phase;
  s.start_ms = start_ms;
  s.duration_ms = duration_ms;
  s.power_mw = power_mw;
  s.energy_mj = energy_mj;
  return s;
}

/// The two-segment fixture the golden pins: 1.5 ms of measurement at
/// 6 mW, then 0.5 ms of wire wait — 1 mJ over 2 ms => 500 mW mean
/// (energies chosen to sum exactly in binary, keeping the golden stable).
RoundTrace golden_trace() {
  RoundTrace t;
  t.device_id = 3;
  t.round_id = 42;
  t.attempts = 1;
  t.outcome = "valid";
  t.start_ms = 10.0;
  t.end_ms = 12.0;
  t.segments.push_back(seg(prof::Phase::kMemMac, 10.0, 1.5, 6.0, 0.75));
  t.segments.push_back(seg(prof::Phase::kNetWait, 11.5, 0.5, 0.002, 0.25));
  return t;
}

TEST(RoundTrace, TotalsSumOverSegments) {
  const RoundTrace t = golden_trace();
  EXPECT_DOUBLE_EQ(t.energy_mj(), 1.0);
  EXPECT_DOUBLE_EQ(t.duration_ms(), 2.0);
  EXPECT_DOUBLE_EQ(t.mean_power_mw(), 500.0);
  EXPECT_DOUBLE_EQ(RoundTrace{}.mean_power_mw(), 0.0);  // no division by 0
}

TEST(Waveform, MidpointSamplingOverTheGrid) {
  PowerTraceConfig config;
  config.sample_period_ms = 0.5;
  const std::vector<double> samples =
      sample_waveform(golden_trace(), config);
  // Span 2 ms at 0.5 ms: midpoints 10.25/10.75/11.25 in mem_mac, 11.75
  // in net_wait.
  const std::vector<double> expected = {6.0, 6.0, 6.0, 0.002};
  EXPECT_EQ(samples, expected);
}

TEST(Waveform, SleepFloorFillsUncoveredTime) {
  RoundTrace t;
  t.start_ms = 0.0;
  t.end_ms = 3.0;
  t.segments.push_back(seg(prof::Phase::kReqAuth, 0.0, 1.0, 7.2, 0.0072));
  // [1, 3) is covered by no segment.
  PowerTraceConfig config;
  config.sample_period_ms = 1.0;
  const std::vector<double> samples = sample_waveform(t, config);
  const std::vector<double> expected = {7.2, config.model.sleep_mw,
                                        config.model.sleep_mw};
  EXPECT_EQ(samples, expected);
}

TEST(Waveform, LastCoveringSegmentWins) {
  RoundTrace t;
  t.start_ms = 0.0;
  t.end_ms = 1.0;
  t.segments.push_back(seg(prof::Phase::kReqAuth, 0.0, 1.0, 4.0, 0.004));
  t.segments.push_back(seg(prof::Phase::kOther, 0.0, 1.0, 9.0, 0.009));
  PowerTraceConfig config;
  config.sample_period_ms = 1.0;
  const std::vector<double> samples = sample_waveform(t, config);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0], 9.0);
}

TEST(Waveform, EmptyForNonPositiveSpan) {
  RoundTrace t;
  t.start_ms = 5.0;
  t.end_ms = 5.0;
  EXPECT_TRUE(sample_waveform(t, PowerTraceConfig{}).empty());
}

TEST(Waveform, PeriodDoublesUntilTheRoundFits) {
  RoundTrace t;
  t.start_ms = 0.0;
  t.end_ms = 100.0;
  PowerTraceConfig config;
  config.sample_period_ms = 10.0;
  config.max_samples = 5;
  // 100/10 = 10 samples > 5; one doubling gives 100/20 = 5 — fits.
  EXPECT_DOUBLE_EQ(effective_period_ms(t, config), 20.0);
  EXPECT_EQ(sample_waveform(t, config).size(), 5u);
  // A round shorter than one period keeps the configured grid.
  t.end_ms = 5.0;
  EXPECT_DOUBLE_EQ(effective_period_ms(t, config), 10.0);
}

// Golden line: the exact power JSONL schema docs/POWER.md documents. A
// change here is a schema change.
TEST(PowerJsonl, GoldenRecord) {
  PowerTraceConfig config;
  config.sample_period_ms = 0.5;
  EXPECT_EQ(
      to_jsonl(golden_trace(), config),
      "{\"device_id\":3,\"round_id\":42,\"outcome\":\"valid\","
      "\"attempts\":1,\"start_ms\":10,\"end_ms\":12,\"duration_ms\":2,"
      "\"energy_mj\":1,\"mean_power_mw\":500,\"segments\":["
      "{\"phase\":\"mem_mac\",\"start_ms\":10,\"duration_ms\":1.5,"
      "\"power_mw\":6,\"energy_mj\":0.75},"
      "{\"phase\":\"net_wait\",\"start_ms\":11.5,\"duration_ms\":0.5,"
      "\"power_mw\":0.002,\"energy_mj\":0.25}],"
      "\"sample_period_ms\":0.5,\"samples_mw\":[6,6,6,0.002]}");
}

TEST(PowerJsonl, OneLinePerTraceAndHostileOutcomesEscape) {
  RoundTrace hostile = golden_trace();
  hostile.outcome = "bad\"mac\\path";
  std::ostringstream out;
  const std::vector<RoundTrace> traces = {golden_trace(), hostile};
  write_jsonl(out, traces, PowerTraceConfig{});
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"outcome\":\"bad\\\"mac\\\\path\""),
            std::string::npos);
}

TEST(Merge, CanonicalOrderByEndDeviceRound) {
  auto trace_at = [](double end_ms, std::uint64_t dev, std::uint64_t round) {
    RoundTrace t;
    t.end_ms = end_ms;
    t.device_id = dev;
    t.round_id = round;
    return t;
  };
  std::vector<std::vector<RoundTrace>> shards(2);
  shards[0].push_back(trace_at(100.0, 2, 7));
  shards[0].push_back(trace_at(300.0, 2, 9));
  shards[1].push_back(trace_at(100.0, 1, 5));
  shards[1].push_back(trace_at(100.0, 1, 3));
  const auto merged = merge_round_traces(std::move(shards));
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].round_id, 3u);  // (100, dev 1, round 3)
  EXPECT_EQ(merged[1].round_id, 5u);
  EXPECT_EQ(merged[2].device_id, 2u);  // end_ms tie breaks by device
  EXPECT_DOUBLE_EQ(merged[3].end_ms, 300.0);
}

// --- ShardPowerRecorder ---

prof::PhaseSample sample(std::uint64_t dev, std::uint64_t round,
                         prof::Phase phase, double duration_ms,
                         double energy_mj, double anchor_ms) {
  prof::PhaseSample s;
  s.phase = phase;
  s.device_id = dev;
  s.round_id = round;
  s.duration_ms = duration_ms;
  s.energy_mj = energy_mj;
  s.sim_time_ms = anchor_ms;
  return s;
}

TraceRecord close_round(double t, std::uint64_t dev, std::uint64_t round,
                        const char* outcome = "valid",
                        std::uint32_t attempt = 1) {
  TraceRecord rec;
  rec.sim_time_ms = t;
  rec.device_id = dev;
  rec.kind = "verifier.round";
  rec.outcome = outcome;
  rec.round_id = round;
  rec.attempt = attempt;
  return rec;
}

TEST(ShardPowerRecorder, AnchorBatchesLayOutBackToBack) {
  ShardPowerRecorder recorder;
  // Batch 1 (anchor 100): req_auth 2 ms then freshness 1 ms — the batch
  // ends AT the anchor, so starts are 97 and 99.
  recorder.on_phase(
      sample(5, 77, prof::Phase::kReqAuth, 2.0, 0.0144, 100.0));
  recorder.on_phase(
      sample(5, 77, prof::Phase::kFreshness, 1.0, 0.0072, 100.0));
  // Batch 2 (anchor 150): mem_mac 10 ms => start 140.
  recorder.on_phase(
      sample(5, 77, prof::Phase::kMemMac, 10.0, 0.072, 150.0));
  EXPECT_EQ(recorder.rounds_completed(), 0u);  // not closed yet
  recorder.record(close_round(150.0, 5, 77, "valid", 2));

  const auto completed = recorder.completed();
  ASSERT_EQ(completed.size(), 1u);
  const RoundTrace& t = completed[0];
  EXPECT_EQ(t.device_id, 5u);
  EXPECT_EQ(t.round_id, 77u);
  EXPECT_EQ(t.outcome, "valid");
  EXPECT_EQ(t.attempts, 2u);
  EXPECT_DOUBLE_EQ(t.start_ms, 97.0);
  EXPECT_DOUBLE_EQ(t.end_ms, 150.0);
  ASSERT_EQ(t.segments.size(), 3u);
  EXPECT_DOUBLE_EQ(t.segments[0].start_ms, 97.0);
  EXPECT_DOUBLE_EQ(t.segments[1].start_ms, 99.0);
  EXPECT_DOUBLE_EQ(t.segments[2].start_ms, 140.0);
  // Segment power is energy over duration: 0.0144 mJ / 2 ms = 7.2 mW.
  EXPECT_DOUBLE_EQ(t.segments[0].power_mw, 7.2);
  EXPECT_EQ(recorder.rounds_completed(), 1u);
}

TEST(ShardPowerRecorder, OrphanSamplesAndForeignClosesAreIgnored) {
  ShardPowerRecorder recorder;
  prof::PhaseSample orphan =
      sample(1, 0, prof::Phase::kReqAuth, 1.0, 0.0072, 10.0);
  recorder.on_phase(orphan);  // round_id 0: injected flood
  EXPECT_EQ(recorder.samples_orphaned(), 1u);
  // Closes for an unseen device / unknown round / other kinds: no-ops.
  recorder.record(close_round(10.0, 9, 123));
  recorder.record(close_round(10.0, 1, 0));
  TraceRecord handle = close_round(10.0, 1, 55);
  handle.kind = "prover.handle";
  recorder.on_phase(sample(1, 55, prof::Phase::kReqAuth, 1.0, 0.0072, 10.0));
  recorder.record(handle);
  EXPECT_EQ(recorder.rounds_completed(), 0u);
  EXPECT_TRUE(recorder.completed().empty());
}

TEST(ShardPowerRecorder, OpenRoundCapEvictsOldestInFlight) {
  PowerTraceConfig config;
  config.max_open_rounds = 1;
  ShardPowerRecorder recorder(config);
  recorder.on_phase(sample(1, 10, prof::Phase::kReqAuth, 1.0, 0.007, 5.0));
  recorder.on_phase(sample(1, 11, prof::Phase::kReqAuth, 1.0, 0.007, 9.0));
  EXPECT_EQ(recorder.rounds_abandoned(), 1u);  // round 10 never closed
  recorder.record(close_round(9.0, 1, 10));    // too late — builder gone
  recorder.record(close_round(9.0, 1, 11));
  EXPECT_EQ(recorder.rounds_completed(), 1u);
  ASSERT_EQ(recorder.completed().size(), 1u);
  EXPECT_EQ(recorder.completed()[0].round_id, 11u);
}

TEST(ShardPowerRecorder, CompletedRingEvictsOldestFirst) {
  PowerTraceConfig config;
  config.ring_capacity = 2;
  ShardPowerRecorder recorder(config);
  for (std::uint64_t round = 1; round <= 3; ++round) {
    recorder.on_phase(sample(4, round, prof::Phase::kMemMac, 2.0, 0.014,
                             10.0 * static_cast<double>(round)));
    recorder.record(
        close_round(10.0 * static_cast<double>(round), 4, round));
  }
  EXPECT_EQ(recorder.rounds_completed(), 3u);
  EXPECT_EQ(recorder.rounds_dropped(), 1u);
  const auto completed = recorder.completed();
  ASSERT_EQ(completed.size(), 2u);  // oldest-first after the wrap
  EXPECT_EQ(completed[0].round_id, 2u);
  EXPECT_EQ(completed[1].round_id, 3u);
}

TEST(ShardPowerRecorder, DegenerateConfigIsClamped) {
  PowerTraceConfig config;
  config.ring_capacity = 0;
  config.max_open_rounds = 0;
  config.sample_period_ms = -1.0;
  config.max_samples = 0;
  ShardPowerRecorder recorder(config);
  EXPECT_EQ(recorder.config().ring_capacity, 1u);
  EXPECT_EQ(recorder.config().max_open_rounds, 1u);
  EXPECT_DOUBLE_EQ(recorder.config().sample_period_ms, 1.0);
  EXPECT_EQ(recorder.config().max_samples, 1u);
}

// --- Swarm acceptance: attach_power at any thread/shard plan produces
// byte-identical merged power JSONL for the same fleet seed. ---

sim::SwarmConfig fleet_config(std::size_t shards) {
  sim::SwarmConfig config;
  config.device_count = 8;
  config.shard_count = shards;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.measured_bytes = 2048;
  config.attest_period_ms = 200.0;
  config.stagger_ms = 13.0;
  return config;
}

std::string power_jsonl(std::size_t shards, std::size_t threads) {
  sim::Swarm swarm(fleet_config(shards),
                   crypto::from_string("power-trace-seed"));
  Registry registry;
  swarm.attach_sharded_observer(&registry);
  swarm.attach_power();
  (void)swarm.run_parallel(/*horizon_ms=*/900.0, threads);
  std::ostringstream out;
  const auto merged = swarm.merged_power_traces();
  write_jsonl(out, merged, PowerTraceConfig{});
  return out.str();
}

TEST(SwarmPower, ByteIdenticalAcrossThreadsAndShards) {
  const std::string serial = power_jsonl(/*shards=*/1, /*threads=*/1);
  ASSERT_FALSE(serial.empty());
  // The fleet actually produced measurement waveforms.
  EXPECT_NE(serial.find("\"outcome\":\"valid\""), std::string::npos);
  EXPECT_NE(serial.find("\"phase\":\"mem_mac\""), std::string::npos);
  EXPECT_NE(serial.find("\"phase\":\"net_wait\""), std::string::npos);
  const std::pair<std::size_t, std::size_t> plans[] = {
      {1, 4}, {8, 4}, {8, 8}};
  for (const auto& [shards, threads] : plans) {
    EXPECT_EQ(power_jsonl(shards, threads), serial)
        << shards << " shards, " << threads << " threads";
  }
}

TEST(SwarmPower, AttachPowerBootstrapsShardedObservability) {
  // attach_power on a bare swarm sets up its own shard rings/profiles.
  sim::Swarm swarm(fleet_config(4), crypto::from_string("power-trace-seed"));
  swarm.attach_power();
  const sim::SwarmReport report = swarm.run_parallel(/*horizon_ms=*/600.0, 2);
  for (std::size_t s = 0; s < swarm.shard_count(); ++s) {
    ASSERT_NE(swarm.shard_ring(s), nullptr);
  }
  EXPECT_FALSE(swarm.merged_trace().empty());
  EXPECT_FALSE(swarm.merged_profile().devices().empty());
  const auto merged = swarm.merged_power_traces();
  ASSERT_FALSE(merged.empty());
  // Every round the fleet ran closed into exactly one merged waveform.
  EXPECT_EQ(merged.size(), report.total_sent());
}

TEST(SwarmPower, AttachedPowerDoesNotChangeFleetBehavior) {
  sim::Swarm bare(fleet_config(4), crypto::from_string("power-trace-seed"));
  const sim::SwarmReport detached = bare.run_parallel(900.0, 2);
  sim::Swarm observed(fleet_config(4),
                      crypto::from_string("power-trace-seed"));
  Registry registry;
  observed.attach_sharded_observer(&registry);
  observed.attach_power();
  const sim::SwarmReport report = observed.run_parallel(900.0, 2);
  EXPECT_EQ(report, detached);
}

}  // namespace
}  // namespace ratt::obs::power
