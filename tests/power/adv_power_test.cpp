// MAC-passing power tampers (ratt::adv): waveform rewrites for the
// Adv_roam restore exit and the skipped-measurement shortcut, and the
// end-to-end detection argument — every wire byte still validates, yet
// the power witness flags the round and the AlertEngine raises
// power.envelope_violation.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ratt/adv/adv_power.hpp"
#include "ratt/attest/prover.hpp"
#include "ratt/attest/verifier.hpp"
#include "ratt/obs/power/witness.hpp"
#include "ratt/obs/ts/alert.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::adv {
namespace {

namespace power = ratt::obs::power;
namespace prof = ratt::obs::prof;
namespace ts = ratt::obs::ts;

power::PhaseSegment seg(prof::Phase phase, double start_ms,
                        double duration_ms, double power_mw,
                        double energy_mj) {
  power::PhaseSegment s;
  s.phase = phase;
  s.start_ms = start_ms;
  s.duration_ms = duration_ms;
  s.power_mw = power_mw;
  s.energy_mj = energy_mj;
  return s;
}

power::RoundTrace clean_round() {
  power::RoundTrace t;
  t.device_id = 1;
  t.round_id = 7;
  t.attempts = 1;
  t.outcome = "valid";
  t.start_ms = 100.0;
  double at = t.start_ms;
  auto push = [&](prof::Phase phase, double ms, double mw) {
    t.segments.push_back(seg(phase, at, ms, mw, mw * ms / 1000.0));
    at += ms;
  };
  push(prof::Phase::kReqAuth, 0.5, 7.2);
  push(prof::Phase::kMemMac, 6.0, 7.2);
  push(prof::Phase::kRespMac, 0.4, 7.2);
  push(prof::Phase::kNetWait, 4.0, 0.003);
  t.end_ms = at;
  return t;
}

TEST(PowerTamper, NamesAndRestoreCost) {
  EXPECT_EQ(to_string(PowerTamper::kRoamRestore), "roam-restore");
  EXPECT_EQ(to_string(PowerTamper::kSkipMemMac), "skip-mem-mac");
  const timing::DeviceTimingModel timing;  // 24 MHz reference
  // 2 cycles/byte: 8192 cycles at 24 MHz.
  EXPECT_DOUBLE_EQ(restore_ms(timing, 4096),
                   2.0 * 4096.0 / timing.clock_hz() * 1000.0);
}

TEST(PowerTamper, RoamRestoreInsertsActiveWriteBeforeMeasurement) {
  const power::RoundTrace clean = clean_round();
  const timing::DeviceTimingModel timing;
  const obs::PowerModel model;
  const std::size_t bytes = 4096;
  const power::RoundTrace tampered = apply_power_tamper(
      clean, PowerTamper::kRoamRestore, timing, model, bytes);
  const double extra = restore_ms(timing, bytes);

  ASSERT_EQ(tampered.segments.size(), clean.segments.size() + 1);
  const power::PhaseSegment& restore = tampered.segments[1];
  EXPECT_EQ(restore.phase, prof::Phase::kOther);
  EXPECT_DOUBLE_EQ(restore.start_ms, clean.segments[1].start_ms);
  EXPECT_DOUBLE_EQ(restore.duration_ms, extra);
  EXPECT_DOUBLE_EQ(restore.power_mw, model.active_mw);
  // mem_mac and everything after slide later by the restore time.
  EXPECT_DOUBLE_EQ(tampered.segments[2].start_ms,
                   clean.segments[1].start_ms + extra);
  EXPECT_EQ(tampered.segments[2].phase, prof::Phase::kMemMac);
  EXPECT_DOUBLE_EQ(tampered.end_ms, clean.end_ms + extra);
  EXPECT_NEAR(tampered.energy_mj(),
              clean.energy_mj() + model.active_mj(extra), 1e-12);
  // The wire identity is untouched — that is the point of the tamper.
  EXPECT_EQ(tampered.outcome, "valid");
  EXPECT_EQ(tampered.round_id, clean.round_id);
}

TEST(PowerTamper, SkipMemMacRemovesTheMeasurementEnergy) {
  const power::RoundTrace clean = clean_round();
  const timing::DeviceTimingModel timing;
  const power::RoundTrace tampered = apply_power_tamper(
      clean, PowerTamper::kSkipMemMac, timing, obs::PowerModel{}, 4096);
  const double gone = clean.segments[1].duration_ms;

  ASSERT_EQ(tampered.segments.size(), clean.segments.size() - 1);
  EXPECT_EQ(tampered.segments[1].phase, prof::Phase::kRespMac);
  EXPECT_DOUBLE_EQ(tampered.segments[1].start_ms,
                   clean.segments[2].start_ms - gone);
  EXPECT_DOUBLE_EQ(tampered.end_ms, clean.end_ms - gone);
  EXPECT_NEAR(tampered.energy_mj(),
              clean.energy_mj() - clean.segments[1].energy_mj, 1e-12);
}

TEST(PowerTamper, RoundWithoutMeasurementIsReturnedUnchanged) {
  power::RoundTrace rejected;
  rejected.outcome = "bad-mac";
  rejected.segments.push_back(
      seg(prof::Phase::kReqAuth, 0.0, 0.5, 7.2, 0.0036));
  const power::RoundTrace out =
      apply_power_tamper(rejected, PowerTamper::kRoamRestore,
                         timing::DeviceTimingModel{}, obs::PowerModel{}, 512);
  EXPECT_EQ(out, rejected);
}

// --- The detection argument, end to end: a real protocol round still
// validates its MAC, while the witness flags both tampered waveforms. ---

TEST(PowerTamperDetection, WireStillValidatesWhileWitnessFires) {
  // A genuine round: request, handle, MAC check — all bytes valid.
  attest::ProverConfig prover_config;
  prover_config.scheme = attest::FreshnessScheme::kCounter;
  prover_config.measured_bytes = 4096;
  attest::ProverDevice prover(prover_config,
                              crypto::from_string("adv-power-key"),
                              crypto::from_string("app-seed"));
  attest::Verifier::Config verifier_config;
  verifier_config.scheme = attest::FreshnessScheme::kCounter;
  attest::Verifier verifier(crypto::from_string("adv-power-key"),
                            verifier_config,
                            crypto::from_string("verifier-seed"));
  verifier.set_reference_memory(prover.reference_memory());
  const attest::AttestRequest request = verifier.make_request();
  const attest::AttestOutcome outcome = prover.handle(request);
  ASSERT_EQ(outcome.status, attest::AttestStatus::kOk);
  // The tampered prover would put these exact bytes on the wire.
  EXPECT_TRUE(verifier.check_response(request, outcome.response));

  // The power witness is the only layer that notices.
  power::PowerWitness witness;
  witness.learn(clean_round());
  witness.freeze();
  verifier.set_power_witness(&witness);
  EXPECT_TRUE(verifier.grade_power_trace(clean_round()).empty());
  const timing::DeviceTimingModel timing;
  for (const PowerTamper tamper :
       {PowerTamper::kRoamRestore, PowerTamper::kSkipMemMac}) {
    const power::RoundTrace tampered = apply_power_tamper(
        clean_round(), tamper, timing, obs::PowerModel{}, 4096);
    const std::vector<std::string> violated =
        verifier.grade_power_trace(tampered);
    ASSERT_FALSE(violated.empty()) << to_string(tamper);
    // Both tampers change the phase walk — the signature dimension leads.
    EXPECT_EQ(violated.front(), "signature") << to_string(tamper);
  }
}

TEST(PowerTamperDetection, EveryFleetRoundIsCaughtAndAlertsFire) {
  sim::SwarmConfig config;
  config.device_count = 2;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.measured_bytes = 4096;
  config.attest_period_ms = 200.0;
  sim::Swarm swarm(config, crypto::from_string("adv-power-fleet-seed"));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  swarm.attach_power();
  (void)swarm.run_parallel(/*horizon_ms=*/1100.0, /*threads=*/1);

  power::PowerWitness witness;
  std::map<std::uint64_t, std::size_t> learned;
  std::vector<power::RoundTrace> graded;
  for (const power::RoundTrace& trace : swarm.merged_power_traces()) {
    if (learned[trace.device_id] < 2) {
      witness.learn(trace);
      ++learned[trace.device_id];
    } else {
      graded.push_back(trace);
    }
  }
  witness.freeze();
  ASSERT_GE(graded.size(), 4u);

  const timing::DeviceTimingModel timing;
  obs::RingRecorder clean_verdicts(256);
  obs::RingRecorder tampered_verdicts(256);
  std::size_t detections = 0;
  std::size_t tampered_rounds = 0;
  for (const power::RoundTrace& trace : graded) {
    EXPECT_TRUE(witness.grade_to(trace, clean_verdicts).empty());
    for (const PowerTamper tamper :
         {PowerTamper::kRoamRestore, PowerTamper::kSkipMemMac}) {
      const power::RoundTrace tampered =
          apply_power_tamper(trace, tamper, timing, obs::PowerModel{},
                             config.prover.measured_bytes);
      ++tampered_rounds;
      if (!witness.grade_to(tampered, tampered_verdicts).empty()) {
        ++detections;
      }
    }
  }
  // The acceptance bar is >= 95%; the deterministic simulator gives 100%.
  EXPECT_EQ(detections, tampered_rounds);

  // AlertEngine: the violation verdicts raise power.envelope_violation;
  // the clean verdicts raise nothing.
  ts::AlertConfig alert_config;
  alert_config.window_ms = 500.0;
  alert_config.device_count = config.device_count;
  ts::AlertEngine tampered_engine(alert_config);
  tampered_engine.replay(tampered_verdicts.snapshot(), 2000.0);
  std::size_t violation_alerts = 0;
  for (const auto& alert : tampered_engine.alerts()) {
    if (alert.rule == "power.envelope_violation") ++violation_alerts;
  }
  EXPECT_GT(violation_alerts, 0u);

  ts::AlertEngine clean_engine(alert_config);
  clean_engine.replay(clean_verdicts.snapshot(), 2000.0);
  EXPECT_TRUE(clean_engine.alerts().empty());
}

}  // namespace
}  // namespace ratt::adv
