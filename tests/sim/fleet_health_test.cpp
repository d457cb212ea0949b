// Fleet health classification from session statistics.
#include <gtest/gtest.h>

#include "ratt/sim/fleet_health.hpp"

namespace ratt::sim {
namespace {

AttestationSession::Stats stats(std::uint64_t sent, std::uint64_t valid,
                                std::uint64_t invalid) {
  AttestationSession::Stats s;
  s.requests_sent = sent;
  s.responses_valid = valid;
  s.responses_invalid = invalid;
  return s;
}

TEST(FleetHealth, HealthyDevice) {
  const auto v = assess_device(0, stats(10, 10, 0));
  EXPECT_EQ(v.health, DeviceHealth::kHealthy);
  EXPECT_DOUBLE_EQ(v.loss_fraction, 0.0);
}

TEST(FleetHealth, SilentDevice) {
  const auto v = assess_device(1, stats(10, 2, 0));
  EXPECT_EQ(v.health, DeviceHealth::kSilent);
  EXPECT_DOUBLE_EQ(v.loss_fraction, 0.8);
}

TEST(FleetHealth, CompromisedBeatsSilent) {
  // Even a mostly-silent device with one invalid response is classified
  // compromised: an invalid measurement is the stronger signal.
  const auto v = assess_device(2, stats(10, 1, 1));
  EXPECT_EQ(v.health, DeviceHealth::kCompromised);
  EXPECT_EQ(v.invalid_responses, 1u);
}

TEST(FleetHealth, SuspectBand) {
  const auto v = assess_device(3, stats(10, 8, 0));  // 20% loss
  EXPECT_EQ(v.health, DeviceHealth::kSuspect);
}

TEST(FleetHealth, NoTrafficIsHealthy) {
  const auto v = assess_device(4, stats(0, 0, 0));
  EXPECT_EQ(v.health, DeviceHealth::kHealthy);
  EXPECT_DOUBLE_EQ(v.loss_fraction, 0.0);
}

TEST(FleetHealth, PolicyThresholdsRespected) {
  HealthPolicy lax;
  lax.silent_threshold = 0.95;
  lax.suspect_threshold = 0.9;
  EXPECT_EQ(assess_device(0, stats(10, 2, 0), lax).health,
            DeviceHealth::kHealthy);  // 80% loss, below both thresholds
  HealthPolicy tolerant_of_invalid;
  tolerant_of_invalid.invalid_is_compromise = false;
  EXPECT_EQ(assess_device(0, stats(10, 9, 1), tolerant_of_invalid).health,
            DeviceHealth::kHealthy);
}

TEST(FleetHealth, FleetAssessmentAndQuarantine) {
  SwarmReport report;
  report.devices.push_back({0, stats(10, 10, 0), 1.0});
  report.devices.push_back({1, stats(10, 1, 0), 1.0});   // silent
  report.devices.push_back({2, stats(10, 9, 1), 1.0});   // compromised
  report.devices.push_back({3, stats(10, 8, 0), 1.0});   // suspect
  const auto verdicts = assess_fleet(report);
  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_EQ(verdicts[0].health, DeviceHealth::kHealthy);
  EXPECT_EQ(verdicts[1].health, DeviceHealth::kSilent);
  EXPECT_EQ(verdicts[2].health, DeviceHealth::kCompromised);
  EXPECT_EQ(verdicts[3].health, DeviceHealth::kSuspect);
  EXPECT_EQ(quarantine_list(verdicts), (std::vector<std::size_t>{1, 2}));
}

TEST(FleetHealth, DegradedDevice) {
  // Responses validate and nothing is lost, but attestation is consuming
  // a third of the device's life — its real-time duty is starving.
  const auto v = assess_device(5, stats(10, 10, 0), HealthPolicy{}, 0.33);
  EXPECT_EQ(v.health, DeviceHealth::kDegraded);
  EXPECT_DOUBLE_EQ(v.duty_fraction, 0.33);
}

TEST(FleetHealth, DegradedThresholdRespected) {
  HealthPolicy policy;
  policy.degraded_duty_threshold = 0.5;
  EXPECT_EQ(assess_device(0, stats(10, 10, 0), policy, 0.4).health,
            DeviceHealth::kHealthy);
  EXPECT_EQ(assess_device(0, stats(10, 10, 0), policy, 0.6).health,
            DeviceHealth::kDegraded);
  // Stronger signals still win over duty starvation.
  EXPECT_EQ(assess_device(0, stats(10, 9, 1), policy, 0.9).health,
            DeviceHealth::kCompromised);
  EXPECT_EQ(assess_device(0, stats(10, 1, 0), policy, 0.9).health,
            DeviceHealth::kSilent);
}

TEST(FleetHealth, DegradedViaFleetDutyFraction) {
  SwarmReport report;
  report.horizon_ms = 1000.0;
  report.devices.push_back({0, stats(10, 10, 0), 400.0, 0.4});  // degraded
  report.devices.push_back({1, stats(10, 10, 0), 10.0, 0.01});  // healthy
  const auto verdicts = assess_fleet(report);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].health, DeviceHealth::kDegraded);
  EXPECT_EQ(verdicts[1].health, DeviceHealth::kHealthy);
  // Degraded devices are starved, not compromised: no quarantine.
  EXPECT_TRUE(quarantine_list(verdicts).empty());
}

obs::ts::AlertEvent alert(std::uint64_t device, const char* rule,
                          double t_ms = 500.0) {
  obs::ts::AlertEvent event;
  event.sim_time_ms = t_ms;
  event.device_id = device;
  event.rule = rule;
  return event;
}

TEST(FleetHealthAlerts, EnergyBurnEscalatesHealthyToDegraded) {
  DeviceVerdict v;
  v.device = 2;
  v.health = DeviceHealth::kHealthy;
  const std::vector<obs::ts::AlertEvent> alerts{
      alert(2, "dos.energy_burn"), alert(9, "dos.energy_burn")};
  apply_alerts(v, alerts, HealthPolicy{});
  EXPECT_EQ(v.health, DeviceHealth::kDegraded);
  EXPECT_EQ(v.alerts, 1u);  // only its own device's alerts count
  EXPECT_FALSE(v.quarantine_by_alerts);
}

TEST(FleetHealthAlerts, RateSpikeEscalatesHealthyToSuspectOnly) {
  DeviceVerdict v;
  v.health = DeviceHealth::kHealthy;
  const std::vector<obs::ts::AlertEvent> alerts{
      alert(0, "dos.rate_spike"), alert(0, "dos.reject_ratio")};
  apply_alerts(v, alerts, HealthPolicy{});
  EXPECT_EQ(v.health, DeviceHealth::kSuspect);
  // A degrading alert on top of the campaign signature wins.
  DeviceVerdict w;
  const std::vector<obs::ts::AlertEvent> mixed{
      alert(0, "dos.rate_spike"), alert(0, "dos.duty_cycle")};
  apply_alerts(w, mixed, HealthPolicy{});
  EXPECT_EQ(w.health, DeviceHealth::kDegraded);
}

TEST(FleetHealthAlerts, AlertsNeverSoftenAStrongerVerdict) {
  DeviceVerdict compromised;
  compromised.health = DeviceHealth::kCompromised;
  const std::vector<obs::ts::AlertEvent> alerts{alert(0, "dos.energy_burn")};
  apply_alerts(compromised, alerts, HealthPolicy{});
  EXPECT_EQ(compromised.health, DeviceHealth::kCompromised);
  EXPECT_EQ(compromised.alerts, 1u);
  DeviceVerdict silent;
  silent.health = DeviceHealth::kSilent;
  apply_alerts(silent, alerts, HealthPolicy{});
  EXPECT_EQ(silent.health, DeviceHealth::kSilent);
}

TEST(FleetHealthAlerts, EscalationCanBeDisabledByPolicy) {
  HealthPolicy policy;
  policy.alerts_escalate = false;
  DeviceVerdict v;
  const std::vector<obs::ts::AlertEvent> alerts{alert(0, "dos.energy_burn")};
  apply_alerts(v, alerts, policy);
  EXPECT_EQ(v.health, DeviceHealth::kHealthy);
  EXPECT_EQ(v.alerts, 1u);  // still counted, just not acted on
}

TEST(FleetHealthAlerts, AlertVolumeCrossesQuarantineBar) {
  HealthPolicy policy;
  policy.quarantine_alerts = 3;
  std::vector<obs::ts::AlertEvent> alerts;
  for (int i = 0; i < 3; ++i) {
    alerts.push_back(alert(1, "dos.reject_ratio", 500.0 * (i + 1)));
  }
  SwarmReport report;
  report.devices.push_back({0, stats(10, 10, 0), 1.0});
  report.devices.push_back({1, stats(10, 10, 0), 1.0});
  const auto verdicts = assess_fleet(report, alerts, policy);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].health, DeviceHealth::kHealthy);
  EXPECT_EQ(verdicts[0].alerts, 0u);
  EXPECT_EQ(verdicts[1].health, DeviceHealth::kSuspect);
  EXPECT_TRUE(verdicts[1].quarantine_by_alerts);
  // The quarantine list picks up the alert-flooded device even though
  // its session statistics are spotless.
  EXPECT_EQ(quarantine_list(verdicts), (std::vector<std::size_t>{1}));
}

TEST(FleetHealthAlerts, ZeroQuarantineBarDisablesAlertQuarantine) {
  HealthPolicy policy;
  policy.quarantine_alerts = 0;
  DeviceVerdict v;
  std::vector<obs::ts::AlertEvent> alerts;
  for (int i = 0; i < 100; ++i) alerts.push_back(alert(0, "dos.rate_spike"));
  apply_alerts(v, alerts, policy);
  EXPECT_FALSE(v.quarantine_by_alerts);
  EXPECT_EQ(v.alerts, 100u);
}

TEST(FleetHealth, Names) {
  EXPECT_EQ(to_string(DeviceHealth::kHealthy), "healthy");
  EXPECT_EQ(to_string(DeviceHealth::kSilent), "silent");
  EXPECT_EQ(to_string(DeviceHealth::kCompromised), "compromised");
  EXPECT_EQ(to_string(DeviceHealth::kDegraded), "degraded");
  EXPECT_EQ(to_string(DeviceHealth::kSuspect), "suspect");
}

// End-to-end: a fleet with one tampered device gets flagged.
TEST(FleetHealth, DetectsTamperedDeviceInLiveFleet) {
  SwarmConfig config;
  config.device_count = 3;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.measured_bytes = 512;
  config.attest_period_ms = 100.0;
  Swarm swarm(config, crypto::from_string("health-fleet"));

  // Resident malware flips a byte in device 1's measured memory.
  attest::ProverDevice& victim = swarm.prover(1);
  hw::SoftwareComponent malware(victim.mcu(), "malware",
                                victim.surface().malware_region);
  std::uint8_t b = 0;
  ASSERT_EQ(malware.read8(victim.surface().measured_memory.begin, b),
            hw::BusStatus::kOk);
  ASSERT_EQ(malware.write8(victim.surface().measured_memory.begin,
                           static_cast<std::uint8_t>(b ^ 0xff)),
            hw::BusStatus::kOk);

  const SwarmReport report = swarm.run_parallel(500.0, 1);
  const auto verdicts = assess_fleet(report);
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts[0].health, DeviceHealth::kHealthy);
  EXPECT_EQ(verdicts[1].health, DeviceHealth::kCompromised);
  EXPECT_EQ(verdicts[2].health, DeviceHealth::kHealthy);
  EXPECT_EQ(quarantine_list(verdicts), (std::vector<std::size_t>{1}));
}

}  // namespace
}  // namespace ratt::sim
