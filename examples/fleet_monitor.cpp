// Fleet monitor: an operator attesting a fleet of IoT nodes on a
// staggered schedule over lossy, adversarial links (future-work item 1),
// upgraded into a live terminal dashboard on the ratt::obs::ts analytics
// plane: the swarm runs in 500 ms slices and every frame prints rolling
// request rates (windowed + EWMA), streaming p50/p95/p99 of prover time
// and energy, the fleet's battery state (min SoC + peak burn off a
// ratt::obs::power::PowerMeter in the same tee chain), and the alerts
// that fired — then the final health table folds those alerts into the
// per-device verdicts, so the replay-flooded device is flagged by its
// own metrics (including the battery it burned), not just by session
// statistics.
//
//   build/examples/fleet_monitor                      live 8-device demo
//   build/examples/fleet_monitor --devices=256 --threads=8
//                                       fleet-scale sharded run: merged
//                                       trace -> alert replay -> verdicts
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ratt/obs/power/battery.hpp"
#include "ratt/obs/scoreboard.hpp"
#include "ratt/obs/trace.hpp"
#include "ratt/obs/ts/alert.hpp"
#include "ratt/obs/ts/quantile.hpp"
#include "ratt/obs/ts/rollup.hpp"
#include "ratt/sim/fleet_health.hpp"

namespace {

using namespace ratt;  // NOLINT

constexpr double kHorizonMs = 3000.0;
constexpr double kFrameMs = 500.0;

// A deliberately tiny demo cell — a few attestation rounds of budget —
// so the SoC gauge visibly drains inside the 3 s horizon.
obs::power::BatteryConfig demo_battery() {
  obs::power::BatteryConfig battery;
  battery.capacity_mj = 1.2;
  battery.report_period_ms = kFrameMs;
  battery.burn_window_ms = kFrameMs;
  return battery;
}

// Fleet-wide rolling statistics fed straight off the trace stream.
struct DashboardSink : obs::TraceSink {
  obs::ts::WindowedRollup requests{kFrameMs, 16};
  obs::ts::EwmaRate rate{1000.0};
  obs::ts::QuantileTriplet prover_ms;
  obs::ts::QuantileTriplet energy_mj;

  void record(const obs::TraceRecord& rec) override {
    if (rec.kind != "prover.handle") return;
    requests.observe(rec.sim_time_ms, 1.0);
    rate.on_event(rec.sim_time_ms);
    prover_ms.observe(rec.prover_ms);
    energy_mj.observe(rec.energy_mj);
  }
};

// Fleet-scale mode: no live frames — the sharded swarm runs the whole
// horizon on a thread pool, and every analytics consumer (alert engine,
// health verdicts) is fed the deterministic merged trace afterwards.
// Same verdicts at any --threads value.
int run_fleet_scale(std::size_t devices, std::size_t threads) {
  sim::SwarmConfig config;
  config.device_count = devices;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 16 * 1024;
  config.attest_period_ms = 500.0;
  config.stagger_ms = 1.0;
  config.shard_count = std::min<std::size_t>(devices, 16);
  sim::Swarm swarm(config, crypto::from_string("fleet-monitor-seed"));

  // The adversary records device 0's traffic during an untraced warm-up
  // round, then floods that link with replays during the horizon.
  sim::RecordingTap replay_tap;
  swarm.channel(0).set_tap(&replay_tap);
  swarm.session(0).send_request();
  swarm.run_all();

  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  if (!replay_tap.recorded_to_prover().empty()) {
    for (int k = 0; k < 30; ++k) {
      swarm.channel(0).inject_to_prover(
          replay_tap.recorded_to_prover()[0].payload, 50.0 + 60.0 * k);
    }
  }
  const sim::SwarmReport report = swarm.run_parallel(kHorizonMs, threads);

  const std::vector<obs::TraceRecord> merged = swarm.merged_trace();
  obs::ts::AlertConfig alert_config;
  alert_config.device_count = devices;
  alert_config.max_alerts = 64 * devices;
  const auto verdicts =
      sim::assess_fleet(report, merged, alert_config);

  // Battery replay: the same merged trace drains per-device demo cells,
  // and the gauge stream feeds a second alert pass for depletion.
  obs::power::PowerMeter battery(demo_battery());
  obs::ts::AlertEngine battery_alerts(alert_config);
  battery.set_sink(&battery_alerts);
  for (const auto& rec : merged) battery.record(rec);
  battery.finish(kHorizonMs);
  battery_alerts.finish(kHorizonMs + kFrameMs);
  std::size_t depletion_alerts = 0;
  for (const auto& alert : battery_alerts.alerts()) {
    if (alert.rule == "power.battery_depletion") ++depletion_alerts;
  }

  std::printf("=== fleet-scale monitor: %zu devices, %zu shards ===\n\n",
              devices, swarm.shard_count());
  std::printf("  horizon:          %.0f ms\n", kHorizonMs);
  std::printf("  genuine valid:    %llu/%llu\n",
              static_cast<unsigned long long>(report.total_valid()),
              static_cast<unsigned long long>(report.total_sent()));
  std::printf("  trace records:    %zu (merged across shards)\n",
              merged.size());
  std::printf("  battery (%.1f mJ): min SoC %.2f, depleted %zu/%zu, "
              "%llu depletion alerts\n",
              battery.config().capacity_mj, battery.min_soc(),
              battery.depleted_count(), battery.devices(),
              static_cast<unsigned long long>(depletion_alerts));

  std::size_t healthy = 0;
  for (const auto& v : verdicts) {
    if (v.health == sim::DeviceHealth::kHealthy) ++healthy;
  }
  std::printf("  healthy devices:  %zu/%zu\n", healthy, verdicts.size());
  std::printf("\n  flagged devices:\n");
  bool any_flagged = false;
  for (const auto& v : verdicts) {
    if (v.health == sim::DeviceHealth::kHealthy && v.alerts == 0) continue;
    any_flagged = true;
    std::printf("    device %-6zu %-12s alerts=%llu duty=%.2f%s\n",
                v.device, sim::to_string(v.health).c_str(),
                static_cast<unsigned long long>(v.alerts), v.duty_fraction,
                v.quarantine_by_alerts ? "  [quarantine: alert volume]"
                                       : "");
  }
  if (!any_flagged) std::printf("    (none)\n");
  const auto quarantine = sim::quarantine_list(verdicts);
  std::printf("\n  quarantine list:");
  for (const auto id : quarantine) std::printf(" device-%zu", id);
  std::printf("%s\n", quarantine.empty() ? " (empty)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t devices = 0;
  std::size_t threads = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--devices=", 10) == 0) {
      devices = static_cast<std::size_t>(std::strtoull(arg + 10, nullptr, 10));
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = static_cast<std::size_t>(std::strtoull(arg + 10, nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--devices=N] [--threads=N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (devices != 0) return run_fleet_scale(devices, std::max<std::size_t>(1, threads));

  sim::SwarmConfig config;
  config.device_count = 8;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.measured_bytes = 16 * 1024;
  config.attest_period_ms = 500.0;
  config.stagger_ms = 61.0;
  sim::Swarm swarm(config, crypto::from_string("fleet-monitor-seed"));

  // The fleet is one shard, so shard 0's ring holds the whole trace
  // stream, in recording order.
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry, 4096);
  const obs::RingRecorder& ring = *swarm.shard_ring(0);
  obs::ts::AlertConfig alert_config;
  alert_config.device_count = config.device_count;
  obs::ts::AlertEngine alerts(alert_config);
  DashboardSink dash;
  // One trace stream, four consumers: the ring (post-mortem) and, fed
  // from it after every slice, the alert engine (online detection), the
  // dashboard rollups (the live view) and the battery meter — whose SoC
  // gauges feed back into the alert engine so depletion shows up in the
  // same live alert column.
  obs::power::PowerMeter battery(demo_battery());
  battery.set_sink(&alerts);
  obs::TeeSink analytics(alerts, dash);
  obs::TeeSink live(analytics, battery);
  std::uint64_t fed = 0;
  const auto feed_live = [&ring, &live, &fed] {
    const std::uint64_t fresh = ring.total_recorded() - fed;
    const std::size_t from =
        ring.size() - static_cast<std::size_t>(
                          std::min<std::uint64_t>(fresh, ring.size()));
    for (std::size_t i = from; i < ring.size(); ++i) live.record(ring.at(i));
    fed = ring.total_recorded();
  };

  // An adversary taps device 3's link (drops half its requests) and
  // replays device 5's recorded traffic.
  sim::RecordingTap lossy_tap;
  int seen = 0;
  lossy_tap.set_to_prover_script([&seen](const sim::TappedMessage&) {
    sim::ChannelTap::Disposition d;
    d.deliver = (seen++ % 2) == 0;
    return d;
  });
  swarm.channel(3).set_tap(&lossy_tap);

  sim::RecordingTap replay_tap;
  swarm.channel(5).set_tap(&replay_tap);
  swarm.session(5).send_request();
  swarm.run_all();
  if (!replay_tap.recorded_to_prover().empty()) {
    for (int k = 0; k < 10; ++k) {
      swarm.channel(5).inject_to_prover(
          replay_tap.recorded_to_prover()[0].payload, 100.0 + 50.0 * k);
    }
  }

  // Device 6 is compromised: resident malware modified measured memory.
  attest::ProverDevice& victim = swarm.prover(6);
  hw::SoftwareComponent resident(victim.mcu(), "malware",
                                 victim.surface().malware_region);
  std::uint8_t byte = 0;
  (void)resident.read8(victim.surface().measured_memory.begin, byte);
  (void)resident.write8(victim.surface().measured_memory.begin,
                        static_cast<std::uint8_t>(byte ^ 0xff));

  // --- Live dashboard: run the fleet one frame at a time. -------------
  std::printf(
      "=== live fleet dashboard (%.0f ms frames, %.0f ms horizon) ===\n\n"
      "  %-9s %-6s %-10s %-9s %-22s %-20s %-15s %s\n", kFrameMs, kHorizonMs,
      "frame", "reqs", "rate(/s)", "ewma(/s)", "prover p50/p95/p99 ms",
      "energy p95/p99 mJ", "SoC min/burn mW", "alerts");
  swarm.schedule(kHorizonMs);
  std::size_t alerts_printed = 0;
  for (double now = kFrameMs; now <= kHorizonMs; now += kFrameMs) {
    swarm.run_until(now);
    feed_live();
    battery.finish(now);  // close the frame's gauge boundary
    double peak_burn = 0.0;
    for (std::size_t d = 0; d < config.device_count; ++d) {
      peak_burn = std::max(peak_burn, battery.burn_mw(d));
    }
    dash.requests.advance_to(now);
    // The frame that just closed is the window ending at `now`.
    const auto target =
        static_cast<std::uint64_t>(now / kFrameMs) - 1;
    obs::ts::WindowStats frame;
    for (const auto& w : dash.requests.snapshot()) {
      if (w.index == target) frame = w;
    }
    const auto fired = alerts.alerts();
    std::printf("  %5.0f ms  %-6llu %-10.1f %-9.1f %5.1f/%5.1f/%5.1f"
                "           %.3f/%.3f          %4.2f/%-7.2f     %llu\n",
                now, static_cast<unsigned long long>(frame.count),
                frame.rate_per_s(kFrameMs), dash.rate.rate_per_s(now),
                dash.prover_ms.p50(), dash.prover_ms.p95(),
                dash.prover_ms.p99(), dash.energy_mj.p95(),
                dash.energy_mj.p99(), battery.min_soc(), peak_burn,
                static_cast<unsigned long long>(fired.size()));
    for (; alerts_printed < fired.size(); ++alerts_printed) {
      std::printf("           ! %s\n",
                  obs::ts::to_log_line(fired[alerts_printed]).c_str());
    }
  }
  // One frame past the horizon so the final battery gauges' window
  // closes and a depleted cell can still raise its alert.
  alerts.finish(kHorizonMs + kFrameMs);
  for (const auto fired = alerts.alerts(); alerts_printed < fired.size();
       ++alerts_printed) {
    std::printf("           ! %s\n",
                obs::ts::to_log_line(fired[alerts_printed]).c_str());
  }

  const sim::SwarmReport report = swarm.report(kHorizonMs);
  const auto verdicts = sim::assess_fleet(report, alerts.alerts());

  std::printf("\n=== fleet attestation report (3 s horizon) ===\n\n");
  std::printf("  %-8s %-8s %-8s %-9s %-14s %-11s %-7s %-5s %-8s %-7s "
              "%-12s\n",
              "device", "sent", "valid", "invalid", "rej(nf/mac/rl)",
              "attest-ms", "duty%", "SoC", "burn-mW", "alerts", "health");
  for (const auto& d : report.devices) {
    char rejects[32];
    std::snprintf(rejects, sizeof(rejects), "%llu/%llu/%llu",
                  static_cast<unsigned long long>(d.stats.rejects_not_fresh),
                  static_cast<unsigned long long>(d.stats.rejects_bad_mac),
                  static_cast<unsigned long long>(
                      d.stats.rejects_rate_limited));
    std::printf(
        "  %-8zu %-8llu %-8llu %-9llu %-14s %-11.1f %-7.2f %-5.2f %-8.2f "
        "%-7llu %-12s %s\n",
        d.device, static_cast<unsigned long long>(d.stats.requests_sent),
        static_cast<unsigned long long>(d.stats.responses_valid),
        static_cast<unsigned long long>(d.stats.responses_invalid), rejects,
        d.attest_device_ms, 100.0 * d.duty_fraction, battery.soc(d.device),
        battery.burn_mw(d.device),
        static_cast<unsigned long long>(verdicts[d.device].alerts),
        sim::to_string(verdicts[d.device].health).c_str(),
        d.device == 3   ? "<- lossy link (adversary drops)"
        : d.device == 5 ? "<- replay flood (alerts fired)"
        : d.device == 6 ? "<- resident malware in measured memory"
                        : "");
  }
  const auto quarantine = sim::quarantine_list(verdicts);
  std::printf("\n  quarantine list:");
  for (const auto id : quarantine) std::printf(" device-%zu", id);
  std::printf("%s\n", quarantine.empty() ? " (empty)" : "");

  // Scoreboard derived from the prover-side trace: every handled request
  // is filed under its outcome. Replays (not-fresh) charge the attacker
  // 250 kbit/s airtime; genuine rounds cost the attacker nothing but are
  // listed so the operator sees the full request mix.
  obs::DosScoreboard scoreboard;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const obs::TraceRecord& span = ring.at(i);
    if (span.kind != "prover.handle") continue;
    const bool adversarial = span.outcome != "ok";
    const double airtime_ms =
        static_cast<double>(span.bytes) * 8.0 / 250.0;
    scoreboard.record(std::string(adversarial ? "attack:" : "genuine:") +
                          span.outcome,
                      span.prover_ms, adversarial ? airtime_ms : 0.0);
  }
  std::printf(
      "\n=== prover time/energy by request class (from the trace) ===\n\n");
  scoreboard.print(stdout);
  if (const auto* backlog = registry.find_gauge("queue.backlog")) {
    std::printf("\n  peak event-queue backlog: %.0f events\n",
                backlog->max());
  }

  std::printf(
      "\nThe dashboard catches the replay flood as it happens: device 5's "
      "window rates\nspike past the EWMA baseline and its reject ratio "
      "saturates, so dos.rate_spike\nand dos.reject_ratio fire in the "
      "first frames and the health table escalates it\nfrom its own "
      "metrics. Device 3's missing responses surface as sent > valid;\n"
      "device 6 fails MAC validation on every response. The scoreboard "
      "shows what the\nreplay flood actually extracted: one request-auth "
      "check per replay — and the\nbattery column shows where it lands: "
      "device 5's cell drains fastest and trips\npower.battery_depletion, "
      "the prover's-perspective cost of absorbing the flood.\n");
  return 0;
}
