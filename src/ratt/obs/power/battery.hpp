// ratt::obs::power — checkpointable battery observability.
//
// The paper's provers are battery-powered sensors: a CR2032 holds about
// 2430 J, and the whole point of the prover's-perspective analysis is
// that attestation cost is measured in that budget. PowerMeter closes
// the loop: it sits on the trace stream, integrates every unit of work's
// energy (plus the sleep-floor drain between them) into a per-device
// battery gauge, and emits periodic "power.battery" records carrying
// state-of-charge and a windowed burn-rate estimate — which the
// AlertEngine grades into power.battery_depletion alerts.
//
// Checkpointing: multi-day depletion campaigns don't fit one process
// run. checkpoint()/restore() serialize the complete meter state —
// per-device used energy, timeline cursors, and the burn rollup rings —
// as line-based text with shortest-round-trip doubles, so a campaign
// split into N segments produces byte-identical records and gauges to
// the straight run. Reports fire at fixed boundaries (multiples of
// report_period_ms per device), independent of how records batch.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>

#include "ratt/obs/trace.hpp"
#include "ratt/obs/ts/rollup.hpp"

namespace ratt::obs::power {

struct BatteryConfig {
  /// Usable energy per device. Default: CR2032 coin cell, ~2430 J.
  double capacity_mj = 2.43e6;
  /// State-of-charge at/below which reports say "low" (0 disables).
  double alert_soc = 0.2;
  /// "power.battery" report cadence per device, in sim time.
  double report_period_ms = 250.0;
  /// Baseline drain between units of work (sleep-state power).
  double sleep_mw = 0.003;
  /// Burn-rate estimator: active energy folded into windows this wide...
  double burn_window_ms = 1000.0;
  /// ...kept in a ring this deep.
  std::size_t burn_history = 64;
};

/// Trace-stream battery integrator. Feed it the same stream the ring
/// sees (TeeSink); it drains active energy from "prover.handle" and
/// "dos.request" records, sleep power for the time in between, and emits
/// "power.battery" gauge records to the report sink (which must not loop
/// back into this meter). One per shard when sharded — merge is the
/// usual trace collation.
class PowerMeter : public TraceSink {
 public:
  explicit PowerMeter(BatteryConfig config = BatteryConfig{});

  /// Destination for "power.battery" reports (nullptr = don't emit).
  void set_sink(TraceSink* sink) { sink_ = sink; }

  void record(const TraceRecord& rec) override;
  /// Advance every device's timeline to `now_ms` (sleep drain + due
  /// reports) — call at end of horizon or before a checkpoint.
  void finish(double now_ms);

  double soc(std::uint64_t device_id) const;
  double remaining_mj(std::uint64_t device_id) const;
  /// Sleep baseline + windowed active burn estimate, in mW.
  double burn_mw(std::uint64_t device_id) const;
  bool depleted(std::uint64_t device_id) const;

  /// Fleet rollups (devices the meter has seen).
  std::size_t devices() const { return devices_.size(); }
  double min_soc() const;
  std::size_t depleted_count() const;
  std::uint64_t reports_emitted() const { return reports_; }

  const BatteryConfig& config() const { return config_; }

  /// Serialize the complete meter state as line-based text (shortest
  /// round-trip doubles). restore() fails (returns false) on a header or
  /// config mismatch — a checkpoint only resumes into a meter built with
  /// the same BatteryConfig — and on any malformed or truncated line.
  /// It is transactional: a failed restore leaves the meter unchanged.
  void checkpoint(std::ostream& out) const;
  bool restore(std::istream& in);

 private:
  struct DeviceState {
    double used_mj = 0.0;
    double last_ms = 0.0;        // timeline cursor (sleep drained to here)
    double next_report_ms = 0.0; // next gauge boundary
    ts::WindowedRollup burn;     // active energy per window

    explicit DeviceState(const BatteryConfig& config)
        : next_report_ms(config.report_period_ms),
          burn(config.burn_window_ms, config.burn_history) {}
  };

  DeviceState& device(std::uint64_t device_id);
  /// Emit every report boundary due at or before t, across all devices,
  /// in (boundary, device_id) order — the canonical interleaving, so a
  /// segmented replay reproduces the straight run's report stream.
  void advance(double t_ms);
  /// Sleep-drain one device's timeline cursor forward to t.
  void sleep_to(DeviceState& dev, double t_ms);
  void emit_report(std::uint64_t device_id, DeviceState& dev, double t_ms);
  double device_soc(const DeviceState& dev) const;
  double device_burn_mw(const DeviceState& dev) const;

  BatteryConfig config_;
  std::map<std::uint64_t, DeviceState> devices_;
  TraceSink* sink_ = nullptr;
  std::uint64_t reports_ = 0;
};

}  // namespace ratt::obs::power
