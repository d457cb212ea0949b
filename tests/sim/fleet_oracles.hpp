// Test-only reference schedule for the fleet simulator. Runtime configs
// carry no reference knobs; differential tests build their oracles from
// the public Swarm surface instead.
#pragma once

#include <cmath>
#include <cstdint>

#include "ratt/sim/swarm.hpp"

namespace ratt::sim::oracle {

/// Eager reference schedule: every round of every device planted up
/// front, in device order (materializing each device first), then one
/// serial drain — O(devices x rounds) pending events. Round times use
/// the same multiplicative offset + k * period as the lazy chains, so
/// lazy runs must match this byte for byte. Call it where
/// run_parallel(horizon, 1) would go, after any attach_*.
inline SwarmReport run_eager(Swarm& swarm, const SwarmConfig& config,
                             double horizon_ms) {
  for (std::size_t i = 0; i < swarm.size(); ++i) {
    AttestationSession* session = &swarm.session(i);
    const double raw = config.stagger_ms * static_cast<double>(i);
    const double offset = config.attest_period_ms > 0.0
                              ? std::fmod(raw, config.attest_period_ms)
                              : raw;
    for (std::uint64_t k = 1; config.attest_period_ms > 0.0; ++k) {
      const double t =
          offset + static_cast<double>(k) * config.attest_period_ms;
      if (t > horizon_ms) break;
      swarm.queue_of(i).schedule_at(t, [session] { session->send_request(); });
    }
  }
  swarm.run_all();
  return swarm.report(horizon_ms);
}

}  // namespace ratt::sim::oracle
