// The fleet benchmark's workloads and one measured repetition of each.
//
// A repetition drives only public APIs (sim::Swarm, obs::write_jsonl) and
// times them from outside with steady_clock, getrusage and
// /proc/self/statm. Every workload uses counter freshness with
// authenticated requests, kThreads workers and kShards shards.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ratt/sim/swarm.hpp"

namespace ratt_bench {

inline constexpr std::size_t kThreads = 4;
inline constexpr std::size_t kShards = 16;

struct WorkloadSpec {
  const char* name;
  std::size_t devices;
  std::size_t measured_bytes;
  double period_ms;
  double stagger_ms;
  double horizon_ms;
  bool lossy;         // lossy10 link + reliable rounds (4 attempts)
  bool shared_image;  // one app image for the fleet (else per-device)
  bool traced;        // per-shard trace rings (else registry only)
  bool replay_flood;  // serial phase-I recording, then 20 replays/device
};

std::span<const WorkloadSpec> workloads();
const WorkloadSpec* find_workload(std::string_view name);

ratt::sim::SwarmConfig make_config(const WorkloadSpec& spec);
/// Fleet seed for benchmark seed `seed`: same seed, same fleet.
ratt::crypto::Bytes fleet_seed(std::uint64_t seed);

/// A timed interval, in seconds from the start of the repetition.
struct Span {
  std::string name;
  double start_s = 0.0;
  double dur_s = 0.0;
  int track = 0;
};

struct Repetition {
  /// Every measurement by metric name (times, counts, memory figures).
  std::map<std::string, double> values;
  std::string trace_fnv;  // FNV-1a of the merged trace JSONL
  /// Invariant violations (empty when the outputs check out).
  std::vector<std::string> errors;
  std::vector<Span> spans;
};

/// Run the workload once in this process and measure it.
Repetition run_repetition(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace ratt_bench
