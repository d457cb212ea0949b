// Extension experiment X2 (future-work item 1, IoT): attestation health
// of a device fleet under a replay-flooding adversary, as fleet size
// grows. Each device has its own K_Attest; the attacker records one
// genuine request per link and replays it continuously.
//
// Accounting runs on ratt::obs: the fleet observer is attached after the
// recording phase, so the registry's prover.busy_ms counter covers the
// measurement window only, and the reject breakdown comes straight from
// the prover.outcome.* counters instead of being re-derived by hand.
//
// Two modes:
//   (no args)       the original X2 sweep table, 1..16 devices, serial.
//   --devices=N [--threads=N] [--trace=path]
//                   fleet-scale run on the sharded Swarm. Everything on
//                   stdout (and the --trace JSONL) is byte-identical for
//                   the same seed at ANY --threads value; wall-clock
//                   timing goes to stderr. The shard count is
//                   min(devices, 16), independent of --threads, so the
//                   shard plan — and with it the trace ring contents —
//                   never varies with parallelism.
//   --link=PROFILE  (with the fleet-scale flags) swaps the replay flood
//                   for a net::FaultyLink on every channel + reliable
//                   rounds: the printed MACs/round is the fleet-wide DoS
//                   amplification the lossy wire extracts via verifier
//                   retransmissions (each retry is a fresh request the
//                   prover fully serves).
//
// Fleet throughput is measured end to end by benchmark/run.sh (whole
// process, medians over repeated runs), not here.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ratt/obs/metrics.hpp"
#include "ratt/sim/swarm.hpp"

namespace {

using namespace ratt;  // NOLINT

struct FleetRow {
  std::size_t devices;
  std::uint64_t genuine_valid;
  std::uint64_t genuine_sent;
  std::uint64_t replays_rejected;
  double attacker_extracted_ms;
  double attacker_extracted_mj;
  double peak_duty_fraction;
};

double counter_value(const obs::Registry& registry, const char* name) {
  const obs::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0.0 : c->value();
}

FleetRow run_fleet(std::size_t device_count, bool hardened) {
  sim::SwarmConfig config;
  config.device_count = device_count;
  config.prover.scheme = hardened ? attest::FreshnessScheme::kCounter
                                  : attest::FreshnessScheme::kNone;
  config.prover.authenticate_requests = hardened;
  config.prover.measured_bytes = 16 * 1024;  // ~24 ms per attestation
  config.attest_period_ms = 250.0;

  sim::Swarm swarm(config, crypto::from_string("fleet-bench-seed"));

  // The attacker records the first genuine request on every link...
  std::vector<sim::RecordingTap> taps(device_count);
  for (std::size_t i = 0; i < device_count; ++i) {
    swarm.channel(i).set_tap(&taps[i]);
    swarm.session(i).send_request();
  }
  swarm.run_all();

  // ...then the observer starts the clock on the measurement window and
  // the attacker replays the recording 20x per device.
  obs::Registry registry;
  swarm.attach_observer(&registry);
  for (std::size_t i = 0; i < device_count; ++i) {
    if (taps[i].recorded_to_prover().empty()) continue;
    const crypto::Bytes recorded = taps[i].recorded_to_prover()[0].payload;
    for (int k = 0; k < 20; ++k) {
      swarm.channel(i).inject_to_prover(recorded, 10.0 + 45.0 * k);
    }
  }
  const sim::SwarmReport report = swarm.run_parallel(1000.0, 1);

  FleetRow row{};
  row.devices = device_count;
  row.genuine_valid = report.total_valid();
  row.genuine_sent = report.total_sent();
  row.replays_rejected += static_cast<std::uint64_t>(
      counter_value(registry, "prover.outcome.not-fresh") +
      counter_value(registry, "prover.outcome.bad-request-mac"));
  for (const auto& d : report.devices) {
    if (d.duty_fraction > row.peak_duty_fraction) {
      row.peak_duty_fraction = d.duty_fraction;
    }
  }
  // Window-only prover time minus the genuine rounds run in the window:
  // what's left is the time the attacker extracted.
  const timing::DeviceTimingModel model;
  const double genuine_round_ms = model.memory_attestation_ms(
      crypto::MacAlgorithm::kHmacSha1, 16 * 1024);
  const auto window_valid = static_cast<double>(
      report.total_valid() >= device_count
          ? report.total_valid() - device_count  // phase-I rounds
          : 0);
  row.attacker_extracted_ms =
      counter_value(registry, "prover.busy_ms") -
      window_valid * genuine_round_ms;
  if (row.attacker_extracted_ms < 0) row.attacker_extracted_ms = 0;
  row.attacker_extracted_mj =
      obs::PowerModel{}.active_mj(row.attacker_extracted_ms);
  return row;
}

int run_sweep_table() {
  std::printf(
      "=== X2: fleet-scale replay flood (20 replays/device/s window) "
      "===\n\n");
  for (const bool hardened : {false, true}) {
    std::printf("  %s fleet:\n",
                hardened ? "hardened (auth + counter)" : "unprotected");
    std::printf("    %-9s %-16s %-18s %-22s %-14s %-10s\n", "devices",
                "genuine valid", "replays rejected",
                "attacker-extracted ms", "stolen mJ", "peak duty");
    for (std::size_t n : {1u, 2u, 4u, 8u, 16u}) {
      const FleetRow row = run_fleet(n, hardened);
      std::printf("    %-9zu %llu/%-14llu %-18llu %-22.1f %-14.3f %-10.3f\n",
                  row.devices,
                  static_cast<unsigned long long>(row.genuine_valid),
                  static_cast<unsigned long long>(row.genuine_sent),
                  static_cast<unsigned long long>(row.replays_rejected),
                  row.attacker_extracted_ms, row.attacker_extracted_mj,
                  row.peak_duty_fraction);
    }
  }
  std::printf(
      "\n  Shape: attacker-extracted prover time grows linearly with "
      "fleet size for the\n  unprotected fleet (~480 ms/device/s: the "
      "device is mostly the attacker's),\n  and stays near zero for the "
      "hardened fleet, whose rejects grow instead.\n");
  return 0;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct FleetScaleOptions {
  std::size_t devices = 1024;
  std::size_t threads = 1;
  std::string trace_path;
  std::string link;  // faulty-link profile; enables reliable rounds
};

int run_fleet_scale(const FleetScaleOptions& opt) {
  sim::SwarmConfig config;
  config.device_count = opt.devices;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 16 * 1024;
  config.attest_period_ms = 250.0;
  config.stagger_ms = 0.5;  // keep every device active inside the horizon
  config.shard_count = std::min<std::size_t>(opt.devices, 16);
  if (!opt.link.empty()) {
    // --link=PROFILE: the whole fleet runs reliable rounds over this
    // faulty link; the replay flood is replaced by the link's own
    // retransmission amplification (every retry = one extra full MAC).
    const auto profile = net::link_profile_by_name(opt.link);
    if (!profile.has_value()) {
      std::fprintf(stderr, "unknown link profile '%s'\n", opt.link.c_str());
      return 2;
    }
    config.link = *profile;
    config.reliable = true;
    config.retry.max_attempts = 4;
    config.retry.base_timeout_ms = 0.0;  // derived per device
    config.retry.jitter_ms = 5.0;
  }

  sim::Swarm swarm(config, crypto::from_string("fleet-bench-seed"));

  obs::Registry registry;
  std::vector<sim::RecordingTap> taps(opt.devices);
  if (opt.link.empty()) {
    // Phase I (untraced, serial): record one genuine request per link.
    for (std::size_t i = 0; i < opt.devices; ++i) {
      swarm.channel(i).set_tap(&taps[i]);
      swarm.session(i).send_request();
    }
    swarm.run_all();

    // Phase II: per-shard trace rings + shared atomic registry, 20
    // replays per device, drained on the requested number of worker
    // threads.
    swarm.attach_sharded_observer(&registry);
    for (std::size_t i = 0; i < opt.devices; ++i) {
      if (taps[i].recorded_to_prover().empty()) continue;
      const crypto::Bytes recorded = taps[i].recorded_to_prover()[0].payload;
      for (int k = 0; k < 20; ++k) {
        swarm.channel(i).inject_to_prover(recorded, 10.0 + 45.0 * k);
      }
    }
  } else {
    swarm.attach_sharded_observer(&registry);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const sim::SwarmReport report = swarm.run_parallel(1000.0, opt.threads);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  const std::vector<obs::TraceRecord> merged = swarm.merged_trace();
  std::ostringstream jsonl;
  obs::write_jsonl(jsonl, merged);
  const std::string jsonl_text = jsonl.str();

  if (!opt.trace_path.empty()) {
    std::ofstream out(opt.trace_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open trace file: %s\n",
                   opt.trace_path.c_str());
      return 2;
    }
    out << jsonl_text;
  }

  // Deterministic surface: everything below is identical for the same
  // seed at any --threads value (thread count and wall clock go to
  // stderr, which the byte-identity comparison excludes).
  if (opt.link.empty()) {
    std::printf("=== X2 fleet-scale replay flood ===\n");
  } else {
    std::printf("=== X2 fleet-scale lossy-link amplification ===\n");
    std::printf("link profile:     %s\n", opt.link.c_str());
  }
  std::printf("devices:          %zu\n", opt.devices);
  std::printf("shards:           %zu\n", swarm.shard_count());
  std::printf("horizon_ms:       1000\n");
  std::printf("genuine valid:    %llu\n",
              static_cast<unsigned long long>(report.total_valid()));
  std::printf("genuine sent:     %llu\n",
              static_cast<unsigned long long>(report.total_sent()));
  std::printf("replays rejected: %llu\n",
              static_cast<unsigned long long>(
                  counter_value(registry, "prover.outcome.not-fresh") +
                  counter_value(registry, "prover.outcome.bad-request-mac")));
  if (!opt.link.empty()) {
    std::uint64_t started = 0, valid = 0, unreachable = 0, retransmits = 0;
    std::uint64_t timeouts = 0, duplicates = 0, macs = 0;
    for (std::size_t i = 0; i < swarm.size(); ++i) {
      const auto& s = report.devices[i].stats;
      started += s.rounds_started;
      valid += s.responses_valid;
      unreachable += s.rounds_unreachable;
      retransmits += s.retransmits;
      timeouts += s.timeouts;
      duplicates += s.duplicate_responses;
      macs += swarm.prover(i).anchor().attestations_performed();
    }
    std::printf("rounds started:   %llu\n",
                static_cast<unsigned long long>(started));
    std::printf("rounds unreach:   %llu\n",
                static_cast<unsigned long long>(unreachable));
    std::printf("retransmits:      %llu\n",
                static_cast<unsigned long long>(retransmits));
    std::printf("timeouts:         %llu\n",
                static_cast<unsigned long long>(timeouts));
    std::printf("dup responses:    %llu\n",
                static_cast<unsigned long long>(duplicates));
    std::printf("memory MACs:      %llu\n",
                static_cast<unsigned long long>(macs));
    std::printf("MACs/round:       %.3f\n",
                valid == 0 ? 0.0
                           : static_cast<double>(macs) /
                                 static_cast<double>(valid));
  }
  std::printf("events leftover:  %zu\n", report.events_leftover);
  std::printf("trace records:    %zu\n", merged.size());
  std::printf("trace jsonl fnv:  %016llx\n",
              static_cast<unsigned long long>(fnv1a(jsonl_text)));
  std::fprintf(stderr, "threads=%zu wall_ms=%.1f\n", opt.threads, wall_ms);
  return 0;
}

bool parse_size(const char* arg, const char* prefix, std::size_t* out) {
  const std::size_t len = std::strlen(prefix);
  if (std::strncmp(arg, prefix, len) != 0) return false;
  *out = static_cast<std::size_t>(std::strtoull(arg + len, nullptr, 10));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return run_sweep_table();

  FleetScaleOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (parse_size(arg, "--devices=", &opt.devices)) continue;
    if (parse_size(arg, "--threads=", &opt.threads)) continue;
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      opt.trace_path = arg + 8;
      continue;
    }
    if (std::strncmp(arg, "--link=", 7) == 0) {
      opt.link = arg + 7;
      continue;
    }
    if (std::strcmp(arg, "--link") == 0 && i + 1 < argc) {
      opt.link = argv[++i];
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--devices=N] [--threads=N] [--trace=path] "
                 "[--link=clean|lossy10|bursty|hostile]\n",
                 argv[0]);
    return 2;
  }
  if (opt.devices == 0 || opt.threads == 0) {
    std::fprintf(stderr, "--devices and --threads must be nonzero\n");
    return 2;
  }
  return run_fleet_scale(opt);
}
