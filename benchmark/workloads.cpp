#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "ratt/attest/verifier_batch.hpp"
#include "ratt/obs/metrics.hpp"

namespace ratt_bench {

using namespace ratt;  // NOLINT

namespace {

constexpr int kReplaysPerDevice = 20;

// Each workload stresses a different layer; README.md says which and why.
// Fields: name; devices, measured bytes, period, stagger, horizon (ms);
// lossy, shared image, traced, replay flood.
const WorkloadSpec kWorkloads[] = {
    {"periodic_traced",
     4096, 64, 125.0, 37.0, 12000.0, false, true, true, false},
    {"lossy_reliable",
     4096, 16 * 1024, 250.0, 0.5, 16000.0, true, true, true, false},
    {"replay_flood",
     1024, 16 * 1024, 250.0, 0.5, 1000.0, false, false, true, true},
    {"million_idle",
     1000000, 64, 500.0, 37.0, 520.0, false, true, false, false},
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

double count(const obs::Registry& registry, const char* name) {
  const obs::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->count());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Resident set size of this process, from /proc/self/statm (MB).
double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

/// User + system CPU time of this process, all threads (s).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace

std::span<const WorkloadSpec> workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

sim::SwarmConfig make_config(const WorkloadSpec& spec) {
  sim::SwarmConfig config;
  config.device_count = spec.devices;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = spec.measured_bytes;
  config.attest_period_ms = spec.period_ms;
  config.stagger_ms = spec.stagger_ms;
  config.shard_count = kShards;
  config.share_app_image = spec.shared_image;
  if (spec.lossy) {
    config.link = *net::link_profile_by_name("lossy10");
    config.reliable = true;
    config.retry.max_attempts = 4;
    config.retry.base_timeout_ms = 0.0;  // derived per device
    config.retry.jitter_ms = 5.0;
  }
  return config;
}

crypto::Bytes fleet_seed(std::uint64_t seed) {
  return crypto::from_string("ratt-bench-fleet/" + std::to_string(seed));
}

Repetition run_repetition(const WorkloadSpec& spec, std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  Repetition rep;
  auto& v = rep.values;
  const sim::SwarmConfig config = make_config(spec);
  const crypto::Bytes seed_bytes = fleet_seed(seed);
  obs::Registry registry;
  std::vector<sim::RecordingTap> taps(spec.replay_flood ? spec.devices : 0);

  const double cpu_start = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  const auto span = [&](const char* name, Clock::time_point a,
                        Clock::time_point b) {
    rep.spans.push_back(Span{name, at(a), at(b) - at(a), 1});
  };

  // --- Setup: construction, phase-I priming, observer attach. ---
  auto swarm = std::make_unique<sim::Swarm>(config, seed_bytes);
  const Clock::time_point t_built = Clock::now();
  const double rss_built = rss_mb();
  if (spec.replay_flood) {
    // Phase I (serial, untraced): the attacker records one genuine
    // request per link.
    for (std::size_t i = 0; i < spec.devices; ++i) {
      swarm->channel(i).set_tap(&taps[i]);
      swarm->session(i).send_request();
    }
    if (swarm->run_all() != 0) rep.errors.push_back("phase I stranded events");
  }
  const double rss_pre_attach = rss_mb();
  if (spec.traced) {
    swarm->attach_sharded_observer(&registry);
  } else {
    swarm->attach_observer(&registry, nullptr);
  }
  const double attach_mb = rss_mb() - rss_pre_attach;
  if (spec.replay_flood) {
    for (std::size_t i = 0; i < spec.devices; ++i) {
      if (taps[i].recorded_to_prover().empty()) continue;
      const crypto::Bytes recorded = taps[i].recorded_to_prover()[0].payload;
      for (int k = 0; k < kReplaysPerDevice; ++k) {
        swarm->channel(i).inject_to_prover(recorded, 10.0 + 45.0 * k);
      }
    }
  }
  const double materialized_at_setup =
      static_cast<double>(swarm->materialized_count());
  const Clock::time_point t_setup = Clock::now();
  const double rss_setup = rss_mb();

  // --- Drain. ---
  const double cpu_drain_start = cpu_seconds();
  const sim::SwarmReport report =
      swarm->run_parallel(spec.horizon_ms, kThreads);
  const double drain_cpu = cpu_seconds() - cpu_drain_start;
  const Clock::time_point t_drained = Clock::now();
  const double rss_drain = rss_mb();
  const double report_rows_mb =
      static_cast<double>(report.devices.capacity() *
                          sizeof(sim::SwarmDeviceReport)) /
      1e6;

  // --- Trace merge, JSONL, output checks. ---
  Clock::time_point t_merged, t_serialized, t_checked;
  double resident_mb = 0.0;
  {
    const std::vector<obs::TraceRecord> merged = swarm->merged_trace();
    t_merged = Clock::now();
    std::ostringstream os;
    obs::write_jsonl(os, merged);
    const std::string jsonl = std::move(os).str();
    t_serialized = Clock::now();

    char fnv[17];
    std::snprintf(fnv, sizeof fnv, "%016llx",
                  static_cast<unsigned long long>(fnv1a(jsonl)));
    rep.trace_fnv = fnv;
    v["obs.trace_records"] = static_cast<double>(merged.size());
    v["obs.jsonl_mb"] = static_cast<double>(jsonl.size()) / 1e6;

    double sent = 0, valid = 0, started = 0, retransmits = 0, timeouts = 0,
           unreachable = 0;
    for (const sim::SwarmDeviceReport& d : report.devices) {
      sent += static_cast<double>(d.stats.requests_sent);
      valid += static_cast<double>(d.stats.responses_valid);
      started += static_cast<double>(d.stats.rounds_started);
      retransmits += static_cast<double>(d.stats.retransmits);
      timeouts += static_cast<double>(d.stats.timeouts);
      unreachable += static_cast<double>(d.stats.rounds_unreachable);
    }
    resident_mb = static_cast<double>(swarm->resident().total_bytes()) / 1e6;
    double macs = 0, link_messages = 0;
    for (std::size_t i = 0; i < swarm->size(); ++i) {
      if (!swarm->is_materialized(i)) continue;
      macs += static_cast<double>(
          swarm->prover(i).anchor().attestations_performed());
      if (const net::FaultyLink* link = swarm->faulty_link(i)) {
        link_messages += static_cast<double>(link->stats().to_prover.seen +
                                             link->stats().to_verifier.seen);
      }
    }
    const double attempted = config.reliable ? started : sent;
    const double replays_rejected =
        count(registry, "prover.outcome.not-fresh") +
        count(registry, "prover.outcome.bad-request-mac");
    const double dropped = count(registry, "obs.trace.dropped");
    const double fills = count(registry, "verifier.batch.fills");
    const double hits = count(registry, "verifier.batch.hits");

    v["pin.rounds_attempted"] = attempted;
    v["pin.rounds_valid"] = valid;
    v["pin.replays_rejected"] = replays_rejected;
    v["valid_ratio"] = ratio(valid, attempted);
    v["sim.events_run"] = count(registry, "queue.events_run");
    v["sim.materialized"] = static_cast<double>(swarm->materialized_count());
    v["obs.trace_dropped"] = dropped;
    v["attest.batch_hit_ratio"] =
        ratio(hits, hits + count(registry, "verifier.batch.misses"));
    v["attest.batch_waste"] =
        fills == 0.0
            ? 0.0
            : 1.0 - count(registry, "verifier.batch.lanes") /
                        (fills * attest::VerifierBatch::kLanes);
    v["net.retransmits"] = retransmits;
    v["net.timeouts"] = timeouts;
    v["net.unreachable"] = unreachable;
    v["net.macs_per_round"] = ratio(macs, valid);
    v["prover.requests"] = count(registry, "prover.requests");
    // Call counts of the measured drain, for the traced run's coverage.
    v["n.requests"] = count(registry, "verifier.requests");
    v["n.handle_ok"] = count(registry, "prover.outcome.ok");
    v["n.handle_reject"] = replays_rejected;
    v["n.checks"] = count(registry, "verifier.checks.valid") +
                    count(registry, "verifier.checks.invalid");
    v["n.link_messages"] = link_messages;
    v["n.drain_materialized"] =
        v["sim.materialized"] - materialized_at_setup;

    if (report.events_leftover != 0) {
      rep.errors.push_back("events_leftover = " +
                           std::to_string(report.events_leftover));
    }
    if (dropped != 0) rep.errors.push_back("trace ring dropped records");
    if (!spec.lossy && valid != sent) {
      rep.errors.push_back("valid rounds differ from sent on a clean link");
    }
    if (spec.replay_flood &&
        replays_rejected !=
            static_cast<double>(kReplaysPerDevice * spec.devices)) {
      rep.errors.push_back("replays rejected differ from 20 x devices");
    }
    if (attempted == 0) rep.errors.push_back("no round attempted");
    t_checked = Clock::now();
  }

  // --- Teardown. ---
  swarm.reset();
  const Clock::time_point t_end = Clock::now();
  const double cpu_total = cpu_seconds() - cpu_start;

  span("construct", t0, t_built);
  span("prime", t_built, t_setup);
  span("drain", t_setup, t_drained);
  span("merge", t_drained, t_merged);
  span("jsonl", t_merged, t_serialized);
  span("check", t_serialized, t_checked);
  span("teardown", t_checked, t_end);

  const double total = at(t_end);
  const double drain = at(t_drained) - at(t_setup);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  v["total_s"] = total;
  v["setup_s"] = at(t_setup);
  v["requests_per_s"] = v["prover.requests"] / total;
  v["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
  v["sim.construct_s"] = at(t_built);
  v["sim.prime_s"] = at(t_setup) - at(t_built);
  v["sim.drain_s"] = drain;
  v["sim.teardown_s"] = at(t_end) - at(t_checked);
  v["sim.drain_cpu_s"] = drain_cpu;
  v["sim.drain_util"] = drain_cpu / (drain * static_cast<double>(kThreads));
  v["sim.drain_ns_per_event"] =
      ratio(drain * 1e9, v["sim.events_run"]);
  v["obs.merge_s"] = at(t_merged) - at(t_drained);
  v["obs.jsonl_s"] = at(t_serialized) - at(t_merged);
  // Per record, or per call when there are none (million_idle has no
  // trace), so the figure stays a measured time.
  const double records = std::max(1.0, v["obs.trace_records"]);
  v["obs.merge_ns_per_record"] = v["obs.merge_s"] * 1e9 / records;
  v["obs.jsonl_ns_per_record"] = v["obs.jsonl_s"] * 1e9 / records;
  // Memory: RSS growth from construction to the end of the drain, less
  // the observer's rings and the report's per-device rows, is what the
  // materialized devices and the pending events cost.
  const double device_growth_mb = rss_drain - rss_built - attach_mb -
                                  report_rows_mb;
  v["mem.rss_setup_mb"] = rss_setup;
  v["mem.rss_drain_mb"] = rss_drain;
  v["mem.resident_reported_mb"] = resident_mb;
  v["mem.rss_per_device_kb"] =
      ratio(device_growth_mb * 1e3, v["sim.materialized"]);
  v["mem.resident_vs_rss"] = ratio(resident_mb, device_growth_mb);
  v["proc.cpu_s"] = cpu_total;
  v["proc.serial_share"] = 1.0 - drain / total;
  return rep;
}

}  // namespace ratt_bench
