// Per-phase cost attribution for a reliable fleet over a lossy link —
// the ratt::obs::prof Table-3-style breakdown, plus the phase-aware
// regression gate CI runs against BENCH_baseline.json.
//
// The scenario exercises every phase: authenticated counter-mode rounds
// (req_auth, freshness, mem_mac, resp_mac), verifier-side wire waits
// (net_wait), and a lossy link with reliable rounds so retries amplify
// prover work (retry_overhead). All simulated quantities — cycles,
// energy, bytes — are deterministic: the same seed produces the same
// table on every machine at any --threads value, which is what makes an
// exact-value baseline diff meaningful.
//
//   (no args)              print the per-phase fleet report; exit 1 if
//                          phase coverage < 95% (the "other" residual
//                          claimed 5% or more of total cycles).
//   --threads=N            drain the sharded fleet on N workers.
//   --json=PATH            write the merged ProfileTable JSONL.
//   --perfetto=PATH        write the merged trace as Perfetto JSON
//                          (round-linked flow events included).
//   --check-against=PATH   read the "bench_profile" section of a
//                          BENCH_baseline.json and fail — naming the
//                          phase — if any phase's cycles or energy
//                          regressed more than 15% over the baseline.
//   --emit-baseline        print the JSON section to splice into
//                          BENCH_baseline.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "ratt/obs/metrics.hpp"
#include "ratt/obs/perfetto.hpp"
#include "ratt/obs/prof/profile.hpp"
#include "ratt/sim/swarm.hpp"
#include "ratt/timing/timing.hpp"

namespace {

using namespace ratt;  // NOLINT

constexpr std::size_t kDevices = 64;
constexpr std::size_t kShards = 16;
constexpr double kHorizonMs = 2000.0;
constexpr double kCoverageGate = 95.0;   // % of cycles in named phases
constexpr double kRegressionGate = 15.0; // % growth vs baseline that fails

struct Options {
  std::size_t threads = 1;
  std::string json_path;
  std::string perfetto_path;
  std::string baseline_path;
  bool emit_baseline = false;
};

sim::SwarmConfig fleet_config() {
  sim::SwarmConfig config;
  config.device_count = kDevices;
  config.shard_count = kShards;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 16 * 1024;
  config.attest_period_ms = 250.0;
  config.stagger_ms = 3.0;
  // A lossy wire with reliable rounds: retries inject retry_overhead and
  // net_wait samples alongside the four crypto phases.
  config.link.name = "lossy10";
  config.link.loss_to_prover = 0.1;
  config.link.loss_to_verifier = 0.05;
  config.reliable = true;
  config.retry.max_attempts = 4;
  config.retry.base_timeout_ms = 0.0;  // derived per device
  config.retry.jitter_ms = 5.0;
  return config;
}

struct PhaseRow {
  std::uint64_t cycles = 0;
  double energy_mj = 0.0;
};

/// Minimal scanner for the "bench_profile" -> "phases" section of
/// BENCH_baseline.json: finds `"<phase>": {"cycles": N, "energy_mj": X}`
/// rows without a JSON dependency. Returns false when the section or a
/// phase row is missing.
bool read_baseline(const std::string& text, const char* phase,
                   PhaseRow* out) {
  const std::size_t section = text.find("\"bench_profile\"");
  if (section == std::string::npos) return false;
  std::string key = "\"";
  key.append(phase).append("\"");
  const std::size_t at = text.find(key, section);
  if (at == std::string::npos) return false;
  const std::size_t cycles = text.find("\"cycles\":", at);
  const std::size_t energy = text.find("\"energy_mj\":", at);
  const std::size_t row_end = text.find('}', at);
  if (cycles == std::string::npos || energy == std::string::npos ||
      cycles > row_end || energy > row_end) {
    return false;
  }
  out->cycles = std::strtoull(text.c_str() + cycles + 9, nullptr, 10);
  out->energy_mj = std::strtod(text.c_str() + energy + 12, nullptr);
  return true;
}

/// Growth of `now` over `base` in percent (0 when the baseline is 0 —
/// a phase appearing from nothing is caught by the cycles row).
double growth_pct(double now, double base) {
  return base <= 0.0 ? 0.0 : 100.0 * (now - base) / base;
}

int check_against(const obs::prof::ProfileTable& table,
                  const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline: %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::printf("\n=== phase regression gate (vs %s, >%.0f%% fails) ===\n\n",
              path.c_str(), kRegressionGate);
  std::printf("  %-15s %14s %14s %8s %12s %12s %8s\n", "phase",
              "base cycles", "now cycles", "cyc %", "base mJ", "now mJ",
              "mJ %");
  int failures = 0;
  for (std::size_t p = 0; p < obs::prof::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::prof::Phase>(p);
    const std::string name(obs::prof::to_string(phase));
    const obs::prof::PhaseCost now = table.total(phase);
    PhaseRow base;
    if (!read_baseline(text, name.c_str(), &base)) {
      std::fprintf(stderr,
                   "baseline has no bench_profile row for phase '%s'\n",
                   name.c_str());
      return 2;
    }
    const double cyc_pct =
        growth_pct(static_cast<double>(now.cycles),
                   static_cast<double>(base.cycles));
    const double mj_pct = growth_pct(now.energy_mj, base.energy_mj);
    const bool cyc_bad = cyc_pct > kRegressionGate;
    const bool mj_bad = mj_pct > kRegressionGate;
    std::printf("  %-15s %14llu %14llu %+7.2f%% %12.4f %12.4f %+7.2f%%%s\n",
                name.c_str(),
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(now.cycles), cyc_pct,
                base.energy_mj, now.energy_mj, mj_pct,
                (cyc_bad || mj_bad) ? "  <-- REGRESSED" : "");
    if (cyc_bad) {
      std::fprintf(stderr,
                   "PHASE REGRESSION: %s cycles grew %.2f%% "
                   "(%llu -> %llu, gate %.0f%%)\n",
                   name.c_str(), cyc_pct,
                   static_cast<unsigned long long>(base.cycles),
                   static_cast<unsigned long long>(now.cycles),
                   kRegressionGate);
      ++failures;
    }
    if (mj_bad) {
      std::fprintf(stderr,
                   "PHASE REGRESSION: %s energy grew %.2f%% "
                   "(%.4f -> %.4f mJ, gate %.0f%%)\n",
                   name.c_str(), mj_pct, base.energy_mj, now.energy_mj,
                   kRegressionGate);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("\n  all phases within the %.0f%% gate\n", kRegressionGate);
  }
  return failures == 0 ? 0 : 1;
}

void emit_baseline(const obs::prof::ProfileTable& table) {
  std::printf("  \"bench_profile\": {\n");
  std::printf("    \"bench\": \"bench_profile\",\n");
  std::printf("    \"devices\": %zu,\n", kDevices);
  std::printf("    \"shards\": %zu,\n", kShards);
  std::printf("    \"horizon_ms\": %.0f,\n", kHorizonMs);
  std::printf("    \"phases\": {\n");
  for (std::size_t p = 0; p < obs::prof::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::prof::Phase>(p);
    const obs::prof::PhaseCost cost = table.total(phase);
    std::printf("      \"%s\": {\"cycles\": %llu, \"energy_mj\": %.6f}%s\n",
                std::string(obs::prof::to_string(phase)).c_str(),
                static_cast<unsigned long long>(cost.cycles), cost.energy_mj,
                p + 1 < obs::prof::kPhaseCount ? "," : "");
  }
  std::printf("    }\n  }\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      opt.threads = static_cast<std::size_t>(
          std::strtoull(arg + 10, nullptr, 10));
      continue;
    }
    if (std::strncmp(arg, "--json=", 7) == 0) {
      opt.json_path = arg + 7;
      continue;
    }
    if (std::strncmp(arg, "--perfetto=", 11) == 0) {
      opt.perfetto_path = arg + 11;
      continue;
    }
    if (std::strncmp(arg, "--check-against=", 16) == 0) {
      opt.baseline_path = arg + 16;
      continue;
    }
    if (std::strcmp(arg, "--emit-baseline") == 0) {
      opt.emit_baseline = true;
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--threads=N] [--json=path] [--perfetto=path] "
                 "[--check-against=BENCH_baseline.json] [--emit-baseline]\n",
                 argv[0]);
    return 2;
  }
  if (opt.threads == 0) {
    std::fprintf(stderr, "--threads must be nonzero\n");
    return 2;
  }

  sim::Swarm swarm(fleet_config(), crypto::from_string("bench-profile-seed"));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  const sim::SwarmReport report = swarm.run_parallel(kHorizonMs, opt.threads);
  const obs::prof::ProfileTable table = swarm.merged_profile();

  if (opt.emit_baseline) {
    emit_baseline(table);
    return 0;
  }

  const timing::DeviceTimingModel model;
  std::printf(
      "=== per-phase cost attribution: %zu-device reliable fleet over "
      "lossy10 ===\n\n", kDevices);
  std::printf("  rounds valid: %llu of %llu started, horizon %.0f ms\n\n",
              static_cast<unsigned long long>(report.total_valid()),
              static_cast<unsigned long long>(report.total_sent()),
              kHorizonMs);
  std::ostringstream report_text;
  table.write_report(report_text, model.clock_hz());
  std::fputs(report_text.str().c_str(), stdout);

  if (!opt.json_path.empty()) {
    std::ofstream json(opt.json_path, std::ios::binary);
    if (!json) {
      std::fprintf(stderr, "cannot open json file: %s\n",
                   opt.json_path.c_str());
      return 2;
    }
    table.write_jsonl(json);
  }
  if (!opt.perfetto_path.empty()) {
    std::ofstream perfetto(opt.perfetto_path, std::ios::binary);
    if (!perfetto) {
      std::fprintf(stderr, "cannot open perfetto file: %s\n",
                   opt.perfetto_path.c_str());
      return 2;
    }
    obs::write_perfetto(perfetto, swarm.merged_trace());
  }

  // Coverage gate: the named phases must explain >= 95% of every
  // simulated cycle, or the attribution itself has decayed.
  const std::uint64_t total = table.total_cycles();
  const std::uint64_t other =
      table.total(obs::prof::Phase::kOther).cycles;
  const double coverage =
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(total - other) /
                       static_cast<double>(total);
  const bool covered = coverage >= kCoverageGate;
  std::printf("\n  coverage gate: %.2f%% %s %.0f%% required — %s\n",
              coverage, covered ? ">=" : "<", kCoverageGate,
              covered ? "ok" : "FAIL");
  int rc = covered ? 0 : 1;

  if (!opt.baseline_path.empty()) {
    const int gate = check_against(table, opt.baseline_path);
    if (gate != 0) rc = gate;
  }
  return rc;
}
