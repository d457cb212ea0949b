// Ablation X5 (extends Sec. 4.1): how much the request-authentication
// primitive matters once the prover is hardened.
//
// After Sec. 4's mitigations, the residual DoS surface is the per-request
// *rejection* cost — one MAC validation. Under a heavy forged-request
// flood, that residual cost times the rate is the prover duty the
// attacker still controls, and it is exactly where the paper's
// "lightweight block ciphers such as Speck reduce the cost even further"
// argument pays off.
//
// Accounting runs on the obs::DosScoreboard: every forged request is
// filed under "<primitive>:<outcome>" with the prover time it extracted
// and the attacker airtime it cost, so the final table reports the
// asymmetry per primitive rather than a hand-rolled busy sum.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "ratt/attest/prover.hpp"
#include "ratt/attest/verifier.hpp"
#include "ratt/obs/scoreboard.hpp"
#include "ratt/timing/timing.hpp"

namespace {

using namespace ratt;  // NOLINT
using attest::AttestOutcome;
using attest::AttestRequest;
using attest::CodeAttest;
using attest::FreshnessScheme;
using attest::ProverConfig;
using attest::ProverDevice;
using attest::Verifier;
using crypto::MacAlgorithm;

AttestRequest make_forged(MacAlgorithm alg) {
  AttestRequest forged;
  forged.scheme = FreshnessScheme::kCounter;
  forged.mac_alg = alg;
  forged.freshness = 1;
  forged.mac = crypto::Bytes(crypto::make_mac(alg, crypto::Bytes(16, 0))
                                 ->tag_size(),
                             0);
  return forged;
}

// Run a forged-request flood at `flood_rate_per_s` for 10 simulated
// seconds, filing every rejection on `scoreboard`. Returns the prover
// busy fraction.
double flood(MacAlgorithm alg, double flood_rate_per_s,
             obs::DosScoreboard& scoreboard) {
  ProverConfig config;
  config.scheme = FreshnessScheme::kCounter;
  config.mac_alg = alg;
  config.measured_bytes = 1024;
  ProverDevice prover(config,
                      crypto::from_hex("000102030405060708090a0b0c0d0e0f"),
                      crypto::from_string("reject-cost-app"));
  const AttestRequest forged = make_forged(alg);
  // Attacker cost per forged request: 250 kbit/s airtime.
  const double attacker_ms =
      static_cast<double>(forged.to_bytes().size()) * 8.0 / 250.0;
  const std::string request_class =
      crypto::to_string(alg) + ":" + attest::to_string(
                                         attest::AttestStatus::kBadRequestMac);
  const double horizon_ms = 10'000.0;
  const auto n = static_cast<std::uint64_t>(flood_rate_per_s * 10.0);
  double busy_ms = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const double device_ms = prover.handle(forged).device_ms;
    scoreboard.record(request_class, device_ms, attacker_ms);
    busy_ms += device_ms;
  }
  return busy_ms / horizon_ms;
}

// Incremental-attestation prover costs (DESIGN.md §4i): one device, one
// verifier, three rounds — the seeding full fallback, a delta with one
// dirty page, and a no-change delta.
struct IncCost {
  double full_ms = 0.0;    // first contact: every page re-MACed
  double delta1_ms = 0.0;  // one dirty page re-MACed
  double delta0_ms = 0.0;  // nothing dirty: fold over cached tags only
};

IncCost measure_incremental(MacAlgorithm alg, std::size_t measured_bytes) {
  ProverConfig config;
  config.scheme = FreshnessScheme::kCounter;
  config.mac_alg = alg;
  config.measured_bytes = measured_bytes;
  config.enable_incremental = true;
  const crypto::Bytes key =
      crypto::from_hex("000102030405060708090a0b0c0d0e0f");
  ProverDevice prover(config, key, crypto::from_string("reject-cost-app"));
  Verifier::Config vc;
  vc.mac_alg = alg;
  vc.scheme = FreshnessScheme::kCounter;
  Verifier verifier(key, vc, crypto::from_string("reject-cost-vrf"));
  verifier.set_reference_memory(prover.reference_memory());
  hw::SoftwareComponent writer(prover.mcu(), "writer",
                               prover.surface().malware_region);

  const auto round = [&]() {
    prover.idle_ms(1.0);
    const attest::IncAttestRequest req = verifier.make_incremental_request();
    const AttestOutcome out = prover.handle_incremental(req);
    if (!verifier.check_incremental(req, out.inc_response)) {
      std::fprintf(stderr, "incremental round failed to validate\n");
      std::exit(2);
    }
    return out.device_ms;
  };

  IncCost cost;
  cost.full_ms = round();
  const hw::Addr target = prover.surface().measured_memory.begin + 5;
  std::uint8_t b = 0;
  writer.read8(target, b);
  writer.write8(target, b);  // same-value write still dirties the page
  cost.delta1_ms = round();
  cost.delta0_ms = round();
  return cost;
}

int run_incremental(double check_against) {
  std::printf(
      "=== Incremental paged attestation: prover cost per round "
      "(DESIGN.md 4i) ===\n"
      "(full = seeding fallback; delta-1 = one dirty 4 KB page; delta-0 = "
      "no change)\n\n");
  std::printf("  %-22s %-10s %-12s %-12s %-12s %-10s\n", "primitive",
              "size", "full (ms)", "delta-1 (ms)", "delta-0 (ms)",
              "speedup");
  double gated_speedup = 0.0;
  for (auto alg : {MacAlgorithm::kHmacSha1, MacAlgorithm::kSpeckCmac}) {
    for (std::size_t pages : {16, 64}) {
      const std::size_t bytes = pages * CodeAttest::kPageBytes;
      const IncCost cost = measure_incremental(alg, bytes);
      const double speedup = cost.full_ms / cost.delta1_ms;
      char size[24];  // 20 digits of size_t + " KB"
      std::snprintf(size, sizeof(size), "%zu KB", bytes / 1024);
      std::printf("  %-22s %-10s %-12.3f %-12.3f %-12.3f %-10.1f\n",
                  crypto::to_string(alg).c_str(), size, cost.full_ms,
                  cost.delta1_ms, cost.delta0_ms, speedup);
      // The CI gate grades the headline configuration: 256 KB, HMAC-SHA1.
      if (alg == MacAlgorithm::kHmacSha1 && pages == 64) {
        gated_speedup = speedup;
      }
    }
  }
  std::printf(
      "\n  The delta round charges only the dirty pages' re-MAC plus the "
      "fold over the\n  cached tag table - the asymmetry that lets a duty-"
      "cycled prover attest often.\n");
  if (check_against > 0.0) {
    const bool ok = gated_speedup >= check_against;
    std::printf(
        "\ncheck: dirty-1-page speedup %.1fx %s required %.1fx at 256 KB "
        "(HMAC-SHA1)\n",
        gated_speedup, ok ? ">=" : "<", check_against);
    return ok ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool incremental = false;
  double check_against = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--incremental") == 0) {
      incremental = true;
    } else if (std::strncmp(argv[i], "--check-against=", 16) == 0) {
      check_against = std::strtod(argv[i] + 16, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--incremental] [--check-against=<ratio>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (incremental) {
    return run_incremental(check_against);
  }
  const timing::DeviceTimingModel model;
  std::printf(
      "=== X5: residual DoS surface vs. request-auth primitive "
      "(Sec. 4.1 ablation) ===\n"
      "(hardened prover; forged-request flood; prover busy fraction spent "
      "rejecting)\n\n");
  obs::DosScoreboard scoreboard;  // default 7.2 mW prover power model
  std::printf("  %-22s %-12s", "primitive", "reject (ms)");
  for (double rate : {100.0, 500.0, 2000.0}) {
    char head[24];
    std::snprintf(head, sizeof(head), "busy@%.0f/s", rate);
    std::printf(" %-12s", head);
  }
  std::printf("\n");
  for (auto alg : {MacAlgorithm::kHmacSha1, MacAlgorithm::kAesCbcMac,
                   MacAlgorithm::kAesCmac, MacAlgorithm::kSpeckCbcMac,
                   MacAlgorithm::kSpeckCmac}) {
    std::printf("  %-22s %-12.3f", crypto::to_string(alg).c_str(),
                model.request_auth_ms(alg));
    for (double rate : {100.0, 500.0, 2000.0}) {
      // A throwaway scoreboard for the lower rates; only the 2000/s
      // flood feeds the printed asymmetry table below.
      obs::DosScoreboard lower;
      obs::DosScoreboard& board = rate == 2000.0 ? scoreboard : lower;
      char cell[24];
      std::snprintf(cell, sizeof(cell), "%.1f%%",
                    100.0 * flood(alg, rate, board));
      std::printf(" %-12s", cell);
    }
    std::printf("\n");
  }
  std::printf(
      "\n  At 2000 forged requests/s an HMAC-SHA1 prover burns ~86%% of "
      "its time rejecting;\n  a Speck prover ~3%%. This is the paper's "
      "Sec. 4.1 point, quantified end to end:\n  the cheaper the "
      "validation, the higher the flood rate the prover shrugs off.\n");
  std::printf(
      "\n=== DoS scoreboard at 2000 forged requests/s (per primitive) "
      "===\n\n");
  scoreboard.print(stdout);
  return 0;
}
