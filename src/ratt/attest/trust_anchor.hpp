// Code_Attest: the prover's trust anchor (Sec. 3, Sec. 6.2).
//
// A SoftwareComponent whose code region the EA-MPU rules name. It
//   1. reads K_Attest over the bus (only its PC may — the EA-MPU rule),
//   2. authenticates the request MAC (Sec. 4.1),
//   3. runs the freshness policy (Sec. 4.2),
//   4. measures the configured memory range (MAC over challenge ||
//      freshness || memory, read over the bus), and
//   5. emits the authenticated response.
//
// Every step is priced with the device timing model, so callers can
// account the prover time (and thus energy) an adversary extracts — the
// paper's DoS currency.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ratt/attest/freshness.hpp"
#include "ratt/attest/message.hpp"
#include "ratt/hw/mcu.hpp"
#include "ratt/timing/timing.hpp"

namespace ratt::attest {

/// Outcome of one attestation invocation on the prover.
enum class AttestStatus : std::uint8_t {
  kOk,               // full attestation performed, response produced
  kBadRequestMac,    // request failed authentication (Sec. 4.1)
  kNotFresh,         // freshness policy rejected (Sec. 4.2)
  kWrongAlgorithm,   // request names a MAC other than the deployment's
  kKeyUnreadable,    // K_Attest not accessible (mis-configured EA-MPU)
  kMeasurementFault, // measured memory not fully readable
  kRateLimited,      // attestation budget exhausted (extension)
  kUnsupported,      // incremental request to a prover without the
                     // extension enabled (DESIGN.md §4i)
};

std::string to_string(AttestStatus status);

/// Number of AttestStatus values (sized for per-outcome instrument
/// arrays; keep in sync with the enum).
inline constexpr std::size_t kAttestStatusCount =
    static_cast<std::size_t>(AttestStatus::kUnsupported) + 1;

/// Per-phase decomposition of one invocation's device_ms. The fields sum
/// to device_ms exactly (the profiler's partition invariant): phases are
/// carved out of the same timing-model charges that build device_ms, not
/// measured separately.
struct PhaseMs {
  double req_auth = 0.0;   // request-MAC verification (Sec. 4.1)
  double freshness = 0.0;  // freshness policy (Sec. 4.2; free in Table 1)
  double mem_mac = 0.0;    // MAC body over the measured memory bytes
  double resp_mac = 0.0;   // MAC setup + header absorb + finalization
};

struct AttestOutcome {
  AttestStatus status = AttestStatus::kOk;
  FreshnessVerdict freshness = FreshnessVerdict::kAccept;
  AttestResponse response;  // valid when status == kOk (full path)
  /// Prover time consumed by this invocation (device ms), incl. rejected
  /// requests' authentication cost.
  double device_ms = 0.0;
  /// Where device_ms went (sums to device_ms).
  PhaseMs phases;
  // -- Incremental path (handle_incremental; DESIGN.md §4i). --
  bool incremental = false;
  IncAttestResponse inc_response;  // valid when incremental && kOk
  /// Pages in the measured range / pages actually re-MACed this request.
  std::size_t inc_pages_total = 0;
  std::size_t inc_pages_refreshed = 0;
};

class CodeAttest : public hw::SoftwareComponent {
 public:
  struct Config {
    hw::AddrRange code;            // Code_Attest's own (ROM) region
    hw::Addr key_addr = 0;         // K_Attest location
    std::size_t key_size = 16;
    crypto::MacAlgorithm mac_alg = crypto::MacAlgorithm::kHmacSha1;
    hw::AddrRange measured_memory; // what attestation MACs (Sec. 3.1)
    /// Authenticate requests? Off = the vulnerable Sec. 3.1 baseline.
    bool authenticate_requests = true;
    /// Extension (defense in depth beyond the paper): cap the number of
    /// full attestations per window of device time. Bounds the damage of
    /// an adversary that defeats authentication outright (e.g. after key
    /// extraction): it can still waste at most max/window of the prover.
    /// 0 disables the limiter.
    std::uint32_t rate_limit_max = 0;
    double rate_limit_window_ms = 1000.0;
    /// Incremental paged attestation (DESIGN.md §4i): keep a per-page
    /// MAC cache at `cache_addr` and serve "changed-since generation"
    /// requests by re-MACing only dirty pages. Off = incremental
    /// requests are rejected with kUnsupported.
    bool enable_incremental = false;
    /// Cache layout: u64 evidence generation, then one tag per measured
    /// page. Lives in RAM; the prover's EA-MPU rule (protect_cache) is
    /// what makes it trustworthy.
    hw::Addr cache_addr = 0;
    /// Absorb base/new generation into the fold MAC and force a full
    /// fallback on a since_gen mismatch. Off = the naive cache the
    /// rollback regression suite defeats.
    bool bind_generation = true;
  };

  CodeAttest(hw::Mcu& mcu, const Config& config, FreshnessPolicy& policy,
             const timing::DeviceTimingModel& timing);

  const Config& config() const { return config_; }

  /// Process one attestation request end to end.
  AttestOutcome handle_request(const AttestRequest& request);

  /// Process one incremental ("changed-since generation") request:
  /// admit it exactly like a full request, re-MAC only the dirty pages
  /// of the measured range (all pages on a generation mismatch / first
  /// contact / unseeded cache — the full fallback), refresh the
  /// protected per-page MAC cache, and fold the complete tag table into
  /// the response MAC:
  ///   page tag p = MAC(K, 'P' || u32 p || u32 page_len || page bytes)
  ///   fold       = MAC(K, 'I' || flags || challenge || freshness ||
  ///                    [base_gen || new_gen when generation-bound] ||
  ///                    u32 count || indices || tag_0 .. tag_{N-1})
  AttestOutcome handle_incremental(const IncAttestRequest& request);

  /// Cumulative prover time spent in handle_request (device ms).
  double total_device_ms() const { return total_device_ms_; }

  /// Number of *full* attestations performed (the DoS success metric:
  /// each one is ~754 ms of stolen prover time on the reference device).
  std::uint64_t attestations_performed() const { return performed_; }
  std::uint64_t requests_rejected() const { return rejected_; }
  std::uint64_t requests_rate_limited() const { return rate_limited_; }
  /// Incremental requests served / those that fell back to a full
  /// re-MAC (first contact, unseeded or generation-mismatched cache).
  std::uint64_t incremental_performed() const { return inc_performed_; }
  std::uint64_t full_fallbacks() const { return full_fallbacks_; }

  /// Chunk size of the streaming memory measurement: the measured range
  /// is MAC'd through a stack buffer this large, so a 512 KB measurement
  /// allocates nothing and the anchor keeps no per-device buffer.
  static constexpr std::size_t kMeasureChunkBytes = 4096;

  /// Attestation page granularity — equal to the bus backing page and
  /// the flash erase block, so one dirty bit covers exactly one tag.
  static constexpr std::size_t kPageBytes = 4096;

  /// Pages covering `measured_bytes`.
  static constexpr std::size_t page_count(std::size_t measured_bytes) {
    return (measured_bytes + kPageBytes - 1) / kPageBytes;
  }

  /// Bytes of protected RAM the cache occupies: the u64 generation plus
  /// one `tag_size` tag per page.
  static constexpr std::size_t cache_window_size(std::size_t pages,
                                                 std::size_t tag_size) {
    return 8 + pages * tag_size;
  }

 private:
  /// Shared admission prefix of both request paths: algorithm check, key
  /// read, request authentication (charged), freshness, rate limit.
  /// Returns the keyed MAC on admission, nullptr with `out.status` set
  /// on rejection.
  crypto::Mac* admit(crypto::MacAlgorithm alg, const Bytes& header,
                     const Bytes& request_mac, std::uint64_t freshness,
                     AttestOutcome& out);

  /// Read K_Attest through the bus (EA-MPU applies). nullopt on fault.
  std::optional<Bytes> read_key() const;

  /// The MAC keyed with `key`, rebuilt (key schedule + HMAC midstates)
  /// only when the key bytes read from the bus changed — so an Adv_roam
  /// key overwrite takes effect on the very next request, while the
  /// steady state pays the schedule once.
  crypto::Mac& mac_for_key(const Bytes& key);

  Config config_;
  FreshnessPolicy* policy_;
  const timing::DeviceTimingModel* timing_;
  std::unique_ptr<crypto::Mac> cached_mac_;
  Bytes cached_key_;
  double total_device_ms_ = 0.0;
  std::uint64_t performed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t rate_limited_ = 0;
  std::uint64_t inc_performed_ = 0;
  std::uint64_t full_fallbacks_ = 0;
  double window_start_ms_ = 0.0;
  std::uint32_t window_count_ = 0;
};

}  // namespace ratt::attest
