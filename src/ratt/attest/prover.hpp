// ProverDevice: a complete simulated prover in every configuration the
// paper discusses — MAC algorithm (Table 1), freshness scheme (Table 2),
// clock design (Fig. 1a/1b, Sec. 6.3), and per-asset EA-MPU protection
// toggles (protected vs. unprotected counter/clock/key), so the Sec. 5
// roaming attacks can be run against both vulnerable and hardened
// configurations.
//
// Construction has two steps. Manufacture validates the configuration,
// builds the MCU, provisions K_Attest and wires the clock design, the
// freshness policy and the trust anchor. Secure boot then derives and
// vendor-signs the application image, verifies and loads it, and programs
// and locks the EA-MPU. The public constructors run both; the DeferBoot
// ones run manufacture only, and the device boots on the first call that
// reads or changes its state. The resulting object is what adversaries in
// ratt::adv attack.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "ratt/attest/audit_log.hpp"
#include "ratt/attest/clock_sync.hpp"
#include "ratt/attest/services.hpp"
#include "ratt/attest/trust_anchor.hpp"
#include "ratt/hw/secure_boot.hpp"
#include "ratt/obs/observer.hpp"
#include "ratt/timing/timing.hpp"

namespace ratt::attest {

/// Clock designs evaluated in Sec. 6.3 / Fig. 1, plus the unprotected
/// software-settable clock the Sec. 5 attack assumes.
enum class ClockDesign : std::uint8_t {
  kNone,       // no clock (counter/nonce/none freshness schemes)
  kWritable,   // software-settable clock register — unprotected baseline
  kHw64,       // 64-bit hardware counter, divider 1 (Fig. 1a)
  kHw32Div,    // 32-bit hardware counter, divider 2^20 (Sec. 6.3)
  kSwClock,    // Clock_LSB wrap interrupt + Code_Clock + Clock_MSB (Fig. 1b)
};

std::string to_string(ClockDesign design);

/// Which prior architecture's EA-MAC style the device uses (Sec. 6.1):
/// TrustLite programs rules at boot through memory-mapped registers and
/// locks them; SMART's rules are hard-wired — there is no configuration
/// interface to attack at all.
enum class MpuFlavor : std::uint8_t { kTrustLite, kSmart };

std::string to_string(MpuFlavor flavor);

struct ProverConfig {
  crypto::MacAlgorithm mac_alg = crypto::MacAlgorithm::kHmacSha1;
  FreshnessScheme scheme = FreshnessScheme::kCounter;
  ClockDesign clock = ClockDesign::kNone;
  MpuFlavor mpu_flavor = MpuFlavor::kTrustLite;
  bool authenticate_requests = true;

  // Per-asset EA-MPU protection toggles (Sec. 5 "Protecting Keys,
  // Counters & Clocks"). All false = the vulnerable pre-paper baseline.
  bool protect_key = true;
  /// Sec. 6.2: "In ROM, it is inherently write-protected. Otherwise ...
  /// it must be write-protected by a dedicated EA-MAC rule." false puts
  /// K_Attest in RAM, exposing it to overwrite when protect_key is off.
  bool key_in_rom = true;
  bool protect_counter = true;
  bool protect_clock = true;  // SW-clock: MSB rule + IDT lockdown + mask
                              // port rule; HW designs are read-only wired

  /// Size of the measured memory range (the paper's headline uses the
  /// full 512 KB RAM; tests use smaller regions for speed).
  std::size_t measured_bytes = 4096;
  /// Nonce-history ring capacity (Sec. 4.2 memory objection).
  std::size_t nonce_capacity = 16;
  /// Timestamp acceptance window, in ticks of the configured clock.
  std::uint64_t timestamp_window_ticks = 0;
  std::uint64_t timestamp_skew_ticks = 0;

  /// Enable the attestation-derived device services (secure code update
  /// + secure erase, services.hpp); their state words get an EA-MPU rule
  /// alongside counter_R.
  bool enable_services = false;
  /// Enable the secure clock synchronizer (clock_sync.hpp); requires a
  /// clock design. Its state words get an EA-MPU rule too.
  bool enable_clock_sync = false;
  /// Slew limits for the synchronizer (ticks of the configured clock).
  std::uint64_t sync_max_step_ticks = 24'000'000;
  std::uint64_t sync_max_backward_ticks = 24'000;
  /// Prover-side attestation budget (extension); 0 = unlimited.
  std::uint32_t rate_limit_max = 0;
  double rate_limit_window_ms = 1000.0;
  /// Tamper-evident audit log (extension): hash-chained decision records
  /// in EA-MPU-protected RAM — makes Sec. 5's "undetectable after the
  /// fact" rollback attacks forensically detectable.
  bool enable_audit_log = false;
  std::size_t audit_capacity = 32;

  /// Incremental paged attestation (DESIGN.md §4i): maintain a per-page
  /// MAC cache and serve "changed-since generation" requests by
  /// re-MACing only dirty pages.
  bool enable_incremental = false;
  /// Protect the cache with an EA-MPU rule and restrict dirty-bitmap
  /// clearing to Code_Attest. false = the naive cache the rollback
  /// regression suite defeats (anyone can restore tags / clear bits).
  bool protect_cache = true;
  /// Bind responses to the evidence generation (full fallback on
  /// mismatch). false = the replayable naive variant.
  bool bind_generation = true;

  double clock_hz = timing::Table1::kRefHz;
};

/// Fleet template (Swarm share_app_image): one vendor-signed application
/// image shared by every device in a fleet. Built once with
/// ProverDevice::make_template(); each materialized device then boots the
/// shared image through the secure-boot fast path (vendor signature
/// verified once, image digest precomputed), while K_Attest, freshness
/// state and every RAM/flash mutation stay fully per-device.
struct ProverTemplate {
  hw::BootImage image;
  hw::RomReference reference;
  crypto::Sha256::Digest digest{};
  /// The measured-range bytes the verifier expects — what secure boot
  /// loads at the measured base — as one copy every verifier of the
  /// fleet shares (Verifier's shared_ptr set_reference_memory overload).
  std::shared_ptr<const Bytes> reference_memory;
  /// Page-aligned images of the boot segments, built once here and
  /// aliased copy-on-write into every device booting this template
  /// (hw::BootFastPath::shared_pages): a fleet stores the application
  /// image once, not once per device.
  std::vector<hw::SharedSegmentPage> shared_pages;
};

/// Addresses an in-device adversary (Adv_roam phase II) can aim at.
struct AttackSurface {
  hw::Addr key_addr = 0;
  std::size_t key_size = 0;
  hw::Addr counter_addr = 0;      // counter_R (also timestamp last-seen)
  hw::Addr last_seen_addr = 0;    // timestamp policy state
  hw::Addr nonce_store_addr = 0;
  std::size_t nonce_capacity = 0;
  hw::Addr clock_port_addr = 0;   // MMIO clock register (design-dependent)
  hw::Addr clock_msb_addr = 0;    // SW-clock high word (0 if n/a)
  hw::Addr idt_base = 0;
  hw::Addr irq_mask_addr = 0;
  hw::AddrRange malware_region;   // free flash range malware "executes" from
  hw::AddrRange measured_memory;
  hw::Addr services_state_addr = 0;   // update version + erase sequence
  hw::Addr sync_state_addr = 0;       // sync sequence + clock offset
  hw::AddrRange erasable;             // secure-erase service window
  hw::Addr audit_log_addr = 0;        // hash-chained decision log
  hw::Addr cache_addr = 0;            // per-page MAC cache (generation +
  std::size_t cache_size = 0;         // tag table; 0/0 if not incremental)
};

/// Selects ProverDevice's deferred-boot constructors.
struct DeferBoot {
  explicit DeferBoot() = default;
};
inline constexpr DeferBoot kDeferBoot{};

class ProverDevice {
 public:
  /// Builds, provisions and securely boots the device. `k_attest` is the
  /// shared attestation key; `app_seed` determinizes the application
  /// image filling the measured memory.
  ProverDevice(const ProverConfig& config, Bytes k_attest,
               ByteView app_seed);

  /// Fleet-template variant: boots `tmpl`'s shared image instead of
  /// deriving a per-device one from an app seed. The template must
  /// outlive the device (the Swarm holds it for the fleet's lifetime).
  ProverDevice(const ProverConfig& config, Bytes k_attest,
               const ProverTemplate& tmpl);

  /// Deferred-boot variants (Swarm materialization): manufacture only.
  /// Configuration errors still throw here. Secure boot runs on the
  /// first call that reads or changes device state — handle*(),
  /// idle_ms(), mcu(), anchor(), boot_status(), reference_memory(),
  /// image_reference(), the clock reads and the services / sync / audit
  /// accessors — so a fleet boots each device on the thread that first
  /// drives it. The booted device is byte-identical to the eager one.
  ProverDevice(const ProverConfig& config, Bytes k_attest,
               ByteView app_seed, DeferBoot);
  ProverDevice(const ProverConfig& config, Bytes k_attest,
               const ProverTemplate& tmpl, DeferBoot);

  /// Build the shared image + signed reference a fleet's devices boot
  /// from. `app_seed` determinizes the image exactly the way the
  /// per-device constructor would (same DRBG, same segment layout).
  static ProverTemplate make_template(const ProverConfig& config,
                                      ByteView app_seed);

  ProverDevice(const ProverDevice&) = delete;
  ProverDevice& operator=(const ProverDevice&) = delete;

  const ProverConfig& config() const { return config_; }
  hw::BootStatus boot_status() {
    boot();
    return boot_status_;
  }
  /// Has secure boot run yet? (Pure query — never boots.)
  bool booted() const { return booted_; }

  hw::Mcu& mcu() {
    boot();
    return *mcu_;
  }
  /// The MCU as it stands, without booting a cold device: footprint
  /// accounting (Swarm::resident()) reads it.
  const hw::Mcu& peek_mcu() const { return *mcu_; }
  CodeAttest& anchor() {
    boot();
    return *anchor_;
  }
  const timing::DeviceTimingModel& timing_model() const { return timing_; }
  const AttackSurface& surface() const { return surface_; }

  /// Attach telemetry (a default-constructed Observer detaches). Emits
  /// one "prover.handle" span per request plus prover.* counters and a
  /// prover.handle_ms histogram; energy is derived from the observer's
  /// power model. With no observer, handle() behaves bit-identically to
  /// the uninstrumented device.
  void set_observer(const obs::Observer& observer);

  /// Process one request; simulated device time advances by the prover
  /// time the request consumed (so the clock moves with the workload).
  /// `round` is the causal context of the wire request (round id +
  /// attempt) — it only feeds telemetry (trace round ids, per-phase
  /// samples) and never changes device behavior; the default means "not
  /// part of any tracked round" (floods, bare benches).
  AttestOutcome handle(const AttestRequest& request,
                       const obs::RoundContext& round = {});

  /// Process one incremental request (enable_incremental; DESIGN.md §4i).
  /// Same time-advance and telemetry contract as handle(); additionally
  /// tallies the lazily registered prover.inc.* counters, so fleets that
  /// never go incremental keep their registry export unchanged.
  AttestOutcome handle_incremental(const IncAttestRequest& request,
                                   const obs::RoundContext& round = {});

  /// Let simulated wall-clock time pass (the device idles / does its
  /// primary task); clocks advance.
  void idle_ms(double ms) {
    boot();
    mcu_->advance_ms(ms);
  }

  /// Reference copy of the measured memory (the verifier's view).
  Bytes reference_memory();

  /// The measured range of the image this device secure-booted: the
  /// vendor's known-good copy a verifier checks against, shared rather
  /// than copied. Unlike reference_memory(), later writes to the device's
  /// memory never show in it.
  std::shared_ptr<const Bytes> image_reference();

  /// What an untampered clock of this design would read now — the ground
  /// truth the verifier's synchronized clock returns (Sec. 4.2 assumes
  /// synchronized clocks).
  std::uint64_t ground_truth_ticks();

  /// The prover's actual clock reading (differs from ground truth after a
  /// roaming adversary reset it). nullopt if no clock or read fault.
  std::optional<std::uint64_t> prover_clock_ticks();

  /// Ticks per millisecond for this clock design (for window sizing).
  double ticks_per_ms() const;

  /// The device services endpoint (enable_services). nullptr otherwise.
  DeviceServices* services() {
    boot();
    return services_.get();
  }
  /// The clock synchronizer (enable_clock_sync). nullptr otherwise.
  ClockSynchronizer* clock_sync() {
    boot();
    return clock_sync_.get();
  }
  /// The audit log (enable_audit_log). nullptr otherwise.
  AuditLog* audit_log() {
    boot();
    return audit_log_.get();
  }

 private:
  /// Manufacture: every step up to, not including, secure boot.
  ProverDevice(const ProverConfig& config, Bytes k_attest);

  /// Secure boot, once (a no-op on a booted device): build the image and
  /// its signed reference, or take the template's, then hw::secure_boot.
  /// Everything that can throw runs before the MCU is touched, so a boot
  /// that throws leaves the device as manufacture left it.
  void boot();
  bool configure_protection(hw::Mcu& mcu);
  /// Shared tail of handle() and handle_incremental(): audit the
  /// decision, advance device time by the work done, emit telemetry.
  template <typename Request>
  AttestOutcome conclude(AttestOutcome out, const Request& request,
                         const obs::RoundContext& round);
  void observe_request(std::size_t wire_bytes, const AttestOutcome& outcome,
                       const obs::RoundContext& round);
  void profile_request(const AttestOutcome& outcome,
                       const obs::RoundContext& round);

  ProverConfig config_;
  timing::DeviceTimingModel timing_;
  std::unique_ptr<hw::Mcu> mcu_;

  // Clock machinery (subset used, per design).
  std::unique_ptr<hw::HwCounterPort> hw_counter_;
  std::unique_ptr<hw::WritableClockPort> writable_clock_;
  std::unique_ptr<hw::WrapCounter> wrap_counter_;
  std::unique_ptr<hw::CodeClock> code_clock_;
  std::unique_ptr<hw::ClockSource> clock_source_;
  std::uint64_t clock_divider_ = 1;

  std::unique_ptr<FreshnessPolicy> policy_;
  std::unique_ptr<CodeAttest> anchor_;
  std::unique_ptr<DeviceServices> services_;
  std::unique_ptr<ClockSynchronizer> clock_sync_;
  std::unique_ptr<AuditLog> audit_log_;
  AttackSurface surface_;
  // Boot inputs (one of the two is set) and outputs.
  Bytes app_seed_;
  const ProverTemplate* tmpl_ = nullptr;
  bool booted_ = false;
  hw::BootStatus boot_status_ = hw::BootStatus::kOk;
  /// The per-device image's measured range (a template boot uses the
  /// template's copy instead).
  std::shared_ptr<const Bytes> image_reference_;

  // Telemetry (all nullable; instruments cached at set_observer so the
  // hot path never touches the registry's name map).
  obs::Observer obs_{};
  obs::Counter* obs_requests_ = nullptr;
  obs::Counter* obs_busy_ms_ = nullptr;
  obs::Counter* obs_energy_mj_ = nullptr;
  obs::Counter* obs_faults_dropped_ = nullptr;
  std::uint64_t seen_faults_dropped_ = 0;
  obs::Histogram* obs_handle_ms_ = nullptr;
  std::array<obs::Counter*, kAttestStatusCount> obs_outcome_{};
  // Lazily registered on the first incremental request (like the
  // verifier's power counters): full-only fleets keep their registry
  // export byte-identical to before the extension existed.
  obs::Counter* obs_inc_requests_ = nullptr;
  obs::Counter* obs_inc_pages_ = nullptr;
  obs::Counter* obs_inc_fallbacks_ = nullptr;
};

}  // namespace ratt::attest
