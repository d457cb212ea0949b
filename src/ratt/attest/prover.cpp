#include "ratt/attest/prover.hpp"

#include "ratt/crypto/drbg.hpp"
#include "ratt/obs/prof/profile.hpp"

namespace ratt::attest {

namespace {

// Fixed internal memory map (within the Mcu default layout).
constexpr hw::AddrRange kCodeAttestRegion{0x00000000, 0x00001000};  // ROM
constexpr hw::AddrRange kCodeClockRegion{0x00001000, 0x00001100};   // ROM
constexpr hw::Addr kKeyRomAddr = 0x00007000;   // ROM (inherently W-protected)
constexpr hw::Addr kKeyRamAddr = 0x00100180;   // RAM variant (Sec. 6.2)
constexpr hw::AddrRange kAppCodeRegion{0x00010000, 0x00020000};   // Flash
constexpr hw::AddrRange kMalwareRegion{0x00020000, 0x00021000};   // Flash
constexpr hw::Addr kCounterAddr = 0x00100100;   // RAM (after IDT)
constexpr hw::Addr kLastSeenAddr = 0x00100108;  // RAM
constexpr hw::Addr kClockMsbAddr = 0x00100110;  // RAM
constexpr hw::Addr kServicesStateAddr = 0x00100120;  // RAM (2 x u64)
constexpr hw::Addr kSyncStateAddr = 0x00100140;       // RAM (2 x u64)
constexpr hw::AddrRange kErasableRegion{0x00150000, 0x00160000};  // RAM
constexpr hw::Addr kNonceStoreAddr = 0x00100200;  // RAM
constexpr hw::Addr kAuditLogAddr = 0x00102000;    // RAM (after nonce ring)
constexpr hw::Addr kPageMacCacheAddr = 0x00104000;  // RAM (after audit log)
constexpr hw::Addr kMeasuredBase = 0x00110000;    // RAM
constexpr hw::Addr kClockPortAddr = 0x00210000;   // MMIO
constexpr std::size_t kWrapIrqVector = 0;
constexpr unsigned kSwClockLsbBits = 16;

// One process-wide vendor keypair: the derivation seed is a constant, so
// every device always got the exact same keypair — generating it once
// (thread-safe magic static) removes an EC scalar multiplication from
// every device construction, which matters when a fleet materializes
// devices by the hundred thousand.
const crypto::EcdsaKeyPair& vendor_keypair() {
  static const crypto::EcdsaKeyPair kVendor =
      crypto::ecdsa_generate_key(crypto::from_string("prover-vendor-key"));
  return kVendor;
}

// The application image the secure boot loads: a small code stub plus the
// measured range, both derived from the app seed (one DRBG, draw order
// fixed — this is the byte stream every existing golden depends on).
hw::BootImage make_boot_image(ByteView app_seed, std::size_t measured_bytes) {
  crypto::HmacDrbg app_drbg(app_seed);
  hw::BootImage image;
  image.name = "prover-firmware";
  image.segments.push_back(
      hw::BootSegment{kAppCodeRegion.begin, app_drbg.generate(256)});
  image.segments.push_back(
      hw::BootSegment{kMeasuredBase, app_drbg.generate(measured_bytes)});
  return image;
}

}  // namespace

std::string to_string(ClockDesign design) {
  switch (design) {
    case ClockDesign::kNone:
      return "none";
    case ClockDesign::kWritable:
      return "writable";
    case ClockDesign::kHw64:
      return "hw-64";
    case ClockDesign::kHw32Div:
      return "hw-32-div";
    case ClockDesign::kSwClock:
      return "sw-clock";
  }
  return "unknown";
}

std::string to_string(MpuFlavor flavor) {
  switch (flavor) {
    case MpuFlavor::kTrustLite:
      return "trustlite";
    case MpuFlavor::kSmart:
      return "smart";
  }
  return "unknown";
}

ProverDevice::ProverDevice(const ProverConfig& config, Bytes k_attest,
                           ByteView app_seed)
    : ProverDevice(config, std::move(k_attest), app_seed, kDeferBoot) {
  boot();
}

ProverDevice::ProverDevice(const ProverConfig& config, Bytes k_attest,
                           const ProverTemplate& tmpl)
    : ProverDevice(config, std::move(k_attest), tmpl, kDeferBoot) {
  boot();
}

ProverDevice::ProverDevice(const ProverConfig& config, Bytes k_attest,
                           ByteView app_seed, DeferBoot)
    : ProverDevice(config, std::move(k_attest)) {
  app_seed_.assign(app_seed.begin(), app_seed.end());
}

ProverDevice::ProverDevice(const ProverConfig& config, Bytes k_attest,
                           const ProverTemplate& tmpl, DeferBoot)
    : ProverDevice(config, std::move(k_attest)) {
  tmpl_ = &tmpl;
}

ProverTemplate ProverDevice::make_template(const ProverConfig& config,
                                           ByteView app_seed) {
  ProverTemplate tmpl;
  tmpl.image = make_boot_image(app_seed, config.measured_bytes);
  // make_rom_reference signs boot_image_digest(image) with the vendor
  // key right here, which is what justifies signature_preverified in the
  // per-device boot; expected_hash doubles as the memoized digest.
  tmpl.reference = hw::make_rom_reference(tmpl.image, vendor_keypair());
  tmpl.digest = tmpl.reference.expected_hash;
  tmpl.reference_memory =
      std::make_shared<const Bytes>(tmpl.image.segments[1].data);
  // Segment pages for the copy-on-write boot alias. The prover always
  // uses the default memory map (only clock_hz varies per config), so
  // the default layout is the right page geometry for every device.
  tmpl.shared_pages =
      hw::make_shared_segment_pages(hw::Mcu::Layout{}, tmpl.image);
  return tmpl;
}

ProverDevice::ProverDevice(const ProverConfig& config, Bytes k_attest)
    : config_(config), timing_(config.clock_hz) {
  hw::Mcu::Layout layout;
  layout.clock_hz = static_cast<std::uint64_t>(config.clock_hz);
  // SMART (Sec. 6.1): the EA-MAC is hard-wired, so the device exposes no
  // configuration registers — the rules are burned in before any
  // untrusted code runs and there is nothing to reprogram or lock.
  layout.map_mpu_port = config.mpu_flavor != MpuFlavor::kSmart;
  mcu_ = std::make_unique<hw::Mcu>(layout);

  // --- Manufacture: provision K_Attest (ROM, or the RAM variant whose
  //     write-protection must come from an EA-MAC rule — Sec. 6.2). ---
  const hw::Addr key_addr = config_.key_in_rom ? kKeyRomAddr : kKeyRamAddr;
  mcu_->bus().load_initial(key_addr, k_attest);

  // --- Clock design. ---
  switch (config_.clock) {
    case ClockDesign::kNone:
      break;
    case ClockDesign::kWritable:
      writable_clock_ = std::make_unique<hw::WritableClockPort>(1);
      mcu_->map_device("clock", kClockPortAddr,
                       writable_clock_->window_size(), *writable_clock_);
      clock_source_ = std::make_unique<hw::MmioClockSource>(
          *mcu_, kClockPortAddr, 8, "writable-clock");
      clock_divider_ = 1;
      break;
    case ClockDesign::kHw64:
      hw_counter_ = std::make_unique<hw::HwCounterPort>(64, 1);
      mcu_->map_device("clock", kClockPortAddr, hw_counter_->window_size(),
                       *hw_counter_);
      clock_source_ = std::make_unique<hw::MmioClockSource>(
          *mcu_, kClockPortAddr, 8, "hw-clock-64");
      clock_divider_ = 1;
      break;
    case ClockDesign::kHw32Div:
      hw_counter_ =
          std::make_unique<hw::HwCounterPort>(32, std::uint64_t{1} << 20);
      mcu_->map_device("clock", kClockPortAddr, hw_counter_->window_size(),
                       *hw_counter_);
      clock_source_ = std::make_unique<hw::MmioClockSource>(
          *mcu_, kClockPortAddr, 4, "hw-clock-32-div");
      clock_divider_ = std::uint64_t{1} << 20;
      break;
    case ClockDesign::kSwClock:
      wrap_counter_ = std::make_unique<hw::WrapCounter>(
          mcu_->irq(), kWrapIrqVector, kSwClockLsbBits, 1);
      mcu_->map_device("clock-lsb", kClockPortAddr,
                       wrap_counter_->window_size(), *wrap_counter_);
      code_clock_ = std::make_unique<hw::CodeClock>(*mcu_, kCodeClockRegion,
                                                    kClockMsbAddr);
      mcu_->irq().register_native_handler(
          code_clock_->entry_point(),
          [cc = code_clock_.get()] { cc->on_wrap_interrupt(); });
      clock_source_ = std::make_unique<hw::SwClockSource>(
          *mcu_, *code_clock_, kClockPortAddr, kSwClockLsbBits);
      clock_divider_ = 1;
      break;
  }

  // --- Freshness policy. ---
  switch (config_.scheme) {
    case FreshnessScheme::kNone:
      policy_ = make_no_freshness();
      break;
    case FreshnessScheme::kNonce:
      policy_ = make_nonce_history(*mcu_, kNonceStoreAddr,
                                   config_.nonce_capacity);
      break;
    case FreshnessScheme::kCounter:
      policy_ = make_counter_policy(*mcu_, kCounterAddr);
      break;
    case FreshnessScheme::kTimestamp:
      if (clock_source_ == nullptr) {
        throw std::invalid_argument(
            "ProverDevice: timestamp scheme requires a clock design");
      }
      policy_ = make_timestamp_policy(
          *mcu_, *clock_source_, kLastSeenAddr,
          config_.timestamp_window_ticks, config_.timestamp_skew_ticks);
      break;
  }

  // --- Trust anchor. ---
  CodeAttest::Config anchor_config;
  anchor_config.code = kCodeAttestRegion;
  anchor_config.key_addr = key_addr;
  anchor_config.key_size = k_attest.size();
  anchor_config.mac_alg = config_.mac_alg;
  anchor_config.measured_memory = hw::AddrRange{
      kMeasuredBase,
      kMeasuredBase + static_cast<hw::Addr>(config_.measured_bytes)};
  anchor_config.authenticate_requests = config_.authenticate_requests;
  anchor_config.rate_limit_max = config_.rate_limit_max;
  anchor_config.rate_limit_window_ms = config_.rate_limit_window_ms;
  anchor_config.enable_incremental = config_.enable_incremental;
  anchor_config.cache_addr =
      config_.enable_incremental ? kPageMacCacheAddr : 0;
  anchor_config.bind_generation = config_.bind_generation;
  anchor_ = std::make_unique<CodeAttest>(*mcu_, anchor_config, *policy_,
                                         timing_);

  // --- Optional attestation-derived services (future-work item 3). ---
  if (config_.enable_services) {
    DeviceServices::Config sc;
    sc.state_addr = kServicesStateAddr;
    sc.updatable = kAppCodeRegion;
    sc.erasable = kErasableRegion;
    sc.mac_alg = config_.mac_alg;
    services_ = std::make_unique<DeviceServices>(*anchor_, sc, k_attest,
                                                 timing_);
  }

  // --- Optional tamper-evident audit log (extension). ---
  if (config_.enable_audit_log) {
    AuditLog::Config ac;
    ac.base = kAuditLogAddr;
    ac.capacity = config_.audit_capacity;
    audit_log_ = std::make_unique<AuditLog>(*anchor_, ac);
  }

  // --- Optional secure clock synchronizer (future-work item 2). ---
  if (config_.enable_clock_sync) {
    if (clock_source_ == nullptr) {
      throw std::invalid_argument(
          "ProverDevice: clock sync requires a clock design");
    }
    ClockSynchronizer::Config cc;
    cc.state_addr = kSyncStateAddr;
    cc.max_step_ticks = config_.sync_max_step_ticks;
    cc.max_backward_ticks = config_.sync_max_backward_ticks;
    clock_sync_ = std::make_unique<ClockSynchronizer>(
        *anchor_, *clock_source_, cc, k_attest, config_.mac_alg);
  }

  // --- Attack surface bookkeeping. ---
  surface_.key_addr = key_addr;
  surface_.key_size = k_attest.size();
  surface_.counter_addr = kCounterAddr;
  surface_.last_seen_addr = kLastSeenAddr;
  surface_.nonce_store_addr = kNonceStoreAddr;
  surface_.nonce_capacity = config_.nonce_capacity;
  surface_.clock_port_addr =
      (config_.clock == ClockDesign::kNone) ? 0 : kClockPortAddr;
  surface_.clock_msb_addr =
      (config_.clock == ClockDesign::kSwClock) ? kClockMsbAddr : 0;
  surface_.idt_base = mcu_->layout().idt_base;
  surface_.irq_mask_addr = mcu_->layout().irq_mask_base;
  surface_.malware_region = kMalwareRegion;
  surface_.measured_memory = anchor_config.measured_memory;
  surface_.services_state_addr =
      config_.enable_services ? kServicesStateAddr : 0;
  surface_.sync_state_addr = config_.enable_clock_sync ? kSyncStateAddr : 0;
  surface_.erasable = config_.enable_services ? kErasableRegion
                                              : hw::AddrRange{};
  surface_.audit_log_addr = config_.enable_audit_log ? kAuditLogAddr : 0;
  if (config_.enable_incremental) {
    surface_.cache_addr = kPageMacCacheAddr;
    surface_.cache_size = CodeAttest::cache_window_size(
        CodeAttest::page_count(config_.measured_bytes),
        crypto::tag_size(config_.mac_alg));
  }
}

void ProverDevice::boot() {
  if (booted_) return;
  // --- Secure boot: application image + IDT + protection rules. ---
  const auto protect = [this](hw::Mcu& mcu) {
    return configure_protection(mcu);
  };
  if (tmpl_ != nullptr) {
    // Fleet-templated boot: the shared image with the signature check
    // and digest memoized at template build (hw::BootFastPath).
    boot_status_ = hw::secure_boot(
        *mcu_, tmpl_->image, tmpl_->reference, protect,
        hw::BootFastPath{/*signature_preverified=*/true, &tmpl_->digest,
                         &tmpl_->shared_pages});
  } else {
    hw::BootImage image = make_boot_image(app_seed_, config_.measured_bytes);
    const auto reference = hw::make_rom_reference(image, vendor_keypair());
    boot_status_ = hw::secure_boot(*mcu_, image, reference, protect);
    image_reference_ =
        std::make_shared<const Bytes>(std::move(image.segments[1].data));
  }
  booted_ = true;
  // set_observer() may have run on the cold device: move its fault
  // baseline past whatever the boot itself dropped, as an observer
  // attached after an eager boot would have seen it.
  seen_faults_dropped_ = mcu_->bus().faults_dropped();
}

bool ProverDevice::configure_protection(hw::Mcu& mcu) {
  // Runs as trusted first-stage boot code, pre-lockdown. Install the IDT
  // first, then the EA-MPU rules per configuration.
  const hw::AccessContext boot_ctx{kCodeAttestRegion.begin};
  if (config_.clock == ClockDesign::kSwClock) {
    if (mcu.irq().install(boot_ctx, kWrapIrqVector,
                          code_clock_->entry_point()) !=
        hw::BusStatus::kOk) {
      return false;
    }
  }

  std::size_t next_rule = 0;
  const auto add_rule = [&](hw::AddrRange code, hw::AddrRange data, bool r,
                            bool w, const char* label) {
    hw::EampuRule rule;
    rule.code = code;
    rule.data = data;
    rule.allow_read = r;
    rule.allow_write = w;
    rule.active = true;
    rule.label = label;
    return mcu.mpu().set_rule(next_rule++, rule);
  };

  bool ok = true;
  if (config_.protect_key) {
    // K_Attest: readable only by Code_Attest, writable by nobody. For the
    // ROM placement the write bit is redundant (hardware write-protect);
    // for the RAM placement this rule is what makes the key non-malleable.
    ok = ok && add_rule(kCodeAttestRegion,
                        hw::AddrRange{surface_.key_addr,
                                      surface_.key_addr +
                                          static_cast<hw::Addr>(
                                              surface_.key_size)},
                        /*r=*/true, /*w=*/false, "k-attest");
  }
  if (config_.protect_counter) {
    // counter_R and the timestamp last-seen word: R/W by Code_Attest only.
    ok = ok && add_rule(kCodeAttestRegion,
                        hw::AddrRange{kCounterAddr, kLastSeenAddr + 8},
                        /*r=*/true, /*w=*/true, "counter-r");
  }
  if (config_.protect_counter && config_.scheme == FreshnessScheme::kNonce) {
    // The nonce history is anti-replay state like counter_R: wiping or
    // rewinding it re-opens replays (Sec. 5 applies to it verbatim).
    ok = ok && add_rule(
                   kCodeAttestRegion,
                   hw::AddrRange{kNonceStoreAddr,
                                 kNonceStoreAddr +
                                     static_cast<hw::Addr>(
                                         8 + 8 * config_.nonce_capacity)},
                   /*r=*/true, /*w=*/true, "nonce-store");
  }
  if (config_.enable_services) {
    // The update version / erase sequence words are anti-replay state of
    // the same class as counter_R.
    ok = ok && add_rule(kCodeAttestRegion,
                        hw::AddrRange{kServicesStateAddr,
                                      kServicesStateAddr + 16},
                        /*r=*/true, /*w=*/true, "services-state");
  }
  if (config_.enable_audit_log) {
    // The audit log is evidence: writable only by Code_Attest, readable
    // by everyone would leak nothing sensitive, but a single R/W rule for
    // the anchor keeps the accounting identical to counter_R (log
    // read-out goes through the anchor's context).
    ok = ok && add_rule(kCodeAttestRegion,
                        hw::AddrRange{kAuditLogAddr,
                                      kAuditLogAddr +
                                          AuditLog::window_size(
                                              config_.audit_capacity)},
                        /*r=*/true, /*w=*/true, "audit-log");
  }
  if (config_.enable_clock_sync) {
    // Sync sequence + clock offset: writable only by Code_Attest, or the
    // synchronizer is itself a clock-reset vector.
    ok = ok && add_rule(kCodeAttestRegion,
                        hw::AddrRange{kSyncStateAddr, kSyncStateAddr + 16},
                        /*r=*/true, /*w=*/true, "sync-state");
  }
  if (config_.enable_incremental && config_.protect_cache) {
    // The per-page MAC cache is evidence, like the audit log: R/W by
    // Code_Attest only. The paired dirty authority makes the bus's
    // dirty bitmap clearable only from the anchor's code region — the
    // two halves of the cache protection model (DESIGN.md §4i).
    ok = ok && add_rule(kCodeAttestRegion,
                        hw::AddrRange{kPageMacCacheAddr,
                                      kPageMacCacheAddr +
                                          static_cast<hw::Addr>(
                                              surface_.cache_size)},
                        /*r=*/true, /*w=*/true, "page-mac-cache");
    mcu.bus().set_dirty_authority(kCodeAttestRegion);
  }
  if (config_.protect_clock && config_.clock == ClockDesign::kWritable) {
    // A software-settable clock register can itself be EA-MPU-protected:
    // everyone may read it, nobody may write it (Sec. 6.2: "the clock
    // must be write-protected").
    ok = ok && add_rule(hw::AddrRange{0x00000000, 0xffffffff},
                        hw::AddrRange{kClockPortAddr, kClockPortAddr + 8},
                        /*r=*/true, /*w=*/false, "clock-port-lockdown");
  }
  if (config_.protect_clock && config_.clock == ClockDesign::kSwClock) {
    // Clock_MSB writable only by Code_Clock; IDT and interrupt-mask port
    // locked down for everyone (Sec. 6.2).
    ok = ok && add_rule(kCodeClockRegion,
                        hw::AddrRange{kClockMsbAddr, kClockMsbAddr + 4},
                        /*r=*/true, /*w=*/true, "clock-msb");
    ok = ok && add_rule(hw::AddrRange{}, mcu.irq().idt_range(),
                        /*r=*/false, /*w=*/false, "idt-lockdown");
    ok = ok && add_rule(
                   hw::AddrRange{},
                   hw::AddrRange{mcu.layout().irq_mask_base,
                                 mcu.layout().irq_mask_base +
                                     hw::IrqMaskPort::kWindowSize},
                   /*r=*/false, /*w=*/false, "irq-mask-lockdown");
  }
  // The EA-MPU lock register is engaged by secure_boot() right after this
  // callback returns (the "EA-MPU lockdown rule" of the baseline system).
  return ok;
}

void ProverDevice::set_observer(const obs::Observer& observer) {
  obs_ = observer;
  if (obs_.registry == nullptr) {
    obs_requests_ = nullptr;
    obs_busy_ms_ = nullptr;
    obs_energy_mj_ = nullptr;
    obs_faults_dropped_ = nullptr;
    obs_handle_ms_ = nullptr;
    obs_outcome_.fill(nullptr);
    obs_inc_requests_ = nullptr;
    obs_inc_pages_ = nullptr;
    obs_inc_fallbacks_ = nullptr;
    return;
  }
  obs_inc_requests_ = nullptr;
  obs_inc_pages_ = nullptr;
  obs_inc_fallbacks_ = nullptr;
  obs::Registry& reg = *obs_.registry;
  obs_requests_ = &reg.counter("prover.requests");
  obs_busy_ms_ = &reg.counter("prover.busy_ms");
  obs_energy_mj_ = &reg.counter("prover.energy_mj");
  obs_faults_dropped_ = &reg.counter("prover.bus.faults_dropped");
  seen_faults_dropped_ = mcu_->bus().faults_dropped();
  obs_handle_ms_ = &reg.histogram("prover.handle_ms");
  // The outcome-counter names are identical for every device; build them
  // once per process instead of concatenating per materialization (a
  // fleet calls set_observer a hundred thousand times).
  static const auto kOutcomeNames = [] {
    std::array<std::string, kAttestStatusCount> names;
    for (std::size_t s = 0; s < kAttestStatusCount; ++s) {
      names[s] = "prover.outcome." + to_string(static_cast<AttestStatus>(s));
    }
    return names;
  }();
  for (std::size_t s = 0; s < kAttestStatusCount; ++s) {
    obs_outcome_[s] = &reg.counter(kOutcomeNames[s]);
  }
}

void ProverDevice::observe_request(std::size_t wire_bytes,
                                   const AttestOutcome& outcome,
                                   const obs::RoundContext& round) {
  const double energy_mj = obs_.power.active_mj(outcome.device_ms);
  if (obs_.registry != nullptr) {
    obs_requests_->inc();
    obs_busy_ms_->inc(outcome.device_ms);
    obs_energy_mj_->inc(energy_mj);
    obs_handle_ms_->observe(outcome.device_ms);
    obs_outcome_[static_cast<std::size_t>(outcome.status)]->inc();
    // Fault-ring overflow is reported as a delta so the counter tracks
    // the bus's cumulative tally no matter when the observer attached.
    const std::uint64_t dropped = mcu_->bus().faults_dropped();
    if (dropped != seen_faults_dropped_) {
      obs_faults_dropped_->inc(
          static_cast<double>(dropped - seen_faults_dropped_));
      seen_faults_dropped_ = dropped;
    }
  }
  if (obs_.sink != nullptr) {
    obs::TraceRecord rec;
    rec.sim_time_ms = mcu_->now_ms();
    rec.device_id = obs_.device_id;
    rec.kind = "prover.handle";
    static const auto kStatusStrings = [] {
      std::array<std::string, kAttestStatusCount> names;
      for (std::size_t s = 0; s < kAttestStatusCount; ++s) {
        names[s] = to_string(static_cast<AttestStatus>(s));
      }
      return names;
    }();
    rec.outcome = kStatusStrings[static_cast<std::size_t>(outcome.status)];
    rec.prover_ms = outcome.device_ms;
    rec.bytes = wire_bytes;
    rec.energy_mj = energy_mj;
    rec.power_mw = outcome.device_ms > 0.0 ? obs_.power.active_mw : 0.0;
    rec.round_id = round.round_id;
    rec.attempt = round.attempt;
    obs_.sink->record(rec);
  }
  if (obs_.profile != nullptr) profile_request(outcome, round);
}

void ProverDevice::profile_request(const AttestOutcome& outcome,
                                   const obs::RoundContext& round) {
  namespace prof = obs::prof;
  // handle() advanced the clock past the work before observing, so "now"
  // is where this request's whole phase batch ends — the anchor the
  // power layer lays the segments back from.
  const double end_ms = mcu_->now_ms();
  prof::PhaseSample sample;
  sample.device_id = obs_.device_id;
  sample.round_id = round.round_id;
  sample.sim_time_ms = end_ms;
  const std::uint64_t total_cycles = timing_.cycles(outcome.device_ms);
  // Incremental rounds only stream the refreshed pages through the MAC;
  // the byte columns must reflect that or the Table-3 diff overstates
  // the bus/MAC traffic by the full measured range.
  const std::size_t measured_bytes =
      outcome.incremental ? outcome.inc_pages_refreshed * CodeAttest::kPageBytes
                          : config_.measured_bytes;

  // Wire attempts beyond a round's first extract the prover's whole
  // handling cost gratuitously — that is the PR-4 retry amplification,
  // and the profiler charges all of it to one phase so the Table-3 diff
  // shows the overhead instead of diluting it across mem_mac/resp_mac.
  if (round.attempt > 1) {
    sample.phase = prof::Phase::kRetryOverhead;
    sample.cycles = total_cycles;
    sample.duration_ms = outcome.device_ms;
    sample.energy_mj = obs_.power.active_mj(outcome.device_ms);
    sample.bus_bytes = measured_bytes + surface_.key_size;
    sample.mac_bytes =
        outcome.status == AttestStatus::kOk ? 16 + measured_bytes : 19;
    obs_.profile->record(sample);
    return;
  }

  // First attempt: carve the phase partition out of the anchor's exact
  // PhaseMs decomposition. Cycle counts are derived by subtraction for
  // the last phase, so the per-round partition always sums to
  // cycles(device_ms) despite per-phase rounding.
  const std::uint64_t req_cycles = timing_.cycles(outcome.phases.req_auth);
  sample.phase = prof::Phase::kReqAuth;
  sample.cycles = req_cycles;
  sample.duration_ms = outcome.phases.req_auth;
  sample.energy_mj = obs_.power.active_mj(outcome.phases.req_auth);
  sample.bus_bytes = surface_.key_size;
  sample.mac_bytes = 19;  // the authenticated request header
  obs_.profile->record(sample);

  if (outcome.status != AttestStatus::kOk) {
    // Rejects never reached the measurement; whatever device_ms exceeds
    // the authentication charge (nothing, today) stays visible as other.
    if (total_cycles > req_cycles) {
      sample = {};
      sample.device_id = obs_.device_id;
      sample.round_id = round.round_id;
      sample.sim_time_ms = end_ms;
      sample.phase = prof::Phase::kOther;
      sample.cycles = total_cycles - req_cycles;
      sample.duration_ms = outcome.device_ms - outcome.phases.req_auth;
      sample.energy_mj =
          obs_.power.active_mj(outcome.device_ms - outcome.phases.req_auth);
      obs_.profile->record(sample);
    }
    return;
  }

  sample = {};
  sample.device_id = obs_.device_id;
  sample.round_id = round.round_id;
  sample.sim_time_ms = end_ms;
  sample.phase = prof::Phase::kFreshness;
  sample.cycles = timing_.cycles(outcome.phases.freshness);
  sample.duration_ms = outcome.phases.freshness;
  sample.energy_mj = obs_.power.active_mj(outcome.phases.freshness);
  obs_.profile->record(sample);

  const std::uint64_t mem_cycles = timing_.cycles(outcome.phases.mem_mac);
  sample.phase = prof::Phase::kMemMac;
  sample.cycles = mem_cycles;
  sample.duration_ms = outcome.phases.mem_mac;
  sample.energy_mj = obs_.power.active_mj(outcome.phases.mem_mac);
  sample.bus_bytes = measured_bytes;
  sample.mac_bytes = measured_bytes;
  obs_.profile->record(sample);

  const std::uint64_t fresh_cycles = timing_.cycles(outcome.phases.freshness);
  const std::uint64_t attributed = req_cycles + fresh_cycles + mem_cycles;
  sample = {};
  sample.device_id = obs_.device_id;
  sample.round_id = round.round_id;
  sample.sim_time_ms = end_ms;
  sample.phase = prof::Phase::kRespMac;
  sample.cycles = total_cycles > attributed ? total_cycles - attributed : 0;
  sample.duration_ms = outcome.phases.resp_mac;
  sample.energy_mj = obs_.power.active_mj(outcome.phases.resp_mac);
  sample.mac_bytes = 16;  // challenge || freshness header absorbed
  obs_.profile->record(sample);
}

template <typename Request>
AttestOutcome ProverDevice::conclude(AttestOutcome out, const Request& request,
                                     const obs::RoundContext& round) {
  if (audit_log_ != nullptr) {
    (void)audit_log_->append(out, request.freshness);
  }
  // The prover is busy for the duration; simulated time moves on.
  mcu_->advance_ms(out.device_ms);
  if (obs_.enabled()) observe_request(request.wire_size(), out, round);
  return out;
}

AttestOutcome ProverDevice::handle(const AttestRequest& request,
                                   const obs::RoundContext& round) {
  boot();
  return conclude(anchor_->handle_request(request), request, round);
}

AttestOutcome ProverDevice::handle_incremental(
    const IncAttestRequest& request, const obs::RoundContext& round) {
  boot();
  const AttestOutcome out =
      conclude(anchor_->handle_incremental(request), request, round);
  if (obs_.registry != nullptr) {
    if (obs_inc_requests_ == nullptr) {
      obs::Registry& reg = *obs_.registry;
      obs_inc_requests_ = &reg.counter("prover.inc.requests");
      obs_inc_pages_ = &reg.counter("prover.inc.pages_refreshed");
      obs_inc_fallbacks_ = &reg.counter("prover.inc.full_fallbacks");
    }
    obs_inc_requests_->inc();
    obs_inc_pages_->inc(static_cast<double>(out.inc_pages_refreshed));
    if (out.status == AttestStatus::kOk && out.inc_response.full_fallback()) {
      obs_inc_fallbacks_->inc();
    }
  }
  return out;
}

Bytes ProverDevice::reference_memory() {
  boot();
  Bytes out(config_.measured_bytes);
  // Hardware-context read: this models the verifier's out-of-band
  // knowledge of the expected image, not a runtime access.
  mcu_->bus().read_block(hw::AccessContext{hw::kHardwarePc}, kMeasuredBase,
                         out);
  return out;
}

std::shared_ptr<const Bytes> ProverDevice::image_reference() {
  boot();
  return tmpl_ != nullptr ? tmpl_->reference_memory : image_reference_;
}

std::uint64_t ProverDevice::ground_truth_ticks() {
  boot();
  return mcu_->cycles() / clock_divider_;
}

std::optional<std::uint64_t> ProverDevice::prover_clock_ticks() {
  boot();
  if (clock_source_ == nullptr) return std::nullopt;
  return clock_source_->read_ticks(anchor_->ctx());
}

double ProverDevice::ticks_per_ms() const {
  return config_.clock_hz / 1000.0 / static_cast<double>(clock_divider_);
}

}  // namespace ratt::attest
