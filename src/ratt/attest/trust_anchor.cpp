#include "ratt/attest/trust_anchor.hpp"

#include <algorithm>
#include <span>

namespace ratt::attest {

std::string to_string(AttestStatus status) {
  switch (status) {
    case AttestStatus::kOk:
      return "ok";
    case AttestStatus::kBadRequestMac:
      return "bad-request-mac";
    case AttestStatus::kNotFresh:
      return "not-fresh";
    case AttestStatus::kWrongAlgorithm:
      return "wrong-algorithm";
    case AttestStatus::kKeyUnreadable:
      return "key-unreadable";
    case AttestStatus::kMeasurementFault:
      return "measurement-fault";
    case AttestStatus::kRateLimited:
      return "rate-limited";
    case AttestStatus::kUnsupported:
      return "unsupported";
  }
  return "unknown";
}

CodeAttest::CodeAttest(hw::Mcu& mcu, const Config& config,
                       FreshnessPolicy& policy,
                       const timing::DeviceTimingModel& timing)
    : hw::SoftwareComponent(mcu, "code-attest", config.code),
      config_(config),
      policy_(&policy),
      timing_(&timing) {}

std::optional<Bytes> CodeAttest::read_key() const {
  Bytes key(config_.key_size);
  if (read_block(config_.key_addr, key) != hw::BusStatus::kOk) {
    return std::nullopt;
  }
  return key;
}

crypto::Mac& CodeAttest::mac_for_key(const Bytes& key) {
  if (cached_mac_ == nullptr || cached_key_ != key) {
    cached_mac_ = crypto::make_mac(config_.mac_alg, key);
    cached_key_ = key;
  }
  return *cached_mac_;
}

crypto::Mac* CodeAttest::admit(crypto::MacAlgorithm alg, const Bytes& header,
                               const Bytes& request_mac,
                               std::uint64_t freshness, AttestOutcome& out) {
  if (alg != config_.mac_alg) {
    ++rejected_;
    out.status = AttestStatus::kWrongAlgorithm;
    return nullptr;
  }

  const auto key = read_key();
  if (!key.has_value()) {
    ++rejected_;
    out.status = AttestStatus::kKeyUnreadable;
    return nullptr;
  }
  // The key schedule is cached across requests; the key bytes were just
  // re-read over the bus, so an overwritten K_Attest re-keys immediately.
  crypto::Mac& mac = mac_for_key(*key);

  // 1. Request authentication (Sec. 4.1). The prover pays the one-block
  //    verification cost whether or not the MAC checks out — that residual
  //    cost is what the Sec. 4.1 ECC discussion is about.
  if (config_.authenticate_requests) {
    const double auth_ms = timing_->request_auth_ms(config_.mac_alg);
    out.device_ms += auth_ms;
    total_device_ms_ += auth_ms;
    out.phases.req_auth += auth_ms;
    if (!mac.verify(header, request_mac)) {
      ++rejected_;
      out.status = AttestStatus::kBadRequestMac;
      return nullptr;
    }
  }

  // 2. Freshness (Sec. 4.2). Cheap: a few memory words.
  out.freshness = policy_->check_and_update(ctx(), freshness);
  if (out.freshness != FreshnessVerdict::kAccept) {
    ++rejected_;
    out.status = AttestStatus::kNotFresh;
    return nullptr;
  }

  // 3. Attestation budget (extension): the request is authentic and
  //    fresh, but the prover refuses to be driven above its configured
  //    duty share. Uses the hardware cycle counter, which no software can
  //    rewind.
  if (config_.rate_limit_max > 0) {
    const double now_ms = mcu().now_ms();
    if (now_ms - window_start_ms_ >= config_.rate_limit_window_ms) {
      window_start_ms_ = now_ms;
      window_count_ = 0;
    }
    if (window_count_ >= config_.rate_limit_max) {
      ++rejected_;
      ++rate_limited_;
      out.status = AttestStatus::kRateLimited;
      return nullptr;
    }
    ++window_count_;
  }
  return &mac;
}

AttestOutcome CodeAttest::handle_request(const AttestRequest& request) {
  AttestOutcome out;
  const auto account = [&](double ms) {
    out.device_ms += ms;
    total_device_ms_ += ms;
  };

  crypto::Mac* admitted = admit(request.mac_alg, request.header_bytes(),
                                request.mac, request.freshness, out);
  if (admitted == nullptr) return out;
  crypto::Mac& mac = *admitted;

  // 4. Memory measurement (Sec. 3.1): MAC over challenge || freshness ||
  //    the measured memory range, streamed in kMeasureChunkBytes pieces
  //    read over the bus (EA-MPU applies) — no full-size copy of the
  //    measured memory is ever materialized.
  const std::size_t memory_size = config_.measured_memory.size();
  mac.init(16 + memory_size);
  std::uint8_t head[16];
  crypto::store_le64(head, request.challenge);
  crypto::store_le64(head + 8, request.freshness);
  mac.update(ByteView(head, 16));
  std::uint8_t chunk[kMeasureChunkBytes];
  for (std::size_t off = 0; off < memory_size;) {
    const std::size_t n = std::min(kMeasureChunkBytes, memory_size - off);
    if (read_block(config_.measured_memory.begin + static_cast<hw::Addr>(off),
                   std::span<std::uint8_t>(chunk, n)) != hw::BusStatus::kOk) {
      ++rejected_;
      out.status = AttestStatus::kMeasurementFault;
      return out;
    }
    mac.update(ByteView(chunk, n));
    off += n;
  }
  // Phase split of the measurement charge: mem_mac is the MAC body cost
  // of the memory bytes alone (no setup); resp_mac is everything else —
  // setup, the 16-byte header, finalization/block rounding. The two sum
  // to the full charge, keeping phases an exact partition of device_ms.
  const double measure_ms =
      timing_->memory_attestation_ms(config_.mac_alg, 16 + memory_size);
  const double mem_mac_ms =
      timing_->mac_ms(config_.mac_alg, memory_size, /*include_setup=*/false);
  out.phases.mem_mac += mem_mac_ms;
  out.phases.resp_mac += measure_ms - mem_mac_ms;
  account(measure_ms);

  out.response.freshness = request.freshness;
  out.response.measurement = mac.finish();
  out.status = AttestStatus::kOk;
  ++performed_;
  return out;
}

AttestOutcome CodeAttest::handle_incremental(const IncAttestRequest& request) {
  AttestOutcome out;
  out.incremental = true;
  const auto account = [&](double ms) {
    out.device_ms += ms;
    total_device_ms_ += ms;
  };

  if (!config_.enable_incremental) {
    ++rejected_;
    out.status = AttestStatus::kUnsupported;
    return out;
  }

  crypto::Mac* admitted = admit(request.mac_alg, request.header_bytes(),
                                request.mac, request.freshness, out);
  if (admitted == nullptr) return out;
  crypto::Mac& mac = *admitted;

  const std::size_t memory_size = config_.measured_memory.size();
  const std::size_t pages_total = page_count(memory_size);
  const std::size_t tag_size = mac.tag_size();
  out.inc_pages_total = pages_total;

  // The cache generation (u64 at cache_addr), read through the bus with
  // the anchor's PC — the EA-MPU cache rule admits exactly this access.
  std::uint64_t gen = 0;
  if (read64(config_.cache_addr, gen) != hw::BusStatus::kOk) {
    ++rejected_;
    out.status = AttestStatus::kMeasurementFault;
    return out;
  }

  // Full fallback when there is nothing sound to serve a delta from:
  // first contact (since_gen 0), an unseeded cache (gen 0), or — when
  // generations are bound — a retained generation the cache does not
  // match (stale or rolled-back cache, rebooted prover).
  const bool fallback =
      gen == 0 || request.since_gen == 0 ||
      (config_.bind_generation && request.since_gen != gen);

  hw::MemoryBus& bus = mcu().bus();
  const hw::Addr base = config_.measured_memory.begin;
  std::vector<std::uint32_t> changed;
  if (fallback) {
    changed.resize(pages_total);
    for (std::size_t p = 0; p < pages_total; ++p) {
      changed[p] = static_cast<std::uint32_t>(p);
    }
  } else {
    for (std::size_t p = 0; p < pages_total; ++p) {
      if (bus.page_dirty(base + static_cast<hw::Addr>(p * kPageBytes))) {
        changed.push_back(static_cast<std::uint32_t>(p));
      }
    }
  }
  out.inc_pages_refreshed = changed.size();

  // Re-MAC every page to refresh; store its tag into the cache and clear
  // its dirty bit (the anchor's PC is the dirty authority). Each page
  // costs one standalone MAC: setup + 9-byte header + page bytes.
  static_assert(kPageBytes <= kMeasureChunkBytes);
  std::uint8_t chunk[kMeasureChunkBytes];
  for (const std::uint32_t p : changed) {
    const std::size_t off = static_cast<std::size_t>(p) * kPageBytes;
    const std::size_t len = std::min(kPageBytes, memory_size - off);
    const hw::Addr page_addr = base + static_cast<hw::Addr>(off);
    if (read_block(page_addr, std::span<std::uint8_t>(chunk, len)) !=
        hw::BusStatus::kOk) {
      ++rejected_;
      out.status = AttestStatus::kMeasurementFault;
      return out;
    }
    std::uint8_t head[9];
    head[0] = 'P';
    crypto::store_le32(head + 1, p);
    crypto::store_le32(head + 5, static_cast<std::uint32_t>(len));
    mac.init(9 + len);
    mac.update(ByteView(head, 9));
    mac.update(ByteView(chunk, len));
    const Bytes tag = mac.finish();
    if (write_block(config_.cache_addr + 8 +
                        static_cast<hw::Addr>(p * tag_size),
                    tag) != hw::BusStatus::kOk) {
      ++rejected_;
      out.status = AttestStatus::kMeasurementFault;
      return out;
    }
    (void)bus.clear_dirty_page(ctx(), page_addr);
    const double page_ms =
        timing_->mac_ms(config_.mac_alg, 9 + len, /*include_setup=*/true);
    out.phases.mem_mac += page_ms;
    account(page_ms);
  }

  // The evidence generation advances whenever the cache content changed;
  // idle rounds (no dirty pages) keep it, so the cache word is written
  // only when there is new evidence to bind.
  const std::uint64_t new_gen =
      (fallback || !changed.empty()) ? gen + 1 : gen;
  if (new_gen != gen &&
      write64(config_.cache_addr, new_gen) != hw::BusStatus::kOk) {
    ++rejected_;
    out.status = AttestStatus::kMeasurementFault;
    return out;
  }

  // Fold the complete tag table — cached tags for clean pages, the tags
  // just refreshed for dirty ones — into one response MAC. Reading the
  // table back from the cache is what the rollback adversary attacks:
  // with an unprotected cache, restored stale tags fold undetected.
  IncAttestResponse& resp = out.inc_response;
  resp.flags = (fallback ? IncAttestResponse::kFlagFullFallback : 0) |
               (config_.bind_generation
                    ? IncAttestResponse::kFlagGenerationBound
                    : 0);
  resp.freshness = request.freshness;
  resp.base_gen = fallback ? 0 : gen;
  resp.new_gen = new_gen;
  resp.changed_pages = std::move(changed);

  Bytes table(pages_total * tag_size);
  if (read_block(config_.cache_addr + 8, table) != hw::BusStatus::kOk) {
    ++rejected_;
    out.status = AttestStatus::kMeasurementFault;
    return out;
  }
  const bool bound = config_.bind_generation;
  const std::size_t fold_len =
      22 + (bound ? 16 : 0) + 4 * resp.changed_pages.size() + table.size();
  mac.init(fold_len);
  std::uint8_t fold_head[38];
  fold_head[0] = 'I';
  fold_head[1] = resp.flags;
  crypto::store_le64(fold_head + 2, request.challenge);
  crypto::store_le64(fold_head + 10, request.freshness);
  std::size_t head_len = 18;
  if (bound) {
    crypto::store_le64(fold_head + 18, resp.base_gen);
    crypto::store_le64(fold_head + 26, resp.new_gen);
    head_len = 34;
  }
  crypto::store_le32(fold_head + head_len,
                     static_cast<std::uint32_t>(resp.changed_pages.size()));
  head_len += 4;
  mac.update(ByteView(fold_head, head_len));
  for (const std::uint32_t p : resp.changed_pages) {
    std::uint8_t idx[4];
    crypto::store_le32(idx, p);
    mac.update(ByteView(idx, 4));
  }
  mac.update(table);
  resp.measurement = mac.finish();
  const double fold_ms =
      timing_->mac_ms(config_.mac_alg, fold_len, /*include_setup=*/true);
  out.phases.resp_mac += fold_ms;
  account(fold_ms);

  out.status = AttestStatus::kOk;
  ++inc_performed_;
  if (fallback) ++full_fallbacks_;
  return out;
}

}  // namespace ratt::attest
