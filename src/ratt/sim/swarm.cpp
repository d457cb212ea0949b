#include "ratt/sim/swarm.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/hkdf.hpp"
#include "ratt/obs/pool.hpp"

namespace ratt::sim {

namespace {

/// One-way latency of every device's channel. The reliable fleets'
/// derived retry timeouts (net::derive_timeout_ms) build on it.
constexpr double kChannelLatencyMs = 2.0;

}  // namespace

crypto::Bytes device_seed_prk(crypto::ByteView fleet_seed) {
  return crypto::hkdf_extract(crypto::from_string("ratt::swarm-device-v1"),
                              fleet_seed);
}

DeviceSeeds derive_device_seeds(crypto::ByteView prk, std::uint64_t id) {
  // info = label || be64(id). No label is a prefix of another, so two
  // (purpose, id) pairs never share an info string.
  const auto expand = [prk, id](std::string_view label) {
    crypto::Bytes info = crypto::from_string(label);
    info.resize(label.size() + 8);
    crypto::store_be64(info.data() + label.size(), id);
    return crypto::hkdf_expand(prk, info, 16);
  };
  return DeviceSeeds{.key = expand("k_attest"),
                     .app = expand("app_seed"),
                     .verifier = expand("verifier_seed")};
}

std::uint64_t SwarmReport::total_valid() const {
  std::uint64_t n = 0;
  for (const auto& d : devices) n += d.stats.responses_valid;
  return n;
}

std::uint64_t SwarmReport::total_sent() const {
  std::uint64_t n = 0;
  for (const auto& d : devices) n += d.stats.requests_sent;
  return n;
}

double SwarmReport::total_attest_ms() const {
  double ms = 0.0;
  for (const auto& d : devices) ms += d.attest_device_ms;
  return ms;
}

Swarm::Swarm(const SwarmConfig& config, crypto::ByteView fleet_seed)
    : config_(config) {
  if (config.reliable && config.prover.enable_incremental) {
    // Fail at construction, not on the first materialization mid-drain:
    // the retransmitter owns reliable round state and the incremental
    // exchange cannot ride it (session.cpp rejects the combination), so
    // a fleet configured with both is a configuration error.
    throw std::invalid_argument(
        "SwarmConfig: `reliable` and prover.enable_incremental are "
        "mutually exclusive — incremental rounds cannot run over the "
        "retransmitter");
  }
  // Shard plan: contiguous blocks, sized as evenly as possible.
  const std::size_t n = config.device_count;
  std::size_t shard_count = config.shard_count == 0 ? 1 : config.shard_count;
  if (n > 0 && shard_count > n) shard_count = n;
  const std::size_t base = n == 0 ? 0 : n / shard_count;
  const std::size_t rem = n == 0 ? 0 : n % shard_count;
  std::size_t next_device = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->begin = next_device;
    next_device += base + (s < rem ? 1 : 0);
    shard->end = next_device;
    shards_.push_back(std::move(shard));
  }

  device_prk_ = device_seed_prk(fleet_seed);
  // ratt::net seeds come from a separate DRBG stream, drawn for every
  // device in global device order, so the fault schedule of device i
  // never depends on the profiles — or reliable flag — chosen for the
  // devices before it.
  net_mode_ = config.reliable || config.link_for != nullptr ||
              !config.link.is_clean();
  if (net_mode_) {
    crypto::Bytes net_seed(fleet_seed.begin(), fleet_seed.end());
    crypto::append(net_seed, crypto::from_string("ratt::net"));
    crypto::HmacDrbg net_drbg(net_seed);
    net_seeds_.resize(n * 32);
    for (std::size_t i = 0; i < n; ++i) {
      for (int draw = 0; draw < 2; ++draw) {
        const crypto::Bytes b = net_drbg.generate(16);
        std::memcpy(net_seeds_.data() + i * 32 + draw * 16, b.data(), 16);
      }
    }
  }
  devices_.assign(n, nullptr);

  if (config.share_app_image) {
    // One image for the whole fleet, derived from a dedicated stream so
    // it does not depend on device count.
    crypto::Bytes image_seed(fleet_seed.begin(), fleet_seed.end());
    crypto::append(image_seed, crypto::from_string("ratt::app-image"));
    crypto::HmacDrbg image_drbg(image_seed);
    template_ = std::make_shared<const attest::ProverTemplate>(
        attest::ProverDevice::make_template(config.prover,
                                            image_drbg.generate(16)));
  }
}

Swarm::~Swarm() {
  // Shards share nothing but thread-safe reference counts (the fleet
  // template's pages), so they are torn down in parallel, one per ticket.
  // If no thread can be started, the shards_ member's own destructor
  // frees whatever is left on this thread instead.
  try {
    obs::parallel_for(shards_.size(), obs::tail_workers(shards_.size()),
                      [this](std::size_t s) { shards_[s].reset(); });
  } catch (const std::system_error&) {
  }
}

void Swarm::check_device(std::size_t i) const {
  if (i >= devices_.size()) {
    throw std::out_of_range("Swarm: device index " + std::to_string(i) +
                            " out of range (size " +
                            std::to_string(devices_.size()) + ")");
  }
}

std::size_t Swarm::shard_of(std::size_t i) const {
  // Inverts the constructor's contiguous plan: the first `rem` shards
  // hold base+1 devices, the rest hold base.
  const std::size_t n = devices_.size();
  const std::size_t shard_count = shards_.size();
  const std::size_t base = n / shard_count;
  const std::size_t rem = n % shard_count;
  const std::size_t big = rem * (base + 1);
  if (i < big) return i / (base + 1);
  return rem + (i - big) / base;
}

Swarm::Device& Swarm::materialize(std::size_t i) {
  check_device(i);
  if (devices_[i] != nullptr) return *devices_[i];
  const std::size_t shard_idx = shard_of(i);
  Shard& shard = *shards_[shard_idx];
  // Build into a local record and append it only once every component
  // exists: a throwing constructor must not leave a half-built device
  // behind for materialized_count() and resident() to trip over.
  Device d;
  d.index = i;
  d.shard = shard_idx;
  DeviceSeeds seeds = derive_device_seeds(device_prk_, i);
  d.key = std::move(seeds.key);

  // The prover is manufactured here and secure-boots on first use — in a
  // pooled drain, on this shard's worker at the device's first delivery.
  if (template_ != nullptr) {
    d.prover = std::make_unique<attest::ProverDevice>(
        config_.prover, d.key, *template_, attest::kDeferBoot);
  } else {
    d.prover = std::make_unique<attest::ProverDevice>(
        config_.prover, d.key, seeds.app, attest::kDeferBoot);
  }

  attest::Verifier::Config vc;
  vc.scheme = config_.prover.scheme;
  vc.mac_alg = config_.prover.mac_alg;
  vc.authenticate_requests = config_.prover.authenticate_requests;
  vc.bind_generation = config_.prover.bind_generation;
  attest::ProverDevice* prover_ptr = d.prover.get();
  vc.clock = [prover_ptr] { return prover_ptr->ground_truth_ticks(); };
  d.verifier = std::make_unique<attest::Verifier>(d.key, vc, seeds.verifier);
  if (template_ != nullptr) {
    d.verifier->set_reference_memory(template_->reference_memory);
  } else {
    // Resolved at the first check, which follows the prover's boot.
    d.verifier->set_reference_source(
        [prover_ptr] { return prover_ptr->image_reference(); });
  }
  if (config_.mac_batch) {
    d.verifier->set_batch_engine(&shard.batch);
  }

  d.channel = std::make_unique<Channel>(shard.queue, kChannelLatencyMs);
  d.session = std::make_unique<AttestationSession>(shard.queue, *d.channel,
                                                   *d.prover, *d.verifier);
  if (net_mode_) {
    const std::uint8_t* net_seeds = net_seeds_.data() + i * 32;
    const crypto::Bytes link_seed(net_seeds, net_seeds + 16);
    const crypto::ByteView jitter_seed(net_seeds + 16, 16);
    const net::LinkProfile profile =
        config_.link_for ? config_.link_for(i) : config_.link;
    d.link = std::make_unique<net::FaultyLink>(profile, link_seed);
    d.channel->set_tap(d.link.get());
    if (config_.reliable) {
      d.session->enable_reliable(config_.retry, jitter_seed);
    }
  }
  if (config_.prover.enable_incremental) {
    d.session->set_incremental(true);
  }
  apply_observer(d);
  // The components live behind unique_ptrs, so moving the record into
  // the deque leaves every cross-component pointer valid.
  Device& stored = shard.devices.emplace_back(std::move(d));
  devices_[i] = &stored;
  return stored;
}

std::size_t Swarm::materialized_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->devices.size();
  return n;
}

std::uint64_t Swarm::batch_tags_computed() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->batch.tags_computed();
  return n;
}

void Swarm::apply_observer(Device& device) {
  Shard& shard = *shards_[device.shard];
  obs::Observer o = shard.observer;
  o.device_id = device.index;
  device.prover->set_observer(o);
  device.verifier->set_observer(o);
  device.session->set_observer(o);
  // The shard's batch engine records into the shard's registry; its
  // counters register lazily on the first batched wave, so scalar runs
  // keep the registry export byte-identical.
  if (config_.mac_batch) shard.batch.set_observer(o);
}

void Swarm::apply_observer_to_materialized() {
  // O(materialized), not O(devices): a million-device fleet attaches
  // before it wakes anyone.
  for (auto& shard : shards_) {
    for (Device& device : shard->devices) apply_observer(device);
  }
}

void Swarm::retarget_metrics(obs::Registry* registry) {
  fold_metrics();
  if (registry == registry_) return;
  // A new target gets fresh shard registries, so no name registered for
  // the old one shows up in it. The attach_* caller re-points everything
  // that cached an instrument of the old ones before anything records.
  registry_ = registry;
  for (auto& shard : shards_) {
    shard->metrics =
        registry == nullptr ? nullptr : std::make_unique<obs::Registry>();
  }
}

void Swarm::fold_metrics() {
  if (registry_ == nullptr) return;
  for (auto& shard : shards_) {
    registry_->merge(*shard->metrics);
    shard->metrics->reset();
  }
}

void Swarm::attach_observer(obs::Registry* registry, std::nullptr_t) {
  retarget_metrics(registry);
  for (auto& shard : shards_) {
    obs::Registry* metrics = shard->metrics.get();
    shard->queue.set_observer(metrics);
    // A ring left by attach_sharded_observer no longer records.
    if (shard->ring != nullptr) shard->ring->set_dropped_counter(nullptr);
    shard->observer = obs::Observer{.registry = metrics};
  }
  apply_observer_to_materialized();
  fold_metrics();  // the caller's registry lists the new instruments
}

void Swarm::attach_sharded_observer(obs::Registry* registry,
                                    std::size_t ring_capacity) {
  retarget_metrics(registry);
  for (auto& shard : shards_) {
    obs::Registry* metrics = shard->metrics.get();
    shard->ring = std::make_unique<obs::RingRecorder>(ring_capacity);
    if (metrics != nullptr) {
      // The eviction tally lets exports state whether the merged trace
      // is complete.
      shard->ring->set_dropped_counter(&metrics->counter("obs.trace.dropped"));
    }
    shard->profile = std::make_unique<obs::prof::ShardProfile>();
    shard->queue.set_observer(metrics);
    shard->observer = obs::Observer{.registry = metrics,
                                    .sink = shard->ring.get(),
                                    .profile = shard->profile.get()};
  }
  apply_observer_to_materialized();
  fold_metrics();
}

std::vector<obs::TraceRecord> Swarm::merged_trace() const {
  std::vector<const obs::RingRecorder*> rings;
  rings.reserve(shards_.size());
  for (const auto& shard : shards_) {
    if (shard->ring != nullptr) rings.push_back(shard->ring.get());
  }
  return obs::merge_traces(rings);
}

obs::prof::ProfileTable Swarm::merged_profile() const {
  std::vector<const obs::prof::ShardProfile*> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    if (shard->profile != nullptr) per_shard.push_back(shard->profile.get());
  }
  return obs::prof::ProfileTable::merge(per_shard);
}

void Swarm::attach_power(const obs::power::PowerTraceConfig& config) {
  if (shards_[0]->ring == nullptr) {
    // Power synthesis needs the shard rings and profiles in place.
    attach_sharded_observer(registry_);
  }
  for (auto& shard : shards_) {
    shard->power = std::make_unique<obs::power::ShardPowerRecorder>(config);
    // Ring first so the ring's view of the stream is untouched; the
    // recorder only reads round-close spans off the same stream.
    shard->power_tee =
        std::make_unique<obs::TeeSink>(*shard->ring, *shard->power);
    shard->profile->set_hook(shard->power.get());
    // Only the sink moves; registry and profile stay as attached.
    shard->observer.sink = shard->power_tee.get();
  }
  apply_observer_to_materialized();
}

std::vector<obs::power::RoundTrace> Swarm::merged_power_traces() const {
  std::vector<std::vector<obs::power::RoundTrace>> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    if (shard->power != nullptr) per_shard.push_back(shard->power->completed());
  }
  return obs::power::merge_round_traces(std::move(per_shard));
}

double Swarm::stagger_offset(std::size_t i) const {
  const double raw = config_.stagger_ms * static_cast<double>(i);
  if (config_.attest_period_ms <= 0.0) return raw;
  // Wrap the offset into one period: device i's first round must land
  // inside (0, 2 * period] at ANY fleet size. raw >= 0, so fmod >= 0.
  return std::fmod(raw, config_.attest_period_ms);
}

void Swarm::arm_round(std::size_t i, std::uint64_t k) {
  // Round k's time is computed multiplicatively every firing — never
  // accumulated — so round 10^6 lands exactly on offset + 1e6 * period.
  const double t = stagger_offset(i) +
                   static_cast<double>(k) * config_.attest_period_ms;
  if (t > scheduled_horizon_ms_) return;
  // One 8-byte capture: (device << 32 | round) keeps the closure inside
  // std::function's small-buffer optimization — no per-event allocation.
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(i) << 32) | (k & 0xffffffffull);
  shards_[shard_of(i)]->queue.schedule_at(t, [this, packed] {
    const std::size_t device = static_cast<std::size_t>(packed >> 32);
    const std::uint64_t round = packed & 0xffffffffull;
    // Re-arm before the send so the next round's event takes the seq
    // slot right at its own firing — and a throwing send does not kill
    // the device's chain.
    arm_round(device, round + 1);
    materialize(device).session->send_request();
  });
}

void Swarm::schedule(double horizon_ms) {
  scheduled_horizon_ms_ = std::max(scheduled_horizon_ms_, horizon_ms);
  if (config_.attest_period_ms <= 0.0) return;
  for (std::size_t i = 0; i < devices_.size(); ++i) arm_round(i, 1);
}

void Swarm::run_until(double until_ms) {
  for (auto& shard : shards_) shard->queue.run_until(until_ms);
  fold_metrics();
}

std::size_t Swarm::run_all() {
  return drain(obs::tail_workers(shards_.size()));
}

std::size_t Swarm::shard_budget(const Shard& shard) const {
  const std::size_t devices = shard.end - shard.begin;
  double rounds = 0.0;
  if (config_.attest_period_ms > 0.0 && scheduled_horizon_ms_ > 0.0) {
    rounds = std::ceil(scheduled_horizon_ms_ / config_.attest_period_ms);
  }
  const double attempts =
      config_.reliable
          ? static_cast<double>(std::max<std::uint32_t>(
                1, config_.retry.max_attempts))
          : 1.0;
  // ~3 events per clean round (send + two channel deliveries); 8 x
  // attempts leaves headroom for retries, timeouts and taps. Whatever is
  // already pending (primed injections, dashboard slices) gets its own
  // allowance, and the legacy 1M floor keeps injection-heavy setups that
  // never call schedule() at their old budget.
  const double derived = 1024.0 +
                         static_cast<double>(devices) * rounds * 8.0 *
                             attempts +
                         static_cast<double>(shard.queue.pending()) * 4.0;
  const double budget = std::max(1.0e6, derived);
  if (budget >= 9.0e15) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(budget);
}

std::size_t Swarm::drain(std::size_t threads) {
  // Shards are fully independent event streams, one per pool ticket. All
  // cross-thread state is the ticket: each shard records into its own
  // registry (lazy materialization only ever happens on a device's owning
  // shard worker), folded into the caller's in shard order once every
  // worker has joined. run_all's bounded drain leaves any stranded
  // backlog pending, which is what this returns and what report() picks
  // up as events_leftover.
  obs::parallel_for(shards_.size(), std::min(threads, shards_.size()),
                    [this](std::size_t s) {
                      shards_[s]->queue.run_all(shard_budget(*shards_[s]));
                    });
  fold_metrics();
  std::size_t leftover = 0;
  for (const auto& shard : shards_) leftover += shard->queue.pending();
  return leftover;
}

SwarmReport Swarm::report(double horizon_ms) const {
  SwarmReport report;
  report.horizon_ms = horizon_ms;
  for (const auto& shard : shards_) {
    report.events_leftover += shard->queue.pending();
  }
  report.devices.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    SwarmDeviceReport dr;
    dr.device = i;
    if (devices_[i] != nullptr) {
      dr.stats = devices_[i]->session->stats();
      // A prover that never booted never attested (and must not boot
      // just to say so).
      attest::ProverDevice& prover = *devices_[i]->prover;
      dr.attest_device_ms =
          prover.booted() ? prover.anchor().total_device_ms() : 0.0;
      dr.duty_fraction =
          horizon_ms > 0.0 ? dr.attest_device_ms / horizon_ms : 0.0;
    }
    // Unmaterialized devices report default stats — identical to a
    // materialized device that never saw an event, so laziness never
    // shows up in a report.
    report.devices.push_back(dr);
  }
  return report;
}

Swarm::ResidentReport Swarm::resident() const {
  ResidentReport r;
  constexpr std::size_t kComponentBytes =
      sizeof(attest::ProverDevice) + sizeof(attest::Verifier) +
      sizeof(Channel) + sizeof(AttestationSession);
  for (const auto& shard : shards_) {
    r.devices += shard->devices.size();
    r.arena_bytes += shard->devices.size() * kComponentBytes;
    for (const Device& d : shard->devices) {
      const hw::MemoryBus& bus = d.prover->peek_mcu().bus();
      // Pages aliased from the fleet template are physically one copy;
      // count them once below instead of once per device.
      r.bus_bytes += bus.resident_bytes() - bus.shared_resident_bytes();
      r.table_bytes += bus.page_table_bytes();
    }
  }
  if (template_ != nullptr) {
    for (const auto& sp : template_->shared_pages) {
      r.shared_bytes += sp.page->size();
    }
  }
  return r;
}

SwarmReport Swarm::run_parallel(double horizon_ms, std::size_t threads) {
  schedule(horizon_ms);
  (void)drain(threads);
  return report(horizon_ms);
}

}  // namespace ratt::sim
