// IoT fleet deployment — the paper's future-work item 1 ("trial-deploy
// proposed methods in the context of connected devices, such as IoT").
//
// One verifier-side operator attests a fleet of simulated provers over
// per-device Dolev-Yao channels. Each device holds its own K_Attest
// (derived from a fleet seed), so a request recorded on one device's
// link is useless against another — and the whole fleet can be driven
// under adversarial taps to measure aggregate DoS impact.
//
// Sharded execution (fleet scale): devices never interact cross-device,
// so the fleet is partitioned into `shard_count` contiguous shards, each
// owning its own EventQueue and (optionally) its own trace ring. Shards
// are fully independent event streams, which makes them embarrassingly
// parallel: run_parallel() drains them on a thread pool, and the merge
// of reports and traces is deterministic — byte-identical for the same
// seed at ANY thread count, because per-shard behavior never depends on
// scheduling and the merge orders records by (sim_time, device_id)
// canonically. Metrics aggregate into one shared Registry whose
// instruments are thread-safe (obs/metrics.hpp).
//
// Million-device scale rests on three mechanisms:
//   * Lazy periodic scheduling (default): schedule() arms ONE
//     self-rescheduling event per device; each firing computes its round
//     time multiplicatively as offset + k * period (drift-free) and
//     re-arms round k+1 — pending events stay O(devices), not
//     O(devices x horizon/period).
//   * Lazy device materialization: the ProverDevice/Verifier/Channel/
//     Session quad is built only when a device is first touched. Its key,
//     app and verifier seeds are derived right then, on the owning shard's
//     worker, as a pure function of (fleet seed, device id, purpose) — see
//     derive_device_seeds() — so they never depend on the shard plan, the
//     thread count or which devices wake first. The prover is only
//     manufactured there; it secure-boots at its first use (its first
//     delivery, inside a drain on the shard that owns it), and the
//     verifier takes the booted image's reference at its first check. So
//     priming a fleet from the calling thread (taps, first requests)
//     leaves every image build, vendor sign and verify and boot digest to
//     the pool. A cold device costs one pointer slot (plus 32 B of
//     pre-drawn link/jitter seeds with ratt::net); a materialized one
//     owns its components through unique_ptrs (see resident() for the
//     accounting).
//   * Shared templates (SwarmConfig::share_app_image): one vendor-signed
//     boot image + one verifier reference copy for the whole fleet, with
//     secure boot's signature check and image digest memoized
//     (attest::ProverTemplate) — per-device state that actually differs
//     (K_Attest, freshness words, RAM) stays per-device.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ratt/attest/verifier_batch.hpp"
#include "ratt/net/link.hpp"
#include "ratt/obs/power/trace.hpp"
#include "ratt/obs/prof/profile.hpp"
#include "ratt/sim/session.hpp"

namespace ratt::sim {

struct SwarmConfig {
  std::size_t device_count = 8;
  /// Template for every device (per-device key/app are derived).
  attest::ProverConfig prover;
  double attest_period_ms = 500.0;
  /// Device i's schedule is offset by (i * stagger_ms) mod
  /// attest_period_ms (avoids thundering herd on the operator). The
  /// modulo keeps every device's first round inside one period at any
  /// fleet size — without it, device offsets past the horizon silently
  /// starved high-index devices of attestation.
  double stagger_ms = 37.0;
  /// Shards the fleet is partitioned into (contiguous device blocks,
  /// each with a private EventQueue). 1 — the default — is the legacy
  /// single-queue layout; values are clamped to [1, device_count].
  /// Per-device behavior is independent of the shard plan, so reports
  /// are identical at any shard count; merged traces additionally match
  /// across shard counts as long as no trace ring overflowed.
  std::size_t shard_count = 1;
  /// Transport faults: every device's channel gets a net::FaultyLink
  /// with this profile (clean = no tap at all unless `reliable`).
  /// `link_for` — when set — overrides the profile per device index, so
  /// a fleet can mix healthy and hostile links. Fault/jitter seeds are
  /// drawn from a DRBG stream separate from key derivation, so enabling
  /// ratt::net never changes the fleet's keys or clean-run goldens.
  net::LinkProfile link;
  std::function<net::LinkProfile(std::size_t)> link_for;
  /// Reliable rounds (net::Retransmitter) on every session. A `retry`
  /// with base_timeout_ms <= 0 gets one derived from the prover's timing
  /// model and the channel latency (see net::derive_timeout_ms).
  bool reliable = false;
  net::RetryPolicy retry;
  /// Share one application image (and one verifier reference copy)
  /// across the fleet instead of deriving a per-device image from the
  /// app seed. Keys and freshness state stay per-device, and the app seed
  /// is derived independently of the key, so enabling this never changes
  /// the fleet's keys. Off by default — per-device images are the paper's
  /// model; fleet-scale benches turn it on.
  bool share_app_image = false;
  /// Multi-buffer MAC batching: every shard owns one attest::VerifierBatch
  /// and device verifiers precompute lookahead rounds through it in
  /// SHA-1xN waves (verifier.hpp set_batch_engine). Wire bytes, reports
  /// and traces are byte-identical with the toggle off.
  bool mac_batch = true;
};

struct SwarmDeviceReport {
  std::size_t device = 0;
  AttestationSession::Stats stats;
  double attest_device_ms = 0.0;  // prover time spent on attestation
  /// Fraction of the horizon the device spent in (uninterruptible)
  /// attestation — the duty-cycle disruption signal fleet_health grades.
  double duty_fraction = 0.0;

  friend bool operator==(const SwarmDeviceReport&,
                         const SwarmDeviceReport&) = default;
};

struct SwarmReport {
  double horizon_ms = 0.0;
  std::vector<SwarmDeviceReport> devices;
  /// Events stranded when a shard's event budget was exhausted (0 in a
  /// healthy run; nonzero means some horizon tail was not simulated).
  std::size_t events_leftover = 0;

  std::uint64_t total_valid() const;
  std::uint64_t total_sent() const;
  double total_attest_ms() const;

  friend bool operator==(const SwarmReport&, const SwarmReport&) = default;
};

/// One device's secrets: 16 B each, a pure function of (fleet seed,
/// device id, purpose).
struct DeviceSeeds {
  crypto::Bytes key;       // K_Attest
  crypto::Bytes app;       // application image seed
  crypto::Bytes verifier;  // verifier DRBG seed
};

/// HKDF-Extract (RFC 5869, HMAC-SHA256) of a fleet seed under the salt
/// "ratt::swarm-device-v1": the PRK every device's seeds expand from.
crypto::Bytes device_seed_prk(crypto::ByteView fleet_seed);

/// Device `id`'s seeds: 16 B of HKDF-Expand(prk, label || be64(id)) with
/// label "k_attest", "app_seed" and "verifier_seed" respectively.
DeviceSeeds derive_device_seeds(crypto::ByteView prk, std::uint64_t id);

class Swarm {
 public:
  Swarm(const SwarmConfig& config, crypto::ByteView fleet_seed);
  /// Tears the shards down in parallel on the obs pool.
  ~Swarm();
  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  std::size_t size() const { return devices_.size(); }
  std::size_t shard_count() const { return shards_.size(); }

  /// The event queue owning device i's channel and session.
  EventQueue& queue_of(std::size_t device) {
    check_device(device);
    return shards_[shard_of(device)]->queue;
  }

  // Device accessors materialize the device on first touch (see the lazy
  // materialization notes above) — cheap no-ops once it exists. Every
  // accessor taking a device index throws std::out_of_range unless
  // index < size().

  /// Device i's prover, booted: a cold prover secure-boots here, on the
  /// calling thread. channel(), session(), report() and resident() never
  /// boot one — a device first driven inside a drain boots on its
  /// shard's worker.
  attest::ProverDevice& prover(std::size_t i) {
    attest::ProverDevice& p = *materialize(i).prover;
    (void)p.boot_status();  // boots a cold prover
    return p;
  }
  Channel& channel(std::size_t i) { return *materialize(i).channel; }
  AttestationSession& session(std::size_t i) {
    return *materialize(i).session;
  }
  const crypto::Bytes& device_key(std::size_t i) { return materialize(i).key; }
  /// Device i's fault tap — nullptr when the swarm runs without
  /// ratt::net (clean link, no link_for, not reliable).
  net::FaultyLink* faulty_link(std::size_t i) {
    return materialize(i).link.get();
  }

  /// Has device i been materialized yet? (Pure query — never triggers
  /// materialization; unmaterialized devices report default stats,
  /// identical to a materialized device that never saw an event.)
  bool is_materialized(std::size_t i) const {
    check_device(i);
    return devices_[i] != nullptr;
  }
  std::size_t materialized_count() const;
  /// Has device i's prover secure-booted yet? (Pure query — never
  /// materializes or boots; false for a cold device.)
  bool is_booted(std::size_t i) const {
    return is_materialized(i) && devices_[i]->prover->booted();
  }

  // Observer plan: every shard holds the obs::Observer its devices get
  // (registry, sink, profile). The attach_* calls below re-point the
  // shards and re-apply the plan to every materialized device; devices
  // materialized later get their shard's observer on creation, so the
  // attach order relative to materialization never shows in any output.

  /// Attach one registry/sink pair to the whole fleet: every prover,
  /// verifier and session gets an Observer carrying its device index, and
  /// every shard queue publishes its backlog gauges. Metrics aggregate
  /// fleet-wide; traces stay per-device via device_id. The single shared
  /// sink is NOT synchronized — use attach_sharded_observer() before
  /// run_parallel() with more than one thread (run_all() keeps such a
  /// fleet on the calling thread by itself).
  void attach_observer(obs::Registry* registry, obs::TraceSink* sink);

  /// Sharded tracing + profiling for parallel runs: every shard records
  /// into its own private RingRecorder (at most `ring_capacity` records
  /// each — a bound, not a preallocation: ring memory grows with the
  /// records held, and the worker that records them faults it in) and
  /// its own prof::ShardProfile, so worker threads never share a sink or
  /// accumulator; the shared registry only needs its thread-safe
  /// instruments. Ring evictions feed the "obs.trace.dropped" counter.
  /// After a run, merged_trace() / merged_profile() return deterministic
  /// canonical merges of all shards.
  void attach_sharded_observer(obs::Registry* registry,
                               std::size_t ring_capacity = 1 << 16);

  /// Deterministic merge of the per-shard trace rings (empty when
  /// attach_sharded_observer was not used).
  std::vector<obs::TraceRecord> merged_trace() const;

  /// Canonical merge of the per-shard phase profiles (empty table when
  /// attach_sharded_observer was not used). Byte-identical JSONL for the
  /// same seed at any thread/shard count.
  obs::prof::ProfileTable merged_profile() const;

  /// Power-trace synthesis on top of sharded observability: every shard
  /// gets its own obs::power::ShardPowerRecorder hooked to the shard's
  /// profile (phase stream) and tee'd off the shard's ring (round-close
  /// stream), and its observer re-pointed at that ring+recorder tee.
  /// Calls attach_sharded_observer() itself (keeping the attached
  /// registry, default capacity) if the swarm has no shard rings yet;
  /// call it first to pick the capacity. One recorder per shard — the
  /// same no-shared-sinks contract as the rings, so run_parallel() stays
  /// deterministic at any thread count.
  void attach_power(const obs::power::PowerTraceConfig& config =
                        obs::power::PowerTraceConfig{});

  /// Canonical merge of the per-shard completed power traces, ordered by
  /// (end_ms, device_id, round_id) — empty unless attach_power() ran.
  std::vector<obs::power::RoundTrace> merged_power_traces() const;

  /// Shard s's trace ring (nullptr unless attach_sharded_observer) — for
  /// flight-recorder style taps that need per-shard drop accounting.
  /// Throws std::out_of_range unless s < shard_count().
  const obs::RingRecorder* shard_ring(std::size_t s) const {
    return shards_.at(s)->ring.get();
  }

  /// Schedule periodic attestation for every device and drain the shards
  /// on `threads` workers (clamped to the shard count; 1 runs on the
  /// calling thread). The merged report and trace are byte-identical at
  /// any thread count for the same seed.
  SwarmReport run_parallel(double horizon_ms, std::size_t threads);

  // Stepped execution — the dashboard/analytics path. schedule() plants
  // the same periodic rounds run_parallel() would (one self-rescheduling
  // chain per device, capped at the horizon; calling schedule() again
  // with a larger horizon extends the cap and plants a second chain),
  // run_until() advances every shard one slice at a time (so a caller
  // can read rollups, quantiles and alerts between slices), and report()
  // snapshots current state.
  void schedule(double horizon_ms);
  void run_until(double until_ms);
  /// Drain every shard without scheduling anything (setup phases:
  /// recording taps, priming injections). Returns the total stranded
  /// backlog (0 = fully drained). Shards drain on the obs pool, one
  /// worker per hardware thread (obs::tail_workers(shard_count())), under
  /// run_parallel()'s contract: channel taps, scheduled callbacks and
  /// sinks belong to their device's shard and are never shared across
  /// shards. The one exception is a fleet whose observer plan holds a
  /// single sink for every shard (attach_observer with a non-null sink):
  /// that sink is not synchronized, so such a fleet drains on the
  /// calling thread. Output is byte-identical either way.
  std::size_t run_all();
  /// Report over [0, horizon_ms] from current state. events_leftover is
  /// the still-pending backlog across shards (0 after a drained run).
  SwarmReport report(double horizon_ms) const;

  /// Footprint accounting for the materialized fleet: the prover,
  /// verifier, channel and session objects (by sizeof), every
  /// materialized prover's exclusively-owned backing-store pages
  /// plus paging metadata, and — once, not once per device — the boot
  /// image pages the fleet aliases copy-on-write from the template.
  /// Unmaterialized devices cost nothing here — exactly the laziness
  /// the report is meant to audit.
  struct ResidentReport {
    std::size_t devices = 0;       // materialized device count
    std::size_t arena_bytes = 0;   // component objects (sizeof sum)
    std::size_t bus_bytes = 0;     // exclusively-owned MCU pages
    std::size_t table_bytes = 0;   // bus paging metadata
    std::size_t shared_bytes = 0;  // template pages, counted once
    std::size_t total_bytes() const {
      return arena_bytes + bus_bytes + table_bytes + shared_bytes;
    }
    double per_device_bytes() const {
      return devices == 0
                 ? 0.0
                 : static_cast<double>(total_bytes()) /
                       static_cast<double>(devices);
    }
  };
  ResidentReport resident() const;

 private:
  struct Device {
    std::size_t index = 0;
    std::size_t shard = 0;
    crypto::Bytes key;
    // Declared in reference order: the channel taps the link, the
    // verifier's clock reads the prover, and the session drives all
    // three — destruction runs session first and link last, so no
    // component outlives what it points at.
    std::unique_ptr<net::FaultyLink> link;
    std::unique_ptr<attest::ProverDevice> prover;
    std::unique_ptr<attest::Verifier> verifier;
    std::unique_ptr<Channel> channel;
    std::unique_ptr<AttestationSession> session;
  };
  struct Shard {
    EventQueue queue;
    std::size_t begin = 0;  // device index range [begin, end)
    std::size_t end = 0;
    // Materialized devices in first-touch order. A deque never moves
    // its elements, so Device addresses stay stable while the shard
    // grows mid-drain. Declared after the queue so sessions are
    // destroyed while the queue they reference is still alive.
    std::deque<Device> devices;
    // One multi-buffer MAC engine per shard (SwarmConfig::mac_batch):
    // every verifier in the shard pipelines its lookahead waves through
    // it. Shards never share one — drains are per-shard threads.
    attest::VerifierBatch batch;
    std::unique_ptr<obs::RingRecorder> ring;  // sharded-tracing mode
    std::unique_ptr<obs::prof::ShardProfile> profile;  // sharded profiling
    std::unique_ptr<obs::power::ShardPowerRecorder> power;  // attach_power
    std::unique_ptr<obs::TeeSink> power_tee;  // ring + power recorder
    // What every device of this shard observes through (device_id is
    // filled in per device).
    obs::Observer observer;
  };

  /// Throws std::out_of_range unless i < size().
  void check_device(std::size_t i) const;
  /// Shard owning device i (O(1) from the contiguous block plan).
  std::size_t shard_of(std::size_t i) const;
  /// Build device i (link, prover, verifier, channel, session) into its
  /// shard, or return it if it already exists. If a component constructor
  /// throws, nothing is recorded and the exception propagates. During a
  /// parallel drain this is only ever called from the owning shard's
  /// worker.
  Device& materialize(std::size_t i);
  void apply_observer(Device& device);
  void apply_observer_to_materialized();
  double stagger_offset(std::size_t i) const;
  /// Arm round k (1-based) of device i's lazy chain; no-op beyond the
  /// scheduled horizon.
  void arm_round(std::size_t i, std::uint64_t k);
  /// Per-shard run_all budget derived from the scheduled work (devices x
  /// expected rounds x safety factor) — a flat constant strands healthy
  /// tails at fleet scale; runaway chains still exceed any finite value.
  std::size_t shard_budget(const Shard& shard) const;

  /// Drain every shard queue on up to `threads` workers; returns the
  /// total stranded backlog.
  std::size_t drain(std::size_t threads);

  SwarmConfig config_;
  bool net_mode_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Materialized devices by index (nullptr = still cold). Raw pointers
  /// into the owning shard's deque. Distinct elements are written by
  /// distinct shard workers — never the same element from two threads.
  std::vector<Device*> devices_;
  /// device_seed_prk(fleet seed): materialize(i) expands device i's key,
  /// app and verifier seeds from it.
  crypto::Bytes device_prk_;
  /// ratt::net link and jitter seeds (32 B per device, net mode only),
  /// drawn at construction from their own DRBG stream in global device
  /// order. That stream's bytes are pinned by lossy-link goldens, so it
  /// stays a pre-drawn table rather than an HKDF derivation.
  std::vector<std::uint8_t> net_seeds_;
  /// Shared boot image + verifier reference (share_app_image mode).
  std::shared_ptr<const attest::ProverTemplate> template_;
  /// Largest horizon schedule() has seen — caps the lazy chains and
  /// sizes the drain budget.
  double scheduled_horizon_ms_ = 0.0;
};

}  // namespace ratt::sim
