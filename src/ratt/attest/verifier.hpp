// The verifier (Vrf): issues authenticated attestation requests with a
// freshness element and validates the prover's measurement against its
// reference copy of the device memory.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "ratt/attest/message.hpp"
#include "ratt/crypto/drbg.hpp"
#include "ratt/obs/observer.hpp"
#include "ratt/obs/power/witness.hpp"

namespace ratt::attest {

class VerifierBatch;

class Verifier {
 public:
  struct Config {
    crypto::MacAlgorithm mac_alg = crypto::MacAlgorithm::kHmacSha1;
    FreshnessScheme scheme = FreshnessScheme::kCounter;
    /// Sign requests with K_Attest? (Sec. 4.1 mitigation.)
    bool authenticate_requests = true;
    /// Verifier-side clock (ticks) for timestamp requests; must be
    /// (nominally) synchronized with the prover's clock.
    std::function<std::uint64_t()> clock;
    /// Incremental attestation (DESIGN.md §4i): require generation-bound
    /// responses, track the prover's evidence generation, and reset the
    /// retained state (forcing a full fallback) after any invalid
    /// incremental response. false = the naive verifier of the rollback
    /// regression suite.
    bool bind_generation = true;
  };

  Verifier(Bytes k_attest, const Config& config, ByteView drbg_seed);

  /// Attach telemetry: verifier.requests / verifier.checks.* counters
  /// (registry only — round-level spans are the session's job).
  void set_observer(const obs::Observer& observer);

  /// Build the next request: fresh nonce / next counter / current time.
  AttestRequest make_request();

  /// What the verifier expects the prover's memory to contain.
  void set_reference_memory(Bytes memory) {
    set_reference_memory(std::make_shared<const Bytes>(std::move(memory)));
  }

  /// Fleet path: thousands of verifiers checking the same application
  /// image (Swarm share_app_image) share one reference copy instead of
  /// holding measured_bytes each.
  void set_reference_memory(std::shared_ptr<const Bytes> memory) {
    reference_memory_ = std::move(memory);
    reference_source_ = nullptr;
    clear_tags();
  }

  /// Lazy variant: `source` runs once, on the first read of the
  /// reference (the first check_response() or check_incremental()), and
  /// its result is kept. A Swarm verifier names its prover's
  /// image_reference() here, so materializing a device does not boot it.
  void set_reference_source(
      std::function<std::shared_ptr<const Bytes>()> source) {
    reference_source_ = std::move(source);
    clear_tags();
  }

  /// Validate a response to `request` (the verifier recomputes the MAC
  /// over its reference memory).
  bool check_response(const AttestRequest& request,
                      const AttestResponse& response) const;

  /// Build the next incremental request: same freshness/challenge flow
  /// as make_request(), plus the retained evidence generation (0 on
  /// first contact or after an invalid response — both force the prover
  /// into a full fallback).
  IncAttestRequest make_incremental_request();

  /// Validate an incremental response: sanity-check the changed-page
  /// list, enforce the generation discipline (when bind_generation), and
  /// recompute the fold MAC over the verifier's own expected per-page
  /// tag table — the prover's claimed page list is absorbed, never
  /// trusted. On success the retained generation resyncs to new_gen; on
  /// failure (bind_generation) it resets to 0, forcing a full fallback.
  bool check_incremental(const IncAttestRequest& request,
                         const IncAttestResponse& response);

  /// The evidence generation retained from the last valid incremental
  /// response (0 = none; the next request demands a full fallback).
  std::uint64_t retained_generation() const { return retained_gen_; }

  /// Arm the power-trace side channel: once a PowerWitness is attached,
  /// grade_power_trace() runs each round's synthesized waveform against
  /// the witness's clean envelope — the check that catches MAC-passing
  /// tampers (Adv_roam restore, skipped measurement). The witness is
  /// NOT owned; pass nullptr to detach.
  void set_power_witness(obs::power::PowerWitness* witness) {
    power_witness_ = witness;
  }

  /// Grade one completed round's power trace (no-op empty verdict when
  /// no witness is attached). When a trace sink was attached via
  /// set_observer, the verdict is also emitted as a "power.witness"
  /// record for the alert engine. Returns the violated dimensions.
  std::vector<std::string> grade_power_trace(
      const obs::power::RoundTrace& trace,
      const std::string& class_key = "fleet");

  std::uint64_t counter() const { return counter_; }

  /// Attach (or detach, with nullptr) a shared multi-buffer MAC engine.
  /// When attached — and the configuration is batchable (HMAC-SHA1,
  /// freshness that does not read a live clock) — make_request() and
  /// check_response() are served from a lookahead window of
  /// VerifierBatch::kLanes rounds. Once every drawn round has been
  /// issued, the next make_request() draws the next 8 rounds over them
  /// and MACs their request headers in one multi-buffer wave. The
  /// expected-response tags wait for the first check_response() that
  /// finds its round untagged, which tags every untagged round in the
  /// window in one wave over the reference memory current at that check.
  /// A check finds its round by (freshness, challenge) value; a tag
  /// depends only on those, the key and the reference, so a round that
  /// is never answered needs no clean-up — the next fill overwrites it.
  /// Every observable output (wire bytes, counter(), DRBG draw order,
  /// telemetry) is byte-identical to the scalar path; non-batchable
  /// calls fall back to it transparently.
  ///
  /// verifier.batch.* accounting: a fill adds one to `fills` and the
  /// rounds it drew to `lanes`. A check whose freshness echo matches
  /// counts a `hit` when its round is in the window and a `miss` when it
  /// recomputes the tag scalar: a late answer to a round a later fill
  /// overwrote, or a scalar-built or forged request. A reference change
  /// (set_reference_memory / set_reference_source) clears the window's
  /// tags, so the next check re-tags over the new reference.
  void set_batch_engine(VerifierBatch* batch) { batch_ = batch; }

 private:
  /// Next 64-bit word from the buffered DRBG stream (nonces and
  /// challenges). Drawing a 256-byte block per DRBG call instead of 8
  /// bytes per round amortizes HMAC-DRBG's per-call state update — the
  /// dominant crypto cost of a fleet round after the MACs themselves.
  std::uint64_t next_word();

  /// The scheme's next freshness element; a counter scheme advances
  /// `counter` (counter_, or fill_pipeline()'s lookahead copy).
  std::uint64_t draw_freshness(std::uint64_t& counter);

  /// Count a check's verdict in verifier.checks.* and return it.
  bool tally(bool ok) const;

  /// The current reference memory, resolving a pending
  /// set_reference_source() first.
  const Bytes& reference() const;

  /// (Re)build page_macs_ over the current reference memory.
  void ensure_page_macs();

  /// One round of the lookahead window (slot = draw number mod 8).
  /// kEmpty never matches a check: not drawn yet, or taken by
  /// make_incremental_request(), whose rounds are never tagged.
  struct PipeEntry {
    std::uint64_t freshness;
    std::uint64_t challenge;
    std::uint8_t req_mac[20];
    std::uint8_t expected[20];
    enum State : std::uint8_t { kEmpty, kDrawn, kTagged } state;
  };
  static constexpr std::uint8_t kWindow = 8;

  /// True when the attached engine can serve this configuration.
  bool batchable() const;

  /// Draw the next kWindow rounds into the window and MAC their
  /// request headers in one multi-buffer wave.
  void fill_pipeline();

  /// Compute, in one multi-buffer wave over the current reference
  /// memory, the expected tag of every drawn round that has none.
  void fill_expected() const;

  /// A reference change: every tagged round goes back to kDrawn.
  void clear_tags();

  /// Issue the next drawn round (next_ < kWindow), keeping the
  /// freshness/challenge stream in scalar order for both builders.
  PipeEntry& pop_pipeline();

  Bytes key_;
  Config config_;
  crypto::HmacDrbg drbg_;
  std::array<std::uint8_t, 256> rand_buf_{};
  std::size_t rand_pos_ = rand_buf_.size();  // empty until first draw
  std::unique_ptr<crypto::Mac> mac_;
  std::uint64_t counter_ = 0;
  // Mutable: the const check path resolves a pending reference source.
  mutable std::shared_ptr<const Bytes> reference_memory_ =
      std::make_shared<const Bytes>();
  mutable std::function<std::shared_ptr<const Bytes>()> reference_source_;
  // Incremental state: the retained evidence generation and the lazily
  // built per-page tag table over the reference memory (invalidated when
  // the reference pointer changes).
  std::uint64_t retained_gen_ = 0;
  Bytes page_macs_;
  const Bytes* page_macs_src_ = nullptr;
  // Cached instruments (nullable); pointees are mutated from the const
  // check path, which is fine — they live in the injected registry.
  obs::Counter* obs_requests_ = nullptr;
  obs::Counter* obs_valid_ = nullptr;
  obs::Counter* obs_invalid_ = nullptr;
  // Power-witness plumbing: the registry/sink are remembered so the
  // verifier.power.* counters register lazily, on the first graded trace
  // — fleets that never arm the witness keep their registry export
  // byte-identical to before.
  obs::Registry* obs_registry_ = nullptr;
  obs::TraceSink* obs_sink_ = nullptr;
  obs::power::PowerWitness* power_witness_ = nullptr;
  obs::Counter* obs_power_rounds_ = nullptr;
  obs::Counter* obs_power_violations_ = nullptr;
  // Lookahead window (see set_batch_engine); slots [0, next_) are
  // issued, [next_, kWindow) drawn but not yet issued. Mutable: the
  // const check_response() tags the window.
  VerifierBatch* batch_ = nullptr;
  mutable std::array<PipeEntry, kWindow> window_{};
  std::uint8_t next_ = kWindow;
};

}  // namespace ratt::attest
