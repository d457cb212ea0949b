// AttestationSession: binds a Verifier and a ProverDevice to the
// Dolev-Yao channel and the event queue, so whole protocol runs execute
// under simulated network conditions (and under an adversary tap).
//
// Timeline discipline: the event queue is the master clock; before the
// prover processes a delivery, its device time is advanced to the event
// time, so device clocks, timestamps, and the verifier's clock all agree
// on one timeline — up to the device time the prover spends computing.
//
// Plain, incremental and reliable rounds share one round path, typed by
// message: dispatch() a request, deliver() it to the prover, settle()
// the response. Only what really differs is per mode: the request the
// verifier mints, the retransmitter's duplicate check and round close,
// and the incremental stats.
#pragma once

#include <cstdint>

#include <memory>
#include <variant>
#include <vector>

#include "ratt/attest/prover.hpp"
#include "ratt/attest/verifier.hpp"
#include "ratt/net/retransmitter.hpp"
#include "ratt/obs/observer.hpp"
#include "ratt/sim/channel.hpp"
#include "ratt/sim/event.hpp"

namespace ratt::sim {

class AttestationSession {
 public:
  struct Stats {
    std::uint64_t requests_sent = 0;
    std::uint64_t requests_delivered = 0;
    std::uint64_t responses_received = 0;
    std::uint64_t responses_valid = 0;
    std::uint64_t responses_invalid = 0;
    std::uint64_t prover_rejects = 0;  // freshness / MAC rejections
    std::uint64_t responses_missing = 0;  // timed out without a response
    // Reject-reason breakdown (sums to prover_rejects) — the per-device
    // request mix an operator needs to tell a replay flood (not-fresh)
    // from a forgery flood (bad-request-mac) from budget exhaustion.
    std::uint64_t rejects_bad_mac = 0;
    std::uint64_t rejects_not_fresh = 0;
    std::uint64_t rejects_rate_limited = 0;
    std::uint64_t rejects_other = 0;
    /// Device time the prover spent on this session's deliveries (ms) —
    /// with the horizon, the duty-cycle fraction lost to attestation.
    double prover_attest_ms = 0.0;
    /// Frames that failed to parse (bit corruption on the wire).
    std::uint64_t requests_malformed = 0;
    std::uint64_t responses_malformed = 0;
    // Reliable-exchange accounting (all zero unless enable_reliable()).
    std::uint64_t rounds_started = 0;
    std::uint64_t retransmits = 0;          // attempts beyond a round's first
    std::uint64_t timeouts = 0;             // attempt timers that expired
    std::uint64_t duplicate_responses = 0;  // late copies after round close
    std::uint64_t rounds_unreachable = 0;   // retry budget exhausted
    // Incremental accounting (all zero unless set_incremental(true)).
    std::uint64_t inc_rounds = 0;           // incremental responses checked
    std::uint64_t inc_full_fallbacks = 0;   // valid rounds that re-MACed all
    std::uint64_t inc_pages_refreshed = 0;  // pages re-MACed in valid rounds

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  /// Wires the channel sinks. The session must outlive queue execution.
  AttestationSession(EventQueue& queue, Channel& channel,
                     attest::ProverDevice& prover,
                     attest::Verifier& verifier);

  /// Attach telemetry. Publishes session.* counters, a
  /// session.round_trip_ms histogram and a session.pending gauge, and
  /// emits one "verifier.round" span per closed round (valid / invalid /
  /// unmatched / missing). The verifier-side check cost in those spans is
  /// modeled with the reference-clock timing model (the operator
  /// recomputes the same MAC over its reference memory copy).
  void set_observer(const obs::Observer& observer);

  /// Schedule verifier-initiated attestation rounds every `period_ms`
  /// until `horizon_ms`.
  void schedule_rounds(double period_ms, double horizon_ms);

  /// Send one request now. In reliable mode this opens a retransmitting
  /// round instead of a fire-and-forget send.
  void send_request();

  /// Reliable exchange over a lossy link (net::Retransmitter): every
  /// send_request() becomes a round with per-attempt timeouts, bounded
  /// retries (each retry re-MACs a FRESH request — a legitimate replay
  /// the prover must accept exactly once), duplicate-response
  /// suppression, and a terminal unreachable outcome. A policy with
  /// base_timeout_ms <= 0 gets one derived from the prover's timing
  /// model and the channel latency (net::derive_timeout_ms). Requires a
  /// freshness scheme with distinct per-request elements to attribute
  /// responses (nonce/counter/timestamp; kNone matches newest-first).
  void enable_reliable(const net::RetryPolicy& policy,
                       crypto::ByteView jitter_seed);
  bool reliable() const { return rtx_ != nullptr; }

  /// Incremental rounds (DESIGN.md §4i): send_request() issues
  /// "changed-since generation" requests and validates the folded
  /// per-page evidence instead of the full-measurement MAC. Mutually
  /// exclusive with reliable mode (the retransmitter's rounds only know
  /// the full message pair).
  void set_incremental(bool on);
  bool incremental() const { return incremental_; }

  /// Expire pending requests older than `timeout_ms` (counted in
  /// responses_missing); lets an operator alarm on silent provers or
  /// adversarial drops. Returns how many expired in this call. In
  /// reliable mode rounds own their timers — this is then a no-op.
  std::size_t check_timeouts(double timeout_ms);

  const Stats& stats() const { return stats_; }

 private:
  /// The round path (see top): settle() pairs a response with the
  /// pending request of its own type and freshness.
  template <typename Request>
  void dispatch(const Request& request, std::uint64_t round,
                std::uint64_t round_id, std::uint32_t attempt);
  template <typename Request>
  void deliver(const crypto::Bytes& wire);
  template <typename Response>
  void settle(const crypto::Bytes& wire);
  std::uint64_t send_attempt(std::uint64_t round, std::uint32_t attempt);
  void on_round_closed(std::uint64_t round, net::RoundOutcome outcome,
                       std::uint32_t attempts);
  void sync_prover_time();
  void publish_pending();
  void observe_round(const char* outcome, double round_trip_ms,
                     double verifier_ms, std::size_t wire_bytes,
                     std::uint64_t round_id = 0, std::uint32_t attempt = 0);
  void observe_span(const char* kind, const char* outcome,
                    std::size_t wire_bytes, std::uint64_t round_id = 0,
                    std::uint32_t attempt = 0, double verifier_ms = 0.0);
  void profile_net_wait(double round_trip_ms, std::uint64_t round_id);
  void cache_net_instruments();
  double verifier_check_ms() const;
  /// Causal id of a reliable-mode round: the Retransmitter's monotonic
  /// per-session round number is the session_seq.
  std::uint64_t reliable_round_id(std::uint64_t rtx_round) const;

  EventQueue* queue_;
  Channel* channel_;
  attest::ProverDevice* prover_;
  attest::Verifier* verifier_;
  Stats stats_;
  double prover_time_ms_ = 0.0;  // device time already accounted
  // A request awaiting its response, as sent (a response only matches
  // its own type), with its send time and round. In reliable mode every
  // attempt of an open round has an entry.
  struct Pending {
    std::variant<attest::AttestRequest, attest::IncAttestRequest> request;
    double sent_ms;
    std::uint64_t round = 0;     // Retransmitter round (reliable mode)
    std::uint64_t round_id = 0;  // causal id (prof::make_round_id)
    std::uint32_t attempt = 1;   // wire attempt within the round
  };
  std::vector<Pending> pending_;
  std::unique_ptr<net::Retransmitter> rtx_;
  bool incremental_ = false;
  /// Plain-mode logical-round counter: the session_seq feeding
  /// prof::make_round_id. Reliable mode uses the Retransmitter's round
  /// number instead — both are per-session monotonic values, never a
  /// global atomic, so sharded runs stay byte-identical.
  std::uint64_t round_seq_ = 0;

  obs::Observer obs_{};
  obs::Histogram* obs_round_trip_ = nullptr;
  obs::Gauge* obs_pending_ = nullptr;
  obs::Counter* obs_rounds_valid_ = nullptr;
  obs::Counter* obs_rounds_invalid_ = nullptr;
  obs::Counter* obs_rounds_missing_ = nullptr;
  obs::Counter* obs_retransmits_ = nullptr;
  obs::Counter* obs_timeouts_ = nullptr;
  obs::Counter* obs_duplicates_ = nullptr;
  obs::Counter* obs_unreachable_ = nullptr;
};

}  // namespace ratt::sim
