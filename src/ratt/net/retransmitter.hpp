// ratt::net — reliable request/response engine over a lossy link.
//
// The attestation protocol is a single request/response exchange; on a
// faulty link (FaultyLink, or a future real socket backend) a lost
// packet must not silently kill the round. The Retransmitter manages the
// verifier-side round state machine:
//
//   * per-attempt timeout, derived from timing::Profiles (the prover's
//     full-memory MAC time plus the round trip — see derive_timeout_ms),
//   * bounded retries with exponential backoff plus DRBG jitter (so a
//     fleet of verifiers never synchronizes its retry storms),
//   * every retry sends a FRESH request — the verifier re-MACs a new
//     nonce/counter/timestamp instead of resending bytes, so a
//     retransmission is a *legitimate replay* the prover's freshness
//     policy must accept exactly once per distinct request,
//   * duplicate-response suppression: once a round closed, late copies
//     (network duplicates, or responses to superseded attempts) are
//     counted and ignored,
//   * a terminal kUnreachable outcome after the attempt budget is spent,
//     which feeds fleet_health's graceful degradation.
//
// The engine is transport-agnostic: it talks to the world through three
// injected hooks (schedule a timer, send a fresh attempt, close a
// round), so it carries no dependency on the discrete-event simulator —
// sim::AttestationSession wires the hooks onto its EventQueue/Channel,
// and a socket backend would wire them onto real timers.
//
// Lifetime: pending timers capture `this`; the owner must keep the
// Retransmitter alive until the scheduler can no longer fire them (the
// same contract AttestationSession already has with its EventQueue).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/mac.hpp"
#include "ratt/timing/timing.hpp"

namespace ratt::net {

struct RetryPolicy {
  /// Total send attempts per round (1 = no retries).
  std::uint32_t max_attempts = 4;
  /// Attempt-1 timeout. <= 0 means the caller must derive one (see
  /// derive_timeout_ms) before handing the policy over.
  double base_timeout_ms = 250.0;
  /// Timeout of attempt n is base * backoff^(n-1), capped at max.
  double backoff_factor = 2.0;
  double max_timeout_ms = 10'000.0;
  /// Uniform DRBG jitter in [0, jitter_ms) added to every timeout so
  /// concurrent rounds decorrelate. 0 disables the draw entirely.
  double jitter_ms = 0.0;

  /// Backoff schedule without jitter (attempt is 1-based).
  double timeout_for_attempt(std::uint32_t attempt) const;

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// A per-request timeout grounded in the timing model: the request and
/// response wire time (`round_trip_ms`), plus `margin` times the prover's
/// actual work — request authentication plus the memory MAC over
/// 16 + measured_bytes (challenge || freshness || memory, the same
/// message the prover MACs). With the paper's 512 KB / 24 MHz reference
/// that is dominated by the ~754 ms measurement, which is why a fixed
/// small timeout would declare every healthy prover unreachable.
double derive_timeout_ms(const timing::DeviceTimingModel& model,
                         crypto::MacAlgorithm alg,
                         std::size_t measured_bytes, double round_trip_ms,
                         double margin = 1.5);

enum class RoundOutcome : std::uint8_t {
  kValid,        // a response matched an attempt and validated
  kUnreachable,  // attempt budget exhausted without a valid response
};

std::string to_string(RoundOutcome outcome);

class Retransmitter {
 public:
  /// Schedule `fire` to run `delay_ms` from now.
  using ScheduleFn =
      std::function<void(double delay_ms, std::function<void()> fire)>;
  /// Send a fresh attempt for `round`; returns the match key the
  /// response will echo (the request's freshness element). `attempt` is
  /// 1-based.
  using SendFn =
      std::function<std::uint64_t(std::uint64_t round, std::uint32_t attempt)>;
  /// A round closed; `attempts` is how many sends it consumed.
  using CloseFn = std::function<void(std::uint64_t round,
                                     RoundOutcome outcome,
                                     std::uint32_t attempts)>;
  /// An attempt timer expired on a still-open round (fires before the
  /// retransmission — or before the kUnreachable close — it triggers).
  using TimeoutFn =
      std::function<void(std::uint64_t round, std::uint32_t attempt)>;

  Retransmitter(const RetryPolicy& policy, crypto::ByteView jitter_seed);

  /// All hooks must be set before start_round(). `on_timeout` is
  /// optional.
  void set_hooks(ScheduleFn schedule, SendFn send, CloseFn close,
                 TimeoutFn on_timeout = nullptr);

  /// Open a round: sends attempt 1 and arms its timer. Returns the round
  /// id (monotonically increasing from 0).
  std::uint64_t start_round();

  enum class Match : std::uint8_t {
    kUnknown,  // key belongs to no tracked round (forged/ancient)
    kOpen,     // key belongs to an open round
    kClosed,   // key belongs to a closed round — a duplicate
  };
  struct Hit {
    Match match = Match::kUnknown;
    std::uint64_t round = 0;
  };

  /// Which round does a response with this key belong to? A kClosed hit
  /// is a duplicate (suppression is the caller's only obligation: count
  /// it, drop it).
  Hit lookup(std::uint64_t key);

  /// The caller validated a response for this (open) round.
  void close_valid(std::uint64_t round);

  bool round_open(std::uint64_t round) const;
  std::size_t open_rounds() const { return open_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  struct Round {
    std::uint64_t id = 0;
    std::vector<std::uint64_t> keys;  // one per attempt, in send order
    std::uint32_t attempts = 0;
    bool open = true;
  };

  Round* find(std::uint64_t round);
  void send_attempt(Round& round);
  void on_timer(std::uint64_t round_id, std::uint32_t attempt);
  void close(Round& round, RoundOutcome outcome);
  void prune();

  RetryPolicy policy_;
  crypto::HmacDrbg drbg_;
  ScheduleFn schedule_;
  SendFn send_;
  CloseFn close_;
  TimeoutFn on_timeout_;
  std::vector<Round> rounds_;  // open + a bounded tail of closed rounds
  std::uint64_t next_round_ = 0;
  std::size_t open_ = 0;
};

}  // namespace ratt::net
