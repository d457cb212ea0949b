#include "ratt/net/retransmitter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ratt::net {

namespace {

/// Closed rounds retained for duplicate-response matching. A response
/// older than this many rounds falls back to kUnknown — bounded memory
/// beats perfect attribution of arbitrarily ancient duplicates.
constexpr std::size_t kClosedHistory = 64;

}  // namespace

double RetryPolicy::timeout_for_attempt(std::uint32_t attempt) const {
  double timeout = base_timeout_ms;
  for (std::uint32_t i = 1; i < attempt; ++i) timeout *= backoff_factor;
  return std::min(timeout, max_timeout_ms);
}

double derive_timeout_ms(const timing::DeviceTimingModel& model,
                         crypto::MacAlgorithm alg,
                         std::size_t measured_bytes, double round_trip_ms,
                         double margin) {
  const double work =
      model.request_auth_ms(alg) +
      model.memory_attestation_ms(alg, 16 + measured_bytes);
  return round_trip_ms + margin * work;
}

std::string to_string(RoundOutcome outcome) {
  switch (outcome) {
    case RoundOutcome::kValid:
      return "valid";
    case RoundOutcome::kUnreachable:
      return "unreachable";
  }
  return "unknown";
}

Retransmitter::Retransmitter(const RetryPolicy& policy,
                             crypto::ByteView jitter_seed)
    : policy_(policy), drbg_(jitter_seed) {
  if (policy_.max_attempts == 0) policy_.max_attempts = 1;
  if (policy_.base_timeout_ms <= 0.0) {
    throw std::invalid_argument(
        "Retransmitter: base_timeout_ms must be positive (derive one "
        "with net::derive_timeout_ms)");
  }
}

void Retransmitter::set_hooks(ScheduleFn schedule, SendFn send,
                              CloseFn close, TimeoutFn on_timeout) {
  schedule_ = std::move(schedule);
  send_ = std::move(send);
  close_ = std::move(close);
  on_timeout_ = std::move(on_timeout);
}

Retransmitter::Round* Retransmitter::find(std::uint64_t round) {
  for (Round& r : rounds_) {
    if (r.id == round) return &r;
  }
  return nullptr;
}

std::uint64_t Retransmitter::start_round() {
  if (!schedule_ || !send_ || !close_) {
    throw std::logic_error("Retransmitter: hooks not set");
  }
  prune();
  Round round;
  round.id = next_round_++;
  rounds_.push_back(std::move(round));
  ++open_;
  send_attempt(rounds_.back());
  return rounds_.back().id;
}

void Retransmitter::send_attempt(Round& round) {
  const std::uint32_t attempt = ++round.attempts;
  const std::uint64_t key = send_(round.id, attempt);
  // `round` may dangle after send_ (a reentrant start_round would grow
  // rounds_); re-find defensively before touching it again.
  Round* self = find(round.id);
  if (self == nullptr || !self->open) return;
  self->keys.push_back(key);
  double timeout = policy_.timeout_for_attempt(attempt);
  if (policy_.jitter_ms > 0.0) {
    const auto bound_us =
        static_cast<std::uint64_t>(std::llround(policy_.jitter_ms * 1000.0));
    if (bound_us > 0) {
      timeout += static_cast<double>(drbg_.uniform(bound_us)) / 1000.0;
    }
  }
  const std::uint64_t round_id = self->id;
  schedule_(timeout,
            [this, round_id, attempt] { on_timer(round_id, attempt); });
}

void Retransmitter::on_timer(std::uint64_t round_id, std::uint32_t attempt) {
  Round* round = find(round_id);
  // Stale timer: the round already closed (valid response beat the
  // timeout) or was pruned. Not a timeout — nothing happened on the wire.
  if (round == nullptr || !round->open) return;
  if (round->attempts != attempt) return;  // a newer attempt owns the timer
  if (on_timeout_) on_timeout_(round_id, attempt);
  if (round->attempts >= policy_.max_attempts) {
    close(*round, RoundOutcome::kUnreachable);
    return;
  }
  // `round` may be invalidated by the send hook; send_attempt re-finds.
  send_attempt(*round);
}

Retransmitter::Hit Retransmitter::lookup(std::uint64_t key) {
  // Scan newest-first: a key collision (e.g. FreshnessScheme::kNone,
  // where every request echoes 0) then resolves to the latest round.
  for (auto it = rounds_.rbegin(); it != rounds_.rend(); ++it) {
    if (std::find(it->keys.begin(), it->keys.end(), key) ==
        it->keys.end()) {
      continue;
    }
    return Hit{it->open ? Match::kOpen : Match::kClosed, it->id};
  }
  return Hit{Match::kUnknown, 0};
}

void Retransmitter::close_valid(std::uint64_t round_id) {
  Round* round = find(round_id);
  if (round == nullptr || !round->open) return;
  close(*round, RoundOutcome::kValid);
}

void Retransmitter::close(Round& round, RoundOutcome outcome) {
  round.open = false;
  --open_;
  close_(round.id, outcome, round.attempts);
}

bool Retransmitter::round_open(std::uint64_t round) const {
  for (const Round& r : rounds_) {
    if (r.id == round) return r.open;
  }
  return false;
}

void Retransmitter::prune() {
  // Drop closed rounds beyond the history bound, oldest first. Open
  // rounds are never pruned.
  std::size_t closed = rounds_.size() - open_;
  auto it = rounds_.begin();
  while (closed > kClosedHistory && it != rounds_.end()) {
    if (!it->open) {
      it = rounds_.erase(it);
      --closed;
    } else {
      ++it;
    }
  }
}

}  // namespace ratt::net
