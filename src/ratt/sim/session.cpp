#include "ratt/sim/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "ratt/obs/prof/profile.hpp"

namespace ratt::sim {

AttestationSession::AttestationSession(EventQueue& queue, Channel& channel,
                                       attest::ProverDevice& prover,
                                       attest::Verifier& verifier)
    : queue_(&queue),
      channel_(&channel),
      prover_(&prover),
      verifier_(&verifier) {
  channel_->set_prover_sink([this](const crypto::Bytes& wire) {
    if (attest::is_inc_request_frame(wire)) {
      deliver<attest::IncAttestRequest>(wire);
    } else {
      deliver<attest::AttestRequest>(wire);
    }
  });
  channel_->set_verifier_sink([this](const crypto::Bytes& wire) {
    if (attest::is_inc_response_frame(wire)) {
      settle<attest::IncAttestResponse>(wire);
    } else {
      settle<attest::AttestResponse>(wire);
    }
  });
}

void AttestationSession::set_observer(const obs::Observer& observer) {
  obs_ = observer;
  if (obs_.registry == nullptr) {
    obs_round_trip_ = nullptr;
    obs_pending_ = nullptr;
    obs_rounds_valid_ = nullptr;
    obs_rounds_invalid_ = nullptr;
    obs_rounds_missing_ = nullptr;
    obs_retransmits_ = nullptr;
    obs_timeouts_ = nullptr;
    obs_duplicates_ = nullptr;
    obs_unreachable_ = nullptr;
    return;
  }
  obs::Registry& reg = *obs_.registry;
  obs_round_trip_ = &reg.histogram("session.round_trip_ms");
  obs_pending_ = &reg.gauge("session.pending");
  obs_rounds_valid_ = &reg.counter("session.rounds.valid");
  obs_rounds_invalid_ = &reg.counter("session.rounds.invalid");
  obs_rounds_missing_ = &reg.counter("session.rounds.missing");
  cache_net_instruments();
}

void AttestationSession::cache_net_instruments() {
  // net.* instruments appear only for reliable sessions, so plain
  // sessions keep their registry export byte-identical to before.
  if (rtx_ == nullptr || obs_.registry == nullptr) return;
  obs::Registry& reg = *obs_.registry;
  obs_retransmits_ = &reg.counter("net.retransmits");
  obs_timeouts_ = &reg.counter("net.timeouts");
  obs_duplicates_ = &reg.counter("net.duplicate_responses");
  obs_unreachable_ = &reg.counter("net.rounds.unreachable");
}

void AttestationSession::observe_round(const char* outcome,
                                       double round_trip_ms,
                                       double verifier_ms,
                                       std::size_t wire_bytes,
                                       std::uint64_t round_id,
                                       std::uint32_t attempt) {
  observe_span("verifier.round", outcome, wire_bytes, round_id, attempt,
               verifier_ms);
  if (obs_round_trip_ != nullptr && round_trip_ms >= 0.0) {
    obs_round_trip_->observe(round_trip_ms);
  }
}

void AttestationSession::observe_span(const char* kind, const char* outcome,
                                      std::size_t wire_bytes,
                                      std::uint64_t round_id,
                                      std::uint32_t attempt,
                                      double verifier_ms) {
  if (obs_.sink == nullptr) return;
  obs::TraceRecord rec;
  rec.sim_time_ms = queue_->now_ms();
  rec.device_id = obs_.device_id;
  rec.kind = kind;
  rec.outcome = outcome;
  rec.verifier_ms = verifier_ms;
  rec.bytes = wire_bytes;
  rec.round_id = round_id;
  rec.attempt = attempt;
  obs_.sink->record(rec);
}

void AttestationSession::publish_pending() {
  if (obs_pending_ != nullptr) {
    obs_pending_->set(static_cast<double>(pending_.size()));
  }
}

std::uint64_t AttestationSession::reliable_round_id(
    std::uint64_t rtx_round) const {
  return obs::prof::make_round_id(obs_.device_id, rtx_round);
}

void AttestationSession::profile_net_wait(double round_trip_ms,
                                          std::uint64_t round_id) {
  if (obs_.profile == nullptr || round_trip_ms < 0.0) return;
  // The whole round trip is wire + queueing time: prover compute never
  // advances the simulation clock (it accrues on the device's own
  // prover_time_ms_ ledger), so sim-time latency is what the verifier
  // waited on the network. The device idles through it — energy accrues
  // at sleep power.
  const timing::DeviceTimingModel& tm = prover_->timing_model();
  const double wait_ms = std::max(0.0, round_trip_ms);
  obs::prof::PhaseSample sample;
  sample.phase = obs::prof::Phase::kNetWait;
  sample.device_id = obs_.device_id;
  sample.round_id = round_id;
  sample.sim_time_ms = queue_->now_ms();  // the wait ends right now
  sample.cycles = tm.cycles(wait_ms);
  sample.duration_ms = wait_ms;
  sample.energy_mj = obs_.power.sleep_mj(wait_ms);
  obs_.profile->record(sample);
}

double AttestationSession::verifier_check_ms() const {
  // The operator's check recomputes the prover's MAC over its reference
  // memory copy — model its cost at the reference clock.
  return timing::DeviceTimingModel().memory_attestation_ms(
      prover_->config().mac_alg, 16 + prover_->config().measured_bytes);
}

void AttestationSession::sync_prover_time() {
  // Bring the device up to the simulation clock (it was idling / doing
  // its primary task since the last event).
  const double now = queue_->now_ms();
  if (now > prover_time_ms_) {
    prover_->idle_ms(now - prover_time_ms_);
    prover_time_ms_ = now;
  }
}

void AttestationSession::retire(const Pending& p) {
  if (const auto* request = std::get_if<attest::AttestRequest>(&p.request)) {
    verifier_->retire(*request);
  }
}

void AttestationSession::schedule_rounds(double period_ms,
                                         double horizon_ms) {
  if (period_ms <= 0.0) return;
  // Multiplicative round times: `t += period` accumulates floating-point
  // drift (after ~10^6 rounds the boundary alignment obs::power replay
  // depends on is gone); k * period reproduces every round time exactly.
  for (std::uint64_t k = 1;; ++k) {
    const double t = static_cast<double>(k) * period_ms;
    if (t > horizon_ms) break;
    queue_->schedule_at(t, [this] { send_request(); });
  }
}

void AttestationSession::set_incremental(bool on) {
  if (on && rtx_ != nullptr) {
    throw std::logic_error(
        "AttestationSession: incremental mode conflicts with reliable mode");
  }
  incremental_ = on;
}

void AttestationSession::enable_reliable(const net::RetryPolicy& policy,
                                         crypto::ByteView jitter_seed) {
  if (incremental_) {
    throw std::logic_error(
        "AttestationSession: reliable mode conflicts with incremental mode");
  }
  net::RetryPolicy effective = policy;
  if (effective.base_timeout_ms <= 0.0) {
    effective.base_timeout_ms = net::derive_timeout_ms(
        timing::DeviceTimingModel(), prover_->config().mac_alg,
        prover_->config().measured_bytes, 2.0 * channel_->latency_ms());
  }
  rtx_ = std::make_unique<net::Retransmitter>(effective, jitter_seed);
  rtx_->set_hooks(
      [this](double delay_ms, std::function<void()> fire) {
        queue_->schedule_in(delay_ms, std::move(fire));
      },
      [this](std::uint64_t round, std::uint32_t attempt) {
        return send_attempt(round, attempt);
      },
      [this](std::uint64_t round, net::RoundOutcome outcome,
             std::uint32_t attempts) {
        on_round_closed(round, outcome, attempts);
      },
      [this](std::uint64_t round, std::uint32_t attempt) {
        ++stats_.timeouts;
        if (obs_timeouts_ != nullptr) obs_timeouts_->inc();
        observe_span("net.timeout", "expired", 0, reliable_round_id(round),
                     attempt);
      });
  cache_net_instruments();
}

template <typename Request>
void AttestationSession::dispatch(const Request& request, std::uint64_t round,
                                  std::uint64_t round_id,
                                  std::uint32_t attempt) {
  pending_.push_back(
      Pending{request, queue_->now_ms(), round, round_id, attempt});
  ++stats_.requests_sent;
  publish_pending();
  channel_->verifier_send(request.to_bytes());
}

std::uint64_t AttestationSession::send_attempt(std::uint64_t round,
                                               std::uint32_t attempt) {
  sync_prover_time();
  // Every attempt is a FRESH request: re-MACed nonce/counter/timestamp,
  // so the prover's freshness policy sees a legitimate new element
  // instead of a replayed one.
  const attest::AttestRequest request = verifier_->make_request();
  const std::uint64_t round_id = reliable_round_id(round);
  if (attempt > 1) {
    ++stats_.retransmits;
    if (obs_retransmits_ != nullptr) obs_retransmits_->inc();
    observe_span("net.retry", "sent", request.wire_size(), round_id, attempt);
  }
  dispatch(request, round, round_id, attempt);
  return request.freshness;
}

void AttestationSession::on_round_closed(std::uint64_t round,
                                         net::RoundOutcome outcome,
                                         std::uint32_t attempts) {
  // Superseded attempts of this round no longer await a response.
  const auto removed = std::erase_if(pending_, [&](const Pending& p) {
    if (p.round != round) return false;
    retire(p);
    return true;
  });
  if (removed > 0) publish_pending();
  if (outcome == net::RoundOutcome::kUnreachable) {
    ++stats_.rounds_unreachable;
    if (obs_unreachable_ != nullptr) obs_unreachable_->inc();
    if (obs_rounds_missing_ != nullptr) obs_rounds_missing_->inc();
    observe_round("unreachable", -1.0, 0.0, 0, reliable_round_id(round),
                  attempts);
  }
}

void AttestationSession::send_request() {
  if (rtx_ != nullptr) {
    ++stats_.rounds_started;
    rtx_->start_round();
    return;
  }
  sync_prover_time();
  const std::uint64_t round_id =
      obs::prof::make_round_id(obs_.device_id, round_seq_++);
  if (incremental_) {
    dispatch(verifier_->make_incremental_request(), 0, round_id, 1);
  } else {
    dispatch(verifier_->make_request(), 0, round_id, 1);
  }
}

template <typename Request>
void AttestationSession::deliver(const crypto::Bytes& wire) {
  constexpr bool kInc = std::is_same_v<Request, attest::IncAttestRequest>;
  sync_prover_time();
  const auto request = Request::from_bytes(wire);
  if (!request.has_value()) {
    ++stats_.requests_malformed;  // bit corruption on the wire
    return;
  }
  ++stats_.requests_delivered;
  // Recover the causal round of this delivery: the request we sent (and
  // its round id / attempt) is still pending. A request the session never
  // sent — injected flood traffic, corrupted frames that happen to parse
  // — matches nothing and gets the "no round" context.
  obs::RoundContext round;
  if (obs_.enabled()) {
    const auto pit = std::find_if(
        pending_.begin(), pending_.end(), [&](const Pending& p) {
          const Request* sent = std::get_if<Request>(&p.request);
          return sent != nullptr && *sent == *request;
        });
    if (pit != pending_.end()) {
      round.round_id = pit->round_id;
      round.attempt = pit->attempt;
    }
  }
  attest::AttestOutcome outcome;
  if constexpr (kInc) {
    outcome = prover_->handle_incremental(*request, round);
  } else {
    outcome = prover_->handle(*request, round);
  }
  prover_time_ms_ += outcome.device_ms;  // the prover advanced device time
  stats_.prover_attest_ms += outcome.device_ms;
  if (outcome.status != attest::AttestStatus::kOk) {
    ++stats_.prover_rejects;
    switch (outcome.status) {
      case attest::AttestStatus::kBadRequestMac:
        ++stats_.rejects_bad_mac;
        break;
      case attest::AttestStatus::kNotFresh:
        ++stats_.rejects_not_fresh;
        break;
      case attest::AttestStatus::kRateLimited:
        ++stats_.rejects_rate_limited;
        break;
      default:
        ++stats_.rejects_other;
        break;
    }
    return;
  }
  if constexpr (kInc) {
    channel_->prover_send(outcome.inc_response.to_bytes());
  } else {
    channel_->prover_send(outcome.response.to_bytes());
  }
}

template <typename Response>
void AttestationSession::settle(const crypto::Bytes& wire) {
  constexpr bool kInc = std::is_same_v<Response, attest::IncAttestResponse>;
  using Request = std::conditional_t<kInc, attest::IncAttestRequest,
                                     attest::AttestRequest>;
  const auto response = Response::from_bytes(wire);
  if (!response.has_value()) {
    ++stats_.responses_malformed;  // bit corruption on the wire
    return;
  }
  ++stats_.responses_received;
  if constexpr (!kInc) {
    if (rtx_ != nullptr) {
      const net::Retransmitter::Hit hit = rtx_->lookup(response->freshness);
      if (hit.match == net::Retransmitter::Match::kClosed) {
        // A late copy of an already-settled round: count it, drop it.
        // The round's verdict must never change.
        ++stats_.duplicate_responses;
        if (obs_duplicates_ != nullptr) obs_duplicates_->inc();
        observe_span("net.duplicate", "suppressed", wire.size(),
                     reliable_round_id(hit.round));
        return;
      }
    }
  }
  // A response answers the pending request of its own type carrying its
  // freshness element; anything else (forged, of the other mode, or for
  // a round the retransmitter never opened) is unmatched.
  const auto it = std::find_if(
      pending_.begin(), pending_.end(), [&](const Pending& p) {
        const Request* sent = std::get_if<Request>(&p.request);
        return sent != nullptr && sent->freshness == response->freshness;
      });
  if (it == pending_.end()) {
    ++stats_.responses_invalid;
    observe_round("unmatched", -1.0, 0.0, wire.size());
    return;
  }
  const Request& request = std::get<Request>(it->request);
  const double verifier_ms = obs_.enabled() ? verifier_check_ms() : 0.0;
  const double round_trip_ms = queue_->now_ms() - it->sent_ms;
  bool valid = false;
  if constexpr (kInc) {
    ++stats_.inc_rounds;
    valid = verifier_->check_incremental(request, *response);
    if (valid) {
      if (response->full_fallback()) ++stats_.inc_full_fallbacks;
      stats_.inc_pages_refreshed += response->changed_pages.size();
    }
  } else {
    valid = verifier_->check_response(request, *response);
  }
  ++(valid ? stats_.responses_valid : stats_.responses_invalid);
  obs::Counter* rounds = valid ? obs_rounds_valid_ : obs_rounds_invalid_;
  if (rounds != nullptr) rounds->inc();
  // Profile before the trace record: the closing "verifier.round" span
  // finalizes the round's power trace, so its net_wait phase must land
  // first. The profile hook is not a trace sink — log bytes unchanged.
  if (valid) profile_net_wait(round_trip_ms, it->round_id);
  observe_round(valid ? "valid" : "invalid", round_trip_ms, verifier_ms,
                wire.size(), it->round_id, it->attempt);
  if (valid && rtx_ != nullptr) {
    // Closing the round drops all of its pending attempts, this one too.
    rtx_->close_valid(it->round);
  } else {
    // Reliable mode keeps a round open past a bad MAC (e.g. corrupted in
    // flight): only this attempt is discarded, and a pending retry can
    // still recover the round.
    retire(*it);
    pending_.erase(it);
    publish_pending();
  }
}

std::size_t AttestationSession::check_timeouts(double timeout_ms) {
  if (rtx_ != nullptr) return 0;  // rounds own their timers
  const double now = queue_->now_ms();
  std::size_t expired = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->sent_ms >= timeout_ms) {
      ++stats_.responses_missing;
      ++expired;
      if (obs_rounds_missing_ != nullptr) obs_rounds_missing_->inc();
      observe_round("missing", -1.0, 0.0, 0, it->round_id, it->attempt);
      retire(*it);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (expired > 0) publish_pending();
  return expired;
}

}  // namespace ratt::sim
