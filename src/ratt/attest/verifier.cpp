#include "ratt/attest/verifier.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "ratt/attest/verifier_batch.hpp"
#include "ratt/crypto/ct.hpp"
#include "ratt/crypto/sha1xn.hpp"

namespace ratt::attest {

Verifier::Verifier(Bytes k_attest, const Config& config, ByteView drbg_seed)
    : key_(std::move(k_attest)),
      config_(config),
      drbg_(drbg_seed),
      mac_(crypto::make_mac(config.mac_alg, key_)) {
  if (config_.scheme == FreshnessScheme::kTimestamp && !config_.clock) {
    throw std::invalid_argument(
        "Verifier: timestamp scheme requires a clock");
  }
}

void Verifier::set_observer(const obs::Observer& observer) {
  obs_registry_ = observer.registry;
  obs_sink_ = observer.sink;
  // verifier.power.* re-register lazily in the new registry.
  obs_power_rounds_ = nullptr;
  obs_power_violations_ = nullptr;
  if (observer.registry == nullptr) {
    obs_requests_ = nullptr;
    obs_valid_ = nullptr;
    obs_invalid_ = nullptr;
    return;
  }
  obs_requests_ = &observer.registry->counter("verifier.requests");
  obs_valid_ = &observer.registry->counter("verifier.checks.valid");
  obs_invalid_ = &observer.registry->counter("verifier.checks.invalid");
}

std::vector<std::string> Verifier::grade_power_trace(
    const obs::power::RoundTrace& trace, const std::string& class_key) {
  if (power_witness_ == nullptr) return {};
  std::vector<std::string> violated;
  if (obs_sink_ != nullptr) {
    violated = power_witness_->grade_to(trace, *obs_sink_, class_key);
  } else {
    violated = power_witness_->grade(trace, class_key);
  }
  if (obs_registry_ != nullptr) {
    // Lazy registration: verifier.power.* appears only once a trace is
    // actually graded, keeping witness-free registry exports unchanged.
    if (obs_power_rounds_ == nullptr) {
      obs_power_rounds_ = &obs_registry_->counter("verifier.power.rounds");
      obs_power_violations_ =
          &obs_registry_->counter("verifier.power.violations");
    }
    obs_power_rounds_->inc();
    if (!violated.empty()) obs_power_violations_->inc();
  }
  return violated;
}

std::uint64_t Verifier::next_word() {
  if (rand_pos_ + 8 > rand_buf_.size()) {
    drbg_.generate_into(rand_buf_);
    rand_pos_ = 0;
  }
  const std::uint64_t word = crypto::load_le64(rand_buf_.data() + rand_pos_);
  rand_pos_ += 8;
  return word;
}

std::uint64_t Verifier::draw_freshness(std::uint64_t& counter) {
  switch (config_.scheme) {
    case FreshnessScheme::kNone:
      return 0;
    case FreshnessScheme::kNonce:
      return next_word();
    case FreshnessScheme::kCounter:
      return ++counter;
    case FreshnessScheme::kTimestamp:
      return config_.clock();
  }
  return 0;
}

bool Verifier::batchable() const {
  // Timestamp freshness reads a live clock at make_request time, so a
  // precomputed round would freeze it — observable. Everything else
  // (none/nonce/counter) draws values the scalar path would produce in
  // the same order.
  return batch_ != nullptr && crypto::MacBatch::supports(config_.mac_alg) &&
         config_.scheme != FreshnessScheme::kTimestamp;
}

void Verifier::fill_pipeline() {
  static_assert(kWindow <= VerifierBatch::kLanes, "one wave per window");
  // Draw the next rounds' freshness/challenge exactly as the scalar
  // path would, in order, over the rounds issued before them; counter_
  // itself advances only as each round is issued, so counter() never
  // runs ahead. (batchable() excludes timestamps, so no draw here reads
  // the clock.)
  std::uint64_t ctr = counter_;
  for (PipeEntry& e : window_) {
    e.freshness = draw_freshness(ctr);
    e.challenge = next_word();
    e.state = PipeEntry::kDrawn;
  }
  next_ = 0;

  // Wave 1: request-authentication MACs over the 19-byte headers. Where
  // the lanes run one after another, make_request() MACs each header as
  // it issues the round instead, so a round never issued costs nothing.
  if (config_.authenticate_requests && crypto::Sha1xN::lanes_parallel()) {
    crypto::MacBatch& mb = batch_->engine();
    mb.set_key_all(key_);
    std::uint8_t headers[kWindow][AttestRequest::kHeaderSize];
    crypto::MacBatch::LaneMsg msgs[kWindow];
    std::uint8_t tags[kWindow][crypto::MacBatch::kTagSize];
    AttestRequest proto;
    proto.scheme = config_.scheme;
    proto.mac_alg = config_.mac_alg;
    for (std::size_t k = 0; k < kWindow; ++k) {
      proto.freshness = window_[k].freshness;
      proto.challenge = window_[k].challenge;
      proto.header_into(headers[k]);
      msgs[k] = {ByteView(headers[k], AttestRequest::kHeaderSize),
                 ByteView()};
    }
    mb.compute_many(msgs, kWindow, tags);
    for (std::size_t k = 0; k < kWindow; ++k) {
      std::memcpy(window_[k].req_mac, tags[k], crypto::MacBatch::kTagSize);
    }
  }

  batch_->note_fill(kWindow);
}

const Bytes& Verifier::reference() const {
  if (reference_source_) {
    reference_memory_ = reference_source_();
    reference_source_ = nullptr;
  }
  return *reference_memory_;
}

Bytes Verifier::expected_tag(std::uint64_t challenge,
                             std::uint64_t freshness) const {
  // Streamed over the reference memory: no challenge || freshness ||
  // memory copy per tag.
  const Bytes& ref = reference();
  mac_->init(16 + ref.size());
  std::uint8_t head[16];
  crypto::store_le64(head, challenge);
  crypto::store_le64(head + 8, freshness);
  mac_->update(ByteView(head, 16));
  mac_->update(ref);
  return mac_->finish();
}

void Verifier::fill_expected(PipeEntry& read) const {
  if (!crypto::Sha1xN::lanes_parallel()) {
    // Lanes would run one after another: a speculative tag costs a full
    // MAC over the reference, so tag only the round being read.
    const Bytes tag = expected_tag(read.challenge, read.freshness);
    std::memcpy(read.expected, tag.data(), crypto::MacBatch::kTagSize);
    read.state = PipeEntry::kTagged;
    batch_->note_tags(1);
    return;
  }
  // Wave 2, deferred from fill_pipeline to the first check that needs a
  // tag: the expected measurements over challenge || freshness ||
  // reference memory for every drawn round (issued or not) that has
  // none yet. Every lane streams the shared reference as its tail — no
  // concatenated copies.
  PipeEntry* lacking[kWindow];
  std::size_t lanes = 0;
  for (PipeEntry& e : window_) {
    if (e.state == PipeEntry::kDrawn) lacking[lanes++] = &e;
  }
  const Bytes& ref = reference();
  std::uint8_t heads[kWindow][16];
  crypto::MacBatch::LaneMsg msgs[kWindow];
  std::uint8_t tags[kWindow][crypto::MacBatch::kTagSize];
  for (std::size_t k = 0; k < lanes; ++k) {
    crypto::store_le64(heads[k], lacking[k]->challenge);
    crypto::store_le64(heads[k] + 8, lacking[k]->freshness);
    msgs[k] = {ByteView(heads[k], 16), ByteView(ref)};
  }
  crypto::MacBatch& mb = batch_->engine();
  mb.set_key_all(key_);
  mb.compute_many(msgs, lanes, tags);
  for (std::size_t k = 0; k < lanes; ++k) {
    std::memcpy(lacking[k]->expected, tags[k], crypto::MacBatch::kTagSize);
    lacking[k]->state = PipeEntry::kTagged;
  }
  batch_->note_tags(lanes);
}

void Verifier::clear_tags() {
  for (PipeEntry& e : window_) {
    if (e.state == PipeEntry::kTagged) e.state = PipeEntry::kDrawn;
  }
}

Verifier::PipeEntry& Verifier::pop_pipeline() {
  PipeEntry& e = window_[next_++];
  if (config_.scheme == FreshnessScheme::kCounter) ++counter_;
  return e;
}

AttestRequest Verifier::make_request() {
  if (obs_requests_ != nullptr) obs_requests_->inc();
  AttestRequest req;
  req.scheme = config_.scheme;
  req.mac_alg = config_.mac_alg;
  if (batchable()) {
    if (next_ == kWindow) fill_pipeline();
    const PipeEntry& e = pop_pipeline();
    req.freshness = e.freshness;
    req.challenge = e.challenge;
    if (config_.authenticate_requests && crypto::Sha1xN::lanes_parallel()) {
      req.mac.assign(e.req_mac, e.req_mac + crypto::MacBatch::kTagSize);
      return req;
    }
  } else {
    req.freshness = draw_freshness(counter_);
    req.challenge = next_word();
  }
  if (config_.authenticate_requests) {
    req.mac = mac_->compute(req.header_bytes());
  }
  return req;
}

IncAttestRequest Verifier::make_incremental_request() {
  if (obs_requests_ != nullptr) obs_requests_->inc();
  IncAttestRequest req;
  req.scheme = config_.scheme;
  req.mac_alg = config_.mac_alg;
  req.since_gen = retained_gen_;
  if (batchable() && next_ < kWindow) {
    // Consume the next drawn round so the freshness/challenge stream
    // stays in scalar order; the 28-byte incremental header MACs scalar
    // (its since_gen is not known at fill time), and the slot is emptied
    // so no wave ever tags it.
    PipeEntry& e = pop_pipeline();
    req.freshness = e.freshness;
    req.challenge = e.challenge;
    e.state = PipeEntry::kEmpty;
  } else {
    req.freshness = draw_freshness(counter_);
    req.challenge = next_word();
  }
  if (config_.authenticate_requests) {
    req.mac = mac_->compute(req.header_bytes());
  }
  return req;
}

bool Verifier::tally(bool ok) const {
  if (obs_valid_ != nullptr) (ok ? obs_valid_ : obs_invalid_)->inc();
  return ok;
}

bool Verifier::check_response(const AttestRequest& request,
                              const AttestResponse& response) const {
  if (response.freshness != request.freshness) return tally(false);
  if (batch_ != nullptr) {
    // Newest first: an answer most often belongs to the round issued last.
    for (int k = 0; k < kWindow; ++k) {
      PipeEntry& e = window_[(next_ + kWindow - 1 - k) % kWindow];
      if (e.state == PipeEntry::kEmpty || e.freshness != request.freshness ||
          e.challenge != request.challenge) {
        continue;
      }
      if (e.state == PipeEntry::kDrawn) fill_expected(e);
      batch_->note_hit();
      return tally(crypto::ct_equal(
          ByteView(e.expected, crypto::MacBatch::kTagSize),
          response.measurement));
    }
    // Not in the window (overwritten by a later fill, or never drawn by
    // it): recompute scalar below.
    batch_->note_miss();
  }
  return tally(crypto::ct_equal(
      expected_tag(request.challenge, request.freshness),
      response.measurement));
}

void Verifier::ensure_page_macs() {
  const Bytes& ref = reference();
  if (page_macs_src_ == &ref) return;
  constexpr std::size_t kPage = 4096;
  const std::size_t pages = (ref.size() + kPage - 1) / kPage;
  const std::size_t tag_size = mac_->tag_size();
  page_macs_.assign(pages * tag_size, 0);
  for (std::size_t p = 0; p < pages; ++p) {
    const std::size_t off = p * kPage;
    const std::size_t len = std::min(kPage, ref.size() - off);
    std::uint8_t head[9];
    head[0] = 'P';
    crypto::store_le32(head + 1, static_cast<std::uint32_t>(p));
    crypto::store_le32(head + 5, static_cast<std::uint32_t>(len));
    mac_->init(9 + len);
    mac_->update(ByteView(head, 9));
    mac_->update(ByteView(ref.data() + off, len));
    const Bytes tag = mac_->finish();
    std::copy(tag.begin(), tag.end(), page_macs_.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              p * tag_size));
  }
  page_macs_src_ = &ref;
}

bool Verifier::check_incremental(const IncAttestRequest& request,
                                 const IncAttestResponse& response) {
  // Any invalid incremental response destroys trust in the retained
  // state: reset it so the next request demands a full fallback. The
  // naive (unbound) verifier keeps trusting — that is exactly the gap
  // the rollback regression suite demonstrates.
  const auto fail = [&] {
    if (config_.bind_generation) retained_gen_ = 0;
    return tally(false);
  };

  if (response.freshness != request.freshness) return fail();
  if (response.generation_bound() != config_.bind_generation) return fail();
  if (response.new_gen == 0) return fail();

  constexpr std::size_t kPage = 4096;
  const std::size_t pages_total = (reference().size() + kPage - 1) / kPage;
  // Changed-page list sanity: bounded, in range, strictly increasing —
  // the absorb below assumes a canonical list, and a hostile frame must
  // not smuggle duplicates or out-of-range indices past it.
  if (response.changed_pages.size() > pages_total) return fail();
  for (std::size_t i = 0; i < response.changed_pages.size(); ++i) {
    if (response.changed_pages[i] >= pages_total) return fail();
    if (i > 0 &&
        response.changed_pages[i] <= response.changed_pages[i - 1]) {
      return fail();
    }
  }

  if (response.full_fallback()) {
    // A fallback re-MACs everything: its page list must say so.
    if (response.changed_pages.size() != pages_total) return fail();
  } else {
    // A delta is only acceptable against state we actually retain.
    if (request.since_gen == 0) return fail();
    if (config_.bind_generation) {
      if (response.base_gen != request.since_gen) return fail();
      if (response.new_gen < response.base_gen) return fail();
      // The generation advances iff evidence was refreshed.
      if ((response.new_gen == response.base_gen) !=
          response.changed_pages.empty()) {
        return fail();
      }
    }
  }

  // Recompute the fold MAC over the verifier's own expected tag table
  // (built from the reference memory): the prover's pages must MAC to
  // exactly what an untampered image would, whether cached or refreshed.
  ensure_page_macs();
  const bool bound = config_.bind_generation;
  const std::size_t fold_len = 22 + (bound ? 16 : 0) +
                               4 * response.changed_pages.size() +
                               page_macs_.size();
  mac_->init(fold_len);
  std::uint8_t fold_head[38];
  fold_head[0] = 'I';
  fold_head[1] = response.flags;
  crypto::store_le64(fold_head + 2, request.challenge);
  crypto::store_le64(fold_head + 10, request.freshness);
  std::size_t head_len = 18;
  if (bound) {
    crypto::store_le64(fold_head + 18, response.base_gen);
    crypto::store_le64(fold_head + 26, response.new_gen);
    head_len = 34;
  }
  crypto::store_le32(fold_head + head_len,
                     static_cast<std::uint32_t>(
                         response.changed_pages.size()));
  head_len += 4;
  mac_->update(ByteView(fold_head, head_len));
  for (const std::uint32_t p : response.changed_pages) {
    std::uint8_t idx[4];
    crypto::store_le32(idx, p);
    mac_->update(ByteView(idx, 4));
  }
  mac_->update(page_macs_);
  if (!crypto::ct_equal(mac_->finish(), response.measurement)) {
    return fail();
  }
  retained_gen_ = response.new_gen;
  return tally(true);
}

}  // namespace ratt::attest
