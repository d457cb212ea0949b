// Channel-integrated protocol runs: honest operation and wire attacks
// through the AttestationSession driver.
#include <gtest/gtest.h>

#include "ratt/sim/session.hpp"

namespace ratt::sim {
namespace {

using attest::ClockDesign;
using attest::FreshnessScheme;
using attest::ProverConfig;
using attest::ProverDevice;
using attest::Verifier;

crypto::Bytes key() {
  return crypto::from_hex("909192939495969798999a9b9c9d9e9f");
}

class SessionFixture : public ::testing::Test {
 protected:
  SessionFixture() {
    ProverConfig config;
    config.scheme = FreshnessScheme::kCounter;
    config.measured_bytes = 1024;
    prover_ = std::make_unique<ProverDevice>(
        config, key(), crypto::from_string("session-app"));

    Verifier::Config vc;
    vc.scheme = FreshnessScheme::kCounter;
    verifier_ = std::make_unique<Verifier>(key(), vc,
                                           crypto::from_string("session-v"));
    verifier_->set_reference_memory(prover_->reference_memory());

    channel_ = std::make_unique<Channel>(queue_, /*latency_ms=*/2.0);
    session_ = std::make_unique<AttestationSession>(queue_, *channel_,
                                                    *prover_, *verifier_);
  }

  EventQueue queue_;
  std::unique_ptr<ProverDevice> prover_;
  std::unique_ptr<Verifier> verifier_;
  std::unique_ptr<Channel> channel_;
  std::unique_ptr<AttestationSession> session_;
};

TEST_F(SessionFixture, PeriodicRoundsAllValidate) {
  session_->schedule_rounds(100.0, 1000.0);
  queue_.run_all();
  const auto& stats = session_->stats();
  EXPECT_EQ(stats.requests_sent, 10u);
  EXPECT_EQ(stats.requests_delivered, 10u);
  EXPECT_EQ(stats.responses_valid, 10u);
  EXPECT_EQ(stats.responses_invalid, 0u);
  EXPECT_EQ(stats.prover_rejects, 0u);
  EXPECT_EQ(prover_->anchor().attestations_performed(), 10u);
}

TEST_F(SessionFixture, DeviceTimeTracksSimulationTime) {
  session_->schedule_rounds(100.0, 500.0);
  queue_.run_all();
  // The prover's clock advanced roughly to the simulation horizon (plus
  // device compute time).
  EXPECT_GE(prover_->mcu().now_ms(), 500.0);
  EXPECT_LT(prover_->mcu().now_ms(), 600.0);
}

TEST_F(SessionFixture, AdversaryDropsRequests) {
  RecordingTap tap;
  int seen = 0;
  tap.set_to_prover_script([&seen](const TappedMessage&) {
    // Drop every other request (ids are shared across directions, so
    // count to-prover messages explicitly).
    ChannelTap::Disposition d;
    d.deliver = (seen++ % 2) == 0;
    return d;
  });
  channel_->set_tap(&tap);
  session_->schedule_rounds(100.0, 1000.0);
  queue_.run_all();
  const auto& stats = session_->stats();
  EXPECT_EQ(stats.requests_sent, 10u);
  EXPECT_LT(stats.requests_delivered, 10u);
  // Dropped requests simply never complete; delivered ones validate.
  EXPECT_EQ(stats.responses_valid, stats.requests_delivered);
}

TEST_F(SessionFixture, AdversaryReplaysViaInjection) {
  RecordingTap tap;
  channel_->set_tap(&tap);
  session_->schedule_rounds(100.0, 300.0);
  queue_.run_all();
  ASSERT_GE(tap.recorded_to_prover().size(), 1u);

  // Replay the first recorded request; the prover rejects it.
  const auto before = prover_->anchor().attestations_performed();
  channel_->inject_to_prover(tap.recorded_to_prover()[0].payload, 10.0);
  queue_.run_all();
  EXPECT_EQ(prover_->anchor().attestations_performed(), before);
  EXPECT_EQ(session_->stats().prover_rejects, 1u);
}

TEST_F(SessionFixture, AdversaryInjectsGarbage) {
  session_->schedule_rounds(100.0, 200.0);
  channel_->inject_to_prover(crypto::from_string("not a request"), 50.0);
  queue_.run_all();
  // Garbage is dropped at parse; honest rounds unaffected.
  EXPECT_EQ(session_->stats().responses_valid, 2u);
}

TEST_F(SessionFixture, DelayedResponseStillValidates) {
  RecordingTap tap;
  tap.set_to_verifier_script([](const TappedMessage&) {
    ChannelTap::Disposition d;
    d.extra_delay_ms = 500.0;  // slow the response
    return d;
  });
  channel_->set_tap(&tap);
  session_->send_request();
  queue_.run_all();
  EXPECT_EQ(session_->stats().responses_valid, 1u);
}

TEST_F(SessionFixture, TimeoutsDetectDroppedRequests) {
  RecordingTap tap;
  tap.set_to_prover_script([](const TappedMessage&) {
    ChannelTap::Disposition d;
    d.deliver = false;
    return d;
  });
  channel_->set_tap(&tap);
  session_->send_request();
  session_->send_request();
  queue_.run_all();
  // Nothing came back; before the timeout nothing is missing yet.
  EXPECT_EQ(session_->check_timeouts(1000.0), 0u);
  queue_.schedule_in(2000.0, [] {});
  queue_.run_all();
  EXPECT_EQ(session_->check_timeouts(1000.0), 2u);
  EXPECT_EQ(session_->stats().responses_missing, 2u);
  // Idempotent: already-expired requests are gone.
  EXPECT_EQ(session_->check_timeouts(1000.0), 0u);
}

TEST_F(SessionFixture, TimeoutsSpareInFlightRequests) {
  session_->send_request();
  EXPECT_EQ(session_->check_timeouts(1000.0), 0u);
  queue_.run_all();  // response arrives normally
  EXPECT_EQ(session_->stats().responses_valid, 1u);
  queue_.schedule_in(5000.0, [] {});
  queue_.run_all();
  EXPECT_EQ(session_->check_timeouts(1000.0), 0u);  // nothing pending
  EXPECT_EQ(session_->stats().responses_missing, 0u);
}

// A forged response of the other mode's type, injected at 1 ms while the
// session's only round is in flight: it must stay unmatched (one invalid
// response) and leave the genuine round to validate. Responses match a
// pending round by type and freshness — an AttestResponse echoing
// freshness 0 is no answer to an incremental round.
struct ForgedFrameCase {
  const char* name;
  bool incremental;
};

void PrintTo(const ForgedFrameCase& c, std::ostream* os) { *os << c.name; }

class ForgedResponseType : public ::testing::TestWithParam<ForgedFrameCase> {
};

TEST_P(ForgedResponseType, StaysUnmatchedAndGenuineRoundValidates) {
  const bool incremental = GetParam().incremental;
  ProverConfig config;
  config.scheme = FreshnessScheme::kCounter;
  config.measured_bytes = 1024;
  config.enable_incremental = incremental;
  ProverDevice prover(config, key(), crypto::from_string("session-app"));
  Verifier::Config vc;
  vc.scheme = FreshnessScheme::kCounter;
  Verifier verifier(key(), vc, crypto::from_string("session-v"));
  verifier.set_reference_memory(prover.reference_memory());
  EventQueue queue;
  Channel channel(queue, /*latency_ms=*/2.0);
  AttestationSession session(queue, channel, prover, verifier);
  session.set_incremental(incremental);

  session.send_request();
  if (incremental) {
    attest::AttestResponse forged;
    forged.freshness = 0;
    forged.measurement = crypto::Bytes(20, 0xee);
    channel.inject_to_verifier(forged.to_bytes(), 1.0);
  } else {
    attest::IncAttestResponse forged;
    forged.freshness = verifier.counter();  // the live round's element
    forged.new_gen = 1;
    forged.measurement = crypto::Bytes(20, 0xee);
    channel.inject_to_verifier(forged.to_bytes(), 1.0);
  }
  queue.run_all();

  const auto& stats = session.stats();
  EXPECT_EQ(stats.responses_received, 2u);
  EXPECT_EQ(stats.responses_valid, 1u);
  EXPECT_EQ(stats.responses_invalid, 1u);  // the forged frame, unmatched
  EXPECT_EQ(stats.inc_rounds, incremental ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, ForgedResponseType,
    ::testing::Values(ForgedFrameCase{"AttestResponseIntoIncremental", true},
                      ForgedFrameCase{"IncAttestResponseIntoPlain", false}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace ratt::sim
