// ratt::obs::power witness: featurization, envelope learn/freeze/grade
// semantics, the verifier hookup, and the clean-fleet false-positive
// sweep — many seeds, zero power.envelope_violation verdicts on healthy
// rounds (RATT_POWER_SEEDS overrides the sweep size).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "ratt/attest/verifier.hpp"
#include "ratt/obs/power/witness.hpp"
#include "ratt/obs/trace.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::obs::power {
namespace {

PhaseSegment seg(prof::Phase phase, double start_ms, double duration_ms,
                 double power_mw, double energy_mj) {
  PhaseSegment s;
  s.phase = phase;
  s.start_ms = start_ms;
  s.duration_ms = duration_ms;
  s.power_mw = power_mw;
  s.energy_mj = energy_mj;
  return s;
}

/// A canonical clean round: auth, freshness, measurement, response MAC,
/// wire wait — the protocol shape the simulator produces.
RoundTrace clean_round(double jitter_ms = 0.0) {
  RoundTrace t;
  t.device_id = 1;
  t.round_id = 99;
  t.attempts = 1;
  t.outcome = "valid";
  t.start_ms = 100.0;
  double at = t.start_ms;
  auto push = [&](prof::Phase phase, double ms, double mw) {
    t.segments.push_back(seg(phase, at, ms, mw, mw * ms / 1000.0));
    at += ms;
  };
  push(prof::Phase::kReqAuth, 0.5, 7.2);
  push(prof::Phase::kFreshness, 0.1, 7.2);
  push(prof::Phase::kMemMac, 6.0 + jitter_ms, 7.2);
  push(prof::Phase::kRespMac, 0.4, 7.2);
  push(prof::Phase::kNetWait, 4.0, 0.003);
  t.end_ms = at;
  return t;
}

TEST(Featurize, SumsPerPhaseAndPacksTheSignature) {
  RoundTrace t = clean_round();
  // A second mem_mac segment folds into the same phase bucket.
  t.segments.push_back(seg(prof::Phase::kMemMac, 111.0, 1.0, 7.2, 0.0072));
  const RoundFeatures f = featurize(t);
  const auto mem = static_cast<std::size_t>(prof::Phase::kMemMac);
  EXPECT_DOUBLE_EQ(f.phase_duration_ms[mem], 7.0);
  EXPECT_NEAR(f.phase_energy_mj[mem], 7.2 * 7.0 / 1000.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.total_duration_ms, t.duration_ms());
  EXPECT_DOUBLE_EQ(f.total_energy_mj, t.energy_mj());
  // Signature: phase ids + 1, 4 bits each, first segment in the low
  // nibble: req_auth(0) freshness(1) mem_mac(2) resp_mac(3) net_wait(4)
  // mem_mac(2) => nibbles 1,2,3,4,5,3 low-to-high = 0x354321.
  EXPECT_EQ(f.transition_signature, 0x354321u);
}

TEST(Featurize, SignatureKeepsOnlyTheFirstSixteenSegments) {
  RoundTrace t;
  for (int i = 0; i < 20; ++i) {
    t.segments.push_back(seg(prof::Phase::kOther, i, 1.0, 1.0, 0.001));
  }
  const RoundFeatures f = featurize(t);
  // 16 nibbles of kOther (id 6 + 1 = 7) — segments 17..20 don't shift.
  EXPECT_EQ(f.transition_signature, 0x7777777777777777u);
}

TEST(Envelope, UntrainedFlagsAndLearnedRoundsPass) {
  Envelope envelope;
  const RoundFeatures f = featurize(clean_round());
  EXPECT_EQ(envelope.grade(f), std::vector<std::string>{"untrained"});
  envelope.learn(f);
  EXPECT_EQ(envelope.learned(), 1u);
  EXPECT_TRUE(envelope.grade(f).empty());
}

TEST(Envelope, ToleranceWidensTheBand) {
  Envelope envelope;
  envelope.learn(featurize(clean_round()));
  // +10% on mem_mac (0.6 ms, 4.3 µJ): inside the 15% relative band and
  // the absolute floors.
  EXPECT_TRUE(envelope.grade(featurize(clean_round(0.6))).empty());
  // +10 ms of measurement: far outside every band — and the violated
  // dimensions come out in the canonical order.
  const std::vector<std::string> violated =
      envelope.grade(featurize(clean_round(10.0)));
  const std::vector<std::string> expected = {
      "energy:mem_mac", "duration:mem_mac", "energy:total",
      "duration:total"};
  EXPECT_EQ(violated, expected);
}

TEST(Envelope, UnseenTransitionSignatureViolates) {
  Envelope envelope;
  envelope.learn(featurize(clean_round()));
  RoundTrace reordered = clean_round();
  std::swap(reordered.segments[0], reordered.segments[1]);
  const std::vector<std::string> violated =
      envelope.grade(featurize(reordered));
  ASSERT_FALSE(violated.empty());
  EXPECT_EQ(violated.front(), "signature");
}

TEST(Envelope, FreezeStopsLearning) {
  Envelope envelope;
  envelope.learn(featurize(clean_round()));
  envelope.freeze();
  EXPECT_TRUE(envelope.frozen());
  envelope.learn(featurize(clean_round(10.0)));  // no-op once frozen
  EXPECT_EQ(envelope.learned(), 1u);
  EXPECT_FALSE(envelope.grade(featurize(clean_round(10.0))).empty());
}

TEST(PowerWitness, ClassKeysKeepSeparateEnvelopes) {
  PowerWitness witness;
  witness.learn(clean_round(), "class-a");
  witness.freeze();
  EXPECT_TRUE(witness.grade(clean_round(), "class-a").empty());
  EXPECT_EQ(witness.grade(clean_round(), "class-b"),
            std::vector<std::string>{"untrained"});
  ASSERT_NE(witness.envelope("class-a"), nullptr);
  EXPECT_EQ(witness.envelope("class-b"), nullptr);
  EXPECT_EQ(witness.rounds_learned(), 1u);
}

TEST(PowerWitness, GradeToEmitsTheWitnessRecord) {
  PowerWitness witness;
  witness.learn(clean_round());
  witness.freeze();
  RingRecorder ring(8);
  EXPECT_TRUE(witness.grade_to(clean_round(), ring).empty());
  EXPECT_FALSE(witness.grade_to(clean_round(10.0), ring).empty());
  EXPECT_EQ(witness.rounds_graded(), 2u);
  EXPECT_EQ(witness.violations(), 1u);

  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, "power.witness");
  EXPECT_EQ(records[0].outcome, "ok");
  EXPECT_DOUBLE_EQ(records[0].sim_time_ms, clean_round().end_ms);
  EXPECT_EQ(records[0].round_id, 99u);
  EXPECT_EQ(records[0].attempt, 1u);
  EXPECT_DOUBLE_EQ(records[0].energy_mj, clean_round().energy_mj());
  EXPECT_EQ(records[1].outcome, "violation:energy:mem_mac");
}

// --- Verifier hookup: set_power_witness arms grade_power_trace, which
// emits the witness record through the verifier's observer sink and
// keeps verifier.power.* counters. ---

TEST(VerifierWitness, GradesThroughTheAttachedObserver) {
  attest::Verifier::Config config;
  attest::Verifier verifier(crypto::from_string("verifier-witness-key"),
                            config, crypto::from_string("drbg-seed"));
  // No witness attached: an empty verdict, no counters registered.
  Registry registry;
  RingRecorder ring(8);
  Observer observer;
  observer.registry = &registry;
  observer.sink = &ring;
  observer.device_id = 1;
  verifier.set_observer(observer);
  EXPECT_TRUE(verifier.grade_power_trace(clean_round()).empty());
  EXPECT_EQ(registry.find_counter("verifier.power.rounds"), nullptr);

  PowerWitness witness;
  witness.learn(clean_round());
  witness.freeze();
  verifier.set_power_witness(&witness);
  EXPECT_TRUE(verifier.grade_power_trace(clean_round()).empty());
  const std::vector<std::string> violated =
      verifier.grade_power_trace(clean_round(10.0));
  ASSERT_FALSE(violated.empty());
  ASSERT_NE(registry.find_counter("verifier.power.rounds"), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_counter("verifier.power.rounds")->value(),
                   2.0);
  EXPECT_DOUBLE_EQ(
      registry.find_counter("verifier.power.violations")->value(), 1.0);
  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, "power.witness");
  EXPECT_EQ(records[0].outcome, "ok");
  EXPECT_NE(records[1].outcome.find("violation:"), std::string::npos);
}

// --- Clean-fleet false-positive sweep: learn on each device's first two
// rounds, grade the rest — zero violations across every seed. ---

std::size_t sweep_seeds() {
  if (const char* env = std::getenv("RATT_POWER_SEEDS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 500;
}

TEST(CleanFleetSweep, ZeroFalsePositives) {
  const std::size_t seeds = sweep_seeds();
  std::uint64_t rounds_graded = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    sim::SwarmConfig config;
    config.device_count = 2;
    config.prover.scheme = attest::FreshnessScheme::kCounter;
    config.prover.measured_bytes = 4096;
    config.attest_period_ms = 200.0;
    config.stagger_ms = 37.0;
    sim::Swarm swarm(config, crypto::from_string("power-fp-seed-" +
                                                 std::to_string(i)));
    Registry registry;
    swarm.attach_sharded_observer(&registry);
    swarm.attach_power();
    (void)swarm.run_parallel(/*horizon_ms=*/900.0, /*threads=*/1);

    PowerWitness witness;
    std::map<std::uint64_t, std::size_t> learned;
    std::vector<RoundTrace> graded;
    for (const RoundTrace& trace : swarm.merged_power_traces()) {
      if (learned[trace.device_id] < 2) {
        witness.learn(trace);
        ++learned[trace.device_id];
      } else {
        graded.push_back(trace);
      }
    }
    witness.freeze();
    ASSERT_FALSE(graded.empty()) << "seed " << i;
    for (const RoundTrace& trace : graded) {
      const std::vector<std::string> violated = witness.grade(trace);
      EXPECT_TRUE(violated.empty())
          << "seed " << i << " device " << trace.device_id << " round "
          << trace.round_id << " violated "
          << (violated.empty() ? "" : violated.front());
      ++rounds_graded;
    }
  }
  EXPECT_GT(rounds_graded, seeds);  // the sweep graded real work
}

}  // namespace
}  // namespace ratt::obs::power
