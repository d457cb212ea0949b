// Retransmitter round state machine, driven by a hand-cranked scheduler
// so every timer firing is explicit.
#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "ratt/net/retransmitter.hpp"

namespace ratt::net {
namespace {

crypto::Bytes seed() { return crypto::from_string("rtx-test"); }

/// Deterministic manual scheduler: collects (delay, fire) pairs; the
/// test decides when each fires.
struct FakeScheduler {
  struct Timer {
    double delay_ms;
    std::function<void()> fire;
  };
  std::deque<Timer> timers;

  Retransmitter::ScheduleFn hook() {
    return [this](double delay_ms, std::function<void()> fire) {
      timers.push_back({delay_ms, std::move(fire)});
    };
  }
  /// Fire the oldest pending timer.
  void fire_next() {
    ASSERT_FALSE(timers.empty());
    auto t = std::move(timers.front());
    timers.pop_front();
    t.fire();
  }
};

/// Standard harness: keys are minted sequentially from 100.
struct Harness {
  FakeScheduler sched;
  std::uint64_t next_key = 100;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sends;
  std::vector<std::pair<std::uint64_t, RoundOutcome>> closes;
  std::vector<std::uint32_t> timeouts;
  Retransmitter rtx;

  explicit Harness(RetryPolicy policy) : rtx(policy, seed()) {
    rtx.set_hooks(
        sched.hook(),
        [this](std::uint64_t round, std::uint32_t attempt) {
          sends.emplace_back(round, attempt);
          return next_key++;
        },
        [this](std::uint64_t round, RoundOutcome outcome, std::uint32_t) {
          closes.emplace_back(round, outcome);
        },
        [this](std::uint64_t, std::uint32_t attempt) {
          timeouts.push_back(attempt);
        });
  }
};

TEST(RetryPolicyTest, BackoffScheduleCapsAtMax) {
  RetryPolicy p;
  p.base_timeout_ms = 100.0;
  p.backoff_factor = 2.0;
  p.max_timeout_ms = 350.0;
  EXPECT_DOUBLE_EQ(p.timeout_for_attempt(1), 100.0);
  EXPECT_DOUBLE_EQ(p.timeout_for_attempt(2), 200.0);
  EXPECT_DOUBLE_EQ(p.timeout_for_attempt(3), 350.0);  // capped
  EXPECT_DOUBLE_EQ(p.timeout_for_attempt(4), 350.0);
}

TEST(DeriveTimeoutTest, GrowsWithMemoryAndCoversRtt) {
  const timing::DeviceTimingModel model;
  const double small = derive_timeout_ms(
      model, crypto::MacAlgorithm::kHmacSha1, 16 * 1024, 4.0);
  const double large = derive_timeout_ms(
      model, crypto::MacAlgorithm::kHmacSha1, 512 * 1024, 4.0);
  EXPECT_GT(small, 4.0);  // always above the bare RTT
  EXPECT_GT(large, small);
  // The paper's 512 KB / 24 MHz HMAC-SHA1 reference point is ~754 ms of
  // prover work; with the default 1.5 margin the timeout must cover it.
  EXPECT_GT(large, 754.0);
}

TEST(RetransmitterTest, RejectsNonPositiveBaseTimeout) {
  RetryPolicy p;
  p.base_timeout_ms = 0.0;
  EXPECT_THROW(Retransmitter(p, seed()), std::invalid_argument);
}

TEST(RetransmitterTest, ThrowsWithoutHooks) {
  Retransmitter rtx(RetryPolicy{}, seed());
  EXPECT_THROW(rtx.start_round(), std::logic_error);
}

TEST(RetransmitterTest, ResponseBeforeTimeoutClosesValid) {
  Harness h(RetryPolicy{});
  const std::uint64_t round = h.rtx.start_round();
  ASSERT_EQ(h.sends.size(), 1u);
  EXPECT_EQ(h.sends[0], (std::pair<std::uint64_t, std::uint32_t>{round, 1}));

  const auto hit = h.rtx.lookup(100);
  EXPECT_EQ(hit.match, Retransmitter::Match::kOpen);
  EXPECT_EQ(hit.round, round);
  h.rtx.close_valid(round);
  ASSERT_EQ(h.closes.size(), 1u);
  EXPECT_EQ(h.closes[0].second, RoundOutcome::kValid);
  EXPECT_FALSE(h.rtx.round_open(round));
  EXPECT_EQ(h.rtx.open_rounds(), 0u);

  // The armed timer is now stale: firing it is a no-op.
  h.sched.fire_next();
  EXPECT_TRUE(h.timeouts.empty());
  EXPECT_EQ(h.sends.size(), 1u);
  EXPECT_EQ(h.closes.size(), 1u);
}

TEST(RetransmitterTest, TimeoutRetransmitsWithFreshKey) {
  Harness h(RetryPolicy{});
  const std::uint64_t round = h.rtx.start_round();
  h.sched.fire_next();  // attempt-1 timer expires
  ASSERT_EQ(h.sends.size(), 2u);
  EXPECT_EQ(h.sends[1], (std::pair<std::uint64_t, std::uint32_t>{round, 2}));
  EXPECT_EQ(h.timeouts, (std::vector<std::uint32_t>{1}));
  // Both keys attribute to the same (still open) round.
  EXPECT_EQ(h.rtx.lookup(100).match, Retransmitter::Match::kOpen);
  EXPECT_EQ(h.rtx.lookup(101).match, Retransmitter::Match::kOpen);
  EXPECT_EQ(h.rtx.lookup(101).round, round);
}

TEST(RetransmitterTest, BudgetExhaustionClosesUnreachable) {
  RetryPolicy p;
  p.max_attempts = 3;
  Harness h(p);
  const std::uint64_t round = h.rtx.start_round();
  h.sched.fire_next();  // -> attempt 2
  h.sched.fire_next();  // -> attempt 3
  h.sched.fire_next();  // budget spent -> unreachable
  ASSERT_EQ(h.closes.size(), 1u);
  EXPECT_EQ(h.closes[0],
            (std::pair<std::uint64_t, RoundOutcome>{
                round, RoundOutcome::kUnreachable}));
  EXPECT_EQ(h.sends.size(), 3u);
  EXPECT_EQ(h.timeouts, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(h.rtx.open_rounds(), 0u);
}

TEST(RetransmitterTest, LateResponseAfterCloseIsDuplicate) {
  Harness h(RetryPolicy{});
  const std::uint64_t round = h.rtx.start_round();
  h.rtx.close_valid(round);
  const auto hit = h.rtx.lookup(100);
  EXPECT_EQ(hit.match, Retransmitter::Match::kClosed);
  EXPECT_EQ(hit.round, round);
  // Every later copy is a duplicate too.
  EXPECT_EQ(h.rtx.lookup(100).match, Retransmitter::Match::kClosed);
}

TEST(RetransmitterTest, UnknownKeyIsUnknown) {
  Harness h(RetryPolicy{});
  (void)h.rtx.start_round();
  EXPECT_EQ(h.rtx.lookup(9999).match, Retransmitter::Match::kUnknown);
  EXPECT_EQ(h.rtx.lookup(100).match, Retransmitter::Match::kOpen);
}

TEST(RetransmitterTest, StaleTimerOfSupersededAttemptIsIgnored) {
  Harness h(RetryPolicy{});
  (void)h.rtx.start_round();
  h.sched.fire_next();  // attempt 1 times out -> attempt 2 armed
  ASSERT_EQ(h.sched.timers.size(), 1u);
  // Manually re-fire an attempt-1-shaped timer: on_timer must see
  // attempts != attempt and do nothing. Simulate by closing valid and
  // firing what remains.
  h.rtx.close_valid(0);
  h.sched.fire_next();
  EXPECT_EQ(h.timeouts, (std::vector<std::uint32_t>{1}));  // only the real one
  EXPECT_EQ(h.sends.size(), 2u);
  EXPECT_EQ(h.closes,
            (std::vector<std::pair<std::uint64_t, RoundOutcome>>{
                {0, RoundOutcome::kValid}}));
}

TEST(RetransmitterTest, ConcurrentRoundsAttributeKeysIndependently) {
  Harness h(RetryPolicy{});
  const std::uint64_t r0 = h.rtx.start_round();
  const std::uint64_t r1 = h.rtx.start_round();
  EXPECT_EQ(h.rtx.open_rounds(), 2u);
  EXPECT_EQ(h.rtx.lookup(100).round, r0);
  EXPECT_EQ(h.rtx.lookup(101).round, r1);
  h.rtx.close_valid(r1);
  EXPECT_EQ(h.rtx.lookup(100).match, Retransmitter::Match::kOpen);
  EXPECT_EQ(h.rtx.lookup(101).match, Retransmitter::Match::kClosed);
}

TEST(RetransmitterTest, JitterIsDeterministicPerSeed) {
  RetryPolicy p;
  p.jitter_ms = 50.0;
  Harness a(p);
  Harness b(p);
  for (int i = 0; i < 10; ++i) {
    (void)a.rtx.start_round();
    (void)b.rtx.start_round();
  }
  ASSERT_EQ(a.sched.timers.size(), b.sched.timers.size());
  for (std::size_t i = 0; i < a.sched.timers.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sched.timers[i].delay_ms, b.sched.timers[i].delay_ms);
    EXPECT_GE(a.sched.timers[i].delay_ms, p.base_timeout_ms);
    EXPECT_LT(a.sched.timers[i].delay_ms, p.base_timeout_ms + p.jitter_ms);
  }
}

TEST(RetransmitterTest, ClosedHistoryIsBounded) {
  Harness h(RetryPolicy{});
  // Push far more closed rounds than the retained history; ancient keys
  // degrade to kUnknown instead of growing memory forever.
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t round = h.rtx.start_round();
    h.rtx.close_valid(round);
  }
  EXPECT_EQ(h.rtx.lookup(100).match, Retransmitter::Match::kUnknown);
  EXPECT_EQ(h.rtx.lookup(h.next_key - 1).match,
            Retransmitter::Match::kClosed);
}

}  // namespace
}  // namespace ratt::net
