// EventQueue ordering suite: the binary heap must run events globally
// sorted by (at_ms, seq) — FIFO among same-time events — for directed
// edge cases (non-finite times, same-time bursts, far-future events,
// insert-after-peek, a million-round lazy chain) and for fuzzed
// self-scheduling workloads checked against a sorted-by-(at_ms, seq)
// oracle. The suite keeps the EventWheel name its cases have carried
// since the queue had a timing-wheel front end, so their IDs stay
// stable in test history.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ratt/sim/event.hpp"

namespace ratt::sim {
namespace {

/// One (event id, execution time) entry per run_next, in execution order.
using Log = std::vector<std::pair<int, double>>;

TEST(EventWheel, RejectsNonFiniteTimes) {
  EventQueue q;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(q.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(-inf, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(nan, [] {}), std::invalid_argument);
  // The queue stays fully usable after the rejections.
  EXPECT_TRUE(q.empty());
  int runs = 0;
  q.schedule_at(1.0, [&runs] { ++runs; });
  q.run_all();
  EXPECT_EQ(runs, 1);
}

TEST(EventWheel, SameTickEventsRunFifo) {
  // A burst inside one millisecond, scheduled out of order: execution
  // follows (at_ms, seq) exactly, FIFO among equal times.
  EventQueue q;
  Log log;
  q.schedule_at(10.5, [&] { log.emplace_back(2, q.now_ms()); });
  q.schedule_at(10.25, [&] { log.emplace_back(1, q.now_ms()); });
  q.schedule_at(10.25, [&] { log.emplace_back(3, q.now_ms()); });
  q.schedule_at(10.0, [&] { log.emplace_back(0, q.now_ms()); });
  q.schedule_at(10.5, [&] { log.emplace_back(4, q.now_ms()); });
  q.run_all();
  const Log expected{{0, 10.0}, {1, 10.25}, {3, 10.25}, {2, 10.5},
                     {4, 10.5}};
  EXPECT_EQ(log, expected);
}

TEST(EventWheel, FarFutureEventsCrossTheOverflowBoundary) {
  // Events 16-30 million ms out, on both sides of 2^24 ms, must
  // interleave correctly with near events — including ones scheduled
  // mid-run, after time has moved.
  EventQueue q;
  Log log;
  q.schedule_at(20.0e6, [&] { log.emplace_back(3, q.now_ms()); });
  q.schedule_at(5.0, [&] {
    log.emplace_back(0, q.now_ms());
    q.schedule_at(17.0e6, [&] { log.emplace_back(2, q.now_ms()); });
    q.schedule_at(16.0e6, [&] { log.emplace_back(1, q.now_ms()); });
  });
  q.schedule_at(30.0e6, [&] { log.emplace_back(4, q.now_ms()); });
  q.run_all();
  const Log expected{{0, 5.0},
                     {1, 16.0e6},
                     {2, 17.0e6},
                     {3, 20.0e6},
                     {4, 30.0e6}};
  EXPECT_EQ(log, expected);
}

TEST(EventWheel, InsertAfterPeekKeepsExactOrder) {
  // run_until() peeks the earliest pending time and stops short of it;
  // events scheduled afterwards before or after that time must still
  // sort exactly.
  EventQueue q;
  Log log;
  q.schedule_at(100.25, [&] { log.emplace_back(1, q.now_ms()); });
  q.run_until(50.0);  // peeks 100.25, runs nothing
  EXPECT_EQ(q.now_ms(), 50.0);
  q.schedule_at(100.5, [&] { log.emplace_back(2, q.now_ms()); });
  q.schedule_at(100.125, [&] { log.emplace_back(0, q.now_ms()); });
  q.run_all();
  const Log expected{{0, 100.125}, {1, 100.25}, {2, 100.5}};
  EXPECT_EQ(log, expected);
}

TEST(EventWheel, LazyChainRoundMillionLandsExactly) {
  // The Swarm's lazy periodic chain computes round k's time
  // multiplicatively (offset + k * period) on every re-arm. With an
  // inexact period (0.1 has no finite binary representation), additive
  // accumulation would drift by ~1e-9 ms over 10^6 rounds; the
  // multiplicative form rounds once and lands exactly.
  EventQueue q;
  const double offset = 0.7;
  const double period = 0.1;
  const std::uint64_t last = 1'000'000;
  std::uint64_t fired = 0;
  const std::function<void(std::uint64_t)> arm = [&](std::uint64_t k) {
    if (k > last) return;
    q.schedule_at(offset + static_cast<double>(k) * period, [&, k] {
      ++fired;
      arm(k + 1);
    });
  };
  arm(1);
  q.run_all(last + 1);
  EXPECT_EQ(fired, last);
  EXPECT_EQ(q.now_ms(), offset + static_cast<double>(last) * period);
}

// --- Fuzzed lockstep: identical self-scheduling workloads on the heap
// and on a sorted oracle must produce identical execution logs. ---

/// Reference scheduler: pending events in a flat list, the earliest
/// (at_ms, seq) found by linear scan. Same API subset as EventQueue.
class OracleQueue {
 public:
  double now_ms() const { return now_ms_; }
  bool empty() const { return pending_.empty(); }
  void schedule_at(double at_ms, std::function<void()> action) {
    pending_.push_back(Entry{at_ms, next_seq_++, std::move(action)});
  }
  void schedule_in(double delay_ms, std::function<void()> action) {
    schedule_at(now_ms_ + delay_ms, std::move(action));
  }
  bool run_next() {
    if (pending_.empty()) return false;
    const auto it = std::min_element(
        pending_.begin(), pending_.end(), [](const Entry& a, const Entry& b) {
          return a.at_ms != b.at_ms ? a.at_ms < b.at_ms : a.seq < b.seq;
        });
    Entry e = std::move(*it);
    pending_.erase(it);
    now_ms_ = e.at_ms;
    e.action();
    return true;
  }
  void run_until(double until_ms) {
    while (!pending_.empty() && next_time() <= until_ms) run_next();
    now_ms_ = std::max(now_ms_, until_ms);
  }
  void run_all(std::size_t max_events) {
    for (std::size_t n = 0; n < max_events && run_next(); ++n) {
    }
  }

 private:
  struct Entry {
    double at_ms;
    std::uint64_t seq;
    std::function<void()> action;
  };
  double next_time() const {
    double t = std::numeric_limits<double>::infinity();
    for (const Entry& e : pending_) t = std::min(t, e.at_ms);
    return t;
  }
  std::vector<Entry> pending_;
  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

struct Lcg {
  std::uint64_t state;
  std::uint32_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  }
};

/// Delay for child c of event `id`: derived from (seed, id, c) alone, so
/// it cannot depend on execution interleaving. Scales span sub-ms to
/// tens of millions of ms.
double child_delay(std::uint64_t seed, int id, int c) {
  Lcg rng{seed ^ (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull) ^
          (static_cast<std::uint64_t>(c) << 48)};
  (void)rng.next();
  const double scales[] = {0.25, 1.0, 63.0, 700.0, 40'000.0,
                           3.0e6, 2.0e7};
  const double scale = scales[rng.next() % 7];
  return scale * (1.0 + (rng.next() % 1000) / 1000.0);
}

template <class Queue>
Log run_workload(std::uint64_t seed) {
  Queue q;
  Log log;
  int next_id = 0;
  // Each event logs itself and spawns 0-2 children until the id budget
  // is spent — insertion happens mid-drain.
  const std::function<void(int)> fire = [&](int id) {
    log.emplace_back(id, q.now_ms());
    Lcg rng{seed ^ static_cast<std::uint64_t>(id)};
    const int children = static_cast<int>(rng.next() % 3);
    for (int c = 0; c < children && next_id < 400; ++c) {
      const int child = next_id++;
      q.schedule_in(child_delay(seed, id, c), [&, child] { fire(child); });
    }
  };
  for (int i = 0; i < 60; ++i) {
    const int id = next_id++;
    q.schedule_at(child_delay(seed, -1 - i, 0), [&, id] { fire(id); });
  }
  // Half the seeds drain in run_until slices (exercising the peek path),
  // half in one run_all.
  if (seed % 2 == 0) {
    double t = 0.0;
    while (!q.empty()) {
      t += 123'456.789;
      q.run_until(t);
    }
  } else {
    q.run_all(std::numeric_limits<std::size_t>::max());
  }
  return log;
}

TEST(EventWheel, FuzzedWorkloadsMatchHeapLockstep) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Log heap_log = run_workload<EventQueue>(seed);
    const Log oracle_log = run_workload<OracleQueue>(seed);
    ASSERT_FALSE(heap_log.empty()) << "seed " << seed;
    EXPECT_EQ(heap_log, oracle_log) << "seed " << seed;
  }
}

TEST(EventWheel, BacklogInstrumentsMatchHeap) {
  // The queue instruments agree with the pending set and the schedule:
  // backlog peaks at the planted count and drains to zero, every event
  // is counted once, and each latency is its at_ms - scheduled_ms.
  obs::Registry reg;
  EventQueue q;
  q.set_observer(&reg);
  std::vector<double> times;
  int runs = 0;
  for (int i = 0; i < 40; ++i) {
    times.push_back(child_delay(99, -1 - i, 0));
    q.schedule_at(times.back(), [&runs] { ++runs; });
  }
  EXPECT_EQ(q.run_all(), 0u);
  EXPECT_EQ(runs, 40);
  std::sort(times.begin(), times.end());
  double latency_sum = 0.0;
  for (const double t : times) latency_sum += t;  // scheduled at t=0

  const obs::Gauge* backlog = reg.find_gauge("queue.backlog");
  ASSERT_NE(backlog, nullptr);
  EXPECT_EQ(backlog->max(), 40.0);
  EXPECT_EQ(backlog->value(), 0.0);
  EXPECT_EQ(backlog->sets(), 80u);  // one per schedule, one per run
  const obs::Counter* events_run = reg.find_counter("queue.events_run");
  ASSERT_NE(events_run, nullptr);
  EXPECT_EQ(events_run->count(), 40u);
  const obs::Histogram* latency =
      reg.find_histogram("queue.event_latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 40u);
  EXPECT_EQ(latency->min(), times.front());
  EXPECT_EQ(latency->max(), times.back());
  EXPECT_DOUBLE_EQ(latency->sum(), latency_sum);
  const obs::Gauge* leftover = reg.find_gauge("queue.runaway_leftover");
  ASSERT_NE(leftover, nullptr);
  EXPECT_EQ(leftover->value(), 0.0);
}

}  // namespace
}  // namespace ratt::sim
