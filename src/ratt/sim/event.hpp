// Minimal discrete-event scheduler driving the network simulation.
// Time is in simulated milliseconds.
//
// One EventQueue is single-threaded; the sharded Swarm scales out by
// giving every shard its own queue (devices never interact cross-shard),
// so no locking lives here; each shard's queue records into that shard's
// own registry (see sim/swarm.hpp).
//
// The queue is a binary min-heap over (at_ms, seq): events run globally
// sorted by time, FIFO among same-time events, so the same seed gives
// byte-identical traces. Push and pop are O(log pending); with the
// Swarm's lazy one-event-per-device chains, pending stays O(devices).
// tests/sim/event_queue_test.cpp checks the order against a sorted
// oracle on fuzzed self-scheduling workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ratt/obs/metrics.hpp"

namespace ratt::sim {

class EventQueue {
 public:
  using Action = std::function<void()>;

  double now_ms() const { return now_ms_; }

  /// Attach a metrics registry (nullable; nullptr detaches). Publishes
  ///   gauge     queue.backlog           — pending events (with high-water)
  ///   histogram queue.event_latency_ms  — schedule-to-execution delay
  ///   counter   queue.events_run
  ///   gauge     queue.runaway_leftover  — events stranded by run_all's bound
  void set_observer(obs::Registry* registry);

  /// Schedule `action` at absolute time `at_ms` (>= now). Non-finite
  /// times (NaN, ±inf) are rejected with std::invalid_argument: NaN
  /// compares false against every bound, so it would slip past the
  /// past-scheduling check and then corrupt the strict weak ordering
  /// the heap relies on.
  void schedule_at(double at_ms, Action action);

  /// Schedule `action` `delay_ms` from now.
  void schedule_in(double delay_ms, Action action);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Pop and run the earliest event; returns false when none remain.
  /// The action is moved out of the queue (no copy, no extra allocation
  /// on the hot path), and the queue commits its state — event popped,
  /// now_ms advanced, backlog/latency instruments updated — *before* the
  /// action runs, so a throwing action leaves the queue fully consistent
  /// and the next run_next() continues with the following event.
  bool run_next();

  /// Run events until the queue empties or `until_ms` is reached; time
  /// advances to min(until_ms, last event). Events scheduled during
  /// execution are honored.
  void run_until(double until_ms);

  /// Drain everything, bounded by `max_events` as a runaway guard.
  /// Returns the number of events still pending when the bound was hit
  /// (0 = fully drained) — the stranded backlog is reported, not silently
  /// dropped, and is also surfaced on the queue.runaway_leftover gauge.
  std::size_t run_all(std::size_t max_events = 1'000'000);

 private:
  struct Event {
    double at_ms;
    std::uint64_t seq;  // FIFO among same-time events
    double scheduled_ms;  // when schedule_* was called (for latency)
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
      return a.seq > b.seq;
    }
  };

  // Binary heap over a plain vector (std::push_heap / std::pop_heap)
  // instead of std::priority_queue: priority_queue::top() is const&, so
  // popping an event forced a copy of its std::function (a heap
  // allocation per event on the hot path). pop_heap moves the earliest
  // event to the back, where it can be moved out.
  std::vector<Event> heap_;

  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  obs::Gauge* obs_backlog_ = nullptr;
  obs::Histogram* obs_latency_ = nullptr;
  obs::Counter* obs_events_run_ = nullptr;
  obs::Gauge* obs_leftover_ = nullptr;
};

}  // namespace ratt::sim
