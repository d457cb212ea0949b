#include "ratt/sim/event.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ratt::sim {

void EventQueue::set_observer(obs::Registry* registry) {
  if (registry == nullptr) {
    obs_backlog_ = nullptr;
    obs_latency_ = nullptr;
    obs_events_run_ = nullptr;
    obs_leftover_ = nullptr;
    return;
  }
  obs_backlog_ = &registry->gauge("queue.backlog");
  obs_latency_ = &registry->histogram("queue.event_latency_ms");
  obs_events_run_ = &registry->counter("queue.events_run");
  obs_leftover_ = &registry->gauge("queue.runaway_leftover");
}

void EventQueue::schedule_at(double at_ms, Action action) {
  if (!std::isfinite(at_ms)) {
    // NaN compares false against now_ms_ below AND against every other
    // event time, so it would both bypass the past-check and break the
    // strict weak ordering of the heap. Infinities order but never run.
    throw std::invalid_argument("EventQueue: non-finite event time");
  }
  if (at_ms < now_ms_) {
    throw std::invalid_argument("EventQueue: scheduling into the past");
  }
  heap_.push_back(Event{at_ms, next_seq_++, now_ms_, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (obs_backlog_ != nullptr) {
    obs_backlog_->set(static_cast<double>(pending()));
  }
}

void EventQueue::schedule_in(double delay_ms, Action action) {
  schedule_at(now_ms_ + delay_ms, std::move(action));
}

bool EventQueue::run_next() {
  if (heap_.empty()) return false;
  // pop_heap moves the earliest event to the back; move it out — the
  // std::function changes hands without a copy.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  // Commit queue state before invoking the action: if it throws, the
  // event is consumed, now_ms has advanced and the instruments agree
  // with the pending set — the caller can keep running the queue.
  now_ms_ = ev.at_ms;
  if (obs_backlog_ != nullptr) {
    obs_backlog_->set(static_cast<double>(pending()));
    obs_latency_->observe(ev.at_ms - ev.scheduled_ms);
    obs_events_run_->inc();
  }
  ev.action();
  return true;
}

void EventQueue::run_until(double until_ms) {
  while (!empty() && heap_.front().at_ms <= until_ms) {
    run_next();
  }
  now_ms_ = std::max(now_ms_, until_ms);
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && run_next()) ++n;
  const std::size_t leftover = pending();
  if (obs_leftover_ != nullptr) {
    obs_leftover_->set(static_cast<double>(leftover));
  }
  return leftover;
}

}  // namespace ratt::sim
