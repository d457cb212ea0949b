// ratt::obs — the one thread pool behind every parallel step of a fleet
// run: the sharded drain (sim::Swarm::drain), the trace merge, the JSONL /
// CSV exporters and the fleet's teardown. Work is a fixed set of `n`
// independent items ("tickets") handed out by atomic fetch-add, so a
// worker that finishes early just takes the next one. Every thread the
// pool starts is joined before the call returns or throws.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ratt::obs {

/// Worker count for a post-drain step over `items` independent items: one
/// per hardware thread, never more than there are items.
inline std::size_t tail_workers(std::size_t items) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(hw, items);
}

/// Starts `threads` threads that run body(i) once per ticket i in [0, n),
/// while the calling thread runs main(work). `work()` takes tickets on the
/// calling thread too, until none are left.
///
/// Failure: once a body throws, main throws or a thread cannot be started,
/// no further ticket is handed out and release() runs — it must wake any
/// body or main blocked on the others' progress. The threads are then
/// joined, and the first exception (main's, if main threw) is rethrown.
template <class Body, class Main, class Release>
void run_pool(std::size_t n, std::size_t threads, Body&& body, Main&& main,
              Release&& release) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // first body exception; guarded by error_mu
  const auto work = [&] {
    try {
      for (std::size_t i;
           (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        body(i);
      }
    } catch (...) {
      next.store(n, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
      release();
    }
  };
  std::vector<std::thread> pool;
  try {
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work);
    main(work);
  } catch (...) {
    next.store(n, std::memory_order_relaxed);
    release();
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

/// body(i) for every i in [0, n) on `workers` threads, the calling thread
/// being one of them (so workers <= 1 runs every ticket inline, in order).
/// Same failure rule as run_pool.
template <class Body>
void parallel_for(std::size_t n, std::size_t workers, Body&& body) {
  run_pool(
      n, workers > 1 ? workers - 1 : 0, body,
      [](const auto& work) { work(); }, [] {});
}

}  // namespace ratt::obs
