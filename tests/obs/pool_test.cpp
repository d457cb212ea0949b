// The obs pool (ratt/obs/pool.hpp): every ticket runs exactly once at any
// worker count, and a failure stops the hand-out, joins every thread and
// reaches the caller.
#include "ratt/obs/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ratt::obs {
namespace {

TEST(ObsPool, EveryTicketRunsOnce) {
  for (const std::size_t workers : {0u, 1u, 2u, 4u, 8u}) {
    for (const std::size_t n : {0u, 1u, 3u, 100u}) {
      std::vector<std::atomic<int>> runs(n);
      parallel_for(n, workers, [&](std::size_t i) { ++runs[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "workers=" << workers << " i=" << i;
      }
    }
  }
}

TEST(ObsPool, OneWorkerRunsInOrderOnTheCaller) {
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ObsPool, BodyExceptionReachesTheCaller) {
  for (const std::size_t workers : {1u, 4u}) {
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(parallel_for(1000, workers,
                              [&](std::size_t i) {
                                ++ran;
                                if (i == 3) throw std::runtime_error("body");
                                // Tickets after the failing one take long
                                // enough that the other workers cannot
                                // drain the rest before the hand-out
                                // stops (with instant bodies they could,
                                // legally, and the check below would
                                // race).
                                if (i > 3) {
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(1));
                                }
                              }),
                 std::runtime_error);
    // No ticket is handed out after the failure, so at most the tickets
    // already taken by other workers still run.
    EXPECT_LT(ran.load(), 1000u);
  }
}

TEST(ObsPool, MainExceptionReleasesAndJoins) {
  std::atomic<bool> released{false};
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(run_pool(
                   8, 2,
                   [&](std::size_t) {
                     // Blocks until main's failure releases it.
                     while (!released.load()) std::this_thread::yield();
                     ++ran;
                   },
                   [](const auto&) { throw std::logic_error("main"); },
                   [&] { released = true; }),
               std::logic_error);
  EXPECT_TRUE(released.load());
  EXPECT_LE(ran.load(), 2u);
}

}  // namespace
}  // namespace ratt::obs
