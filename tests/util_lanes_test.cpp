// The lane_pool contract (util/lanes.h): every index runs exactly once, the
// caller is lane 0, a 1-lane pool starts no thread, a worker's exception is
// rethrown on the caller and leaves the pool usable, and a pool can be
// destroyed whether its workers spin or are parked. CI runs this under
// ThreadSanitizer too.

#include "util/lanes.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lcg {
namespace {

/// Threads of this process, from /proc/self/task; -1 where there is none.
int process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int count = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++count;
  return count;
}

TEST(LanePool, EveryIndexRunsOnceAndTheCallerIsLaneZero) {
  lane_pool pool(4);
  ASSERT_EQ(pool.lanes(), 4u);
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t count : {0u, 1u, 2u, 7u, 1000u}) {
    for (int repeat = 0; repeat < 20; ++repeat) {
      std::vector<std::atomic<int>> hits(count);
      std::vector<std::thread::id> by_index(count);
      std::vector<std::size_t> lane_of(count);
      pool.run(count, [&](std::size_t lane, std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        by_index[i] = std::this_thread::get_id();
        lane_of[i] = lane;
      });
      // One thread per lane: lane 0 is the caller, the others are not.
      std::vector<std::thread::id> thread_of(pool.lanes());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "count " << count << " index " << i;
        ASSERT_LT(lane_of[i], pool.lanes());
        EXPECT_EQ(by_index[i] == caller, lane_of[i] == 0) << "index " << i;
        std::thread::id& seen = thread_of[lane_of[i]];
        if (seen == std::thread::id()) seen = by_index[i];
        EXPECT_EQ(seen, by_index[i]) << "lane " << lane_of[i];
      }
    }
  }
}

TEST(LanePool, OneLanePoolStartsNoThreadAndRunsInline) {
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task";
  {
    lane_pool pool(1);
    EXPECT_EQ(pool.lanes(), 1u);
    EXPECT_EQ(process_threads(), before);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.run(5, [&](std::size_t lane, std::size_t i) {
      EXPECT_EQ(lane, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(process_threads(), before);
  }
  // The count itself is sound: a 3-lane pool adds two threads.
  lane_pool wide(3);
  EXPECT_EQ(process_threads(), before + 2);
}

TEST(LanePool, WorkerExceptionIsRethrownOnTheCallerAndThePoolStillWorks) {
  lane_pool pool(3);
  for (int repeat = 0; repeat < 10; ++repeat) {
    // Lane 0 holds its first index until a worker has thrown, so the
    // exception always comes from a worker.
    std::atomic<bool> thrown{false};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    try {
      pool.run(64, [&](std::size_t lane, std::size_t) {
        if (lane != 0) {
          thrown.store(true);
          throw std::runtime_error("worker failed");
        }
        while (!thrown.load() && std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
      });
      ADD_FAILURE() << "run returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "worker failed");
    }
    ASSERT_TRUE(thrown.load());

    std::vector<std::atomic<int>> hits(100);
    pool.run(hits.size(), [&](std::size_t, std::size_t i) { ++hits[i]; });
    for (const std::atomic<int>& h : hits) ASSERT_EQ(h.load(), 1);
  }
  // The caller's own exception takes the same path.
  EXPECT_THROW(pool.run(8,
                        [](std::size_t lane, std::size_t) {
                          if (lane == 0) throw std::logic_error("caller");
                        }),
               std::logic_error);
}

TEST(LanePool, DestroysWhileWorkersSpinOrPark) {
  // Never ran: workers parked or about to.
  { lane_pool pool(3); }
  // Just ran: workers still spinning for the next job.
  {
    lane_pool pool(3);
    std::atomic<int> sum{0};
    pool.run(16, [&](std::size_t, std::size_t i) {
      sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 120);
  }
  // Idle long past the spin window: workers parked.
  {
    lane_pool pool(3);
    pool.run(16, [](std::size_t, std::size_t) {});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // A parked pool wakes for the next job.
  lane_pool pool(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<int> runs{0};
  pool.run(32, [&](std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs.load(), 32);
}

}  // namespace
}  // namespace lcg
