#include "common/worker_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace deepeverest {
namespace common {
namespace {

TEST(WorkerSetTest, EveryItemRunsExactlyOnce) {
  for (const size_t n : {0, 1, 2, 3, 17, 1000}) {
    for (const size_t width : {0, 1, 2, 4, 64}) {
      std::vector<std::atomic<int>> runs(n);
      ParallelFor(n, width, [&](size_t i) { ++runs[i]; });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "n " << n << ", width " << width;
      }
    }
  }
}

TEST(WorkerSetTest, WidthOneRunsOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  ParallelFor(50, 1, [&](size_t) {
    if (std::this_thread::get_id() != caller) ++elsewhere;
  });
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(WorkerSetTest, UsesAtMostWidthThreads) {
  Mutex mu;
  std::set<std::thread::id> seen;
  ParallelFor(400, 2, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    MutexLock lock(&mu);
    seen.insert(std::this_thread::get_id());
  });
  MutexLock lock(&mu);
  EXPECT_LE(seen.size(), 2u);
  EXPECT_GE(seen.size(), 1u);
}

TEST(WorkerSetTest, NestedFanOutRunsInline) {
  std::vector<std::atomic<int>> runs(16 * 16);
  ParallelFor(16, 16, [&](size_t i) {
    const std::thread::id outer = std::this_thread::get_id();
    ParallelFor(16, 16, [&](size_t j) {
      // The outer fan-out holds the worker set: the inner one stays on the
      // thread running outer item i.
      EXPECT_EQ(std::this_thread::get_id(), outer);
      ++runs[i * 16 + j];
    });
  });
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(WorkerSetTest, ConcurrentCallersEachFinishTheirOwnItems) {
  constexpr int kCallers = 8;
  std::vector<std::vector<int>> out(kCallers, std::vector<int>(300, 0));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 20; ++rep) {
        ParallelFor(300, 4, [&](size_t i) {
          out[static_cast<size_t>(c)][i] += static_cast<int>(i) + c;
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < 300; ++i) {
      ASSERT_EQ(out[static_cast<size_t>(c)][i], 20 * (static_cast<int>(i) + c));
    }
  }
}

}  // namespace
}  // namespace common
}  // namespace deepeverest
