#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace tdx {
namespace {

TEST(ThreadPoolTest, HardwareJobsIsPositive) {
  EXPECT_GE(HardwareJobs(), 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (unsigned jobs : {1u, 2u, 5u, 16u}) {
    std::vector<std::atomic<int>> hits(37);
    ParallelFor(jobs, hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ParallelForTest, ZeroCountIsANoOp) {
  std::atomic<int> counter{0};
  ParallelFor(4, 0, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ParallelForTest, ResultsLandAtTheirIndex) {
  std::vector<int> out(100, -1);
  ParallelFor(8, out.size(),
              [&](std::size_t i) { out[i] = static_cast<int>(i) * 3; });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * 3);
}

// A parallel batch runs on at most min(jobs, count) threads, none of them
// the caller's (the caller holds the batch's trace span); jobs = 1 runs
// every item on the caller.
TEST(ParallelForTest, StartsAtMostMinJobsCountWorkers) {
  const auto threads_of = [](unsigned jobs) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    ParallelFor(jobs, 3, [&](std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids;
  };
  for (unsigned jobs : {2u, 16u}) {
    const std::set<std::thread::id> ids = threads_of(jobs);
    EXPECT_GE(ids.size(), 1u) << "jobs=" << jobs;
    EXPECT_LE(ids.size(), std::min(jobs, 3u)) << "jobs=" << jobs;
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u) << "jobs=" << jobs;
  }
  EXPECT_EQ(threads_of(1),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

}  // namespace
}  // namespace tdx
