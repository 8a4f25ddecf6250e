// Stress and correctness tests for the shared executor: ParallelFor's
// coverage, nesting, exception and Status propagation, growth racing
// running loops, and the inline util::ParallelFor.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ctdb::util {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  const Status status = pool.ParallelFor(0, kN, [&](size_t i) -> Status {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHonorsBeginOffset) {
  ThreadPool pool(2);
  std::atomic<size_t> sum{0};
  ASSERT_TRUE(pool.ParallelFor(100, 200, [&](size_t i) -> Status {
                    sum.fetch_add(i);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.ParallelFor(5, 5, [&](size_t) -> Status {
                    ADD_FAILURE() << "body ran on empty range";
                    return Status::OK();
                  })
                  .ok());
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The inner ParallelFor runs from a pool worker while every other worker
  // may be blocked in the same position; the calling thread participates in
  // its own iteration space, so this must complete even on a 1-worker pool.
  for (size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<size_t> total{0};
    const Status status = pool.ParallelFor(0, 8, [&](size_t) -> Status {
      return pool.ParallelFor(0, 64, [&](size_t) -> Status {
        total.fetch_add(1);
        return Status::OK();
      });
    });
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(total.load(), 8u * 64u) << workers << " workers";
  }
}

TEST(ThreadPoolTest, StatusErrorPropagates) {
  ThreadPool pool(4);
  const Status status = pool.ParallelFor(0, 1000, [&](size_t i) -> Status {
    if (i == 137) return Status::ResourceExhausted("budget hit at 137");
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_NE(status.message().find("137"), std::string::npos);
}

TEST(ThreadPoolTest, ExceptionBecomesInternalStatus) {
  ThreadPool pool(4);
  const Status status = pool.ParallelFor(0, 1000, [&](size_t i) -> Status {
    if (i == 41) throw std::runtime_error("boom at 41");
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("boom at 41"), std::string::npos);
}

TEST(ThreadPoolTest, ErrorSkipsRemainingIterations) {
  // After the first failure, unclaimed iterations are skipped — the loop
  // still terminates and reports the first error.
  ThreadPool pool(2);
  std::atomic<size_t> ran{0};
  const Status status = pool.ParallelFor(0, 100000, [&](size_t i) -> Status {
    ran.fetch_add(1);
    if (i == 0) return Status::InvalidArgument("fail fast");
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_LE(ran.load(), 100000u);
}

TEST(ThreadPoolTest, ParallelForUsableFromExternalAndWorkerThreads) {
  ThreadPool pool(2);
  ASSERT_TRUE(pool.ParallelFor(0, 4, [&](size_t) -> Status {
                    return Status::OK();
                  })
                  .ok());
  // With the caller participating, at least the caller ran; with more than
  // one iteration and two workers, workers normally join in, but that is
  // timing-dependent — only assert the call completed.
  SUCCEED();
}

TEST(ThreadPoolTest, StressRepeatedParallelForOnSharedPool) {
  // The broker reuses one pool across many calls; hammer that pattern.
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(pool.ParallelFor(0, 97, [&](size_t) -> Status {
                      total.fetch_add(1);
                      return Status::OK();
                    })
                    .ok());
  }
  EXPECT_EQ(total.load(), 200u * 97u);
}

TEST(ThreadPoolTest, ZeroThreadConstructionClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> x{0};
  ASSERT_TRUE(pool.ParallelFor(0, 10, [&](size_t) -> Status {
                    x.fetch_add(1);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(x.load(), 10);
}

TEST(ThreadPoolTest, GrowWhileLoopsRun) {
  // Grow starts workers in place while other threads' loops are queueing
  // helpers and claiming iterations; every loop still covers its range
  // exactly once, and the pool ends at the largest size asked for.
  ThreadPool pool(1);
  constexpr size_t kCallers = 3;
  constexpr size_t kRounds = 50;
  constexpr size_t kN = 64;
  std::atomic<size_t> total{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (size_t round = 0; round < kRounds; ++round) {
        ASSERT_TRUE(pool.ParallelFor(0, kN, [&](size_t) -> Status {
                          total.fetch_add(1);
                          return Status::OK();
                        })
                        .ok());
      }
    });
  }
  for (size_t threads = 2; threads <= 4; ++threads) {
    // Grow only once the loops are under way, so each growth races them.
    while (total.load() < (threads - 1) * kN) std::this_thread::yield();
    EXPECT_GE(pool.Grow(threads), threads);
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), kCallers * kRounds * kN);
  EXPECT_EQ(pool.thread_count(), 4u);
  EXPECT_EQ(pool.Grow(2), 4u);  // never shrinks
}

TEST(ThreadPoolTest, InlineParallelForRunsOnCallerInOrder) {
  // Without a pool, or with one iteration, every index runs on the calling
  // thread, in order.
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool pool(2);
  std::vector<size_t> order;
  auto record = [&](size_t i) -> Status {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
    return Status::OK();
  };
  ASSERT_TRUE(ParallelFor(nullptr, 5, record).ok());
  ASSERT_TRUE(ParallelFor(&pool, 1, record).ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 0}));

  // The first error is returned and stops the loop.
  order.clear();
  const Status status = ParallelFor(nullptr, 5, [&](size_t i) -> Status {
    order.push_back(i);
    if (i >= 2) return Status::InvalidArgument("fail at " + std::to_string(i));
    return Status::OK();
  });
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("fail at 2"), std::string::npos);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace ctdb::util
