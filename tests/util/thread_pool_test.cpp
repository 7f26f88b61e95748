#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "util/error.h"

namespace hedra {
namespace {

TEST(ThreadPoolTest, RejectsNonPositiveWorkerCount) {
  EXPECT_THROW(ThreadPool(0), Error);
  EXPECT_THROW(ThreadPool(-3), Error);
}

TEST(ThreadPoolTest, DefaultWorkersIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_workers(), 1);
}

TEST(ThreadPoolTest, EmptyInputIsANoOp) {
  for (const int workers : {1, 4}) {
    ThreadPool pool(workers);
    std::atomic<int> calls{0};
    pool.parallel_for_each(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ThreadPoolTest, RunsEveryItemExactlyOnce) {
  // Far more tasks than workers: the atomic cursor must hand out each index
  // exactly once.
  constexpr std::size_t kItems = 10000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kItems);
  pool.parallel_for_each(kItems, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(ThreadPoolTest, MoreWorkersThanTasks) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for_each(3, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, PropagatesExceptionFromSerialPool) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for_each(
                   5, [](std::size_t i) {
                     if (i == 3) throw Error("boom at 3");
                   }),
               Error);
}

TEST(ThreadPoolTest, PropagatesSmallestIndexExceptionFromWorkers) {
  ThreadPool pool(4);
  try {
    pool.parallel_for_each(100, [](std::size_t i) {
      if (i % 10 == 7) throw Error("boom at " + std::to_string(i));
    });
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom at 7");
  }
}

TEST(ThreadPoolTest, AllItemsStillRunWhenOneThrows) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  EXPECT_THROW(pool.parallel_for_each(50,
                                      [&](std::size_t i) {
                                        ++hits[i];
                                        if (i == 0) throw Error("first");
                                      }),
               Error);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 50);
}

TEST(ThreadPoolTest, PoolIsReusableAfterAnException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_each(10, [](std::size_t) { throw Error("once"); }),
      Error);
  std::atomic<int> sum{0};
  pool.parallel_for_each(10, [&](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, NestedCallThrows) {
  // Items never nest; a call from inside an item, on the same pool or
  // another, fails closed on every pool size and leaves the pool usable.
  for (const int workers : {1, 4}) {
    ThreadPool pool(workers);
    ThreadPool other(2);
    const auto noop = [](std::size_t) {};
    EXPECT_THROW(pool.parallel_for_each(
                     4, [&](std::size_t) { pool.parallel_for_each(2, noop); }),
                 Error)
        << workers << " workers";
    EXPECT_THROW(pool.parallel_for_each(
                     4, [&](std::size_t) { other.parallel_for_each(2, noop); }),
                 Error)
        << workers << " workers";
    std::atomic<int> calls{0};
    pool.parallel_for_each(3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 3);
  }
}

TEST(ThreadPoolTest, ManySmallBatchesBackToBack) {
  // Exercises the job hand-off path: successive parallel_for_each calls on
  // one pool must not deadlock or leak items between jobs.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> calls{0};
    pool.parallel_for_each(5, [&](std::size_t) { ++calls; });
    ASSERT_EQ(calls.load(), 5) << "round " << round;
  }
}

}  // namespace
}  // namespace hedra
