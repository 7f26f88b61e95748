/// \file ready_queue_test.cpp
/// The engine's rank-bitset ready queues against the reference heap they
/// replaced (tests/common/heap_ready_queue.h): random push/pop sequences
/// over several jobs and tied down values must pop the same items in the
/// same order.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/heap_ready_queue.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace hedra::sim {
namespace {

void expect_same_pops(detail::ReadyQueue& queue, Policy policy,
                      std::size_t nodes, std::size_t jobs, Time max_down,
                      Rng& rng) {
  std::vector<Time> down(nodes);
  for (Time& d : down) d = rng.uniform_int(0, max_down);
  queue.reset(policy, down, nodes, jobs);
  testing::HeapReadyQueue reference(policy, down);

  std::vector<NodeInstance> pending;
  for (std::uint32_t j = 0; j < jobs; ++j) {
    for (NodeId v = 0; v < nodes; ++v) pending.push_back({7, j, v});
  }
  rng.shuffle(pending);
  Rng unused(1);
  std::size_t next = 0;
  std::size_t pops = 0;
  while (next < pending.size() || !reference.empty()) {
    ASSERT_EQ(queue.empty(), reference.empty());
    if (next < pending.size() && (reference.empty() || rng.index(3) != 0)) {
      queue.push(pending[next]);
      reference.push(pending[next]);
      ++next;
      continue;
    }
    const NodeInstance want = reference.pop();
    const NodeInstance got = queue.pop(unused);
    ASSERT_EQ(got.task, want.task) << "pop " << pops;
    ASSERT_EQ(got.job, want.job) << "pop " << pops;
    ASSERT_EQ(got.node, want.node) << "pop " << pops;
    ++pops;
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(pops, nodes * jobs);
}

TEST(ReadyQueueTest, RankBitsetsPopLikeTheReferenceHeap) {
  Rng rng(2024);
  detail::ReadyQueue queue;  // reused across resets, as the engine does
  for (const Policy policy :
       {Policy::kCriticalPathFirst, Policy::kIndexOrder}) {
    for (int round = 0; round < 200; ++round) {
      const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 90));
      const auto jobs = static_cast<std::size_t>(rng.uniform_int(1, 6));
      // A small down range forces ties; a wide one makes them rare.
      const Time max_down = round % 2 == 0 ? 3 : 1000;
      expect_same_pops(queue, policy, nodes, jobs, max_down, rng);
    }
  }
}

TEST(ReadyQueueTest, ManyJobsSpanSeveralSummaryWords) {
  // 300 nodes × 30 jobs = 9000 slots: three summary words.
  Rng rng(77);
  detail::ReadyQueue queue;
  for (const Policy policy :
       {Policy::kCriticalPathFirst, Policy::kIndexOrder}) {
    expect_same_pops(queue, policy, 300, 30, 5, rng);
  }
}

TEST(ReadyQueueTest, AllDownValuesTied) {
  Rng rng(5);
  detail::ReadyQueue queue;
  expect_same_pops(queue, Policy::kCriticalPathFirst, 64, 4, 0, rng);
}

}  // namespace
}  // namespace hedra::sim
