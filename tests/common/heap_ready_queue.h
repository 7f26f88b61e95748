#pragma once

/// \file heap_ready_queue.h
/// Reference ready queue for the simulator's ranked policies: a binary heap
/// under the comparator the engine used before its rank bitsets.  Tests
/// drive it and sim::detail::ReadyQueue with the same pushes and require
/// the same pops.

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "sim/engine.h"

namespace hedra::testing {

class HeapReadyQueue {
 public:
  /// `down` is read for kCriticalPathFirst only; kIndexOrder ranks by
  /// (job, node) alone.
  HeapReadyQueue(sim::Policy policy, std::span<const graph::Time> down)
      : down_(policy == sim::Policy::kCriticalPathFirst ? down.data()
                                                        : nullptr) {}

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

  void push(const sim::NodeInstance& item) {
    items_.push_back(item);
    std::push_heap(items_.begin(), items_.end(), Lower{down_});
  }

  [[nodiscard]] sim::NodeInstance pop() {
    std::pop_heap(items_.begin(), items_.end(), Lower{down_});
    const sim::NodeInstance out = items_.back();
    items_.pop_back();
    return out;
  }

 private:
  /// Heap "less": true if `a` ranks below `b`, so the top is the best pick.
  struct Lower {
    const graph::Time* down;
    bool operator()(const sim::NodeInstance& a,
                    const sim::NodeInstance& b) const {
      if (down != nullptr && down[a.node] != down[b.node]) {
        return down[a.node] < down[b.node];  // longer remaining path wins
      }
      return std::tie(b.job, b.node) < std::tie(a.job, a.node);
    }
  };

  const graph::Time* down_;
  std::vector<sim::NodeInstance> items_;
};

}  // namespace hedra::testing
