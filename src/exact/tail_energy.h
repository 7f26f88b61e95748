#pragma once

/// \file tail_energy.h
/// The tail-energy sweep behind exact::tail_energy_bound (bounds.h) and the
/// exact solver's per-event pruning term (bnb.cpp), kept in one place so
/// the root form the tests check against brute_force and the form the
/// search prunes with cannot drift apart.

#include <algorithm>
#include <span>
#include <vector>

#include "graph/dag.h"
#include "graph/flat_dag.h"

namespace hedra::exact {

using graph::Time;

/// One work-carrying node of the tail-energy sweep.
struct TailEntry {
  Time tail = 0;             ///< down(v) - C(v): longest path after v ends
  graph::NodeId node = 0;
  graph::DeviceId device = graph::kHostDevice;  ///< resource class of v
};

/// The nodes with C(v) > 0, by descending tail (ties by node id).  `down`
/// is graph::down_lengths(flat).
[[nodiscard]] std::vector<TailEntry> tail_order(const graph::FlatDag& flat,
                                                const std::vector<Time>& down);

/// The tail-energy term relative to the current instant `now`: the max
/// over q of q + ceil(W_c(q) / units_c), with m units on the host (class 0)
/// and one on each device d (class d).  `remaining[c]` is the work of class
/// c still to do at `now` (a std::array or std::vector indexed by class) and
/// `work_of(v)` node v's share of it.  Walking `order` accumulates W_c(q)
/// prefix by prefix, counting only nodes with work left: those finish after `now`,
/// so the last of them ends at or after now + ceil(W_c(q) / units_c) and at
/// or before T - q.  The q = 0 term, max_c ceil(remaining[c] / units_c), is
/// the area bound.  The sweep stops once the current tail plus that area
/// cannot beat the running maximum: every later prefix has a smaller tail
/// and no more work.
template <typename PerClass, typename WorkOf>
[[nodiscard]] Time tail_energy_sweep(std::span<const TailEntry> order, int m,
                                     const PerClass& remaining,
                                     WorkOf work_of) {
  const auto on_units = [m](std::size_t c, Time work) {
    return c == graph::kHostDevice ? (work + m - 1) / m : work;
  };
  Time area = 0;
  for (std::size_t c = 0; c < remaining.size(); ++c) {
    area = std::max(area, on_units(c, remaining[c]));
  }
  PerClass filled = remaining;
  std::fill(filled.begin(), filled.end(), Time{0});
  Time lb = area;
  for (const TailEntry& e : order) {
    if (e.tail + area <= lb) break;
    // A node with nothing left to do (finished) has no deadline after now.
    const Time left = work_of(e.node);
    if (left == 0) continue;
    Time& work = filled[e.device];
    work += left;
    lb = std::max(lb, e.tail + on_units(e.device, work));
  }
  return lb;
}

}  // namespace hedra::exact
