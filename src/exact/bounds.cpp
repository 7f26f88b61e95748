#include "exact/bounds.h"

#include <algorithm>
#include <vector>

#include "exact/tail_energy.h"
#include "graph/critical_path.h"
#include "graph/flat_dag.h"

namespace hedra::exact {

Time LowerBounds::best() const noexcept {
  return std::max({critical_path, host_area, accel_area});
}

LowerBounds makespan_lower_bounds(const graph::FlatView& view, int m) {
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  LowerBounds lb;
  lb.critical_path = graph::critical_path_length(view);
  Time host_vol = 0;
  std::vector<Time> device_vol(static_cast<std::size_t>(view.max_device()) + 1);
  for (graph::NodeId v = 0; v < view.num_nodes(); ++v) {
    if (view.device(v) == graph::kHostDevice) {
      host_vol += view.wcet(v);
    } else {
      device_vol[view.device(v)] += view.wcet(v);
    }
  }
  lb.host_area = (host_vol + m - 1) / m;
  // Each accelerator device serialises its own work, so the busiest device
  // is a lower bound; devices overlap each other, so their volumes must NOT
  // be summed (with a single device this is exactly vol_off).
  lb.accel_area = *std::max_element(device_vol.begin(), device_vol.end());
  return lb;
}

LowerBounds makespan_lower_bounds(const Dag& dag, int m) {
  return makespan_lower_bounds(graph::FlatDag(dag).view(), m);
}

Time makespan_lower_bound(const Dag& dag, int m) {
  return makespan_lower_bounds(dag, m).best();
}

std::vector<TailEntry> tail_order(const graph::FlatView& view,
                                  const std::vector<Time>& down) {
  std::vector<TailEntry> order;
  for (graph::NodeId v = 0; v < view.num_nodes(); ++v) {
    if (view.wcet(v) == 0) continue;
    order.push_back(TailEntry{down[v] - view.wcet(v), v, view.device(v)});
  }
  std::sort(order.begin(), order.end(),
            [](const TailEntry& a, const TailEntry& b) {
              return a.tail != b.tail ? a.tail > b.tail : a.node < b.node;
            });
  return order;
}

Time tail_energy_bound(const Dag& dag, int m) {
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  const graph::FlatDag flat(dag);
  const graph::FlatView view = flat.view();
  const std::vector<TailEntry> order =
      tail_order(view, graph::down_lengths(view));
  // At the root nothing has started: every node's share is its WCET.
  std::vector<Time> remaining(static_cast<std::size_t>(view.max_device()) + 1);
  for (const TailEntry& e : order) remaining[e.device] += view.wcet(e.node);
  return tail_energy_sweep(order, m, remaining,
                           [&view](graph::NodeId v) { return view.wcet(v); });
}

}  // namespace hedra::exact
