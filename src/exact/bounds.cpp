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

LowerBounds makespan_lower_bounds(const Dag& dag, int m) {
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  LowerBounds lb;
  lb.critical_path = graph::critical_path_length(dag);
  const Time host_vol = dag.host_volume();
  lb.host_area = (host_vol + m - 1) / m;
  // Each accelerator device serialises its own work, so the busiest device
  // is a lower bound; devices overlap each other, so their volumes must NOT
  // be summed (with a single device this is exactly vol_off).
  for (const auto device : dag.device_ids()) {
    lb.accel_area = std::max(lb.accel_area, dag.volume_on(device));
  }
  return lb;
}

Time makespan_lower_bound(const Dag& dag, int m) {
  return makespan_lower_bounds(dag, m).best();
}

std::vector<TailEntry> tail_order(const graph::FlatDag& flat,
                                  const std::vector<Time>& down) {
  std::vector<TailEntry> order;
  for (graph::NodeId v = 0; v < flat.num_nodes(); ++v) {
    if (flat.wcet(v) == 0) continue;
    order.push_back(TailEntry{down[v] - flat.wcet(v), v, flat.device(v)});
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
  const std::vector<TailEntry> order =
      tail_order(flat, graph::down_lengths(flat));
  // At the root nothing has started: every node's share is its WCET.
  std::vector<Time> remaining(static_cast<std::size_t>(flat.max_device()) + 1);
  for (const TailEntry& e : order) remaining[e.device] += flat.wcet(e.node);
  return tail_energy_sweep(order, m, remaining,
                           [&flat](graph::NodeId v) { return flat.wcet(v); });
}

}  // namespace hedra::exact
