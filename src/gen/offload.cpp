#include "gen/offload.h"

#include <cmath>
#include <vector>

#include "graph/validate.h"

namespace hedra::gen {

using graph::Dag;
using graph::NodeId;
using graph::Time;

NodeId select_offload_node(Dag& dag, Rng& rng) {
  HEDRA_REQUIRE(dag.offload_nodes().empty(),
                "graph already has an offload node");
  HEDRA_REQUIRE(dag.num_nodes() >= 3,
                "need at least 3 nodes to pick an internal offload node");
  std::vector<NodeId> internal;
  internal.reserve(dag.num_nodes());
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.in_degree(v) > 0 && dag.out_degree(v) > 0) internal.push_back(v);
  }
  HEDRA_REQUIRE(!internal.empty(), "graph has no internal node");
  const NodeId chosen = internal[rng.index(internal.size())];
  // Re-label in place: replace the node's kind while keeping id and edges.
  // Dag has no kind setter by design (kinds are structural); rebuild instead.
  Dag out;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    const auto& n = dag.node(v);
    if (v == chosen) {
      out.add_node(n.wcet, graph::NodeKind::kOffload, "vOff");
    } else {
      out.add_node(n);
    }
  }
  for (const auto& [u, w] : dag.edges()) out.add_edge(u, w);
  dag = std::move(out);
  return chosen;
}

Time set_offload_ratio(Dag& dag, double ratio) {
  HEDRA_REQUIRE(ratio > 0.0 && ratio < 1.0,
                "offload ratio must lie strictly inside (0, 1)");
  const auto voff = dag.offload_node();
  HEDRA_REQUIRE(voff.has_value(), "no offload node selected");
  const Time vol_rest = dag.volume() - dag.wcet(*voff);
  HEDRA_REQUIRE(vol_rest > 0, "host workload must be positive");
  const double target = ratio / (1.0 - ratio) * static_cast<double>(vol_rest);
  const Time c_off = std::max<Time>(1, std::llround(target));
  dag.set_wcet(*voff, c_off);
  return c_off;
}

double offload_ratio(const Dag& dag) {
  const auto voff = dag.offload_node();
  HEDRA_REQUIRE(voff.has_value(), "no offload node selected");
  return static_cast<double>(dag.wcet(*voff)) /
         static_cast<double>(dag.volume());
}

}  // namespace hedra::gen
