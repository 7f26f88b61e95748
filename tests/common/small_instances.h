#pragma once

/// \file small_instances.h
/// Seeded tiny heterogeneous DAGs for exhaustive cross-validation against
/// exact::brute_force_min_makespan: hierarchical shapes of 4 to 10 nodes
/// with WCETs in [1, 9], then one offload node or several sharing the
/// single accelerator, and sometimes a host node of zero WCET.

#include <cstdint>
#include <vector>

#include "gen/hierarchical.h"
#include "gen/offload.h"
#include "graph/dag.h"
#include "util/rng.h"

namespace hedra::testing {

inline std::vector<graph::Dag> small_offload_instances(std::uint64_t seed,
                                                       int count,
                                                       bool multi_offload) {
  Rng rng(seed);
  gen::HierarchicalParams params;
  params.max_depth = 2;
  params.n_par = 3;
  params.min_nodes = 4;
  params.max_nodes = 10;
  params.wcet_min = 1;
  params.wcet_max = 9;
  std::vector<graph::Dag> out;
  for (int i = 0; i < count; ++i) {
    graph::Dag dag = gen::generate_hierarchical(params, rng);
    const std::size_t n = dag.num_nodes();
    if (!multi_offload) {
      (void)gen::select_offload_node(dag, rng);
    } else {
      const auto offloads = rng.uniform_int(2, 3);
      for (std::int64_t k = 0; k < offloads; ++k) {
        const auto v = static_cast<graph::NodeId>(rng.index(n));
        if (!dag.node(v).sync) dag.set_device(v, 1);
      }
    }
    if (rng.bernoulli(0.3)) {
      const auto v = static_cast<graph::NodeId>(rng.index(n));
      if (dag.device(v) == graph::kHostDevice) dag.set_wcet(v, 0);
    }
    out.push_back(std::move(dag));
  }
  return out;
}

}  // namespace hedra::testing
