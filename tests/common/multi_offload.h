#pragma once

/// \file multi_offload.h
/// Test-only oracle (not part of the DAC'18 paper; listed there as future
/// work §7): a sound response-time bound for DAGs with *several* offloaded
/// nodes sharing the single accelerator device.
///
/// Derivation (two-resource Graham argument).  Fix any work-conserving
/// schedule and build the usual interference chain C backwards from the last
/// completing node.  At any instant where the head of the chain is ready but
/// not executing, either
///   (a) it is a host node, so all m host cores are busy with host work not
///       in C, or
///   (b) it is an offload node, so the accelerator is busy with offload work
///       not in C.
/// Hence
///
///   R <= len(C) + (vol_host − host(C))/m + (vol_off − off(C))
///
/// and maximising the right-hand side over all source-to-sink chains gives
///
///   R_multi = vol_host/m + vol_off
///             + max over paths P of Σ_{v∈P, host} C_v·(m−1)/m,
///
/// a weighted-longest-path computation (offload nodes contribute weight 0).
/// With a single offload node this is in general *incomparable* with
/// Theorem 1 (no v_sync is inserted, so no serialisation penalty, but no
/// parallel-execution guarantee either); the ablation bench compares them.
///
/// analysis/platform_rta.h generalises this argument to K named accelerator
/// devices (R <= vol_host/m + Σ_d vol_d + max_P Σ_{v∈P,host} C_v·(m−1)/m)
/// and is the library's implementation.  This two-resource version is kept
/// independent of it as the K = 1 reference: tests/analysis/
/// platform_rta_test.cpp pins the exact rational equality rta_platform ==
/// rta_multi_offload on generated single-device batches.

#include <algorithm>
#include <vector>

#include "graph/algorithms.h"
#include "graph/dag.h"
#include "util/fraction.h"

namespace hedra::testing {

/// Sound bound for any number of kOffload nodes executing on ONE
/// accelerator under any work-conserving scheduler.  Requires m >= 1 and an
/// acyclic graph; works for zero offload nodes too (reduces to Eq. 1's value
/// only when the critical path maximises the weighted path — in general it
/// equals vol/m + max_P Σ C_v (m−1)/m, the chain form of the Graham bound).
[[nodiscard]] inline Frac rta_multi_offload(const graph::Dag& dag, int m) {
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  HEDRA_REQUIRE(dag.num_nodes() > 0, "empty graph");

  // Weighted longest path: host nodes weigh C_v·(m−1), offload nodes 0;
  // divide by m at the end to stay in integer arithmetic.
  const auto order = graph::topological_order(dag);
  std::vector<graph::Time> best(dag.num_nodes(), 0);
  graph::Time max_weighted = 0;
  for (const auto v : order) {
    graph::Time incoming = 0;
    for (const auto p : dag.predecessors(v)) {
      incoming = std::max(incoming, best[p]);
    }
    const graph::Time weight = dag.kind(v) == graph::NodeKind::kOffload
                                   ? 0
                                   : dag.wcet(v) * (m - 1);
    best[v] = incoming + weight;
    max_weighted = std::max(max_weighted, best[v]);
  }

  graph::Time vol_host = 0;
  graph::Time vol_off = 0;
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.kind(v) == graph::NodeKind::kOffload) vol_off += dag.wcet(v);
    else vol_host += dag.wcet(v);
  }

  return Frac(vol_host, m) + Frac(vol_off) + Frac(max_weighted, m);
}

}  // namespace hedra::testing
