#include "analysis/transform.h"

#include "graph/algorithms.h"
#include "graph/validate.h"

namespace hedra::analysis {

TransformResult transform_for_offload(const graph::FlatView& dag) {
  graph::throw_if_invalid(dag, graph::heterogeneous_rules());
  const std::size_t n = dag.num_nodes();
  NodeId voff = 0;
  while (dag.device(voff) == graph::kHostDevice) ++voff;
  HEDRA_REQUIRE(dag.in_degree(voff) > 0,
                "v_off must not be the source of the DAG");
  HEDRA_REQUIRE(dag.out_degree(voff) > 0,
                "v_off must not be the sink of the DAG");

  TransformResult result;
  result.voff = voff;

  // Line 1: Pred(v_off) and Succ(v_off).
  result.pred = graph::ancestors(dag, voff);
  result.succ = graph::descendants(dag, voff);
  const DynamicBitset& pred = result.pred;

  // Lines 14-17: G_par on the ORIGINAL graph.
  result.gpar = DynamicBitset(n);
  for (NodeId v = 0; v < n; ++v) {
    if (v != voff && !pred.test(v) && !result.succ.test(v)) {
      result.gpar.set(v);
    }
  }

  // Line 2: V' = V ∪ {v_sync}.
  thread_local graph::StagedDag staged;
  staged.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (dag.is_sync(v)) {
      (void)staged.add_sync_node();
    } else {
      (void)staged.add_node(dag.wcet(v));
    }
    staged.device[v] = dag.device(v);
  }
  const NodeId vsync = staged.add_sync_node();
  result.vsync = vsync;

  // Lines 3-8 and 10-13, seen from the source side: a node of Pred(v_off)
  // keeps only its edges inside Pred(v_off) — its edge to v_off and every
  // edge into the parallel portion move under v_sync (transitive freeness
  // rules out an edge from Pred(v_off) into Succ(v_off)).  Line 5 then
  // links each direct predecessor to v_sync.
  const auto direct = dag.predecessors(voff);
  DynamicBitset is_direct(n);
  for (const NodeId vi : direct) is_direct.set(vi);
  std::size_t moved = 0;
  for (NodeId u = 0; u < n; ++u) {
    const bool in_pred = pred.test(u);
    for (const NodeId w : dag.successors(u)) {
      if (!in_pred || pred.test(w)) {
        staged.add_edge(u, w);
      } else if (w != voff) {
        ++moved;
      }
    }
    if (is_direct.test(u)) staged.add_edge(u, vsync);
  }

  // v_sync's successors, each once: the moved targets of the direct
  // predecessors (lines 6-8), v_off (line 9), then those of the indirect
  // predecessors (lines 10-13).
  DynamicBitset adopted(n);
  const auto adopt = [&](NodeId w) {
    if (adopted.test(w)) return;
    adopted.set(w);
    staged.add_edge(vsync, w);
  };
  for (const NodeId vi : direct) {
    for (const NodeId w : dag.successors(vi)) {
      if (w != voff) adopt(w);
    }
  }
  staged.add_edge(vsync, voff);
  for (NodeId vi = 0; vi < n; ++vi) {
    if (!pred.test(vi) || is_direct.test(vi)) continue;
    for (const NodeId w : dag.successors(vi)) {
      if (!pred.test(w)) adopt(w);
    }
  }

  result.edges_removed = direct.size() + moved;
  result.edges_added = direct.size() + adopted.count() + 1;
  result.transformed.append(
      staged, graph::FlatDagBatch::EdgeOrder::kGroupedBySource, voff);
  return result;
}

Dag transformed_dag(const Dag& original, const TransformResult& t) {
  const graph::FlatView gp = t.view();
  HEDRA_REQUIRE(original.num_nodes() + 1 == gp.num_nodes(),
                "transform result does not belong to this graph");
  Dag out;
  for (NodeId v = 0; v < original.num_nodes(); ++v) {
    (void)out.add_node(original.node(v));
  }
  (void)out.add_node(0, graph::NodeKind::kSync);
  for (NodeId u = 0; u < gp.num_nodes(); ++u) {
    for (const NodeId w : gp.successors(u)) out.add_edge(u, w);
  }
  return out;
}

}  // namespace hedra::analysis
