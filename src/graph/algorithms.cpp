#include "graph/algorithms.h"

#include <algorithm>

#include "graph/flat_dag.h"

namespace hedra::graph {

std::vector<NodeId> topological_order(const Dag& dag) {
  const FlatDag flat(dag);
  const auto order = flat.view().topological_order();
  return {order.begin(), order.end()};
}

bool is_acyclic(const Dag& dag) {
  try {
    (void)topological_order(dag);
    return true;
  } catch (const Error&) {
    return false;
  }
}

namespace {

/// Over a Dag or a FlatView (the same adjacency accessors).
template <class Graph>
DynamicBitset bfs_reach(const Graph& g, NodeId start, bool forward) {
  HEDRA_REQUIRE(start < g.num_nodes(), "node id out of range");
  DynamicBitset seen(g.num_nodes());
  std::vector<NodeId> stack{start};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const NodeId w : forward ? g.successors(v) : g.predecessors(v)) {
      if (!seen.test(w)) {
        seen.set(w);
        stack.push_back(w);
      }
    }
  }
  // `start` itself is excluded unless lying on a cycle; the model requires
  // acyclic graphs, where self-reachability is impossible.
  return seen;
}

}  // namespace

DynamicBitset ancestors(const Dag& dag, NodeId v) {
  return bfs_reach(dag, v, /*forward=*/false);
}

DynamicBitset ancestors(const FlatView& view, NodeId v) {
  return bfs_reach(view, v, /*forward=*/false);
}

DynamicBitset descendants(const Dag& dag, NodeId v) {
  return bfs_reach(dag, v, /*forward=*/true);
}

DynamicBitset descendants(const FlatView& view, NodeId v) {
  return bfs_reach(view, v, /*forward=*/true);
}

bool reachable(const Dag& dag, NodeId from, NodeId to) {
  return descendants(dag, from).test(to);
}

std::vector<DynamicBitset> transitive_closure(const Dag& dag) {
  return transitive_closure(FlatDag(dag).view());
}

std::vector<DynamicBitset> transitive_closure(const FlatView& view) {
  const std::size_t n = view.num_nodes();
  const auto order = view.topological_order();
  std::vector<DynamicBitset> reach(n, DynamicBitset(n));
  // Process in reverse topological order: reach[v] = union over successors w
  // of ({w} ∪ reach[w]).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    for (const NodeId w : view.successors(v)) {
      reach[v].set(w);
      reach[v] |= reach[w];
    }
  }
  return reach;
}

std::vector<std::pair<NodeId, NodeId>> transitive_edges(const Dag& dag) {
  return transitive_edges(FlatDag(dag).view());
}

std::vector<std::pair<NodeId, NodeId>> transitive_edges(const FlatView& view) {
  const auto reach = transitive_closure(view);
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId u = 0; u < view.num_nodes(); ++u) {
    for (const NodeId w : view.successors(u)) {
      // (u, w) is transitive iff some other successor x of u reaches w.
      for (const NodeId x : view.successors(u)) {
        if (x != w && reach[x].test(w)) {
          out.emplace_back(u, w);
          break;
        }
      }
    }
  }
  return out;
}

bool is_transitively_reduced(const Dag& dag) {
  return transitive_edges(dag).empty();
}

Dag transitive_reduction(const Dag& dag) {
  Dag out;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    out.add_node(dag.node(v));
  }
  // transitive_edges returns edges grouped by source ascending and, within
  // a source, in adjacency order — not a sorted sequence.  Sort once and
  // binary-search each edge (the historical std::find made this O(E·R)).
  auto redundant = transitive_edges(dag);
  std::sort(redundant.begin(), redundant.end());
  const auto is_redundant = [&](NodeId u, NodeId w) {
    return std::binary_search(redundant.begin(), redundant.end(),
                              std::make_pair(u, w));
  };
  for (const auto& [u, w] : dag.edges()) {
    if (!is_redundant(u, w)) out.add_edge(u, w);
  }
  return out;
}

}  // namespace hedra::graph
