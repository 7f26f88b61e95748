#include "graph/critical_path.h"

#include <algorithm>

#include "graph/flat_dag.h"

namespace hedra::graph {

CriticalPathInfo::CriticalPathInfo(const Dag& dag)
    : CriticalPathInfo(FlatDag(dag).view()) {}

CriticalPathInfo::CriticalPathInfo(const FlatView& view) {
  const std::size_t n = view.num_nodes();
  up_.assign(n, 0);
  down_.assign(n, 0);
  const auto order = view.topological_order();
  for (const NodeId v : order) {
    Time best = 0;
    for (const NodeId p : view.predecessors(v)) best = std::max(best, up_[p]);
    up_[v] = best + view.wcet(v);
    length_ = std::max(length_, up_[v]);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    Time best = 0;
    for (const NodeId s : view.successors(v)) best = std::max(best, down_[s]);
    down_[v] = best + view.wcet(v);
  }
}

Time critical_path_length(const Dag& dag) {
  return CriticalPathInfo(dag).length();
}

Time critical_path_length(const FlatView& view) {
  const std::size_t n = view.num_nodes();
  std::vector<Time> up(n, 0);
  Time length = 0;
  for (const NodeId v : view.topological_order()) {
    Time best = 0;
    for (const NodeId p : view.predecessors(v)) best = std::max(best, up[p]);
    up[v] = best + view.wcet(v);
    length = std::max(length, up[v]);
  }
  return length;
}

std::vector<Time> down_lengths(const FlatView& view) {
  std::vector<Time> down;
  down_lengths(view, down);
  return down;
}

void down_lengths(const FlatView& view, std::vector<Time>& down) {
  down.assign(view.num_nodes(), 0);
  const auto order = view.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    Time best = 0;
    for (const NodeId s : view.successors(v)) best = std::max(best, down[s]);
    down[v] = best + view.wcet(v);
  }
}

std::vector<NodeId> extract_critical_path(const Dag& dag) {
  if (dag.num_nodes() == 0) return {};
  const CriticalPathInfo info(dag);
  // Start from the smallest-id node that begins a critical path.
  NodeId current = kInvalidNode;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.in_degree(v) == 0 && info.down(v) == info.length()) {
      current = v;
      break;
    }
  }
  HEDRA_ASSERT(current != kInvalidNode);
  std::vector<NodeId> path{current};
  while (dag.out_degree(current) > 0) {
    const Time remaining = info.down(current) - dag.wcet(current);
    if (remaining == 0) break;  // longest continuation is empty
    NodeId next = kInvalidNode;
    for (const NodeId s : dag.successors(current)) {
      if (info.down(s) == remaining && (next == kInvalidNode || s < next)) {
        next = s;
      }
    }
    HEDRA_ASSERT(next != kInvalidNode);
    path.push_back(next);
    current = next;
  }
  return path;
}

}  // namespace hedra::graph
