#pragma once

/// \file critical_path.h
/// The two DAG properties the analysis is built on (§2):
///  - vol(G): total WCET of all nodes (Dag::volume()), and
///  - len(G): length of the critical path, i.e. the longest path where a
///    path's length is the sum of the WCETs of its nodes.
///
/// CriticalPathInfo additionally exposes, per node v,
///  - up(v):   longest path ending at v, v's WCET included, and
///  - down(v): longest path starting at v, v's WCET included,
/// so that "v lies on a critical path" is the O(1) test
/// `up(v) + down(v) - C(v) == len(G)` — exactly what Theorem 1's scenario
/// classification needs for v_off.

#include <vector>

#include "graph/dag.h"
#include "graph/flat_view.h"

namespace hedra::graph {

/// Longest-path data for a whole DAG.
class CriticalPathInfo {
 public:
  /// Computes lengths over a snapshot of `dag`.  Throws on cyclic input.
  explicit CriticalPathInfo(const Dag& dag);

  /// Same lengths from a CSR view, reusing its cached topological order
  /// (no re-sort, no pointer-chased adjacency) — the hot-path constructor.
  explicit CriticalPathInfo(const FlatView& view);

  /// len(G): length of the longest path; 0 for an empty graph.
  [[nodiscard]] Time length() const noexcept { return length_; }

  /// Longest path ending at v (inclusive).
  [[nodiscard]] Time up(NodeId v) const { return up_.at(v); }

  /// Longest path starting at v (inclusive).
  [[nodiscard]] Time down(NodeId v) const { return down_.at(v); }

  /// True iff v lies on at least one critical path of `g`, the Dag or
  /// FlatView these lengths were computed from.
  template <class Graph>
  [[nodiscard]] bool on_critical_path(const Graph& g, NodeId v) const {
    return up(v) + down(v) - g.wcet(v) == length_;
  }

 private:
  Time length_ = 0;
  std::vector<Time> up_;
  std::vector<Time> down_;
};

/// len(G) without retaining per-node data.
[[nodiscard]] Time critical_path_length(const Dag& dag);

/// len(G) from a CSR view (single forward pass, no allocation beyond one
/// lengths array).
[[nodiscard]] Time critical_path_length(const FlatView& view);

/// down(v) for every node of a view — the longest path starting at v, v's
/// WCET included.  One reverse pass over the cached topological order; used
/// by the critical-path-first simulator policy and the B&B solver.
[[nodiscard]] std::vector<Time> down_lengths(const FlatView& view);

/// Same, written into `down` (resized to the node count), so a caller that
/// runs many times can keep one buffer.
void down_lengths(const FlatView& view, std::vector<Time>& down);

/// One longest path, source to sink, as a node sequence.  Deterministic
/// (smallest-id tie-breaks).  Empty for an empty graph.
[[nodiscard]] std::vector<NodeId> extract_critical_path(const Dag& dag);

}  // namespace hedra::graph
