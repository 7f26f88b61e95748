#pragma once

/// \file algorithms.h
/// Classic DAG algorithms used throughout the analysis: topological order,
/// reachability (the paper's Pred(v)/Succ(v) sets), transitive closure and
/// reduction.  The paper's system model requires transitive-edge-free graphs
/// (§2), so detection and reduction utilities live here as well.  Closure
/// and transitive-edge detection run over a CSR view; the `Dag` forms
/// snapshot first (and so throw on cyclic input).

#include <vector>

#include "graph/dag.h"
#include "graph/flat_view.h"
#include "util/bitset.h"

namespace hedra::graph {

/// Topological order (Kahn).  Ties are broken by ascending node id, so the
/// order is deterministic.  Throws hedra::Error if the graph has a cycle.
[[nodiscard]] std::vector<NodeId> topological_order(const Dag& dag);

/// True iff the graph is acyclic.
[[nodiscard]] bool is_acyclic(const Dag& dag);

/// All nodes from which `v` is reachable, excluding `v` itself — the paper's
/// Pred(v) ("the set of nodes from which v_off can be reached").
[[nodiscard]] DynamicBitset ancestors(const Dag& dag, NodeId v);
[[nodiscard]] DynamicBitset ancestors(const FlatView& view, NodeId v);

/// All nodes reachable from `v`, excluding `v` itself — the paper's Succ(v).
[[nodiscard]] DynamicBitset descendants(const Dag& dag, NodeId v);
[[nodiscard]] DynamicBitset descendants(const FlatView& view, NodeId v);

/// True iff `to` is reachable from `from` by a non-empty path.
[[nodiscard]] bool reachable(const Dag& dag, NodeId from, NodeId to);

/// reach[v] = set of nodes reachable from v (excluding v), for every v.
[[nodiscard]] std::vector<DynamicBitset> transitive_closure(const Dag& dag);
[[nodiscard]] std::vector<DynamicBitset> transitive_closure(
    const FlatView& view);

/// Edges (u, w) for which another u -> ... -> w path exists, grouped by
/// source id ascending and in adjacency order within a source.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> transitive_edges(
    const Dag& dag);
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> transitive_edges(
    const FlatView& view);

/// True iff the graph has no transitive edges (the paper's model assumption).
[[nodiscard]] bool is_transitively_reduced(const Dag& dag);

/// Copy of `dag` with all transitive edges removed.  Node ids are preserved.
[[nodiscard]] Dag transitive_reduction(const Dag& dag);

}  // namespace hedra::graph
