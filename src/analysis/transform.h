#pragma once

/// \file transform.h
/// The DAG transformation of §3.4 (Algorithm 1): `τ ⇒ τ'`, over CSR.
///
/// Given G with a single offloaded node v_off, the transformation inserts a
/// zero-WCET synchronisation node v_sync immediately before v_off and the
/// sub-DAG G_par of nodes that can potentially execute in parallel with
/// v_off, guaranteeing that v_off and G_par *actually* begin execution
/// together.  This is what makes subtracting offloaded work from the
/// self-interference factor safe (§3.3) — without it, the host can sit idle
/// while the accelerator runs (Figure 1(c)) and the reduced bound is wrong.
///
/// Faithful to Algorithm 1:
///  - line 1:    Pred(v_off) / Succ(v_off) via reachability on G;
///  - lines 3-8: every direct predecessor v_i of v_off loses its edge to
///               v_off (replaced by (v_i, v_sync)) and all its *other*
///               successors are re-parented under v_sync;
///  - line 9:    edge (v_sync, v_off);
///  - lines 10-13: successors of *indirect* predecessors of v_off that are
///               not themselves predecessors of v_off are re-parented under
///               v_sync;
///  - lines 14-17: G_par is the subgraph of the ORIGINAL G induced by
///               V \ Pred(v_off) \ Succ(v_off) \ {v_off}.
///
/// The input is a `graph::FlatView` and G′ comes out as one CSR snapshot,
/// built in a single pass over G in id order — no graph is mutated.  The
/// pass reproduces, list for list, the successor order the line-by-line
/// rewrite of Algorithm 1 gives (the simulator readies successors in that
/// order, so it is part of the contract):
///  - a node u ∉ Pred keeps succ(u) unchanged;
///  - a node u ∈ Pred keeps only its successors in Pred, and a direct
///    predecessor of v_off then gets v_sync appended;
///  - succ(v_sync) is, keeping only the first occurrence of each node, the
///    successors other than v_off of each direct predecessor (in
///    predecessors(v_off) order), then v_off, then the successors outside
///    Pred of each indirect predecessor (in ascending id).
/// Predecessor lists of G′ are grouped by source id ascending.  The edge
/// counters follow: edges_removed = |direct| + the moved edges, and
/// edges_added = |direct| + the distinct moved targets + 1.
///
/// Preconditions (§2 model): acyclic, single source and sink, exactly one
/// offload node that is neither source nor sink, no transitive edges.
/// Transitive freeness is what lets line 12 use "v_j ∉ Pred(v_off)" as a
/// parallelism test without consulting Succ(v_off).

#include <cstddef>

#include "graph/dag.h"
#include "graph/flat_batch.h"
#include "graph/flat_view.h"
#include "util/bitset.h"

namespace hedra::analysis {

using graph::Dag;
using graph::NodeId;

/// Result of Algorithm 1.  Node sets are bitsets over the ids of G.
struct TransformResult {
  /// Id of v_off (same in G and G′).
  NodeId voff = graph::kInvalidNode;
  /// Id of v_sync within G′: the last node, |V|.
  NodeId vsync = graph::kInvalidNode;
  /// Pred(v_off) and Succ(v_off) on G.
  DynamicBitset pred;
  DynamicBitset succ;
  /// V_par = V \ Pred(v_off) \ Succ(v_off) \ {v_off}; may be empty.
  DynamicBitset gpar;
  /// Rewiring statistics.
  std::size_t edges_removed = 0;
  std::size_t edges_added = 0;
  /// G′ = (V ∪ {v_sync}, E′) as the single DAG of a CSR arena; node ids of
  /// G are preserved.
  graph::FlatDagBatch transformed;

  /// CSR view of G′ (source-less; see transformed_dag for labels).
  [[nodiscard]] graph::FlatView view() const { return transformed.view(0); }
};

/// Runs Algorithm 1 on `dag`.  Throws hedra::Error if the graph violates
/// the model preconditions listed above (every graph::heterogeneous_rules()
/// check, then v_off neither source nor sink).
[[nodiscard]] TransformResult transform_for_offload(const graph::FlatView& dag);

/// G′ as a labelled Dag: the nodes of `original` (the graph `t` was
/// computed from) with their labels, then "vSync", and E′ in G′'s successor
/// order, so its CSR snapshot equals `t.view()`.
[[nodiscard]] Dag transformed_dag(const Dag& original,
                                  const TransformResult& t);

}  // namespace hedra::analysis
