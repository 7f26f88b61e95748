#pragma once

/// \file hierarchical.h
/// The paper's random DAG generator (§5.1), in the style of Melani et al.
/// [12]: a node expands, with probability p_par and while below max_depth,
/// into a parallel sub-DAG — a fork node, k ∈ [2, n_par] recursively
/// expanded branches, and a join node — and otherwise into a terminal node.
/// The result always has a single source and a single sink, is acyclic and
/// transitive-edge-free by construction, and its longest path has at most
/// 2·max_depth + 1 nodes.  Generation retries until the node count falls in
/// [min_nodes, max_nodes].
///
/// WCETs are uniform integers in [wcet_min, wcet_max]; the offload node is
/// NOT chosen here — see gen/offload.h, which mirrors the paper's "randomly
/// select v_off among all the nodes" step.

#include "gen/params.h"
#include "graph/dag.h"
#include "util/rng.h"

namespace hedra::gen {

/// Generates one DAG: generate_hierarchical_flat (gen/flat_gen.h) into a
/// one-DAG arena, materialised.  Throws hedra::Error if `params` is invalid
/// or no graph within the node window is found in max_attempts tries.
[[nodiscard]] graph::Dag generate_hierarchical(const HierarchicalParams& params,
                                               Rng& rng);

}  // namespace hedra::gen
