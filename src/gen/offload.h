#pragma once

/// \file offload.h
/// Turning a homogeneous random DAG into a heterogeneous task (§5.1):
/// "Once a DAG is generated, we randomly select v_off among all the nodes.
/// C_off is assigned with the interval [1, C_off_MAX], where C_off_MAX
/// represents a percentage (up to 60%) of DAG's volume."
///
/// The experiments sweep a *target* ratio C_off / vol(G); set_offload_ratio
/// solves for the WCET that realises the target on the final volume
/// (C_off = r · vol ⇒ C_off = r/(1−r) · vol_rest, rounded, at least 1).

#include <cstdint>

#include "graph/dag.h"
#include "util/rng.h"

namespace hedra::gen {

/// Marks a uniformly chosen internal node (neither source nor sink) as the
/// offloaded node and returns its id.  Requires a valid single-source/sink
/// DAG with at least 3 nodes and no existing offload node.
graph::NodeId select_offload_node(graph::Dag& dag, Rng& rng);

/// Sets C_off so that C_off / vol(G) ≈ `ratio` (ratio in (0, 1)); the
/// offload node must already be selected.  Returns the assigned C_off.
graph::Time set_offload_ratio(graph::Dag& dag, double ratio);

/// The realised ratio C_off / vol(G) of a heterogeneous DAG.
[[nodiscard]] double offload_ratio(const graph::Dag& dag);

}  // namespace hedra::gen
