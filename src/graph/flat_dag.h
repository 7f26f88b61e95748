#pragma once

/// \file flat_dag.h
/// Immutable flat (CSR) snapshot of a Dag for the hot paths.
///
/// `Dag` stores adjacency as `std::vector<std::vector<NodeId>>` and node
/// attributes behind a bounds-checked `node(id)` accessor — the right shape
/// for building and labelling a graph, and the wrong shape for the
/// Monte-Carlo pipeline, which walks the *same frozen graph* thousands of
/// times (per policy, per core count, per search node).  `FlatDag` snapshots
/// a Dag once into contiguous arrays:
///
///   - successor / predecessor ids in CSR form (one offsets array + one flat
///     neighbour array each, so a node's out-edges are a cache-line-friendly
///     `std::span`),
///   - flat `wcet` / `device` / `sync` attribute arrays (no per-node struct
///     padding, no string labels dragged through the cache),
///   - the deterministic Kahn topological order (smallest-id tie-breaks,
///     identical to graph::topological_order), computed once at build time
///     because every consumer — longest paths, weighted paths, simulation
///     ready-counts — needs it anyway.
///
/// `FlatDag` only owns the arrays: every read goes through `view()`, the
/// same `FlatView` the batch arena hands out, so there is one CSR reading
/// interface.  The snapshot keeps a pointer to its source Dag (which must
/// outlive it) so trace validation and rendering can still reach labels.
/// Construction throws hedra::Error on cyclic input.

#include <cstdint>
#include <vector>

#include "graph/dag.h"
#include "graph/flat_view.h"

namespace hedra::graph {

class FlatDag {
 public:
  /// Snapshots `dag`, which must outlive the snapshot.
  explicit FlatDag(const Dag& dag);

  /// Binding to a temporary would dangle immediately.
  explicit FlatDag(Dag&&) = delete;

  /// The snapshotted graph (labels, validation).
  [[nodiscard]] const Dag& source() const noexcept { return *source_; }

  /// Non-owning view over this snapshot's arrays (valid while the snapshot
  /// lives); the one way to read them.
  [[nodiscard]] FlatView view() const noexcept {
    return FlatView(succ_off_, pred_off_, succ_, pred_, wcet_, device_, sync_,
                    topo_, max_device_, num_offload_, source_);
  }

 private:
  const Dag* source_;
  std::vector<std::uint32_t> succ_off_;
  std::vector<std::uint32_t> pred_off_;
  std::vector<NodeId> succ_;
  std::vector<NodeId> pred_;
  std::vector<Time> wcet_;
  std::vector<DeviceId> device_;
  std::vector<std::uint8_t> sync_;
  std::vector<NodeId> topo_;
  DeviceId max_device_ = 0;
  std::size_t num_offload_ = 0;
};

}  // namespace hedra::graph
