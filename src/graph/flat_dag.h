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
/// The snapshot keeps a pointer to its source Dag (which must outlive it)
/// so trace validation and rendering can still reach labels and the
/// original adjacency.  Construction throws hedra::Error on cyclic input.

#include <cstdint>
#include <span>
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
  /// lives); lets FlatDag-based callers reuse the FlatView entry points.
  [[nodiscard]] FlatView view() const noexcept {
    return FlatView(succ_off_, pred_off_, succ_, pred_, wcet_, device_, sync_,
                    topo_, max_device_, num_offload_, source_);
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return wcet_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return succ_.size(); }

  [[nodiscard]] std::span<const NodeId> successors(NodeId v) const noexcept {
    return {succ_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
  }
  [[nodiscard]] std::span<const NodeId> predecessors(NodeId v) const noexcept {
    return {pred_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
  }
  [[nodiscard]] std::size_t out_degree(NodeId v) const noexcept {
    return succ_off_[v + 1] - succ_off_[v];
  }
  [[nodiscard]] std::size_t in_degree(NodeId v) const noexcept {
    return pred_off_[v + 1] - pred_off_[v];
  }

  [[nodiscard]] Time wcet(NodeId v) const noexcept { return wcet_[v]; }
  [[nodiscard]] DeviceId device(NodeId v) const noexcept { return device_[v]; }
  [[nodiscard]] bool is_sync(NodeId v) const noexcept {
    return sync_[v] != 0;
  }
  [[nodiscard]] NodeKind kind(NodeId v) const noexcept {
    if (sync_[v] != 0) return NodeKind::kSync;
    return device_[v] == kHostDevice ? NodeKind::kHost : NodeKind::kOffload;
  }

  /// Raw attribute arrays for tight loops.
  [[nodiscard]] std::span<const Time> wcets() const noexcept { return wcet_; }
  [[nodiscard]] std::span<const DeviceId> devices() const noexcept {
    return device_;
  }

  /// Deterministic Kahn topological order (ascending-id tie-breaks) — the
  /// same order graph::topological_order(source()) returns.
  [[nodiscard]] const std::vector<NodeId>& topological_order() const noexcept {
    return topo_;
  }

  /// Largest device id present (0 for a homogeneous DAG).
  [[nodiscard]] DeviceId max_device() const noexcept { return max_device_; }

  /// Number of nodes placed on an accelerator (device != 0).
  [[nodiscard]] std::size_t num_offload_nodes() const noexcept {
    return num_offload_;
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
