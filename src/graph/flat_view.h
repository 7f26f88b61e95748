#pragma once

/// \file flat_view.h
/// Non-owning CSR view of one DAG's flat arrays.
///
/// The one CSR reading interface.  Two owners hand it out: `FlatDag`, which
/// snapshots a live `Dag`, and `FlatDagBatch`, which owns one contiguous
/// arena for a whole batch.  Every walk (longest paths, weighted chain
/// walks, the simulator, the exact solver) reads a view, whichever owner is
/// behind it.  A view may or may not have a source `Dag` behind it:
/// arena-generated DAGs are never materialised unless a caller asks, so
/// `source()` is a nullable pointer here (unlike `FlatDag::source()`, which
/// is a reference by construction).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/dag.h"

namespace hedra::graph {

class FlatView {
 public:
  FlatView() = default;

  FlatView(std::span<const std::uint32_t> succ_off,
           std::span<const std::uint32_t> pred_off,
           std::span<const NodeId> succ, std::span<const NodeId> pred,
           std::span<const Time> wcet, std::span<const DeviceId> device,
           std::span<const std::uint8_t> sync, std::span<const NodeId> topo,
           DeviceId max_device, std::size_t num_offload,
           const Dag* source = nullptr) noexcept
      : succ_off_(succ_off),
        pred_off_(pred_off),
        succ_(succ),
        pred_(pred),
        wcet_(wcet),
        device_(device),
        sync_(sync),
        topo_(topo),
        source_(source),
        max_device_(max_device),
        num_offload_(num_offload) {}

  /// The snapshotted graph, or nullptr for an arena view that was never
  /// materialised (its nodes then go by graph::default_label).
  [[nodiscard]] const Dag* source() const noexcept { return source_; }

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
  [[nodiscard]] bool is_sync(NodeId v) const noexcept { return sync_[v] != 0; }
  [[nodiscard]] NodeKind kind(NodeId v) const noexcept {
    if (sync_[v] != 0) return NodeKind::kSync;
    return device_[v] == kHostDevice ? NodeKind::kHost : NodeKind::kOffload;
  }

  /// Raw attribute arrays for tight loops.
  [[nodiscard]] std::span<const Time> wcets() const noexcept { return wcet_; }
  [[nodiscard]] std::span<const DeviceId> devices() const noexcept {
    return device_;
  }

  /// Deterministic Kahn topological order (ascending-id tie-breaks).
  [[nodiscard]] std::span<const NodeId> topological_order() const noexcept {
    return topo_;
  }

  /// Largest device id present (0 for a homogeneous DAG).
  [[nodiscard]] DeviceId max_device() const noexcept { return max_device_; }

  /// Number of nodes placed on an accelerator (device != 0).
  [[nodiscard]] std::size_t num_offload_nodes() const noexcept {
    return num_offload_;
  }

 private:
  std::span<const std::uint32_t> succ_off_;
  std::span<const std::uint32_t> pred_off_;
  std::span<const NodeId> succ_;
  std::span<const NodeId> pred_;
  std::span<const Time> wcet_;
  std::span<const DeviceId> device_;
  std::span<const std::uint8_t> sync_;
  std::span<const NodeId> topo_;
  const Dag* source_ = nullptr;
  DeviceId max_device_ = 0;
  std::size_t num_offload_ = 0;
};

namespace detail {

/// Kahn with a min-heap on node id over raw CSR arrays, the one
/// topological sort: FlatDag, the batch arena builder and, through FlatDag,
/// graph::topological_order(Dag) use it.  Writes the order into `out`
/// (capacity n) and throws on cyclic input.
void kahn_order_into(std::size_t n, const std::uint32_t* succ_off,
                     const NodeId* succ, const std::uint32_t* pred_off,
                     NodeId* out);

}  // namespace detail

}  // namespace hedra::graph
