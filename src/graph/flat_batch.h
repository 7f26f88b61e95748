#pragma once

/// \file flat_batch.h
/// Structure-of-arrays arena for a whole batch of DAGs.
///
/// The Monte-Carlo pipeline generates hundreds of DAGs per sweep point only
/// to re-snapshot each one into `FlatDag` CSR form; the per-DAG
/// vector-of-vectors `Dag` in the middle is pure allocation traffic.
/// `FlatDagBatch` removes it: the whole batch lives in ONE contiguous set of
/// `succ_off / pred_off / succ / pred / wcet / device / sync / topo` arrays
/// with a per-DAG offset record, node ids are DAG-local (0-based), and each
/// DAG is exposed as a `FlatView`.  A `Dag` object is materialised lazily,
/// and only for callers that genuinely need one (labels: dag_io, DOT
/// rendering).
///
/// Generators stage one DAG at a time in a reusable `StagedDag` scratch
/// (plain wcet/device arrays plus the edge list in insertion order) and
/// `append` the accepted attempt; rejected attempts just `clear` the scratch
/// — no allocations are paid per attempt once the high-water marks are
/// reached.
///
/// Determinism contract: `append` derives the CSR arrays so that `view(i)`
/// is byte-identical to `FlatDag(materialize(i))`, and `materialize(i)` is
/// the one way a generated `Dag` comes into being (gen/flat_gen.h).  The
/// two generator recipes pin different predecessor orderings: the
/// single-offload recipe orders each predecessor list by source id
/// ascending (as `select_offload_node`, which rebuilds its Dag from
/// `Dag::edges()`, leaves it), while the plain and multi-device recipes keep
/// raw insertion order — so each record carries its `EdgeOrder` convention.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/dag.h"
#include "graph/flat_view.h"

namespace hedra::graph {

/// Reusable staging buffers for one DAG under construction.  Generators
/// fill these directly (no `Dag` allocation per attempt) and hand the
/// accepted attempt to `FlatDagBatch::append`; so does Algorithm 1
/// (analysis/transform.h), which stages G′ with its v_sync node.
struct StagedDag {
  std::vector<Time> wcet;
  std::vector<DeviceId> device;
  std::vector<std::uint8_t> sync;
  std::vector<std::pair<NodeId, NodeId>> edges;  ///< insertion order
  std::vector<std::uint32_t> in_deg;
  std::vector<std::uint32_t> out_deg;

  /// Adds a host node with the given WCET; returns its 0-based local id.
  NodeId add_node(Time c) {
    wcet.push_back(c);
    device.push_back(kHostDevice);
    sync.push_back(0);
    in_deg.push_back(0);
    out_deg.push_back(0);
    return static_cast<NodeId>(wcet.size() - 1);
  }

  /// Adds a zero-WCET host synchronisation node; returns its id.
  NodeId add_sync_node() {
    const NodeId v = add_node(0);
    sync[v] = 1;
    return v;
  }

  void add_edge(NodeId from, NodeId to) {
    edges.emplace_back(from, to);
    ++out_deg[from];
    ++in_deg[to];
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return wcet.size(); }

  /// Resets to an empty DAG; capacity (and therefore the amortised
  /// zero-allocation property of the rejection loop) is kept.
  void clear() noexcept {
    wcet.clear();
    device.clear();
    sync.clear();
    edges.clear();
    in_deg.clear();
    out_deg.clear();
  }
};

class FlatDagBatch {
 public:
  /// Which predecessor ordering (and materialisation labels) a DAG
  /// follows; see the file comment.
  enum class EdgeOrder : std::uint8_t {
    /// Predecessor lists in raw edge-insertion order; materialises via
    /// `add_node(wcet)` + `set_device` (plain and multi-device recipes).
    kInsertion,
    /// Predecessor lists grouped by source id ascending, reproducing the
    /// `select_offload_node` rebuild; the single offload node materialises
    /// as `NodeKind::kOffload` (label "vOff").
    kGroupedBySource,
  };

  FlatDagBatch() = default;

  /// Pre-sizes the arena (counts are hints, not limits).
  void reserve(std::size_t dags, std::size_t nodes_per_dag,
               std::size_t edges_per_dag);

  /// Copies one staged DAG into the arena, deriving succ/pred CSR and the
  /// deterministic Kahn topological order.  `staged.device` must already
  /// carry final placements.  The generators never stage sync nodes; the
  /// §3.4 transformation stages one, v_sync.
  void append(const StagedDag& staged, EdgeOrder order,
              NodeId offload_relabel = kInvalidNode);

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  [[nodiscard]] std::size_t num_nodes(std::size_t i) const {
    return records_[i].node_end - records_[i].node_off;
  }
  [[nodiscard]] std::size_t num_edges(std::size_t i) const {
    return records_[i].edge_end - records_[i].edge_off;
  }
  [[nodiscard]] std::size_t total_nodes() const noexcept {
    return wcet_.size();
  }
  [[nodiscard]] std::size_t total_edges() const noexcept {
    return succ_.size();
  }

  /// CSR view of DAG `i`; valid until the next append/clear/move.
  [[nodiscard]] FlatView view(std::size_t i) const;

  /// Rebuilds DAG `i` as a full `Dag` (labels included) whose CSR snapshot
  /// equals `view(i)`.  O(n + e); intended for the cold paths (dag_io, DOT)
  /// only.
  [[nodiscard]] Dag materialize(std::size_t i) const;

  /// Whole-arena attribute arrays (all DAGs back to back) for batch kernels.
  [[nodiscard]] std::span<const Time> all_wcets() const noexcept {
    return wcet_;
  }
  [[nodiscard]] std::span<const DeviceId> all_devices() const noexcept {
    return device_;
  }

  void clear() noexcept;

 private:
  struct Record {
    std::uint32_t node_off = 0;  ///< into wcet_/device_/sync_/topo_
    std::uint32_t node_end = 0;
    std::uint32_t edge_off = 0;  ///< into succ_/pred_
    std::uint32_t edge_end = 0;
    std::uint32_t raw_edge_off = 0;  ///< into edge_from_/to_ (kInsertion)
    std::uint32_t csr_off = 0;   ///< into succ_off_/pred_off_ (n+1 entries)
    DeviceId max_device = 0;
    std::uint32_t num_offload = 0;
    NodeId offload_relabel = kInvalidNode;  ///< "vOff" node (kGroupedBySource)
    EdgeOrder order = EdgeOrder::kInsertion;
  };

  std::vector<Record> records_;
  // Per-DAG CSR with LOCAL offsets: DAG i occupies csr_off .. csr_off+n_i
  // (n_i + 1 entries) in the offset arrays and edge_off .. edge_end in the
  // flat neighbour arrays, with node ids local to the DAG.
  std::vector<std::uint32_t> succ_off_;
  std::vector<std::uint32_t> pred_off_;
  std::vector<NodeId> succ_;
  std::vector<NodeId> pred_;
  std::vector<Time> wcet_;
  std::vector<DeviceId> device_;
  std::vector<std::uint8_t> sync_;
  std::vector<NodeId> topo_;
  // Raw edge list in insertion order of the kInsertion DAGs only, so they
  // can materialise with their exact edge-insertion ordering.
  std::vector<NodeId> edge_from_;
  std::vector<NodeId> edge_to_;
  std::vector<std::uint32_t> cursor_;  ///< counting-sort scratch
};

}  // namespace hedra::graph
