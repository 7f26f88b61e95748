#include "graph/flat_batch.h"

#include <algorithm>

namespace hedra::graph {

void FlatDagBatch::reserve(std::size_t dags, std::size_t nodes_per_dag,
                           std::size_t edges_per_dag) {
  records_.reserve(dags);
  succ_off_.reserve(dags * (nodes_per_dag + 1));
  pred_off_.reserve(dags * (nodes_per_dag + 1));
  succ_.reserve(dags * edges_per_dag);
  pred_.reserve(dags * edges_per_dag);
  wcet_.reserve(dags * nodes_per_dag);
  device_.reserve(dags * nodes_per_dag);
  sync_.reserve(dags * nodes_per_dag);
  topo_.reserve(dags * nodes_per_dag);
}

void FlatDagBatch::append(const StagedDag& staged, EdgeOrder order,
                          NodeId offload_relabel) {
  const std::size_t n = staged.num_nodes();
  HEDRA_REQUIRE(n > 0, "cannot append an empty staged DAG");
  const std::size_t e = staged.edges.size();

  Record rec;
  rec.node_off = static_cast<std::uint32_t>(wcet_.size());
  rec.node_end = static_cast<std::uint32_t>(wcet_.size() + n);
  rec.edge_off = static_cast<std::uint32_t>(succ_.size());
  rec.edge_end = static_cast<std::uint32_t>(succ_.size() + e);
  rec.csr_off = static_cast<std::uint32_t>(succ_off_.size());
  rec.offload_relabel = offload_relabel;
  rec.order = order;

  wcet_.insert(wcet_.end(), staged.wcet.begin(), staged.wcet.end());
  device_.insert(device_.end(), staged.device.begin(), staged.device.end());
  sync_.insert(sync_.end(), staged.sync.begin(), staged.sync.end());
  for (std::size_t v = 0; v < n; ++v) {
    rec.max_device = std::max(rec.max_device, staged.device[v]);
    if (staged.device[v] != kHostDevice) ++rec.num_offload;
  }

  // Successor CSR: prefix sums over out-degrees, then a stable counting
  // sort of the edge list — successor lists keep insertion order, exactly
  // as Dag::successors does.
  succ_off_.resize(rec.csr_off + n + 1);
  pred_off_.resize(rec.csr_off + n + 1);
  std::uint32_t* soff = succ_off_.data() + rec.csr_off;
  std::uint32_t* poff = pred_off_.data() + rec.csr_off;
  soff[0] = 0;
  poff[0] = 0;
  for (std::size_t v = 0; v < n; ++v) {
    soff[v + 1] = soff[v] + staged.out_deg[v];
    poff[v + 1] = poff[v] + staged.in_deg[v];
  }
  succ_.resize(rec.edge_off + e);
  pred_.resize(rec.edge_off + e);
  NodeId* succ = succ_.data() + rec.edge_off;
  NodeId* pred = pred_.data() + rec.edge_off;
  cursor_.assign(soff, soff + n);
  for (const auto& [from, to] : staged.edges) succ[cursor_[from]++] = to;
  cursor_.assign(poff, poff + n);
  if (order == EdgeOrder::kInsertion) {
    for (const auto& [from, to] : staged.edges) pred[cursor_[to]++] = from;
  } else {
    // Reproduce the select_offload_node rebuild: edges re-added grouped by
    // source id ascending, so predecessor lists come out source-ascending.
    for (NodeId v = 0; v < n; ++v) {
      for (std::uint32_t k = soff[v]; k < soff[v + 1]; ++k) {
        pred[cursor_[succ[k]]++] = v;
      }
    }
  }

  if (order == EdgeOrder::kInsertion) {
    rec.raw_edge_off = static_cast<std::uint32_t>(edge_from_.size());
    for (const auto& [from, to] : staged.edges) {
      edge_from_.push_back(from);
      edge_to_.push_back(to);
    }
  }

  topo_.resize(rec.node_off + n);
  detail::kahn_order_into(n, soff, succ, poff, topo_.data() + rec.node_off);

  records_.push_back(rec);
}

FlatView FlatDagBatch::view(std::size_t i) const {
  const Record& r = records_[i];
  const std::size_t n = r.node_end - r.node_off;
  const std::size_t e = r.edge_end - r.edge_off;
  return FlatView({succ_off_.data() + r.csr_off, n + 1},
                  {pred_off_.data() + r.csr_off, n + 1},
                  {succ_.data() + r.edge_off, e},
                  {pred_.data() + r.edge_off, e},
                  {wcet_.data() + r.node_off, n},
                  {device_.data() + r.node_off, n},
                  {sync_.data() + r.node_off, n},
                  {topo_.data() + r.node_off, n}, r.max_device, r.num_offload,
                  /*source=*/nullptr);
}

Dag FlatDagBatch::materialize(std::size_t i) const {
  const Record& r = records_[i];
  const std::size_t n = r.node_end - r.node_off;
  const Time* wcet = wcet_.data() + r.node_off;
  const DeviceId* device = device_.data() + r.node_off;
  Dag dag;
  if (r.order == EdgeOrder::kGroupedBySource) {
    const std::uint8_t* sync = sync_.data() + r.node_off;
    for (NodeId v = 0; v < n; ++v) {
      if (v == r.offload_relabel) {
        dag.add_node(wcet[v], NodeKind::kOffload);
      } else {
        dag.add_node(wcet[v], sync[v] != 0 ? NodeKind::kSync : NodeKind::kHost);
      }
    }
    const std::uint32_t* soff = succ_off_.data() + r.csr_off;
    const NodeId* succ = succ_.data() + r.edge_off;
    for (NodeId v = 0; v < n; ++v) {
      for (std::uint32_t k = soff[v]; k < soff[v + 1]; ++k) {
        dag.add_edge(v, succ[k]);
      }
    }
  } else {
    for (NodeId v = 0; v < n; ++v) dag.add_node(wcet[v]);
    for (NodeId v = 0; v < n; ++v) {
      if (device[v] != kHostDevice) dag.set_device(v, device[v]);
    }
    const std::uint32_t raw_end = r.raw_edge_off + (r.edge_end - r.edge_off);
    for (std::uint32_t k = r.raw_edge_off; k < raw_end; ++k) {
      dag.add_edge(edge_from_[k], edge_to_[k]);
    }
  }
  return dag;
}

void FlatDagBatch::clear() noexcept {
  records_.clear();
  succ_off_.clear();
  pred_off_.clear();
  succ_.clear();
  pred_.clear();
  wcet_.clear();
  device_.clear();
  sync_.clear();
  topo_.clear();
  edge_from_.clear();
  edge_to_.clear();
}

}  // namespace hedra::graph
