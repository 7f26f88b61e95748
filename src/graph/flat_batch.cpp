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

void FlatDagBatch::append(const StagedDag& staged, NodeId offload_relabel) {
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
  // Predecessor lists source-ascending: walk the successor lists source by
  // source, as a Dag that replays them (materialize) fills its own.
  cursor_.assign(poff, poff + n);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t k = soff[v]; k < soff[v + 1]; ++k) {
      pred[cursor_[succ[k]]++] = v;
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
  Dag dag;
  for (NodeId v = 0; v < n; ++v) {
    Node node;
    node.wcet = wcet_[r.node_off + v];
    node.device = device_[r.node_off + v];
    node.sync = sync_[r.node_off + v] != 0;
    // Only the relabelled node is named for its device ("vOff"); other
    // accelerator nodes keep their host-style "v<id+1>".
    if (v != r.offload_relabel) {
      node.label = default_label(v, kHostDevice, node.sync);
    }
    dag.add_node(node);
  }
  const std::uint32_t* soff = succ_off_.data() + r.csr_off;
  const NodeId* succ = succ_.data() + r.edge_off;
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t k = soff[v]; k < soff[v + 1]; ++k) {
      dag.add_edge(v, succ[k]);
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
}

}  // namespace hedra::graph
