#include "gen/flat_gen.h"

#include <cmath>
#include <numeric>

namespace hedra::gen {

namespace {

using graph::DeviceId;
using graph::NodeId;
using graph::StagedDag;
using graph::Time;

/// A recursively built fragment with unique entry/exit nodes.
struct Fragment {
  NodeId entry;
  NodeId exit;
};

/// The fork–join recursion of the hierarchical generator, writing into
/// staging buffers.  Draw order: (terminal? one wcet) | (fork wcet, join
/// wcet, branch count k, then the k branches depth-first), with edges
/// recorded as the recursion unwinds.
class StagedBuilder {
 public:
  StagedBuilder(const HierarchicalParams& params, Rng& rng, StagedDag& staged)
      : params_(params), rng_(rng), staged_(staged) {}

  void build() {
    staged_.clear();
    (void)expand(0);
  }

 private:
  NodeId new_node() {
    return staged_.add_node(
        rng_.uniform_int(params_.wcet_min, params_.wcet_max));
  }

  Fragment expand(int depth) {
    const bool terminal =
        depth >= params_.max_depth || !rng_.bernoulli(params_.p_par);
    if (terminal) {
      const NodeId v = new_node();
      return Fragment{v, v};
    }
    const NodeId fork = new_node();
    const NodeId join = new_node();
    const int k = static_cast<int>(rng_.uniform_int(2, params_.n_par));
    for (int b = 0; b < k; ++b) {
      const Fragment branch = expand(depth + 1);
      staged_.add_edge(fork, branch.entry);
      staged_.add_edge(branch.exit, join);
    }
    return Fragment{fork, join};
  }

  const HierarchicalParams& params_;
  Rng& rng_;
  StagedDag& staged_;
};

/// Internal nodes (in-degree and out-degree both positive), ascending —
/// the candidate set both offload-selection steps draw from.
void collect_internal(const StagedDag& staged, std::vector<NodeId>& internal) {
  internal.clear();
  for (NodeId v = 0; v < staged.num_nodes(); ++v) {
    if (staged.in_deg[v] > 0 && staged.out_deg[v] > 0) internal.push_back(v);
  }
}

Time staged_volume(const StagedDag& staged) {
  return std::accumulate(staged.wcet.begin(), staged.wcet.end(), Time{0});
}

}  // namespace

void generate_hierarchical_staged(const HierarchicalParams& params, Rng& rng,
                                  graph::StagedDag& staged) {
  params.validate();
  StagedBuilder builder(params, rng, staged);
  for (int attempt = 0; attempt < params.max_attempts; ++attempt) {
    builder.build();
    const auto n = static_cast<int>(staged.num_nodes());
    if (n >= params.min_nodes && n <= params.max_nodes) return;
  }
  throw Error(
      "hierarchical generator: no DAG within the node window after " +
      std::to_string(params.max_attempts) +
      " attempts; the window is likely unreachable for these parameters");
}

void generate_hierarchical_flat(const HierarchicalParams& params, Rng& rng,
                                graph::FlatDagBatch& batch) {
  thread_local graph::StagedDag staged;
  generate_hierarchical_staged(params, rng, staged);
  batch.append(staged, graph::FlatDagBatch::EdgeOrder::kInsertion);
}

void generate_offload_flat(const HierarchicalParams& params, double coff_ratio,
                           Rng& rng, graph::FlatDagBatch& batch) {
  HEDRA_REQUIRE(coff_ratio > 0.0 && coff_ratio < 1.0,
                "offload ratio must lie strictly inside (0, 1)");
  thread_local graph::StagedDag staged;
  thread_local std::vector<NodeId> internal;
  generate_hierarchical_staged(params, rng, staged);

  // Selection: one index draw over the internal nodes.
  HEDRA_REQUIRE(staged.num_nodes() >= 3,
                "need at least 3 nodes to pick an internal offload node");
  collect_internal(staged, internal);
  HEDRA_REQUIRE(!internal.empty(), "graph has no internal node");
  const NodeId chosen = internal[rng.index(internal.size())];
  staged.device[chosen] = 1;

  // Ratio: C_off / (vol_rest + C_off) = ratio.
  const Time vol_rest = staged_volume(staged) - staged.wcet[chosen];
  HEDRA_REQUIRE(vol_rest > 0, "host workload must be positive");
  const double target =
      coff_ratio / (1.0 - coff_ratio) * static_cast<double>(vol_rest);
  staged.wcet[chosen] = std::max<Time>(1, std::llround(target));

  batch.append(staged, graph::FlatDagBatch::EdgeOrder::kGroupedBySource,
               chosen);
}

void generate_multi_device_flat(const HierarchicalParams& params,
                                double coff_ratio, Rng& rng,
                                graph::FlatDagBatch& batch) {
  params.validate();
  HEDRA_REQUIRE(params.num_devices >= 1,
                "generate_multi_device requires num_devices >= 1");
  HEDRA_REQUIRE(params.min_nodes >=
                    params.num_devices * params.offloads_per_device + 2,
                "node window too small for the requested offload placements");
  HEDRA_REQUIRE(coff_ratio > 0.0 && coff_ratio < 1.0,
                "offload ratio must lie strictly inside (0, 1)");
  // validate() has checked the mix and speedup vectors: empty, or one
  // finite, strictly positive entry per device.
  const auto& mix = params.device_mix;
  const auto& speedup = params.device_speedup;
  const auto num_devices = static_cast<std::size_t>(params.num_devices);

  thread_local graph::StagedDag staged;
  thread_local std::vector<NodeId> internal;
  thread_local std::vector<NodeId> nodes_on;
  generate_hierarchical_staged(params, rng, staged);

  // Placement: Fisher-Yates shuffle of the internal list, then
  // device-major assignment of the first `needed` entries.
  collect_internal(staged, internal);
  const std::size_t needed =
      num_devices * static_cast<std::size_t>(params.offloads_per_device);
  HEDRA_REQUIRE(internal.size() >= needed,
                "graph has " + std::to_string(internal.size()) +
                    " internal node(s) but " + std::to_string(needed) +
                    " offload placements were requested");
  rng.shuffle(internal);
  const auto per_device = static_cast<std::size_t>(params.offloads_per_device);
  for (std::size_t d = 1; d <= num_devices; ++d) {
    for (std::size_t j = 0; j < per_device; ++j) {
      staged.device[internal[(d - 1) * per_device + j]] =
          static_cast<DeviceId>(d);
    }
  }

  // Volumes: C_total / (vol_host + C_total) = ratio, split by mix weight
  // (a device with speedup s runs its share in 1/s of the ticks), each
  // device's budget spread by cumulative rounding over its nodes in
  // ascending id order so the split does not drift; every node keeps a
  // WCET of at least 1.
  Time vol_host = 0;
  for (NodeId v = 0; v < staged.num_nodes(); ++v) {
    if (staged.device[v] == graph::kHostDevice) vol_host += staged.wcet[v];
  }
  HEDRA_REQUIRE(vol_host > 0, "host workload must be positive");
  const double total =
      coff_ratio / (1.0 - coff_ratio) * static_cast<double>(vol_host);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < num_devices; ++i) {
    weight_sum += mix.empty() ? 1.0 : mix[i];
  }
  for (std::size_t i = 0; i < num_devices; ++i) {
    const auto d = static_cast<DeviceId>(i + 1);
    const double weight = mix.empty() ? 1.0 : mix[i];
    const double budget =
        total * weight / weight_sum / (speedup.empty() ? 1.0 : speedup[i]);
    nodes_on.clear();
    for (NodeId v = 0; v < staged.num_nodes(); ++v) {
      if (staged.device[v] == d) nodes_on.push_back(v);
    }
    const auto cum = [&](std::size_t k) {
      return std::llround(budget * static_cast<double>(k) /
                          static_cast<double>(nodes_on.size()));
    };
    for (std::size_t j = 0; j < nodes_on.size(); ++j) {
      staged.wcet[nodes_on[j]] = std::max<Time>(1, cum(j + 1) - cum(j));
    }
  }

  batch.append(staged, graph::FlatDagBatch::EdgeOrder::kInsertion);
}

}  // namespace hedra::gen
