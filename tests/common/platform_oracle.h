#pragma once

/// \file platform_oracle.h
/// Test-only oracle for the K-device chain bound of analysis/platform_rta.h,
/// written from the formula stated there and nothing else:
///
///   R = vol_host/m + Σ_d vol_d/(n_d·s_d)
///       + max_P [ Σ_{v∈P, host} C_v·(m−1)/m
///               + Σ_d Σ_{v∈P, dev d} (C_v/s_d)·(n_d−1)/n_d ] ,
///
/// with P ranging over every source-to-sink path.  The paths are
/// enumerated one by one and every term is summed in Frac, so the oracle
/// shares no longest-path DP, integer scaling or fast path with the code
/// it checks.  Enumeration is exponential; inputs are capped at 12 nodes.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "graph/dag.h"
#include "graph/flat_batch.h"
#include "util/error.h"
#include "util/fraction.h"
#include "util/rng.h"

namespace hedra::testing {

inline constexpr std::size_t kMaxOracleNodes = 12;

/// Every source-to-sink path of `dag`, each as its node sequence.
[[nodiscard]] inline std::vector<std::vector<graph::NodeId>> all_paths(
    const graph::Dag& dag) {
  HEDRA_REQUIRE(dag.num_nodes() <= kMaxOracleNodes,
                "the path oracle enumerates at most 12 nodes");
  std::vector<std::vector<graph::NodeId>> paths;
  std::vector<graph::NodeId> path;
  const auto extend = [&](const auto& self, graph::NodeId v) -> void {
    path.push_back(v);
    if (dag.successors(v).empty()) {
      paths.push_back(path);
    } else {
      for (const graph::NodeId w : dag.successors(v)) self(self, w);
    }
    path.pop_back();
  };
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.predecessors(v).empty()) extend(extend, v);
  }
  return paths;
}

/// n_d and s_d under the spans' convention: indexed d−1, missing = 1.
[[nodiscard]] inline int oracle_units(std::span<const int> units,
                                      graph::DeviceId d) {
  return d <= units.size() ? units[d - 1] : 1;
}
[[nodiscard]] inline Frac oracle_speedup(std::span<const Frac> speedups,
                                         graph::DeviceId d) {
  return d <= speedups.size() ? speedups[d - 1] : Frac(1);
}

/// max_P Σ_{v∈P, host} C_v.
[[nodiscard]] inline graph::Time oracle_max_host_path(const graph::Dag& dag) {
  graph::Time best = 0;
  for (const auto& path : all_paths(dag)) {
    graph::Time sum = 0;
    for (const graph::NodeId v : path) {
      if (dag.device(v) == graph::kHostDevice) sum += dag.wcet(v);
    }
    best = std::max(best, sum);
  }
  return best;
}

/// The chain term: max over paths of the per-node weighted sum.
[[nodiscard]] inline Frac oracle_chain_term(const graph::Dag& dag, int m,
                                            std::span<const int> units,
                                            std::span<const Frac> speedups) {
  Frac best;
  for (const auto& path : all_paths(dag)) {
    Frac sum;
    for (const graph::NodeId v : path) {
      const graph::DeviceId d = dag.device(v);
      if (d == graph::kHostDevice) {
        sum += Frac(dag.wcet(v) * (m - 1), m);
      } else {
        const int n = oracle_units(units, d);
        sum += Frac(dag.wcet(v)) / oracle_speedup(speedups, d) *
               Frac(n - 1, n);
      }
    }
    if (sum > best) best = sum;
  }
  return best;
}

/// R for `dag` on m host cores with the given per-class units and speedups.
[[nodiscard]] inline Frac oracle_platform_bound(
    const graph::Dag& dag, int m, std::span<const int> units = {},
    std::span<const Frac> speedups = {}) {
  Frac host_volume;
  Frac device_term;
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    const graph::DeviceId d = dag.device(v);
    if (d == graph::kHostDevice) {
      host_volume += Frac(dag.wcet(v));
    } else {
      device_term += Frac(dag.wcet(v)) / Frac(oracle_units(units, d)) /
                     oracle_speedup(speedups, d);
    }
  }
  return host_volume / Frac(m) + device_term +
         oracle_chain_term(dag, m, units, speedups);
}

/// `count` random DAGs of 1–12 nodes with WCETs in [0, 20], nodes spread
/// over the host and devices 1..max_device, and each forward pair (i, j)
/// an edge with probability 1/3 — small enough for all_paths.
[[nodiscard]] inline graph::FlatDagBatch random_oracle_batch(
    Rng& rng, std::size_t count, graph::DeviceId max_device) {
  graph::FlatDagBatch batch;
  graph::StagedDag staged;
  for (std::size_t i = 0; i < count; ++i) {
    staged.clear();
    const auto n = static_cast<graph::NodeId>(
        rng.uniform_int(1, static_cast<std::int64_t>(kMaxOracleNodes)));
    for (graph::NodeId v = 0; v < n; ++v) {
      staged.add_node(rng.uniform_int(0, 20));
      staged.device[v] =
          static_cast<graph::DeviceId>(rng.uniform_int(0, max_device));
    }
    for (graph::NodeId u = 0; u < n; ++u) {
      for (graph::NodeId v = u + 1; v < n; ++v) {
        if (rng.uniform_int(0, 2) == 0) staged.add_edge(u, v);
      }
    }
    batch.append(staged);
  }
  return batch;
}

/// One (units, speedups) pair of an oracle sweep, both indexed d−1.
struct OracleClasses {
  std::vector<int> units;
  std::vector<Frac> speedups;
};

/// A speedup whose numerator puts n_d·num(s_d) above 2^31 for any n_d >= 2,
/// which sends the weighted chain walk to its exact Frac fallback.
[[nodiscard]] inline Frac fallback_speedup() { return Frac(4294967311, 2); }

/// The class vectors an oracle sweep covers for K devices: n_d ∈ {1, 2, 3}
/// (symmetric, plus one mixed vector) crossed with no speedups, explicit
/// unit speedups, non-unit speedups, and fallback_speedup() on device 1.
[[nodiscard]] inline std::vector<OracleClasses> oracle_class_grid(int k) {
  const auto size = static_cast<std::size_t>(k);
  std::vector<std::vector<int>> unit_vectors;
  for (const int n : {1, 2, 3}) unit_vectors.emplace_back(size, n);
  std::vector<int> mixed;
  for (int d = 0; d < k; ++d) mixed.push_back(1 + (d + 1) % 3);
  unit_vectors.push_back(mixed);

  const std::vector<Frac> varied{Frac(3, 2), Frac(2), Frac(5, 3)};
  std::vector<std::vector<Frac>> speed_vectors{
      {}, std::vector<Frac>(size, Frac(1))};
  std::vector<Frac> scaled;
  for (std::size_t d = 0; d < size; ++d) scaled.push_back(varied[d % 3]);
  speed_vectors.push_back(scaled);
  std::vector<Frac> fallback(size, Frac(1));
  if (k > 0) fallback[0] = fallback_speedup();
  speed_vectors.push_back(fallback);

  std::vector<OracleClasses> grid;
  for (const auto& units : unit_vectors) {
    for (const auto& speedups : speed_vectors) {
      grid.push_back({units, speedups});
    }
  }
  return grid;
}

}  // namespace hedra::testing
