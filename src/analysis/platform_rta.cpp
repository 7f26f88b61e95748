#include "analysis/platform_rta.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "graph/algorithms.h"

namespace hedra::analysis {

Frac evaluate_platform_bound(graph::Time vol_host,
                             graph::Time device_volume_sum,
                             graph::Time max_host_path, int m) {
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  return Frac(vol_host, m) + Frac(device_volume_sum) +
         Frac(max_host_path * (m - 1), m);
}

/// Accelerator nodes contribute weight 0 but still extend paths.
graph::Time max_host_path(const graph::Dag& dag,
                          std::span<const graph::NodeId> order) {
  std::vector<graph::Time> best(dag.num_nodes(), 0);
  graph::Time max_weighted = 0;
  for (const auto v : order) {
    graph::Time incoming = 0;
    for (const auto p : dag.predecessors(v)) {
      incoming = std::max(incoming, best[p]);
    }
    const graph::Time weight =
        dag.device(v) == graph::kHostDevice ? dag.wcet(v) : 0;
    best[v] = incoming + weight;
    max_weighted = std::max(max_weighted, best[v]);
  }
  return max_weighted;
}

graph::Time max_host_path(const graph::Dag& dag) {
  return max_host_path(dag, graph::topological_order(dag));
}

graph::Time max_host_path(const graph::FlatView& view) {
  std::vector<graph::Time> best(view.num_nodes(), 0);
  graph::Time max_weighted = 0;
  for (const auto v : view.topological_order()) {
    graph::Time incoming = 0;
    for (const auto p : view.predecessors(v)) {
      incoming = std::max(incoming, best[p]);
    }
    const graph::Time weight =
        view.device(v) == graph::kHostDevice ? view.wcet(v) : 0;
    best[v] = incoming + weight;
    max_weighted = std::max(max_weighted, best[v]);
  }
  return max_weighted;
}

graph::Time max_host_path(const graph::FlatDag& flat) {
  return max_host_path(flat.view());
}

namespace {

/// Per-resource weight C_v·(r−1)/r (optionally /s_d) expressed over one
/// common denominator so the DP runs on int64 instead of Frac: node v
/// contributes `wcet(v) · factor[device(v)]` to a path value, and the walk
/// result is Frac(max_scaled, denom) — the SAME normalised rational the
/// per-node Frac arithmetic produces, at a fraction of the cost.
struct ScaledWeights {
  std::vector<std::int64_t> factor;  ///< indexed by device id (0 = host)
  std::int64_t denom = 1;
  bool usable = false;
};

ScaledWeights scale_weights(graph::DeviceId max_device,
                            const ChainWeighting& weighting) {
  ScaledWeights out;
  // Common denominator: host nodes weigh (m−1)/m, device-d nodes weigh
  // (n_d−1)·den(s_d) / (n_d·num(s_d)).
  std::int64_t denom = weighting.m;
  for (graph::DeviceId d = 1; d <= max_device; ++d) {
    const int units = weighting.units_of(d);
    if (units <= 1) continue;  // weight 0 regardless of speedup
    const Frac speedup = weighting.speedup_of(d);
    const std::int64_t device_denom = static_cast<std::int64_t>(units) *
                                      speedup.num();
    if (device_denom > (std::int64_t{1} << 31)) return out;
    denom = std::lcm(denom, device_denom);
    if (denom > (std::int64_t{1} << 31)) return out;
  }
  out.denom = denom;
  out.factor.assign(static_cast<std::size_t>(max_device) + 1, 0);
  out.factor[graph::kHostDevice] = denom / weighting.m * (weighting.m - 1);
  for (graph::DeviceId d = 1; d <= max_device; ++d) {
    const int units = weighting.units_of(d);
    if (units <= 1) continue;
    const Frac speedup = weighting.speedup_of(d);
    const __int128 factor = static_cast<__int128>(denom) /
                            (static_cast<std::int64_t>(units) * speedup.num()) *
                            (units - 1) * speedup.den();
    if (factor > (std::int64_t{1} << 31)) return out;
    out.factor[d] = static_cast<std::int64_t>(factor);
  }
  out.usable = true;
  return out;
}

/// Exact Frac DP of the generalised walk; `Graph` is Dag, FlatDag or
/// FlatView (identical accessor vocabulary).  The fallback for weightings
/// whose common denominator would risk int64 overflow.
template <typename Graph>
Frac weighted_chain_walk_frac(const Graph& graph,
                              std::span<const graph::NodeId> order,
                              const ChainWeighting& weighting) {
  const bool scaled = !weighting.speedup.empty();
  std::vector<Frac> best(graph.num_nodes());
  Frac max_weighted;
  for (const auto v : order) {
    Frac incoming;
    for (const auto p : graph.predecessors(v)) {
      incoming = frac_max(incoming, best[p]);
    }
    const graph::DeviceId device = graph.device(v);
    const int units =
        device == graph::kHostDevice ? weighting.m : weighting.units_of(device);
    Frac weight(graph.wcet(v) * (units - 1), units);
    if (scaled && device != graph::kHostDevice) {
      // Effective execution time on a sped-up class is C_v/s_d.
      weight /= weighting.speedup_of(device);
    }
    best[v] = incoming + weight;
    max_weighted = frac_max(max_weighted, best[v]);
  }
  return max_weighted;
}

/// Integer-scaled DP over a common denominator; falls back to the Frac DP
/// when the scaling is unrepresentable.  Exact rational equality with the
/// Frac DP in all cases (regression-pinned in platform_rta_test).
template <typename Graph>
Frac weighted_chain_walk(const Graph& graph,
                         std::span<const graph::NodeId> order,
                         const ChainWeighting& weighting) {
  HEDRA_REQUIRE(weighting.m >= 1, "core count m must be >= 1");
  for (graph::DeviceId d = 1; d <= graph.max_device(); ++d) {
    HEDRA_REQUIRE(weighting.units_of(d) >= 1,
                  "every device class needs >= 1 execution unit");
    HEDRA_REQUIRE(weighting.speedup_of(d) > Frac(0),
                  "every device speedup must be strictly positive");
  }
  const ScaledWeights scale = scale_weights(graph.max_device(), weighting);
  if (!scale.usable) {
    return weighted_chain_walk_frac(graph, order, weighting);
  }
  // Overflow guard: every path value is bounded by Σ_v C_v·factor_v.
  __int128 total = 0;
  std::int64_t max_factor = 0;
  for (const std::int64_t f : scale.factor) {
    max_factor = std::max(max_factor, f);
  }
  for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
    total += static_cast<__int128>(graph.wcet(v)) * max_factor;
  }
  if (total > (static_cast<__int128>(1) << 62)) {
    return weighted_chain_walk_frac(graph, order, weighting);
  }
  std::vector<std::int64_t> best(graph.num_nodes(), 0);
  std::int64_t max_weighted = 0;
  for (const auto v : order) {
    std::int64_t incoming = 0;
    for (const auto p : graph.predecessors(v)) {
      incoming = std::max(incoming, best[p]);
    }
    best[v] = incoming + graph.wcet(v) * scale.factor[graph.device(v)];
    max_weighted = std::max(max_weighted, best[v]);
  }
  return Frac(max_weighted, scale.denom);
}

}  // namespace

Frac max_host_path(const graph::Dag& dag, const ChainWeighting& weighting) {
  const auto order = graph::topological_order(dag);
  return weighted_chain_walk(dag, order, weighting);
}

Frac max_host_path(const graph::FlatDag& flat,
                   const ChainWeighting& weighting) {
  return weighted_chain_walk(flat, flat.topological_order(), weighting);
}

Frac max_host_path(const graph::FlatView& view,
                   const ChainWeighting& weighting) {
  return weighted_chain_walk(view, view.topological_order(), weighting);
}

PlatformAnalysis analyze_platform(const graph::Dag& dag,
                                  const model::Platform& platform) {
  platform.validate();
  HEDRA_REQUIRE(dag.num_nodes() > 0, "empty graph");
  {
    const auto issues = model::check_supports(platform, dag);
    HEDRA_REQUIRE(issues.empty(),
                  "platform does not support the DAG: " + issues.front());
  }

  PlatformAnalysis out;
  out.platform = platform;
  out.m = platform.cores;
  out.vol_host = dag.volume_on(graph::kHostDevice);
  out.max_host_path = max_host_path(dag);
  std::vector<int> units(platform.num_devices(), 1);
  std::vector<Frac> speedups(platform.num_devices(), Frac(1));
  for (int d = 1; d <= platform.num_devices(); ++d) {
    const auto device = static_cast<graph::DeviceId>(d);
    DeviceTerm term;
    term.device = device;
    term.name = platform.device_name(device);
    term.volume = dag.volume_on(device);
    term.node_count = dag.nodes_on(device).size();
    term.units = platform.units_of(device);
    term.speedup = platform.speedup_of(device);
    term.term = Frac(term.volume, term.units) / term.speedup;
    units[d - 1] = term.units;
    speedups[d - 1] = term.speedup;
    out.devices.push_back(std::move(term));
  }

  const int m = out.m;
  out.host_term = Frac(out.vol_host, m);
  if (platform.has_multi_units() || platform.has_speedups()) {
    Frac device_term;
    for (const auto& term : out.devices) device_term += term.term;
    out.device_term = device_term;
    ChainWeighting weighting{m, units, {}};
    if (platform.has_speedups()) weighting.speedup = speedups;
    out.path_term = max_host_path(dag, weighting);
    out.bound = out.host_term + out.device_term + out.path_term;
  } else {
    // The pre-multiplicity formula, kept on its own integer-walk path so
    // single-unit platforms produce bit-identical analyses (and explain()
    // output) to the historical implementation.
    graph::Time device_volume_sum = 0;
    for (const auto& term : out.devices) device_volume_sum += term.volume;
    out.device_term = Frac(device_volume_sum);
    out.path_term = Frac(out.max_host_path * (m - 1), m);
    out.bound = evaluate_platform_bound(out.vol_host, device_volume_sum,
                                        out.max_host_path, m);
  }
  return out;
}

Frac rta_platform(const graph::Dag& dag, const model::Platform& platform) {
  return analyze_platform(dag, platform).bound;
}

Frac rta_platform(const graph::Dag& dag, int m) {
  return rta_platform(dag, model::platform_for(dag, m));
}

std::string explain(const PlatformAnalysis& analysis) {
  std::ostringstream os;
  const int m = analysis.m;
  const bool multi = analysis.platform.has_multi_units() ||
                     analysis.platform.has_speedups();
  os << "platform response-time bound (" << analysis.platform.describe()
     << ")\n";
  if (multi) {
    os << "  R_plat = vol_host/m + sum_d vol_d/"
       << (analysis.platform.has_speedups() ? "(n_d*s_d)" : "n_d")
       << " + max weighted chain\n";
  } else {
    os << "  R_plat = vol_host/m + sum_d vol_d + max_host_path*(m-1)/m\n";
  }
  os << "  host:      vol_host = " << analysis.vol_host << " over m = " << m
     << " cores -> " << analysis.host_term << "\n";
  if (analysis.devices.empty()) {
    os << "  devices:   (none; chain form of the Graham bound)\n";
  }
  for (const auto& term : analysis.devices) {
    os << "  device d" << term.device << " (" << term.name
       << "): vol = " << term.volume << " across " << term.node_count
       << " node" << (term.node_count == 1 ? "" : "s");
    if (multi) {
      os << " on " << term.units << " unit" << (term.units == 1 ? "" : "s");
      if (term.speedup != Frac(1)) os << " at " << term.speedup << "x speed";
      os << " -> +" << term.term << "\n";
    } else {
      os << " -> +" << term.volume << "\n";
    }
  }
  if (multi) {
    os << "  chain:     max path of C_v*(units-1)/units weights"
       << " (host units = m) -> " << analysis.path_term << "\n";
  } else {
    os << "  chain:     max host path = " << analysis.max_host_path
       << " * (m-1)/m" << " -> " << analysis.path_term << "\n";
  }
  os << "  bound:     R_plat = " << analysis.host_term << " + "
     << analysis.device_term << " + " << analysis.path_term << " = "
     << analysis.bound << " (= " << analysis.bound.to_double() << ")\n";
  return os.str();
}

}  // namespace hedra::analysis
