#include "analysis/platform_rta.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "graph/flat_dag.h"

namespace hedra::analysis {

namespace {

using graph::DeviceId;
using graph::NodeId;
using graph::Time;

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

ScaledWeights scale_weights(DeviceId max_device,
                            const ChainWeighting& weighting) {
  ScaledWeights out;
  // Common denominator: host nodes weigh (m−1)/m, device-d nodes weigh
  // (n_d−1)·den(s_d) / (n_d·num(s_d)).
  std::int64_t denom = weighting.m;
  for (DeviceId d = 1; d <= max_device; ++d) {
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
  for (DeviceId d = 1; d <= max_device; ++d) {
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

/// The exact Frac DP of the walk, for weightings whose common denominator
/// would risk int64 overflow.
Frac weighted_chain_walk_frac(const graph::FlatView& view,
                              const ChainWeighting& weighting) {
  std::vector<Frac> best(view.num_nodes());
  Frac max_weighted;
  for (const NodeId v : view.topological_order()) {
    Frac incoming;
    for (const NodeId p : view.predecessors(v)) {
      incoming = frac_max(incoming, best[p]);
    }
    const DeviceId device = view.device(v);
    const int units =
        device == graph::kHostDevice ? weighting.m : weighting.units_of(device);
    Frac weight(view.wcet(v) * (units - 1), units);
    // Effective execution time on a sped-up class is C_v/s_d.
    if (device != graph::kHostDevice) weight /= weighting.speedup_of(device);
    best[v] = incoming + weight;
    max_weighted = frac_max(max_weighted, best[v]);
  }
  return max_weighted;
}

/// vol_d/(n_d·s_d): device d's term of the bound.
Frac device_share(Time volume, int units, const Frac& speedup) {
  HEDRA_REQUIRE(units >= 1, "every device class needs >= 1 execution unit");
  HEDRA_REQUIRE(speedup > Frac(0),
                "every device speedup must be strictly positive");
  return Frac(volume, units) / speedup;
}

}  // namespace

Time max_host_path(const graph::FlatView& view) {
  // Per-thread scratch: measure_platform runs once per task per admission
  // call on the taskset hot path, where per-call allocation is measurable.
  thread_local std::vector<Time> best;
  best.assign(view.num_nodes(), 0);
  Time max_weighted = 0;
  for (const NodeId v : view.topological_order()) {
    Time incoming = 0;
    for (const NodeId p : view.predecessors(v)) {
      incoming = std::max(incoming, best[p]);
    }
    // Accelerator nodes contribute weight 0 but still extend paths.
    const Time weight =
        view.device(v) == graph::kHostDevice ? view.wcet(v) : 0;
    best[v] = incoming + weight;
    max_weighted = std::max(max_weighted, best[v]);
  }
  return max_weighted;
}

PlatformQuantities measure_platform(const graph::FlatView& view) {
  thread_local std::vector<Time> volumes;
  thread_local std::vector<std::size_t> counts;
  volumes.assign(static_cast<std::size_t>(view.max_device()) + 1, 0);
  counts.assign(volumes.size(), 0);
  const std::span<const Time> wcets = view.wcets();
  const std::span<const DeviceId> devices = view.devices();
  for (std::size_t i = 0; i < wcets.size(); ++i) {
    volumes[devices[i]] += wcets[i];
    ++counts[devices[i]];
  }

  PlatformQuantities q;
  q.vol_host = volumes[graph::kHostDevice];
  q.max_host_path = max_host_path(view);
  for (DeviceId d = 1; d < volumes.size(); ++d) {
    if (counts[d] == 0) continue;
    q.device_volumes.push_back({d, volumes[d], counts[d]});
    q.device_volume_sum += volumes[d];
  }
  return q;
}

Frac weighted_chain_walk(const graph::FlatView& view,
                         const ChainWeighting& weighting) {
  const ScaledWeights scale = scale_weights(view.max_device(), weighting);
  if (!scale.usable) return weighted_chain_walk_frac(view, weighting);
  // Overflow guard: every path value is bounded by Σ_v C_v·factor_v.
  const std::int64_t max_factor =
      *std::max_element(scale.factor.begin(), scale.factor.end());
  __int128 total = 0;
  for (const Time c : view.wcets()) {
    total += static_cast<__int128>(c) * max_factor;
  }
  if (total > (static_cast<__int128>(1) << 62)) {
    return weighted_chain_walk_frac(view, weighting);
  }
  thread_local std::vector<std::int64_t> best;
  best.assign(view.num_nodes(), 0);
  std::int64_t max_weighted = 0;
  for (const NodeId v : view.topological_order()) {
    std::int64_t incoming = 0;
    for (const NodeId p : view.predecessors(v)) {
      incoming = std::max(incoming, best[p]);
    }
    best[v] = incoming + view.wcet(v) * scale.factor[view.device(v)];
    max_weighted = std::max(max_weighted, best[v]);
  }
  return Frac(max_weighted, scale.denom);
}

Frac platform_bound(const PlatformQuantities& quantities,
                    const graph::FlatView& view, int m,
                    std::span<const int> device_units,
                    std::span<const Frac> device_speedup) {
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  const bool single_unit =
      std::all_of(device_units.begin(), device_units.end(),
                  [](int units) { return units == 1; });
  const bool unit_speed =
      std::all_of(device_speedup.begin(), device_speedup.end(),
                  [](const Frac& s) { return s == Frac(1); });
  if (single_unit && unit_speed) {
    // Single-unit device weights vanish, leaving the host path's (m−1)/m.
    return Frac(quantities.vol_host, m) + Frac(quantities.device_volume_sum) +
           Frac(quantities.max_host_path * (m - 1), m);
  }
  const ChainWeighting weighting{m, device_units, device_speedup};
  Frac device_term;
  for (const DeviceVolume& load : quantities.device_volumes) {
    device_term += device_share(load.volume, weighting.units_of(load.device),
                                weighting.speedup_of(load.device));
  }
  return Frac(quantities.vol_host, m) + device_term +
         weighted_chain_walk(view, weighting);
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
  const graph::FlatDag flat(dag);
  const PlatformQuantities q = measure_platform(flat.view());

  PlatformAnalysis out;
  out.platform = platform;
  out.m = platform.cores;
  out.vol_host = q.vol_host;
  out.max_host_path = q.max_host_path;
  auto present = q.device_volumes.begin();
  for (int d = 1; d <= platform.num_devices(); ++d) {
    const auto device = static_cast<DeviceId>(d);
    DeviceTerm term;
    term.device = device;
    term.name = platform.device_name(device);
    if (present != q.device_volumes.end() && present->device == device) {
      term.volume = present->volume;
      term.node_count = present->node_count;
      ++present;
    }
    term.units = platform.units_of(device);
    term.speedup = platform.speedup_of(device);
    term.term = device_share(term.volume, term.units, term.speedup);
    out.device_term += term.term;
    out.devices.push_back(std::move(term));
  }
  out.host_term = Frac(out.vol_host, out.m);
  out.bound = platform_bound(q, flat.view(), out.m, platform.device_units,
                             platform.device_speedup);
  out.path_term = out.bound - out.host_term - out.device_term;
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
