#pragma once

/// \file platform_rta.h
/// EXTENSION (the DAC'18 paper names multiple accelerators as future work,
/// §7): a sound response-time bound for DAGs whose nodes are spread over a
/// heterogeneous Platform — m identical host cores plus K named accelerator
/// device classes with n_d execution units each (model/platform.h).
///
/// Derivation (K+1-resource Graham argument, generalising the two-resource
/// one-accelerator argument).  Fix any work-conserving schedule
/// and build the interference chain C backwards from the last completing
/// node.  At any instant where the head of the chain is ready but not
/// executing, either
///   (a) it is a host node, so all m host cores are busy with host work not
///       in C, or
///   (b) it is placed on accelerator device d, so all n_d units of d are
///       busy with device-d work not in C.
/// Summing the disjoint kinds of time (chain execution, host-saturated
/// waiting, device-saturated waiting) and bounding each gives
///
///   R <= len(C) + (vol_host − host(C))/m + Σ_d (vol_d − dev_d(C))/n_d
///     <= vol_host/m + Σ_d vol_d/n_d
///        + max_P [ Σ_{v∈P, host} C_v·(m−1)/m
///                + Σ_d Σ_{v∈P, dev d} C_v·(n_d−1)/n_d ] ,
///
/// where the maximum ranges over all source-to-sink paths P — a weighted
/// longest-path computation in which every node contributes its WCET scaled
/// by its own resource's (units−1)/units factor.  With n_d = 1 everywhere
/// the device weights vanish and the path term factors into
/// max_host_path·(m−1)/m, reproducing the pre-multiplicity bound *exactly*
/// (a regression test pins the rational equality); with K = 1, n_1 = 1 this
/// is the two-resource bound (tests/common/multi_offload.h keeps an
/// independent copy as the test oracle), and with K = 0 the chain form of the classic
/// Graham bound.
///
/// The bound is monotone in each per-device volume, non-increasing in every
/// n_d (each path value has derivative (chain_d − vol_d)/n_d² <= 0), and
/// surfaces its derivation term-by-term (PlatformAnalysis + explain) so
/// tooling can show *why* a task misses or meets its deadline on a given
/// platform.
///
/// Heterogeneous WCET scaling: when the platform carries per-device
/// speedups s_d (model::Platform::device_speedup), node WCETs are read as
/// *nominal* times and device d executes C_v in C_v/s_d ticks.  Every
/// device-d occurrence in the bound scales accordingly — the device term
/// becomes vol_d/(n_d·s_d) and the chain weight (C_v/s_d)·(n_d−1)/n_d —
/// while host terms are untouched.  All speedups at 1 reduce to the
/// unscaled bound with exact rational equality.
///
/// The bound is computed in three steps, each written once over
/// graph::FlatView: measure_platform (volumes, node counts, host path),
/// platform_bound (the per-m evaluation) and weighted_chain_walk (the
/// multi-unit chain term).  analyze_platform, AnalysisCache::r_platform,
/// analyze_platform_batch and the task-set seed bound all go through them.

#include <span>
#include <string>
#include <vector>

#include "graph/dag.h"
#include "graph/flat_view.h"
#include "model/platform.h"
#include "util/fraction.h"

namespace hedra::analysis {

/// One accelerator device's share of a DAG, as measure_platform finds it.
struct DeviceVolume {
  graph::DeviceId device = 0;  ///< device id (>= 1)
  graph::Time volume = 0;      ///< vol_d, total nominal WCET on the device
  std::size_t node_count = 0;  ///< number of nodes placed on the device

  friend bool operator==(const DeviceVolume&, const DeviceVolume&) = default;
};

/// The m-independent quantities of the bound, measured once per graph:
/// host volume, per-device volumes and node counts, and the maximum
/// host-weighted path.
struct PlatformQuantities {
  graph::Time vol_host = 0;
  graph::Time max_host_path = 0;
  graph::Time device_volume_sum = 0;  ///< Σ_d vol_d
  /// Ascending by device id; one entry per accelerator device present in
  /// the graph.
  std::vector<DeviceVolume> device_volumes;
};

/// One accelerator device's contribution to the bound.
struct DeviceTerm {
  graph::DeviceId device = 0;  ///< device id (>= 1)
  std::string name;            ///< platform name of the device
  graph::Time volume = 0;      ///< vol_d, total nominal WCET on the device
  std::size_t node_count = 0;  ///< number of nodes placed on the device
  int units = 1;               ///< n_d, execution units of the class
  Frac speedup = Frac(1);      ///< s_d, WCET scaling of the class
  Frac term;                   ///< vol_d / (n_d · s_d)
};

/// Term-by-term decomposition of the K-device chain bound.
struct PlatformAnalysis {
  model::Platform platform;
  int m = 0;                        ///< platform.cores
  graph::Time vol_host = 0;         ///< host + sync volume
  graph::Time max_host_path = 0;    ///< max_P Σ_{v∈P, host} C_v
  std::vector<DeviceTerm> devices;  ///< one entry per platform device

  Frac host_term;    ///< vol_host / m
  Frac device_term;  ///< Σ_d vol_d / n_d
  /// Weighted-chain term: max_host_path·(m−1)/m on a single-unit platform,
  /// the full mixed-weight walk when some n_d > 1.
  Frac path_term;
  Frac bound;        ///< R_plat = host_term + device_term + path_term
};

/// Per-node weighting of the generalised chain walk: host nodes weigh
/// C_v·(m−1)/m, nodes on device d weigh (C_v/s_d)·(n_d−1)/n_d — the
/// *effective* execution time on a class with WCET speedup s_d.  `units`
/// and `speedup` are indexed d−1; devices beyond either span default to one
/// unit / unit speed, so an empty-span weighting recovers the host-only
/// walk scaled by (m−1)/m.
struct ChainWeighting {
  int m = 1;
  std::span<const int> units;
  std::span<const Frac> speedup;

  [[nodiscard]] int units_of(graph::DeviceId device) const noexcept {
    const std::size_t index = static_cast<std::size_t>(device) - 1;
    return index < units.size() ? units[index] : 1;
  }

  [[nodiscard]] Frac speedup_of(graph::DeviceId device) const noexcept {
    const std::size_t index = static_cast<std::size_t>(device) - 1;
    return index < speedup.size() ? speedup[index] : Frac(1);
  }
};

/// Measure: one pass over the node attributes for the per-device volumes
/// and node counts, plus the host-weighted longest path.  Scratch is
/// per-thread, so repeated calls allocate only the result.
[[nodiscard]] PlatformQuantities measure_platform(const graph::FlatView& view);

/// max over source-to-sink paths P of Σ_{v∈P, host} C_v — the bound's
/// self-interference chain (m-independent; measure_platform stores it).
[[nodiscard]] graph::Time max_host_path(const graph::FlatView& view);

/// Walk: the generalised weighted chain of the multiplicity bound,
/// max_P Σ_{v∈P} C_v·(r_v−1)/r_v with r_v the unit count of v's resource
/// (m for host nodes, n_d for device-d nodes, device weights divided by
/// s_d).  Runs on int64 over a common denominator and falls back to exact
/// Frac arithmetic when that could overflow; both give the same rational.
/// With all n_d = 1 this equals max_host_path·(m−1)/m exactly.  The
/// weighting is taken as valid (platform_bound checks it).
[[nodiscard]] Frac weighted_chain_walk(const graph::FlatView& view,
                                       const ChainWeighting& weighting);

/// Evaluate: the K-device chain bound R(m) of `view` from its measured
/// `quantities` (which MUST belong to `view`), with `device_units[d−1]`
/// units and `device_speedup[d−1]` speedup per class; devices beyond
/// either span have one unit at unit speed.  All-ones spans take the
/// integer fast path vol_host/m + Σ_d vol_d + max_host_path·(m−1)/m;
/// otherwise the device term is Σ_d vol_d/(n_d·s_d) and the chain term is
/// the weighted walk.  Requires m >= 1 and, for every device present,
/// n_d >= 1 and s_d > 0.
[[nodiscard]] Frac platform_bound(const PlatformQuantities& quantities,
                                  const graph::FlatView& view, int m,
                                  std::span<const int> device_units = {},
                                  std::span<const Frac> device_speedup = {});

/// Computes the K-device chain bound with its full derivation.  Requires a
/// non-empty acyclic DAG every node of which is placed on the host or on one
/// of the platform's devices (model::check_supports).
[[nodiscard]] PlatformAnalysis analyze_platform(const graph::Dag& dag,
                                                const model::Platform& platform);

/// Just the bound.
[[nodiscard]] Frac rta_platform(const graph::Dag& dag,
                                const model::Platform& platform);

/// Convenience: infers the smallest supporting platform (one single-unit
/// class per device id present in the DAG) and evaluates the bound on m
/// host cores.
[[nodiscard]] Frac rta_platform(const graph::Dag& dag, int m);

/// Human-readable, term-by-term derivation of the bound (the multi-device
/// counterpart of rta_heterogeneous's explain).  Meant for tooling output
/// (see examples/dag_tool) and certification evidence trails.
[[nodiscard]] std::string explain(const PlatformAnalysis& analysis);

}  // namespace hedra::analysis
