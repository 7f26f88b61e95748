#pragma once

/// \file params.h
/// Parameters of the random task generators used in the evaluation (§5.1).
///
/// The paper generates DAGs "by recursively expanding nodes either to
/// terminal nodes or parallel sub-DAGs, until a maximum recursion depth
/// maxdepth is reached", with expansion probability p_par, at most n_par
/// branches per parallel sub-DAG, a node-count window [n_min, n_max], and
/// per-node WCETs uniform in [C_min, C_max] = [1, 100].  `maxdepth` bounds
/// the longest possible path at 2·maxdepth + 1 nodes (fork/join nesting),
/// which matches the paper's "longest path equals 7" for maxdepth = 3 and
/// "equals 11" for maxdepth = 5.

#include <cstdint>
#include <vector>

#include "graph/dag.h"

namespace hedra::gen {

using graph::Time;

/// Parameters for the paper's recursive-expansion (Melani-style) generator.
struct HierarchicalParams {
  int max_depth = 3;      ///< maximum recursion depth
  double p_par = 0.5;     ///< probability of expanding into a parallel sub-DAG
  int n_par = 6;          ///< maximum number of branches of a parallel sub-DAG
  int min_nodes = 3;      ///< smallest acceptable DAG (retry below)
  int max_nodes = 100;    ///< largest acceptable DAG (retry above)
  Time wcet_min = 1;      ///< C_min
  Time wcet_max = 100;    ///< C_max
  int max_attempts = 100000;  ///< generation retries before giving up

  // -- Multi-device knobs (see gen/multi_device.h).  generate_hierarchical
  //    itself produces pure host DAGs and ignores these; the multi-device
  //    generator and exp::generate_batch consume them.  num_devices = 0
  //    selects the paper's single-offload recipe instead.
  int num_devices = 0;          ///< K accelerator device classes to populate
  int offloads_per_device = 1;  ///< offload nodes assigned to each device
  /// Relative share of the offloaded volume each device receives (size
  /// num_devices, finite positive entries, need not sum to 1); empty = even
  /// split.
  std::vector<double> device_mix;
  /// Execution units per accelerator class (size num_devices, entries
  /// >= 1); empty = one unit each (the paper's platform).  Generation
  /// itself ignores this — placement and volumes are unit-agnostic — but
  /// the experiment configs carry it here so a batch spec fully describes
  /// the platform the analysis/simulation sweep should provision
  /// (model::Platform, sim::SimConfig::device_units).
  std::vector<int> device_units;
  /// WCET speedup per accelerator class (size num_devices, strictly
  /// positive finite entries); empty = every device runs at the host's
  /// reference speed.  Unlike device_units this DOES affect generation:
  /// generate_multi_device divides each device's volume budget by its
  /// speedup, so a 2× device realises half the ticks for the same nominal
  /// share of work (heterogeneous WCET scaling; the generated WCETs are
  /// device-time, ready for analysis and simulation unscaled).
  std::vector<double> device_speedup;

  /// §5.1 "Small tasks": n <= 100, n_par = 6, maxdepth = 3 (longest path 7).
  /// Used for the ILP comparison.
  [[nodiscard]] static HierarchicalParams small_tasks();

  /// §5.1 "Large tasks": n in [100, 400], n_par = 8, maxdepth = 5
  /// (longest path 11).
  [[nodiscard]] static HierarchicalParams large_tasks();

  /// Figures 6/8/9 restrict large tasks to n in [100, 250].
  [[nodiscard]] static HierarchicalParams large_tasks_100_250();

  /// Throws hedra::Error if any field is out of range.
  void validate() const;
};

}  // namespace hedra::gen
