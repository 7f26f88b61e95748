#pragma once

/// \file experiment.h
/// Shared Monte-Carlo plumbing for the evaluation (§5.1): batches of random
/// heterogeneous DAG tasks at a target C_off/vol ratio, the ratio grids the
/// figures sweep, and the core counts the paper evaluates.
///
/// Replications are seeded independently (seed ⊕ replication index through
/// the RNG fork), so results do not depend on evaluation order and any
/// single DAG of a batch can be regenerated in isolation.

#include <cstdint>
#include <vector>

#include "gen/params.h"
#include "graph/dag.h"
#include "graph/flat_batch.h"

namespace hedra::exp {

/// Configuration for one batch of random heterogeneous tasks.
struct BatchConfig {
  gen::HierarchicalParams params = gen::HierarchicalParams::large_tasks_100_250();
  double coff_ratio = 0.1;   ///< target C_off / vol(G)
  int count = 100;           ///< DAGs per parameter point (paper: 100)
  std::uint64_t seed = 42;
};

/// Generates `count` heterogeneous DAGs in one structure-of-arrays arena:
/// hierarchical structure, then either one random internal v_off with
/// C_off set to the target ratio (params.num_devices == 0) or the K-device
/// placement of gen::generate_multi_device_flat.  Every DAG builds from its
/// own fork of the seed's master RNG.  `batch.view(i)` is the CSR form of
/// DAG i and `batch.materialize(i)` the Dag itself.  This is the hot path
/// for every sweep-shaped experiment; generation is serial (it is
/// allocation-, not compute-, bound once staged).
[[nodiscard]] graph::FlatDagBatch generate_flat_batch(
    const BatchConfig& config);

/// The same batch as Dag objects: generate_flat_batch(config) with every
/// DAG materialised.
[[nodiscard]] std::vector<graph::Dag> generate_batch(const BatchConfig& config);

/// Core counts evaluated throughout §5: m = 2, 4, 8, 16.
[[nodiscard]] std::vector<int> paper_core_counts();

/// Figure 6 sweeps C_off/vol from 1% to 70%.
[[nodiscard]] std::vector<double> ratio_grid_fig6();

/// Figures 8 and 9 sweep C_off/vol from 0.12% to 50%.
[[nodiscard]] std::vector<double> ratio_grid_fig89();

/// Figure 7 concentrates on the ratios the paper highlights (pessimism
/// crossovers between ~2% and ~50%).
[[nodiscard]] std::vector<double> ratio_grid_fig7();

}  // namespace hedra::exp
