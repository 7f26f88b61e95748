#pragma once

/// \file batch_kernels.h
/// The K-device platform bound over a whole arena batch.
///
/// Each DAG of a `FlatDagBatch` is measured once (measure_platform) and
/// its bound evaluated for every core count (platform_bound), straight over
/// the arena's flat arrays; the results are exactly the per-DAG
/// `AnalysisCache::r_platform` rationals, since both run the same two
/// steps of analysis/platform_rta.h.

#include <span>
#include <vector>

#include "analysis/platform_rta.h"
#include "graph/flat_batch.h"
#include "util/fraction.h"

namespace hedra::analysis {

/// Names the implementation of the batch kernels for benchmark
/// fingerprints: always "scalar".
[[nodiscard]] const char* batch_kernel_backend() noexcept;

/// The K-device chain bound for every (DAG, core-count) pair of a batch.
struct PlatformBatchAnalysis {
  std::vector<PlatformQuantities> quantities;  ///< one per DAG
  std::vector<Frac> bounds;                    ///< DAG-major, cores minor
  std::size_t num_cores = 0;

  [[nodiscard]] const Frac& bound(std::size_t dag, std::size_t mi) const {
    return bounds[dag * num_cores + mi];
  }
};

/// `device_units` / `device_speedup` indexed d−1 as in platform_bound,
/// empty spans (the default: one unit per accelerator class at unit speed,
/// the paper's model) defaulting to one unit / unit speed.
/// bounds[i][mi] == AnalysisCache(batch, i).r_platform(cores[mi],
/// device_units, device_speedup) exactly.
[[nodiscard]] PlatformBatchAnalysis analyze_platform_batch(
    const graph::FlatDagBatch& batch, std::span<const int> cores,
    std::span<const int> device_units = {},
    std::span<const Frac> device_speedup = {});

}  // namespace hedra::analysis
