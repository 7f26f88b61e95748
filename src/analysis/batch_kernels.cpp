#include "analysis/batch_kernels.h"

namespace hedra::analysis {

const char* batch_kernel_backend() noexcept { return "scalar"; }

PlatformBatchAnalysis analyze_platform_batch(
    const graph::FlatDagBatch& batch, std::span<const int> cores,
    std::span<const int> device_units, std::span<const Frac> device_speedup) {
  PlatformBatchAnalysis out;
  out.num_cores = cores.size();
  out.quantities.reserve(batch.size());
  out.bounds.reserve(batch.size() * cores.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const graph::FlatView view = batch.view(i);
    const PlatformQuantities& q =
        out.quantities.emplace_back(measure_platform(view));
    for (const int m : cores) {
      out.bounds.push_back(
          platform_bound(q, view, m, device_units, device_speedup));
    }
  }
  return out;
}

}  // namespace hedra::analysis
