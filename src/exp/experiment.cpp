#include "exp/experiment.h"

#include "gen/flat_gen.h"

namespace hedra::exp {

std::vector<graph::Dag> generate_batch(const BatchConfig& config) {
  const graph::FlatDagBatch batch = generate_flat_batch(config);
  std::vector<graph::Dag> out;
  out.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out.push_back(batch.materialize(i));
  }
  return out;
}

graph::FlatDagBatch generate_flat_batch(const BatchConfig& config) {
  HEDRA_REQUIRE(config.count >= 1, "batch count must be >= 1");
  const auto count = static_cast<std::size_t>(config.count);
  Rng master(config.seed);
  graph::FlatDagBatch batch;
  batch.reserve(count, static_cast<std::size_t>(config.params.max_nodes),
                static_cast<std::size_t>(config.params.max_nodes) * 2);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = master.fork();
    if (config.params.num_devices > 0) {
      gen::generate_multi_device_flat(config.params, config.coff_ratio, rng,
                                      batch);
    } else {
      gen::generate_offload_flat(config.params, config.coff_ratio, rng, batch);
    }
  }
  return batch;
}

std::vector<int> paper_core_counts() { return {2, 4, 8, 16}; }

std::vector<double> ratio_grid_fig6() {
  return {0.01, 0.02, 0.03, 0.045, 0.06, 0.08, 0.11, 0.14,
          0.20, 0.28, 0.36, 0.44, 0.52, 0.60, 0.70};
}

std::vector<double> ratio_grid_fig89() {
  return {0.0012, 0.0025, 0.005, 0.01, 0.016, 0.025, 0.034, 0.046,
          0.06,   0.08,   0.10,  0.14, 0.20,  0.26,  0.32,  0.40, 0.50};
}

std::vector<double> ratio_grid_fig7() {
  return {0.01, 0.02, 0.05, 0.10, 0.15, 0.245, 0.35, 0.481, 0.60};
}

}  // namespace hedra::exp
