/// \file batch_kernels_test.cpp
/// The batch entry point's own contract: the backend name the benchmark
/// fingerprints record, and the general overload with all-ones class
/// vectors giving the single-unit bounds.  The bounds themselves are
/// checked against the path oracle in platform_oracle_test.cpp.

#include "analysis/batch_kernels.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/experiment.h"
#include "gen/params.h"

namespace hedra::analysis {
namespace {

using exp::BatchConfig;
using graph::FlatDagBatch;

BatchConfig small_config(std::uint64_t seed, double ratio) {
  BatchConfig config;
  config.params = gen::HierarchicalParams::small_tasks();
  config.params.min_nodes = 10;
  config.params.max_nodes = 60;
  config.coff_ratio = ratio;
  config.count = 8;
  config.seed = seed;
  return config;
}

TEST(BatchKernelsTest, BackendNameIsKnown) {
  EXPECT_EQ(std::string(batch_kernel_backend()), "scalar");
}

TEST(BatchKernelsTest, AllOnesGeneralOverloadDelegatesToSingleUnit) {
  const std::vector<int> cores{2, 8};
  const FlatDagBatch batch = exp::generate_flat_batch(small_config(11, 0.2));
  const std::vector<int> units{1};
  const std::vector<Frac> speedups{Frac(1)};
  const PlatformBatchAnalysis general =
      analyze_platform_batch(batch, cores, units, speedups);
  const PlatformBatchAnalysis single = analyze_platform_batch(batch, cores);
  EXPECT_EQ(general.bounds, single.bounds);
}

}  // namespace
}  // namespace hedra::analysis
