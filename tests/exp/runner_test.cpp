#include "exp/runner.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "exp/fig6.h"
#include "exp/fig9.h"

/// The engine's core promises: N-thread sweeps are bit-identical to serial
/// ones, and batch seeds derived from nearby master seeds can never collide
/// (the historical `seed + 0x1000 * index` scheme could).

namespace hedra::exp {
namespace {

TEST(BatchSeedsTest, SeedsWithinAGridAreDistinct) {
  const auto seeds = batch_seeds(42, 5000);
  const std::set<std::uint64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size());
}

TEST(BatchSeedsTest, RegressionNearbyMasterSeedsShareNoBatchSeeds) {
  // Under the old scheme, master seeds 0x1000·k apart produced literally
  // the same batch seeds at shifted grid indices (seed + 0x1000·i).  The
  // fork chain must keep the derived streams disjoint.
  const auto base = batch_seeds(42, 256);
  const std::set<std::uint64_t> base_set(base.begin(), base.end());
  for (const std::uint64_t offset :
       {std::uint64_t{0x1000}, std::uint64_t{0x1000} * 7,
        std::uint64_t{0x1000} * 255}) {
    const auto shifted = batch_seeds(42 + offset, 256);
    for (const auto seed : shifted) {
      EXPECT_EQ(base_set.count(seed), 0u)
          << "master offset 0x" << std::hex << offset;
    }
  }
}

TEST(BatchSeedsTest, DerivationIsReproducible) {
  EXPECT_EQ(batch_seeds(7, 64), batch_seeds(7, 64));
  EXPECT_NE(batch_seeds(7, 8), batch_seeds(8, 8));
}

TEST(MakeGridTest, ExpandsRatioMajorWithForkedSeeds) {
  GridSpec spec;
  spec.ratios = {0.1, 0.2, 0.3};
  spec.cores = {2, 8};
  spec.dags_per_point = 5;
  spec.seed = 99;
  const auto points = make_grid(spec);
  ASSERT_EQ(points.size(), 3u);
  const auto seeds = batch_seeds(99, 3);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].ratio, spec.ratios[i]);
    EXPECT_EQ(points[i].batch.coff_ratio, spec.ratios[i]);
    EXPECT_EQ(points[i].batch.count, 5);
    EXPECT_EQ(points[i].batch.seed, seeds[i]);
    EXPECT_EQ(points[i].cores, spec.cores);
  }
}

TEST(RunnerTest, SweepSamplesArriveInReplicationOrder) {
  GridSpec spec;
  spec.ratios = {0.1, 0.3};
  spec.cores = {2};
  spec.dags_per_point = 16;
  spec.seed = 5;
  const auto points = make_grid(spec);
  const auto volumes = [&](int jobs) {
    Runner runner(jobs);
    return runner.sweep(
        points,
        [](analysis::AnalysisCache& cache, int) { return cache.volume(); },
        [](const SweepPoint&, int, const std::vector<graph::Time>& samples) {
          return samples;
        });
  };
  const auto serial = volumes(1);
  const auto threaded = volumes(4);
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_EQ(serial, threaded);
}

/// Fig6-style determinism: the simulation-based sweep, where every sample is
/// a makespan pair, must be bit-identical across thread counts.
TEST(RunnerDeterminismTest, Fig6StyleSweepIsThreadCountInvariant) {
  Fig6Config config;
  config.cores = {2, 8};
  config.ratios = {0.05, 0.3};
  config.dags_per_point = 10;
  config.params.min_nodes = 20;
  config.params.max_nodes = 60;
  config.jobs = 1;
  const Fig6Result serial = run_fig6(config);
  config.jobs = 4;
  const Fig6Result threaded = run_fig6(config);
  ASSERT_EQ(serial.rows.size(), threaded.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].m, threaded.rows[i].m);
    EXPECT_EQ(serial.rows[i].ratio, threaded.rows[i].ratio);
    EXPECT_EQ(serial.rows[i].avg_original, threaded.rows[i].avg_original);
    EXPECT_EQ(serial.rows[i].avg_transformed,
              threaded.rows[i].avg_transformed);
    EXPECT_EQ(serial.rows[i].pct_change, threaded.rows[i].pct_change);
  }
  ASSERT_EQ(serial.summaries.size(), threaded.summaries.size());
  for (std::size_t i = 0; i < serial.summaries.size(); ++i) {
    EXPECT_EQ(serial.summaries[i].peak_pct, threaded.summaries[i].peak_pct);
    EXPECT_EQ(serial.summaries[i].peak_ratio,
              threaded.summaries[i].peak_ratio);
  }
}

/// Fig9-style determinism: the analysis-based sweep over exact rationals.
TEST(RunnerDeterminismTest, Fig9StyleSweepIsThreadCountInvariant) {
  Fig9Config config;
  config.cores = {2, 4, 16};
  config.ratios = {0.01, 0.1, 0.4};
  config.dags_per_point = 12;
  config.params.min_nodes = 20;
  config.params.max_nodes = 60;
  config.jobs = 1;
  const Fig9Result serial = run_fig9(config);
  config.jobs = 4;
  const Fig9Result threaded = run_fig9(config);
  ASSERT_EQ(serial.rows.size(), threaded.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].m, threaded.rows[i].m);
    EXPECT_EQ(serial.rows[i].ratio, threaded.rows[i].ratio);
    EXPECT_EQ(serial.rows[i].mean_pct, threaded.rows[i].mean_pct);
    EXPECT_EQ(serial.rows[i].max_pct, threaded.rows[i].max_pct);
  }
}

TEST(RunnerTest, PerDagExceptionsPropagateToCaller) {
  GridSpec spec;
  spec.ratios = {0.1};
  spec.cores = {2};
  spec.dags_per_point = 8;
  const auto points = make_grid(spec);
  Runner runner(4);
  EXPECT_THROW(
      runner.sweep(
          points,
          [](analysis::AnalysisCache&, int) -> int { throw Error("bad dag"); },
          [](const SweepPoint&, int, const std::vector<int>& samples) {
            return samples.size();
          }),
      Error);
}

}  // namespace
}  // namespace hedra::exp
