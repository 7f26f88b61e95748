/// \file platform_oracle_test.cpp
/// The K-device chain bound against the path-enumerating oracle of
/// tests/common/platform_oracle.h, through every public entry point:
/// measure_platform, analyze_platform, AnalysisCache::r_platform and
/// analyze_platform_batch.  K ∈ {0, 1, 2, 3}, n_d ∈ {1, 2, 3}, unit and
/// non-unit speedups, and a speedup that forces the weighted walk's exact
/// Frac fallback.  Every comparison is exact rational equality.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analysis_cache.h"
#include "analysis/batch_kernels.h"
#include "analysis/platform_rta.h"
#include "common/platform_oracle.h"
#include "util/rng.h"

namespace hedra::analysis {
namespace {

using graph::DeviceId;
using graph::FlatDagBatch;
using testing::oracle_class_grid;
using testing::OracleClasses;
using testing::oracle_platform_bound;

constexpr int kCores[] = {1, 2, 3, 4, 8};

FlatDagBatch batch_for(int k) {
  Rng rng(9100 + static_cast<std::uint64_t>(k));
  return testing::random_oracle_batch(rng, 24, static_cast<DeviceId>(k));
}

model::Platform platform_of(int m, int k, const OracleClasses& classes) {
  model::Platform platform;
  platform.cores = m;
  for (int d = 1; d <= k; ++d) {
    platform.device_names.push_back(std::string(1, 'd') += std::to_string(d));
  }
  platform.device_units = classes.units;
  platform.device_speedup = classes.speedups;
  platform.validate();
  return platform;
}

::testing::Message where(int k, std::size_t dag, int m,
                         const OracleClasses& c) {
  ::testing::Message text;
  text << "K=" << k << " dag=" << dag << " m=" << m << " units={";
  for (const int n : c.units) text << n << ",";
  text << "} speedups={";
  for (const Frac& s : c.speedups) text << s.to_string() << ",";
  return text << "}";
}

TEST(PlatformOracleTest, MeasureMatchesPathEnumeration) {
  for (const int k : {0, 1, 2, 3}) {
    const FlatDagBatch batch = batch_for(k);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "K=" << k << " dag=" << i);
      const graph::Dag dag = batch.materialize(i);
      const PlatformQuantities q = measure_platform(batch.view(i));
      EXPECT_EQ(q.max_host_path, testing::oracle_max_host_path(dag));
      EXPECT_EQ(q.vol_host, dag.volume_on(graph::kHostDevice));
      std::vector<DeviceVolume> want;
      graph::Time sum = 0;
      for (DeviceId d = 1; d <= k; ++d) {
        const std::size_t count = dag.nodes_on(d).size();
        if (count == 0) continue;
        want.push_back({d, dag.volume_on(d), count});
        sum += dag.volume_on(d);
      }
      EXPECT_EQ(q.device_volumes, want);
      EXPECT_EQ(q.device_volume_sum, sum);
    }
  }
}

TEST(PlatformOracleTest, AnalyzePlatformMatchesTheOracle) {
  for (const int k : {0, 1, 2, 3}) {
    const FlatDagBatch batch = batch_for(k);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const graph::Dag dag = batch.materialize(i);
      for (const OracleClasses& classes : oracle_class_grid(k)) {
        for (const int m : kCores) {
          SCOPED_TRACE(where(k, i, m, classes));
          const PlatformAnalysis analysis =
              analyze_platform(dag, platform_of(m, k, classes));
          EXPECT_EQ(analysis.bound,
                    oracle_platform_bound(dag, m, classes.units,
                                          classes.speedups));
          EXPECT_EQ(analysis.path_term,
                    testing::oracle_chain_term(dag, m, classes.units,
                                               classes.speedups));
          ASSERT_EQ(analysis.devices.size(), static_cast<std::size_t>(k));
          for (const DeviceTerm& term : analysis.devices) {
            EXPECT_EQ(term.volume, dag.volume_on(term.device));
            EXPECT_EQ(term.node_count, dag.nodes_on(term.device).size());
          }
        }
      }
    }
  }
}

TEST(PlatformOracleTest, CacheBoundMatchesTheOracle) {
  for (const int k : {0, 1, 2, 3}) {
    const FlatDagBatch batch = batch_for(k);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const graph::Dag dag = batch.materialize(i);
      AnalysisCache dag_cache(dag);
      AnalysisCache arena_cache(batch, i);
      for (const OracleClasses& classes : oracle_class_grid(k)) {
        for (const int m : kCores) {
          SCOPED_TRACE(where(k, i, m, classes));
          const Frac want =
              oracle_platform_bound(dag, m, classes.units, classes.speedups);
          EXPECT_EQ(dag_cache.r_platform(m, classes.units, classes.speedups),
                    want);
          EXPECT_EQ(arena_cache.r_platform(m, classes.units, classes.speedups),
                    want);
          EXPECT_EQ(dag_cache.r_platform(platform_of(m, k, classes)), want);
        }
      }
      for (const int m : kCores) {
        EXPECT_EQ(dag_cache.r_platform(m), oracle_platform_bound(dag, m));
      }
    }
  }
}

TEST(PlatformOracleTest, BatchBoundsMatchTheOracle) {
  const std::vector<int> cores(std::begin(kCores), std::end(kCores));
  for (const int k : {0, 1, 2, 3}) {
    const FlatDagBatch batch = batch_for(k);
    const PlatformBatchAnalysis single = analyze_platform_batch(batch, cores);
    for (const OracleClasses& classes : oracle_class_grid(k)) {
      const PlatformBatchAnalysis result = analyze_platform_batch(
          batch, cores, classes.units, classes.speedups);
      ASSERT_EQ(result.bounds.size(), batch.size() * cores.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const graph::Dag dag = batch.materialize(i);
        for (std::size_t mi = 0; mi < cores.size(); ++mi) {
          SCOPED_TRACE(where(k, i, cores[mi], classes));
          EXPECT_EQ(result.bound(i, mi),
                    oracle_platform_bound(dag, cores[mi], classes.units,
                                          classes.speedups));
          EXPECT_EQ(single.bound(i, mi), oracle_platform_bound(dag, cores[mi]));
        }
      }
    }
  }
}

/// The fallback speedup really takes the Frac walk: its weights do not fit
/// the int64 common denominator, and the walk still returns the oracle's
/// chain term.
TEST(PlatformOracleTest, FallbackSpeedupWalkMatchesTheOracle) {
  const FlatDagBatch batch = batch_for(1);
  const std::vector<int> units{2};
  const std::vector<Frac> speedups{testing::fallback_speedup()};
  ASSERT_GT(units[0] * speedups[0].num(), std::int64_t{1} << 31);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const graph::Dag dag = batch.materialize(i);
    for (const int m : kCores) {
      EXPECT_EQ(weighted_chain_walk(batch.view(i), {m, units, speedups}),
                testing::oracle_chain_term(dag, m, units, speedups))
          << "dag=" << i << " m=" << m;
    }
  }
}

}  // namespace
}  // namespace hedra::analysis
