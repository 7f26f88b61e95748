#include "analysis/analysis_cache.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "exp/experiment.h"
#include "graph/algorithms.h"
#include "util/error.h"

/// The cache must be an observationally transparent memoisation layer:
/// every cached quantity equals what the direct (re-computing) API returns,
/// for every core count served from one instance.

namespace hedra::analysis {
namespace {

TEST(AnalysisCacheTest, PaperExampleNumbers) {
  const auto ex = testing::paper_example();
  AnalysisCache cache(ex.dag);
  EXPECT_EQ(cache.len_original(), 8);
  EXPECT_EQ(cache.quantities().len_trans, 10);
  EXPECT_EQ(cache.volume(), 18);
  EXPECT_EQ(cache.quantities().c_off, 4);
  EXPECT_EQ(cache.scenario(2), Scenario::kS1);
  EXPECT_EQ(cache.r_het(2), Frac(12));
  EXPECT_EQ(cache.r_hom(2), Frac(13));
}

TEST(AnalysisCacheTest, MatchesDirectApiAcrossCoreCounts) {
  // An arena-backed cache (no Dag on the bound path) against the direct
  // API on the materialised Dag.
  exp::BatchConfig config;
  config.params.min_nodes = 15;
  config.params.max_nodes = 50;
  config.coff_ratio = 0.25;
  config.count = 10;
  config.seed = 77;
  const graph::FlatDagBatch batch = exp::generate_flat_batch(config);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const graph::Dag dag = batch.materialize(i);
    AnalysisCache cache(batch, i);
    for (const int m : {1, 2, 4, 8, 16}) {
      const HetAnalysis direct = analyze_heterogeneous(dag, m);
      EXPECT_EQ(cache.r_het(m), direct.r_het);
      EXPECT_EQ(cache.scenario(m), direct.scenario);
      EXPECT_EQ(cache.r_hom(m), rta_homogeneous(dag, m));
      const HetAnalysis full = cache.analyze(m);
      EXPECT_EQ(full.r_het, direct.r_het);
      EXPECT_EQ(full.r_hom, direct.r_hom);
      EXPECT_EQ(full.r_hom_gpar, direct.r_hom_gpar);
      EXPECT_EQ(full.scenario, direct.scenario);
      EXPECT_EQ(full.len_transformed, direct.len_transformed);
      EXPECT_EQ(full.len_gpar, direct.len_gpar);
      EXPECT_EQ(full.vol_gpar, direct.vol_gpar);
      EXPECT_EQ(full.transformed.edges(), direct.transformed.edges());
    }
  }
}

TEST(AnalysisCacheTest, ArenaBoundsBuildNoDag) {
  exp::BatchConfig config;
  config.params.min_nodes = 15;
  config.params.max_nodes = 50;
  config.count = 3;
  config.seed = 78;
  const graph::FlatDagBatch batch = exp::generate_flat_batch(config);
  AnalysisCache cache(batch, 0);
  (void)cache.r_het(4);
  (void)cache.r_hom(4);
  (void)cache.scenario(4);
  (void)cache.quantities();
  EXPECT_EQ(cache.flat_view().source(), nullptr);
  EXPECT_EQ(cache.transform().view().source(), nullptr);
  // The view stays the arena's even after a caller asks for labels.
  EXPECT_EQ(cache.transformed().num_nodes(), batch.num_nodes(0) + 1);
  EXPECT_EQ(cache.flat_view().source(), nullptr);
}

TEST(AnalysisCacheTest, CyclicDagReportsEveryIssue) {
  graph::Dag dag;
  const graph::NodeId a = dag.add_node(1);
  const graph::NodeId b = dag.add_node(2, graph::NodeKind::kOffload);
  dag.add_edge(a, b);
  dag.add_edge(b, a);
  AnalysisCache cache(dag);
  try {
    (void)cache.r_het(2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.message(),
              "invalid task graph:\n  - graph contains a cycle\n"
              "  - expected exactly one source, found 0\n"
              "  - expected exactly one sink, found 0");
  }
}

TEST(AnalysisCacheTest, ScenarioBoundariesMatchWideGparFixture) {
  // c_off in [2, 5) is S2.2, 5 the tie (goes to S2.1), above 5 S2.1 at m=2.
  for (const graph::Time c_off : {2, 4, 5, 6, 10}) {
    const graph::Dag dag = testing::wide_gpar_example(c_off);
    AnalysisCache cache(dag);
    // Materialise the scenario via the cache and check against a second,
    // independent cache to ensure memoisation does not leak across m.
    const Scenario at_m2 = cache.scenario(2);
    if (c_off < 5) {
      EXPECT_EQ(at_m2, Scenario::kS22) << "c_off " << c_off;
    } else {
      EXPECT_EQ(at_m2, Scenario::kS21) << "c_off " << c_off;
    }
  }
}

TEST(AnalysisCacheTest, TopologicalOrdersMatchGraphAlgorithms) {
  const auto ex = testing::fig3_example();
  AnalysisCache cache(ex.dag);
  EXPECT_EQ(cache.flat().topological_order(), graph::topological_order(ex.dag));
  const auto transformed_order = cache.transform().view().topological_order();
  EXPECT_EQ(std::vector<graph::NodeId>(transformed_order.begin(),
                                       transformed_order.end()),
            graph::topological_order(cache.transformed()));
}

TEST(AnalysisCacheTest, TransformIsComputedLazilyAndReused) {
  const auto ex = testing::paper_example();
  AnalysisCache cache(ex.dag);
  const TransformResult& first = cache.transform();
  const TransformResult& second = cache.transform();
  EXPECT_EQ(&first, &second);  // same object, no recomputation
  EXPECT_EQ(&cache.quantities(), &cache.quantities());
  EXPECT_EQ(&cache.transformed(), &cache.transformed());
}

}  // namespace
}  // namespace hedra::analysis
