#include <gtest/gtest.h>

#include "analysis/analysis_cache.h"
#include "analysis/rta_heterogeneous.h"
#include "common/fixtures.h"
#include "graph/dag_io.h"
#include "gen/hierarchical.h"
#include "gen/offload.h"
#include "sim/scheduler.h"
#include "util/rng.h"

/// Timing-anomaly sweep.  WCETs are upper bounds: at run time nodes finish
/// early, and on non-preemptive multiprocessors that can *lengthen* the
/// schedule (Graham's anomalies).  The paper's bounds are computed from
/// WCETs, so they must dominate every execution in which each node runs for
/// at most its WCET — under every work-conserving policy.  This is the
/// guarantee a certification argument actually needs.
///
/// Every draw × policy run of a sweep simulates the SAME frozen graph, so
/// the sweeps batch their simulate_with_times calls over one
/// AnalysisCache CSR snapshot per DAG instead of re-snapshotting per call
/// (15 snapshots per DAG before; measured by the sim_with_times_batch
/// kernel of bench/perf_report).

namespace hedra {
namespace {

const std::vector<sim::Policy> kPolicies{
    sim::Policy::kBreadthFirst, sim::Policy::kDepthFirst,
    sim::Policy::kCriticalPathFirst, sim::Policy::kIndexOrder,
    sim::Policy::kRandom};

class AnomalySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnomalySweep, EarlyCompletionNeverBreaksRhom) {
  Rng master(GetParam());
  gen::HierarchicalParams params;
  params.max_depth = 4;
  params.n_par = 5;
  params.min_nodes = 10;
  params.max_nodes = 60;
  params.wcet_max = 40;
  for (int i = 0; i < 8; ++i) {
    Rng rng = master.fork();
    graph::Dag dag = gen::generate_hierarchical(params, rng);
    (void)gen::select_offload_node(dag, rng);
    (void)gen::set_offload_ratio(dag, 0.05 + 0.5 * rng.uniform_real());
    const int m = static_cast<int>(rng.uniform_int(1, 8));
    analysis::AnalysisCache cache(dag);
    const Frac r_hom = cache.r_hom(m);
    for (int draw = 0; draw < 3; ++draw) {
      const auto actual = sim::random_actual_times(dag, 0.2, rng);
      for (const auto policy : kPolicies) {
        sim::SimConfig config;
        config.cores = m;
        config.policy = policy;
        const auto trace =
            sim::simulate_with_times(cache.flat().view(), config, actual);
        EXPECT_LE(Frac(trace.makespan()), r_hom)
            << "m=" << m << " policy=" << sim::to_string(policy);
      }
    }
  }
}

TEST_P(AnomalySweep, EarlyCompletionNeverBreaksRhet) {
  Rng master(GetParam() + 7777);
  gen::HierarchicalParams params;
  params.max_depth = 4;
  params.n_par = 5;
  params.min_nodes = 10;
  params.max_nodes = 60;
  params.wcet_max = 40;
  for (int i = 0; i < 8; ++i) {
    Rng rng = master.fork();
    graph::Dag dag = gen::generate_hierarchical(params, rng);
    (void)gen::select_offload_node(dag, rng);
    (void)gen::set_offload_ratio(dag, 0.05 + 0.5 * rng.uniform_real());
    const int m = static_cast<int>(rng.uniform_int(1, 8));
    analysis::AnalysisCache cache(dag);
    const Frac r_het = cache.r_het(m);
    for (int draw = 0; draw < 3; ++draw) {
      const auto actual =
          sim::random_actual_times(cache.transformed(), 0.2, rng);
      for (const auto policy : kPolicies) {
        sim::SimConfig config;
        config.cores = m;
        config.policy = policy;
        const auto trace = sim::simulate_with_times(
            cache.transform().view(), config, actual);
        EXPECT_LE(Frac(trace.makespan()), r_het)
            << "m=" << m << " policy=" << sim::to_string(policy)
            << " scenario=" << to_string(cache.scenario(m));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnomalySweep,
                         ::testing::Values(21, 42, 63, 84));

TEST(AnomalyTest, AnomaliesActuallyExist) {
  // A concrete Graham anomaly (found by randomised search, frozen here):
  // on m = 3 under the depth-first policy, running every node at its WCET
  // takes 59 ticks, but the early-completion vector below takes 60.  This
  // proves the sweep above exercises a real phenomenon — bounds computed
  // from WCETs cannot rely on "shorter is always better".
  const graph::Dag dag = graph::read_dag_text(
      "node v1 8\nnode v2 3\nnode v3 7\nnode v4 7\nnode v5 10\n"
      "node v6 10\nnode v7 9\nnode v8 5\nnode v9 5\nnode v10 7\n"
      "node v11 2\nnode v12 1\nnode v13 8\nnode v14 9\nnode v15 9\n"
      "node v16 4\nnode v17 4\nnode v18 8\nnode v19 4\nnode v20 2\n"
      "node v21 7\n"
      "edge v1 v3\nedge v1 v21\nedge v3 v5\nedge v3 v9\nedge v3 v10\n"
      "edge v3 v15\nedge v4 v2\nedge v5 v7\nedge v5 v8\nedge v6 v4\n"
      "edge v7 v6\nedge v8 v6\nedge v9 v4\nedge v10 v12\nedge v10 v13\n"
      "edge v10 v14\nedge v11 v4\nedge v12 v11\nedge v13 v11\n"
      "edge v14 v11\nedge v15 v17\nedge v15 v18\nedge v15 v19\n"
      "edge v15 v20\nedge v16 v4\nedge v17 v16\nedge v18 v16\n"
      "edge v19 v16\nedge v20 v16\nedge v21 v2\n");
  const std::vector<graph::Time> actual{8, 2, 7, 4, 8, 10, 7, 4, 5, 5, 2,
                                        1, 4, 5, 8, 3, 4,  6, 2, 1, 4};
  sim::SimConfig config;
  config.cores = 3;
  config.policy = sim::Policy::kDepthFirst;
  const graph::Time at_wcet = sim::simulated_makespan(dag, config);
  const auto trace = sim::simulate_with_times(dag, config, actual);
  EXPECT_EQ(at_wcet, 59);
  EXPECT_EQ(trace.makespan(), 60);
  EXPECT_GT(trace.makespan(), at_wcet) << "the frozen anomaly disappeared";
  // And, of course, the bound still holds.
  EXPECT_LE(Frac(trace.makespan()), analysis::rta_homogeneous(dag, 3));
}

TEST(AnomalyTest, ActualTimesValidated) {
  const auto ex = testing::paper_example();
  sim::SimConfig config;
  config.cores = 2;
  std::vector<graph::Time> too_long(ex.dag.num_nodes(), 100);
  EXPECT_THROW(sim::simulate_with_times(ex.dag, config, too_long), Error);
  std::vector<graph::Time> wrong_size{1, 2};
  EXPECT_THROW(sim::simulate_with_times(ex.dag, config, wrong_size), Error);
}

TEST(AnomalyTest, ZeroActualTimesCollapseSchedule) {
  const auto ex = testing::paper_example();
  sim::SimConfig config;
  config.cores = 2;
  const std::vector<graph::Time> zeros(ex.dag.num_nodes(), 0);
  const auto trace = sim::simulate_with_times(ex.dag, config, zeros);
  EXPECT_EQ(trace.makespan(), 0);
  EXPECT_TRUE(trace.validate_with_durations(zeros).empty());
}

TEST(AnomalyTest, RandomActualTimesRespectBounds) {
  const auto ex = testing::fig3_example();
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto actual = sim::random_actual_times(ex.dag, 0.3, rng);
    for (graph::NodeId v = 0; v < ex.dag.num_nodes(); ++v) {
      EXPECT_GE(actual[v], 0);
      EXPECT_LE(actual[v], ex.dag.wcet(v));
      if (ex.dag.wcet(v) > 0) {
        EXPECT_GE(static_cast<double>(actual[v]),
                  0.3 * static_cast<double>(ex.dag.wcet(v)) - 1.0);
      }
    }
  }
}

}  // namespace
}  // namespace hedra
