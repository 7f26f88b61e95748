#include "exact/bnb.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "common/small_instances.h"
#include "exact/bounds.h"
#include "exact/brute_force.h"
#include "exact/list_heuristics.h"
#include "gen/hierarchical.h"
#include "gen/offload.h"
#include "graph/dag_io.h"
#include "util/error.h"
#include "util/rng.h"

namespace hedra::exact {
namespace {

TEST(BnbTest, ChainSingleCore) {
  const auto dag = testing::chain(4, 5);
  const BnbResult result = min_makespan(dag, 1);
  EXPECT_EQ(result.makespan, 20);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, IndependentJobsPackPerfectly) {
  graph::Dag dag;
  dag.add_node(3);
  dag.add_node(3);
  dag.add_node(2);
  dag.add_node(2);
  dag.add_node(2);
  // {3,3} and {2,2,2}: optimal 6 on two cores.
  const BnbResult result = min_makespan(dag, 2);
  EXPECT_EQ(result.makespan, 6);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, PaperExampleOptimalIs8) {
  const auto ex = testing::paper_example();
  const BnbResult result = min_makespan(ex.dag, 2);
  EXPECT_EQ(result.makespan, 8);  // Figure 1(b) best case
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, EnoughCoresReachLen) {
  const auto ex = testing::fig3_example();
  const BnbResult result = min_makespan(ex.dag, 16);
  EXPECT_EQ(result.makespan, makespan_lower_bounds(ex.dag, 16).critical_path);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, SandwichedByBoundAndHeuristic) {
  for (const auto& dag :
       {testing::paper_example().dag, testing::fig3_example().dag,
        testing::wide_gpar_example(4)}) {
    for (const int m : {1, 2, 4}) {
      const BnbResult result = min_makespan(dag, m);
      EXPECT_GE(result.makespan, result.root_lower_bound);
      EXPECT_LE(result.makespan, result.heuristic_upper_bound);
      EXPECT_GE(result.heuristic_upper_bound,
                best_heuristic_makespan(dag, m).makespan);
    }
  }
}

TEST(BnbTest, MonotoneInCores) {
  const auto ex = testing::fig3_example();
  graph::Time prev = min_makespan(ex.dag, 1).makespan;
  for (const int m : {2, 3, 4, 8}) {
    const graph::Time current = min_makespan(ex.dag, m).makespan;
    EXPECT_LE(current, prev) << "m=" << m;
    prev = current;
  }
}

TEST(BnbTest, TinyBudgetStillReturnsFeasibleMakespan) {
  const auto ex = testing::fig3_example();
  BnbConfig config;
  config.max_nodes = 1;
  const BnbResult result = min_makespan(ex.dag, 2, config);
  EXPECT_GE(result.makespan, result.root_lower_bound);
  EXPECT_LE(result.makespan, result.heuristic_upper_bound);
}

TEST(BnbTest, MultiOffloadSerialisation) {
  // Two parallel offloads of 5 behind a 1-tick source and before a 1-tick
  // sink: the single accelerator forces 12 regardless of host cores.
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto o1 = dag.add_node(5, graph::NodeKind::kOffload, "o1");
  const auto o2 = dag.add_node(5, graph::NodeKind::kOffload, "o2");
  const auto vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  const BnbResult result = min_makespan(dag, 8);
  EXPECT_EQ(result.makespan, 12);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, InvalidInputsThrow) {
  EXPECT_THROW((void)min_makespan(graph::Dag{}, 2), Error);
  EXPECT_THROW((void)min_makespan(testing::chain(2, 1), 0), Error);
  // The solver is sequential: jobs must stay at its default of 1.
  for (const int jobs : {0, 4}) {
    BnbConfig config;
    config.jobs = jobs;
    EXPECT_THROW((void)min_makespan(testing::chain(2, 1), 2, config), Error);
  }
}

TEST(BruteForceTest, GuardsAgainstLargeGraphs) {
  Rng rng(1);
  auto params = gen::HierarchicalParams::small_tasks();
  params.min_nodes = 20;
  const auto dag = gen::generate_hierarchical(params, rng);
  EXPECT_THROW((void)brute_force_min_makespan(dag, 2), Error);
}

TEST(BruteForceTest, MatchesHandComputedCases) {
  EXPECT_EQ(brute_force_min_makespan(testing::chain(3, 4), 1), 12);
  EXPECT_EQ(brute_force_min_makespan(testing::diamond(1, 5, 3, 1), 2), 7);
  const auto ex = testing::paper_example();
  EXPECT_EQ(brute_force_min_makespan(ex.dag, 2), 8);
}

/// The decisive cross-validation: the pruned, dominance-enabled B&B must
/// agree with the independent exhaustive enumeration on random tiny
/// instances across platforms.
class BnbCrossValidationTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BnbCrossValidationTest, AgreesWithBruteForce) {
  Rng rng(GetParam());
  gen::HierarchicalParams params;
  params.max_depth = 2;
  params.n_par = 3;
  params.min_nodes = 4;
  params.max_nodes = 9;
  params.wcet_min = 1;
  params.wcet_max = 9;
  for (int round = 0; round < 8; ++round) {
    graph::Dag dag = gen::generate_hierarchical(params, rng);
    // Half the instances get an offload node to exercise the accelerator.
    if (dag.num_nodes() >= 3 && rng.bernoulli(0.5)) {
      (void)gen::select_offload_node(dag, rng);
    }
    for (const int m : {1, 2, 3}) {
      const graph::Time expected = brute_force_min_makespan(dag, m);
      const BnbResult actual = min_makespan(dag, m);
      ASSERT_TRUE(actual.proven_optimal);
      EXPECT_EQ(actual.makespan, expected)
          << "seed=" << GetParam() << " round=" << round << " m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbCrossValidationTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

/// The tail-energy term is evaluated once per event time against started
/// nodes' finish times; several offload nodes on the one accelerator and
/// zero-WCET nodes (which complete instantly and carry no work) exercise
/// every case of that sweep.
TEST(BnbTest, AgreesWithBruteForceOnMultiOffloadInstances) {
  const auto batch = testing::small_offload_instances(0xE4E6, 40, true);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const int m : {1, 2, 3}) {
      const BnbResult actual = min_makespan(batch[i], m);
      ASSERT_TRUE(actual.proven_optimal);
      EXPECT_EQ(actual.makespan, brute_force_min_makespan(batch[i], m))
          << "instance " << i << " m=" << m;
      EXPECT_LE(tail_energy_bound(batch[i], m), actual.makespan);
    }
  }
}

TEST(BnbTest, TailEnergyAloneClosesTheRoot) {
  // Four sources of 5 before a sink of 10 on two cores: path and area say
  // 15, the tail-energy term says 10 + ceil(20 / 2) = 20, and so does the
  // list heuristic.  The first search node is cut by the energy term.
  const auto dag = testing::fan_in(4, 5, 10);
  const BnbResult result = min_makespan(dag, 2);
  EXPECT_EQ(result.root_lower_bound, 15);  // still the classic bound
  EXPECT_EQ(tail_energy_bound(dag, 2), 20);
  EXPECT_EQ(result.makespan, 20);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.nodes_explored, 1u);
  EXPECT_EQ(result.stats.prune_energy, 1u);
  EXPECT_EQ(result.stats.prune_bound, 1u);
}

/// A fig7 m=2 instance (run_fig7 seed 42, third ratio point, DAG 27) that
/// exhausted a 300k-node budget under the path/area bound alone, which
/// needed 333,681 nodes to prove it.  321 is the makespan the solver
/// proves with a 20M-node budget.
TEST(BnbTest, TailEnergyProvesFig7InstanceWithinBudget) {
  const graph::Dag dag = graph::read_dag_text(R"(
node v1 52 host
node v2 69 host
node v3 78 host
node v4 99 host
node v5 39 host
node v6 26 host
node v7 10 host
node vOff 27 offload
node v9 1 host
node v10 67 host
node v11 3 host
node v12 28 host
node v13 48 host
edge v1 v3
edge v1 v4
edge v1 v5
edge v1 v9
edge v1 v13
edge v3 v2
edge v4 v2
edge v5 v7
edge v5 vOff
edge v6 v2
edge v7 v6
edge vOff v6
edge v9 v11
edge v9 v12
edge v10 v2
edge v11 v10
edge v12 v10
edge v13 v2
)");
  BnbConfig config;
  config.max_nodes = 300'000;
  config.time_limit_sec = 1e9;  // only the node budget may cut the search
  const BnbResult result = min_makespan(dag, 2, config);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.makespan, 321);
  EXPECT_LE(result.nodes_explored, 300'000u);
  EXPECT_GT(result.stats.prune_energy, 0u);
  // The term proves it in 534 nodes; leaving out the remaining work of
  // running nodes (counting only unstarted ones) takes 4,685.
  EXPECT_LE(result.nodes_explored, 1'000u);
}

}  // namespace
}  // namespace hedra::exact
