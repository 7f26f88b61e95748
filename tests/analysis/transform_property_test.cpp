/// \file transform_property_test.cpp
/// Algorithm 1's postconditions (analysis/transform.h), checked with this
/// file's own reachability walks and nothing from the transform's source:
///  - every precedence of G still holds, transitively, in G′;
///  - v_sync is a zero-WCET sync node that precedes v_off and every source
///    of G_par, so the two begin together;
///  - G_par = V ∖ Pred(v_off) ∖ Succ(v_off) ∖ {v_off};
///  - G′ keeps every node of G with its WCET and device;
///  - the Theorem 1 bound dominates the simulated makespan of G′ under
///    every ready-queue policy.
/// `gpar_members` is the only line that reads the transform's result type.

#include <gtest/gtest.h>

#include <vector>

#include "analysis/analysis_cache.h"
#include "common/fixtures.h"
#include "common/golden_batch.h"
#include "exp/experiment.h"
#include "sim/scheduler.h"

namespace hedra::analysis {
namespace {

using graph::Dag;
using graph::NodeId;

std::vector<NodeId> gpar_members(AnalysisCache& cache) {
  std::vector<NodeId> out;
  for (const auto v : cache.transform().gpar.to_indices()) {
    out.push_back(static_cast<NodeId>(v));
  }
  return out;
}

/// reach[v][w]: a non-empty path v -> ... -> w exists.
std::vector<std::vector<bool>> reachability(const Dag& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (NodeId start = 0; start < n; ++start) {
    std::vector<NodeId> stack{start};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId w : g.successors(v)) {
        if (!reach[start][w]) {
          reach[start][w] = true;
          stack.push_back(w);
        }
      }
    }
  }
  return reach;
}

void check_postconditions(const Dag& dag) {
  AnalysisCache cache(dag);
  const Dag& gp = cache.transformed();
  const std::size_t n = dag.num_nodes();
  ASSERT_EQ(gp.num_nodes(), n + 1);

  NodeId voff = graph::kInvalidNode;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(gp.wcet(v), dag.wcet(v));
    EXPECT_EQ(gp.device(v), dag.device(v));
    if (dag.device(v) != graph::kHostDevice) voff = v;
  }
  ASSERT_NE(voff, graph::kInvalidNode);
  const NodeId vsync = static_cast<NodeId>(n);
  EXPECT_EQ(gp.kind(vsync), graph::NodeKind::kSync);
  EXPECT_EQ(gp.wcet(vsync), 0);

  const auto reach_g = reachability(dag);
  const auto reach_gp = reachability(gp);

  // Every precedence of G holds in G′.
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId w : dag.successors(u)) {
      EXPECT_TRUE(reach_gp[u][w]) << "lost precedence " << u << " -> " << w;
    }
  }

  // G_par is exactly the set of nodes unordered with v_off in G.
  std::vector<bool> in_gpar(n, false);
  for (const NodeId v : gpar_members(cache)) {
    ASSERT_LT(v, n);
    in_gpar[v] = true;
  }
  for (NodeId v = 0; v < n; ++v) {
    const bool parallel = v != voff && !reach_g[v][voff] && !reach_g[voff][v];
    EXPECT_EQ(in_gpar[v], parallel) << "node " << v;
  }

  // v_sync precedes v_off and every source of G_par.
  EXPECT_TRUE(reach_gp[vsync][voff]);
  for (NodeId v = 0; v < n; ++v) {
    if (!in_gpar[v]) continue;
    bool source = true;
    for (const NodeId p : dag.predecessors(v)) source = source && !in_gpar[p];
    if (source) {
      EXPECT_TRUE(reach_gp[vsync][v]) << "G_par source " << v;
    }
  }

  // Theorem 1 dominates every work-conserving execution of G′.
  for (const int m : {1, 2, 3, 4, 8}) {
    const Frac bound = cache.r_het(m);
    for (const auto policy : sim::all_policies()) {
      sim::SimConfig config;
      config.cores = m;
      config.policy = policy;
      config.seed = 7;
      EXPECT_LE(Frac(sim::simulated_makespan(gp, config)), bound)
          << "m=" << m << " policy=" << sim::to_string(policy);
    }
  }
}

TEST(TransformPropertyTest, PaperFixtures) {
  check_postconditions(testing::paper_example().dag);
  check_postconditions(testing::fig3_example().dag);
  check_postconditions(testing::s21_example());
  for (const graph::Time c_off : {2, 5, 10}) {
    check_postconditions(testing::wide_gpar_example(c_off));
  }
}

TEST(TransformPropertyTest, GoldenBatches) {
  for (const auto& dag : goldens::golden_sim_batch(1)) {
    check_postconditions(dag);
  }
  for (const auto& c : goldens::golden_bnb_cases()) {
    for (const auto& dag : goldens::golden_bnb_batch(c)) {
      check_postconditions(dag);
    }
  }
}

TEST(TransformPropertyTest, RandomBatchesAcrossOffloadRatios) {
  for (const double ratio : {0.02, 0.1, 0.3, 0.5, 0.7, 0.9}) {
    exp::BatchConfig config;
    config.params.min_nodes = 10;
    config.params.max_nodes = 60;
    config.coff_ratio = ratio;
    config.count = 6;
    config.seed = 901;
    for (const auto& dag : exp::generate_batch(config)) {
      check_postconditions(dag);
    }
  }
}

}  // namespace
}  // namespace hedra::analysis
