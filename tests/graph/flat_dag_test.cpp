#include "graph/flat_dag.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/fixtures.h"
#include "graph/algorithms.h"
#include "graph/critical_path.h"

namespace hedra::graph {
namespace {

TEST(FlatDagTest, MirrorsAdjacencyAttributesAndCounts) {
  Dag dag;
  const auto a = dag.add_node(3);
  const auto b = dag.add_node_on(5, 2, "gpu");
  const auto c = dag.add_node(0, NodeKind::kSync);
  const auto d = dag.add_node(7);
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  dag.add_edge(b, d);
  dag.add_edge(c, d);

  const FlatDag flat(dag);
  EXPECT_EQ(&flat.source(), &dag);
  const FlatView view = flat.view();
  EXPECT_EQ(view.source(), &dag);
  EXPECT_EQ(view.num_nodes(), dag.num_nodes());
  EXPECT_EQ(view.num_edges(), dag.num_edges());
  EXPECT_EQ(view.max_device(), 2);
  EXPECT_EQ(view.num_offload_nodes(), 1u);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_EQ(view.wcet(v), dag.wcet(v));
    EXPECT_EQ(view.device(v), dag.device(v));
    EXPECT_EQ(view.kind(v), dag.kind(v));
    EXPECT_EQ(view.in_degree(v), dag.in_degree(v));
    EXPECT_EQ(view.out_degree(v), dag.out_degree(v));
    const auto succ = view.successors(v);
    ASSERT_EQ(succ.size(), dag.successors(v).size());
    for (std::size_t i = 0; i < succ.size(); ++i) {
      EXPECT_EQ(succ[i], dag.successors(v)[i]);
    }
    const auto pred = view.predecessors(v);
    ASSERT_EQ(pred.size(), dag.predecessors(v).size());
    for (std::size_t i = 0; i < pred.size(); ++i) {
      EXPECT_EQ(pred[i], dag.predecessors(v)[i]);
    }
  }
  EXPECT_TRUE(view.is_sync(c));
  EXPECT_FALSE(view.is_sync(b));
}

TEST(FlatDagTest, TopologicalOrderMatchesDagAlgorithm) {
  const Dag dag = hedra::testing::s21_example();
  const FlatDag flat(dag);
  const auto order = flat.view().topological_order();
  EXPECT_EQ(std::vector<NodeId>(order.begin(), order.end()),
            topological_order(dag));
}

TEST(FlatDagTest, ThrowsOnCycle) {
  Dag dag;
  const auto a = dag.add_node(1);
  const auto b = dag.add_node(1);
  dag.add_edge(a, b);
  dag.add_edge(b, a);
  EXPECT_THROW(FlatDag flat(dag), Error);
}

TEST(FlatDagTest, CriticalPathInfoMatchesDagOverload) {
  const Dag dag = hedra::testing::s21_example();
  const FlatDag flat(dag);
  const CriticalPathInfo from_dag(dag);
  const CriticalPathInfo from_flat(flat.view());
  EXPECT_EQ(from_flat.length(), from_dag.length());
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_EQ(from_flat.up(v), from_dag.up(v));
    EXPECT_EQ(from_flat.down(v), from_dag.down(v));
  }
  EXPECT_EQ(critical_path_length(flat.view()), critical_path_length(dag));
  const auto down = down_lengths(flat.view());
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_EQ(down[v], from_dag.down(v));
  }
}

}  // namespace
}  // namespace hedra::graph
