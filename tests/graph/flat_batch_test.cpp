#include "graph/flat_batch.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/view_equal.h"
#include "graph/flat_dag.h"

namespace hedra::graph {
namespace {

std::vector<NodeId> as_vector(std::span<const NodeId> ids) {
  return {ids.begin(), ids.end()};
}

TEST(FlatDagBatchTest, PredecessorsAscendForAnyInsertionOrder) {
  // Node 3's predecessors are inserted as 2 before 1.
  StagedDag staged;
  for (int i = 0; i < 4; ++i) (void)staged.add_node(1 + i);
  staged.add_edge(2, 3);
  staged.add_edge(0, 1);
  staged.add_edge(0, 2);
  staged.add_edge(1, 3);
  FlatDagBatch batch;
  batch.append(staged);
  const FlatView view = batch.view(0);

  EXPECT_EQ(as_vector(view.predecessors(3)), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(as_vector(view.successors(0)), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(as_vector(view.successors(1)), (std::vector<NodeId>{3}));
  EXPECT_EQ(as_vector(view.successors(2)), (std::vector<NodeId>{3}));
  EXPECT_TRUE(view.successors(3).empty());

  const Dag dag = batch.materialize(0);
  testing::expect_views_equal(FlatDag(dag).view(), view, "materialised");
}

}  // namespace
}  // namespace hedra::graph
