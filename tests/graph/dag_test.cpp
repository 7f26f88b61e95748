#include "graph/dag.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "util/error.h"

namespace hedra::graph {
namespace {

TEST(DagTest, AddNodeAssignsSequentialIds) {
  Dag dag;
  EXPECT_EQ(dag.add_node(1), 0u);
  EXPECT_EQ(dag.add_node(2), 1u);
  EXPECT_EQ(dag.num_nodes(), 2u);
}

TEST(DagTest, DefaultLabelsFollowPaperConvention) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId off = dag.add_node(5, NodeKind::kOffload);
  const NodeId sync = dag.add_node(0, NodeKind::kSync);
  EXPECT_EQ(dag.label(a), "v1");
  EXPECT_EQ(dag.label(off), "vOff");
  EXPECT_EQ(dag.label(sync), "vSync");
}

TEST(DagTest, CustomLabelPreserved) {
  Dag dag;
  const NodeId v = dag.add_node(3, NodeKind::kHost, "stage_a");
  EXPECT_EQ(dag.label(v), "stage_a");
}

TEST(DagTest, NegativeWcetRejected) {
  Dag dag;
  EXPECT_THROW(dag.add_node(-1), Error);
}

TEST(DagTest, SyncNodesMustHaveZeroWcet) {
  Dag dag;
  EXPECT_THROW(dag.add_node(3, NodeKind::kSync), Error);
  const NodeId s = dag.add_node(0, NodeKind::kSync);
  EXPECT_THROW(dag.set_wcet(s, 1), Error);
}

TEST(DagTest, AddEdgeUpdatesAdjacency) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  dag.add_edge(a, b);
  EXPECT_TRUE(dag.has_edge(a, b));
  EXPECT_FALSE(dag.has_edge(b, a));
  EXPECT_EQ(dag.successors(a), std::vector<NodeId>{b});
  EXPECT_EQ(dag.predecessors(b), std::vector<NodeId>{a});
  EXPECT_EQ(dag.num_edges(), 1u);
}

TEST(DagTest, SelfLoopRejected) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  EXPECT_THROW(dag.add_edge(a, a), Error);
}

TEST(DagTest, DuplicateEdgeRejected) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  dag.add_edge(a, b);
  EXPECT_THROW(dag.add_edge(a, b), Error);
}

TEST(DagTest, BadIdsRejected) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  EXPECT_THROW(dag.add_edge(a, 7), Error);
  EXPECT_THROW((void)dag.node(9), Error);
  EXPECT_THROW((void)dag.wcet(9), Error);
}

TEST(DagTest, SourcesAndSinks) {
  const auto ex = testing::paper_example();
  EXPECT_EQ(ex.dag.sources(), std::vector<NodeId>{ex.v1});
  EXPECT_EQ(ex.dag.sinks(), std::vector<NodeId>{ex.v5});
}

TEST(DagTest, EdgesListsAllEdges) {
  const auto ex = testing::paper_example();
  const auto edges = ex.dag.edges();
  EXPECT_EQ(edges.size(), 7u);
  EXPECT_EQ(edges.size(), ex.dag.num_edges());
}

TEST(DagTest, VolumeIncludesOffload) {
  const auto ex = testing::paper_example();
  EXPECT_EQ(ex.dag.volume(), 18);
  EXPECT_EQ(ex.dag.host_volume(), 14);
}

TEST(DagTest, OffloadNodeLookup) {
  const auto ex = testing::paper_example();
  ASSERT_TRUE(ex.dag.offload_node().has_value());
  EXPECT_EQ(*ex.dag.offload_node(), ex.voff);
}

TEST(DagTest, NoOffloadNodeIsNullopt) {
  const Dag dag = testing::chain(3, 5);
  EXPECT_FALSE(dag.offload_node().has_value());
  EXPECT_TRUE(dag.offload_nodes().empty());
}

TEST(DagTest, MultipleOffloadNodesThrowOnSingleLookup) {
  Dag dag;
  dag.add_node(1, NodeKind::kOffload);
  dag.add_node(1, NodeKind::kOffload);
  EXPECT_THROW((void)dag.offload_node(), Error);
  EXPECT_EQ(dag.offload_nodes().size(), 2u);
}

TEST(DagTest, SetWcetChangesVolume) {
  auto ex = testing::paper_example();
  ex.dag.set_wcet(ex.voff, 10);
  EXPECT_EQ(ex.dag.volume(), 24);
  EXPECT_THROW(ex.dag.set_wcet(ex.voff, -1), Error);
}

TEST(DagTest, DegreeQueries) {
  const auto ex = testing::paper_example();
  EXPECT_EQ(ex.dag.out_degree(ex.v1), 3u);
  EXPECT_EQ(ex.dag.in_degree(ex.v5), 3u);
  EXPECT_EQ(ex.dag.in_degree(ex.v1), 0u);
  EXPECT_EQ(ex.dag.out_degree(ex.v5), 0u);
}

TEST(DagTest, NodeKindToString) {
  EXPECT_STREQ(to_string(NodeKind::kHost), "host");
  EXPECT_STREQ(to_string(NodeKind::kOffload), "offload");
  EXPECT_STREQ(to_string(NodeKind::kSync), "sync");
}

TEST(DagTest, DeviceDefaultsMatchTheKindVocabulary) {
  Dag dag;
  const NodeId host = dag.add_node(3);
  const NodeId off = dag.add_node(5, NodeKind::kOffload);
  const NodeId sync = dag.add_node(0, NodeKind::kSync);
  EXPECT_EQ(dag.device(host), kHostDevice);
  EXPECT_EQ(dag.device(off), 1);
  EXPECT_EQ(dag.device(sync), kHostDevice);
  EXPECT_EQ(dag.kind(host), NodeKind::kHost);
  EXPECT_EQ(dag.kind(off), NodeKind::kOffload);
  EXPECT_EQ(dag.kind(sync), NodeKind::kSync);
}

TEST(DagTest, AddNodeOnPlacesAndLabelsByDevice) {
  Dag dag;
  const NodeId host = dag.add_node_on(3, kHostDevice);
  const NodeId d1 = dag.add_node_on(5, 1);
  const NodeId d3 = dag.add_node_on(7, 3);
  EXPECT_EQ(dag.kind(host), NodeKind::kHost);
  EXPECT_EQ(dag.kind(d1), NodeKind::kOffload);
  EXPECT_EQ(dag.kind(d3), NodeKind::kOffload);
  EXPECT_EQ(dag.label(host), "v1");
  EXPECT_EQ(dag.label(d1), "vOff");
  EXPECT_EQ(dag.label(d3), "vOff3");
  EXPECT_EQ(dag.device(d3), 3);
}

TEST(DagTest, PerDeviceAccessors) {
  const auto ex = testing::multi_device_example();
  EXPECT_EQ(ex.dag.volume(), 28);
  EXPECT_EQ(ex.dag.host_volume(), 17);
  EXPECT_EQ(ex.dag.volume_on(kHostDevice), 17);
  EXPECT_EQ(ex.dag.volume_on(1), 6);
  EXPECT_EQ(ex.dag.volume_on(2), 5);
  EXPECT_EQ(ex.dag.volume_on(9), 0);
  EXPECT_EQ(ex.dag.nodes_on(1), (std::vector<NodeId>{ex.gpu}));
  EXPECT_EQ(ex.dag.nodes_on(2), (std::vector<NodeId>{ex.dsp}));
  EXPECT_EQ(ex.dag.device_ids(), (std::vector<DeviceId>{1, 2}));
  EXPECT_EQ(ex.dag.max_device(), 2);
  EXPECT_EQ(ex.dag.offload_nodes(), (std::vector<NodeId>{ex.gpu, ex.dsp}));
  EXPECT_THROW((void)ex.dag.offload_node(), Error);
}

TEST(DagTest, SetDeviceMovesNodesAndRejectsSync) {
  auto ex = testing::paper_example();
  ex.dag.set_device(ex.voff, 2);
  EXPECT_EQ(ex.dag.device(ex.voff), 2);
  EXPECT_EQ(ex.dag.kind(ex.voff), NodeKind::kOffload);
  ex.dag.set_device(ex.voff, kHostDevice);
  EXPECT_EQ(ex.dag.kind(ex.voff), NodeKind::kHost);
  EXPECT_TRUE(ex.dag.offload_nodes().empty());

  Dag dag;
  const NodeId sync = dag.add_node(0, NodeKind::kSync);
  EXPECT_THROW(dag.set_device(sync, 1), Error);
  EXPECT_NO_THROW(dag.set_device(sync, kHostDevice));
}

TEST(DagTest, CopyOverloadPreservesDevicePlacement) {
  const auto ex = testing::multi_device_example();
  Dag copy;
  for (NodeId v = 0; v < ex.dag.num_nodes(); ++v) {
    copy.add_node(ex.dag.node(v));
  }
  for (NodeId v = 0; v < ex.dag.num_nodes(); ++v) {
    EXPECT_EQ(copy.device(v), ex.dag.device(v));
    EXPECT_EQ(copy.label(v), ex.dag.label(v));
    EXPECT_EQ(copy.wcet(v), ex.dag.wcet(v));
  }
}

TEST(DagTest, AddNodeRejectsOffDeviceSync) {
  Dag dag;
  Node node;
  node.sync = true;
  node.device = 1;
  EXPECT_THROW((void)dag.add_node(node), Error);
}

}  // namespace
}  // namespace hedra::graph
