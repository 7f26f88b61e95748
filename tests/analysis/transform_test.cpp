#include "analysis/transform.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analysis_cache.h"
#include "common/fixtures.h"
#include "graph/algorithms.h"
#include "graph/flat_dag.h"
#include "graph/critical_path.h"
#include "graph/validate.h"
#include "util/error.h"

namespace hedra::analysis {
namespace {

using graph::NodeId;
using graph::NodeKind;

/// Algorithm 1's result on `dag` together with G′ as a labelled Dag.
struct Transformed {
  TransformResult result;
  graph::Dag g;
};

Transformed run(const graph::Dag& dag) {
  const graph::FlatDag flat(dag);
  Transformed t{transform_for_offload(flat.view()), {}};
  t.g = transformed_dag(dag, t.result);
  return t;
}

std::vector<NodeId> members(const DynamicBitset& set) {
  std::vector<NodeId> out;
  for (const auto v : set.to_indices()) out.push_back(static_cast<NodeId>(v));
  return out;
}

TEST(TransformTest, PaperExampleStructure) {
  const auto ex = testing::paper_example();
  const Transformed t = run(ex.dag);
  const TransformResult& result = t.result;
  const graph::Dag& g = t.g;

  // V' = V ∪ {v_sync}, v_sync has zero WCET and sync kind.
  ASSERT_EQ(g.num_nodes(), ex.dag.num_nodes() + 1);
  EXPECT_EQ(g.kind(result.vsync), NodeKind::kSync);
  EXPECT_EQ(g.wcet(result.vsync), 0);
  EXPECT_EQ(result.voff, ex.voff);

  // The direct predecessor v4 now feeds v_sync instead of v_off.
  EXPECT_TRUE(g.has_edge(ex.v4, result.vsync));
  EXPECT_FALSE(g.has_edge(ex.v4, ex.voff));
  // (v_sync, v_off) exists.
  EXPECT_TRUE(g.has_edge(result.vsync, ex.voff));
  // v1's edges to the parallel nodes moved under v_sync ("synchronization
  // point between v4 and v2, v3").
  EXPECT_FALSE(g.has_edge(ex.v1, ex.v2));
  EXPECT_FALSE(g.has_edge(ex.v1, ex.v3));
  EXPECT_TRUE(g.has_edge(result.vsync, ex.v2));
  EXPECT_TRUE(g.has_edge(result.vsync, ex.v3));
  // v1 -> v4 stays (v4 ∈ Pred(v_off)).
  EXPECT_TRUE(g.has_edge(ex.v1, ex.v4));
  // Outgoing edges of the parallel portion are untouched.
  EXPECT_TRUE(g.has_edge(ex.v2, ex.v5));
  EXPECT_TRUE(g.has_edge(ex.v3, ex.v5));
  EXPECT_TRUE(g.has_edge(ex.voff, ex.v5));
}

TEST(TransformTest, PaperExampleLenBecomes10) {
  // §3.3: "the length of the transformed DAG in Figure 2(a) is 10".
  const auto ex = testing::paper_example();
  EXPECT_EQ(graph::critical_path_length(run(ex.dag).g), 10);
}

TEST(TransformTest, PaperExampleGPar) {
  const auto ex = testing::paper_example();
  AnalysisCache cache(ex.dag);
  // G_par = {v2, v3}: vol = 10, len = 6, no internal edges.
  EXPECT_EQ(members(cache.transform().gpar),
            (std::vector<NodeId>{ex.v2, ex.v3}));
  EXPECT_FALSE(ex.dag.has_edge(ex.v2, ex.v3));
  EXPECT_FALSE(ex.dag.has_edge(ex.v3, ex.v2));
  EXPECT_EQ(cache.quantities().vol_gpar, 10);
  EXPECT_EQ(cache.quantities().len_gpar, 6);
}

TEST(TransformTest, PaperExamplePredSuccSets) {
  const auto ex = testing::paper_example();
  const TransformResult result = run(ex.dag).result;
  EXPECT_EQ(members(result.pred), (std::vector<NodeId>{ex.v1, ex.v4}));
  EXPECT_EQ(members(result.succ), (std::vector<NodeId>{ex.v5}));
}

TEST(TransformTest, VolumeIsPreserved) {
  const auto ex = testing::paper_example();
  EXPECT_EQ(run(ex.dag).g.volume(), ex.dag.volume());
}

TEST(TransformTest, Fig3EveryDescribedEdgeMove) {
  const auto ex = testing::fig3_example();
  const Transformed t = run(ex.dag);
  const TransformResult& result = t.result;
  const graph::Dag& g = t.g;
  const NodeId vsync = result.vsync;
  const auto id = [&](const char* name) { return ex.id(name); };

  // Green edges: direct predecessors v8, v9 now feed v_sync.
  EXPECT_TRUE(g.has_edge(id("v8"), vsync));
  EXPECT_TRUE(g.has_edge(id("v9"), vsync));
  EXPECT_FALSE(g.has_edge(id("v8"), id("vOff")));
  EXPECT_FALSE(g.has_edge(id("v9"), id("vOff")));
  // Yellow edge (v_sync, v_off).
  EXPECT_TRUE(g.has_edge(vsync, id("vOff")));
  // Black edge move: (v8, v11) -> (v_sync, v11).
  EXPECT_FALSE(g.has_edge(id("v8"), id("v11")));
  EXPECT_TRUE(g.has_edge(vsync, id("v11")));
  // Pink edge moves: (v1, v2) -> (v_sync, v2), (v3, v7) -> (v_sync, v7).
  EXPECT_FALSE(g.has_edge(id("v1"), id("v2")));
  EXPECT_TRUE(g.has_edge(vsync, id("v2")));
  EXPECT_FALSE(g.has_edge(id("v3"), id("v7")));
  EXPECT_TRUE(g.has_edge(vsync, id("v7")));
  // Edges inside Pred(v_off) are untouched.
  EXPECT_TRUE(g.has_edge(id("v1"), id("v3")));
  EXPECT_TRUE(g.has_edge(id("v3"), id("v8")));
  EXPECT_TRUE(g.has_edge(id("v3"), id("v9")));
  // Edges inside G_par are untouched.
  EXPECT_TRUE(g.has_edge(id("v2"), id("v4")));
  EXPECT_TRUE(g.has_edge(id("v4"), id("v6")));
}

TEST(TransformTest, Fig3GParMembersAndEdges) {
  const auto ex = testing::fig3_example();
  const TransformResult result = run(ex.dag).result;
  std::vector<std::string> names;
  for (const NodeId v : members(result.gpar)) {
    names.push_back(ex.dag.label(v));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"v11", "v2", "v4", "v5", "v6",
                                             "v7"}));
  // Internal edges only: v2->v4, v2->v5, v4->v6, v5->v6.
  int internal = 0;
  for (const auto& [u, w] : ex.dag.edges()) {
    if (result.gpar.test(u) && result.gpar.test(w)) ++internal;
  }
  EXPECT_EQ(internal, 4);
}

TEST(TransformTest, GParNodesAllDependOnVsync) {
  // The whole point of the transformation: every G_par node starts after
  // v_sync, i.e. simultaneously with v_off.
  const auto ex = testing::fig3_example();
  const Transformed t = run(ex.dag);
  const auto reachable_from_sync = graph::descendants(t.g, t.result.vsync);
  for (const NodeId v : members(t.result.gpar)) {
    EXPECT_TRUE(reachable_from_sync.test(v))
        << ex.dag.label(v) << " does not depend on v_sync";
  }
}

TEST(TransformTest, TransformedGraphStaysSingleSourceSinkAcyclic) {
  for (const auto& dag :
       {testing::paper_example().dag, testing::fig3_example().dag,
        testing::s21_example(), testing::wide_gpar_example(4)}) {
    graph::ValidationRules rules = graph::heterogeneous_rules();
    // G' may legitimately contain transitive edges via v_sync.
    rules.forbid_transitive_edges = false;
    EXPECT_TRUE(graph::is_valid(run(dag).g, rules));
  }
}

TEST(TransformTest, EdgeAccounting) {
  const auto ex = testing::paper_example();
  const Transformed t = run(ex.dag);
  // Removed: (v4,vOff), (v1,v2), (v1,v3).  Added: (v4,vsync), (vsync,vOff),
  // (vsync,v2), (vsync,v3).
  EXPECT_EQ(t.result.edges_removed, 3u);
  EXPECT_EQ(t.result.edges_added, 4u);
  EXPECT_EQ(t.g.num_edges(), ex.dag.num_edges() + t.result.edges_added -
                                 t.result.edges_removed);
}

TEST(TransformTest, EmptyGParChain) {
  // v1 -> vOff -> v3: nothing is parallel to v_off.
  graph::Dag dag;
  const NodeId v1 = dag.add_node(1);
  const NodeId voff = dag.add_node(5, NodeKind::kOffload);
  const NodeId v3 = dag.add_node(1);
  dag.add_edge(v1, voff);
  dag.add_edge(voff, v3);
  const Transformed t = run(dag);
  EXPECT_TRUE(t.result.gpar.none());
  EXPECT_TRUE(t.g.has_edge(v1, t.result.vsync));
  EXPECT_TRUE(t.g.has_edge(t.result.vsync, voff));
  EXPECT_EQ(graph::critical_path_length(t.g), 7);
}

TEST(TransformTest, SharedParallelSuccessorNoDuplicateEdge) {
  // Two direct predecessors sharing a parallel successor must produce a
  // single (v_sync, p) edge.
  graph::Dag dag;
  const NodeId v1 = dag.add_node(1);
  const NodeId d1 = dag.add_node(1);
  const NodeId d2 = dag.add_node(1);
  const NodeId p = dag.add_node(1, NodeKind::kHost, "p");
  const NodeId voff = dag.add_node(3, NodeKind::kOffload);
  const NodeId vn = dag.add_node(1);
  dag.add_edge(v1, d1);
  dag.add_edge(v1, d2);
  dag.add_edge(d1, voff);
  dag.add_edge(d2, voff);
  dag.add_edge(d1, p);
  dag.add_edge(d2, p);
  dag.add_edge(p, vn);
  dag.add_edge(voff, vn);
  const Transformed t = run(dag);
  int sync_to_p = 0;
  for (const auto& [u, w] : t.g.edges()) {
    if (u == t.result.vsync && w == p) ++sync_to_p;
  }
  EXPECT_EQ(sync_to_p, 1);
}

TEST(TransformTest, RejectsOffloadAtSource) {
  graph::Dag dag;
  const NodeId voff = dag.add_node(2, NodeKind::kOffload);
  const NodeId v2 = dag.add_node(1);
  dag.add_edge(voff, v2);
  EXPECT_THROW(run(dag), Error);
}

TEST(TransformTest, RejectsOffloadAtSink) {
  graph::Dag dag;
  const NodeId v1 = dag.add_node(1);
  const NodeId voff = dag.add_node(2, NodeKind::kOffload);
  dag.add_edge(v1, voff);
  EXPECT_THROW(run(dag), Error);
}

TEST(TransformTest, RejectsMissingOffload) {
  const auto dag = testing::chain(3, 1);
  EXPECT_THROW(run(dag), Error);
}

TEST(TransformTest, RejectsTransitiveEdges) {
  auto ex = testing::paper_example();
  ex.dag.add_edge(ex.v1, ex.v5);  // transitive shortcut
  EXPECT_THROW(run(ex.dag), Error);
}

TEST(TransformTest, InputGraphIsNotMutated) {
  const auto ex = testing::paper_example();
  const auto edges_before = ex.dag.edges();
  (void)run(ex.dag);
  EXPECT_EQ(ex.dag.edges(), edges_before);
  EXPECT_EQ(ex.dag.num_nodes(), 6u);
}

}  // namespace
}  // namespace hedra::analysis
