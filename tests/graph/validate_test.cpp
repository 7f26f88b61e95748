#include "graph/validate.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "graph/flat_batch.h"
#include "graph/flat_dag.h"
#include "util/error.h"

namespace hedra::graph {
namespace {

TEST(ValidateTest, PaperExampleIsValidHeterogeneous) {
  const auto ex = testing::paper_example();
  EXPECT_TRUE(is_valid(ex.dag, heterogeneous_rules()));
  EXPECT_NO_THROW(throw_if_invalid(ex.dag, heterogeneous_rules()));
}

TEST(ValidateTest, EmptyGraphInvalid) {
  const Dag dag;
  const auto issues = validate(dag, homogeneous_rules());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("empty"), std::string::npos);
}

TEST(ValidateTest, CycleReported) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  dag.add_edge(a, b);
  dag.add_edge(b, a);
  ValidationRules rules = homogeneous_rules();
  rules.require_single_source = false;
  rules.require_single_sink = false;
  const auto issues = validate(dag, rules);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("cycle"), std::string::npos);
}

TEST(ValidateTest, MultipleSourcesReported) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  const NodeId c = dag.add_node(1);
  dag.add_edge(a, c);
  dag.add_edge(b, c);
  const auto issues = validate(dag, homogeneous_rules());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("source"), std::string::npos);
}

TEST(ValidateTest, MultipleSinksReported) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  const NodeId c = dag.add_node(1);
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  const auto issues = validate(dag, homogeneous_rules());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("sink"), std::string::npos);
}

TEST(ValidateTest, TransitiveEdgeReported) {
  Dag dag = testing::chain(3, 1);
  dag.add_edge(0, 2);
  ValidationRules rules = homogeneous_rules();
  rules.require_single_sink = true;
  const auto issues = validate(dag, rules);
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const auto& issue : issues) {
    if (issue.find("transitive") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ValidateTest, OffloadCountEnforced) {
  const Dag plain = testing::chain(3, 1);
  EXPECT_TRUE(is_valid(plain, homogeneous_rules()));
  EXPECT_FALSE(is_valid(plain, heterogeneous_rules()));

  const auto ex = testing::paper_example();
  EXPECT_FALSE(is_valid(ex.dag, homogeneous_rules()));
}

TEST(ValidateTest, AnyOffloadCountAllowed) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId o1 = dag.add_node(1, NodeKind::kOffload, "o1");
  const NodeId o2 = dag.add_node(1, NodeKind::kOffload, "o2");
  const NodeId z = dag.add_node(1);
  dag.add_edge(a, o1);
  dag.add_edge(a, o2);
  dag.add_edge(o1, z);
  dag.add_edge(o2, z);
  ValidationRules rules;
  rules.required_offload_count = -1;
  EXPECT_TRUE(is_valid(dag, rules));
}

TEST(ValidateTest, NonPositiveWcetReported) {
  Dag dag;
  const NodeId a = dag.add_node(0);  // host node with zero WCET
  const NodeId b = dag.add_node(1);
  dag.add_edge(a, b);
  const auto issues = validate(dag, homogeneous_rules());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("WCET"), std::string::npos);
}

TEST(ValidateTest, SyncNodesExemptFromWcetRule) {
  Dag dag;
  const NodeId s = dag.add_node(0, NodeKind::kSync);
  const NodeId b = dag.add_node(1);
  dag.add_edge(s, b);
  EXPECT_TRUE(is_valid(dag, homogeneous_rules()));
}

TEST(ValidateTest, ThrowListsAllIssues) {
  Dag dag;
  dag.add_node(0);  // zero WCET host node; also no offload for het rules
  try {
    throw_if_invalid(dag, heterogeneous_rules());
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("WCET"), std::string::npos);
    EXPECT_NE(what.find("offload"), std::string::npos);
  }
}

TEST(ValidateTest, Fig3ExampleIsValid) {
  const auto ex = testing::fig3_example();
  EXPECT_TRUE(is_valid(ex.dag, heterogeneous_rules()))
      << validate(ex.dag, heterogeneous_rules()).front();
}

TEST(ValidateTest, CycleListedWithEveryOtherIssue) {
  // A cyclic Dag has no CSR snapshot; its form still reports the cycle
  // alongside the rules that need no topological order.
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(0);
  dag.add_edge(a, b);
  dag.add_edge(b, a);
  EXPECT_EQ(validate(dag, heterogeneous_rules()),
            (std::vector<std::string>{"graph contains a cycle",
                                      "expected exactly one source, found 0",
                                      "expected exactly one sink, found 0",
                                      "expected 1 offload node(s), found 0",
                                      "node v2 has non-positive WCET"}));
}

TEST(ValidateTest, DagBackedViewReportsTheDagsMessages) {
  auto ex = testing::paper_example();
  ex.dag.add_edge(ex.v1, ex.v5);  // transitive
  const FlatDag flat(ex.dag);
  EXPECT_EQ(validate(flat.view(), heterogeneous_rules()),
            validate(ex.dag, heterogeneous_rules()));
  EXPECT_EQ(validate(ex.dag, heterogeneous_rules()),
            (std::vector<std::string>{"transitive edge (v1, v5)"}));
}

TEST(ValidateTest, SourcelessViewUsesDefaultLabels) {
  // An arena view with no source Dag names nodes as Dag::add_node would by
  // default: "v<id+1>" on the host, "vOff" on device 1, "vOff<d>" on
  // device d, "vSync" for a sync node.
  StagedDag staged;
  const NodeId src = staged.add_node(1);
  const NodeId off = staged.add_node(2);
  const NodeId off2 = staged.add_node(0);
  const NodeId sync = staged.add_sync_node();
  const NodeId sink = staged.add_node(1);
  staged.device[off] = 1;
  staged.device[off2] = 2;
  staged.add_edge(src, off);
  staged.add_edge(src, off2);
  staged.add_edge(off, sync);
  staged.add_edge(off2, sync);
  staged.add_edge(sync, sink);
  staged.add_edge(src, sync);  // transitive
  FlatDagBatch batch;
  batch.append(staged);
  EXPECT_EQ(validate(batch.view(0), heterogeneous_rules()),
            (std::vector<std::string>{"transitive edge (v1, vSync)",
                                      "expected 1 offload node(s), found 2",
                                      "node vOff2 has non-positive WCET"}));
  try {
    throw_if_invalid(batch.view(0), heterogeneous_rules());
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "invalid task graph:\n  - transitive edge (v1, vSync)\n"
              "  - expected 1 offload node(s), found 2\n"
              "  - node vOff2 has non-positive WCET");
  }
  (void)sink;
}

}  // namespace
}  // namespace hedra::graph
