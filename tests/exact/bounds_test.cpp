#include "exact/bounds.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "common/small_instances.h"
#include "exact/brute_force.h"
#include "util/error.h"

namespace hedra::exact {
namespace {

TEST(BoundsTest, ChainDominatedByCriticalPath) {
  const auto dag = testing::chain(4, 5);
  const LowerBounds lb = makespan_lower_bounds(dag, 2);
  EXPECT_EQ(lb.critical_path, 20);
  EXPECT_EQ(lb.host_area, 10);
  EXPECT_EQ(lb.accel_area, 0);
  EXPECT_EQ(lb.best(), 20);
}

TEST(BoundsTest, WideGraphDominatedByArea) {
  graph::Dag dag;
  for (int i = 0; i < 10; ++i) dag.add_node(4);
  const LowerBounds lb = makespan_lower_bounds(dag, 2);
  EXPECT_EQ(lb.critical_path, 4);
  EXPECT_EQ(lb.host_area, 20);
  EXPECT_EQ(lb.best(), 20);
}

TEST(BoundsTest, HostAreaRoundsUp) {
  graph::Dag dag;
  dag.add_node(3);
  dag.add_node(3);
  dag.add_node(3);
  EXPECT_EQ(makespan_lower_bounds(dag, 2).host_area, 5);  // ceil(9/2)
}

TEST(BoundsTest, PaperExample) {
  const auto ex = testing::paper_example();
  const LowerBounds lb = makespan_lower_bounds(ex.dag, 2);
  EXPECT_EQ(lb.critical_path, 8);
  EXPECT_EQ(lb.host_area, 7);  // ceil(14/2)
  EXPECT_EQ(lb.accel_area, 4);
  EXPECT_EQ(lb.best(), 8);
  // The best-case schedule of Figure 1(b) attains exactly this bound.
}

TEST(BoundsTest, AcceleratorAreaCountsAllOffloads) {
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto o1 = dag.add_node(7, graph::NodeKind::kOffload, "o1");
  const auto o2 = dag.add_node(5, graph::NodeKind::kOffload, "o2");
  const auto vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  EXPECT_EQ(makespan_lower_bounds(dag, 4).accel_area, 12);
}

TEST(BoundsTest, MoreCoresWeakensAreaBoundOnly) {
  const auto ex = testing::fig3_example();
  const auto lb2 = makespan_lower_bounds(ex.dag, 2);
  const auto lb8 = makespan_lower_bounds(ex.dag, 8);
  EXPECT_EQ(lb2.critical_path, lb8.critical_path);
  EXPECT_GE(lb2.host_area, lb8.host_area);
  EXPECT_GE(lb2.best(), lb8.best());
}

TEST(BoundsTest, DistinctDevicesDoNotSumInAccelArea) {
  // Same shape as the two-offload case above, but o2 on its own device:
  // the devices overlap, so only the busiest one (7) is a lower bound —
  // summing to 12 would exceed the true optimum (1 + 7 + 1 = 9).
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto o1 = dag.add_node(7, graph::NodeKind::kOffload, "o1");
  const auto o2 = dag.add_node_on(5, 2, "o2");
  const auto vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  EXPECT_EQ(makespan_lower_bounds(dag, 4).accel_area, 7);
  EXPECT_LE(makespan_lower_bound(dag, 4), 9);
}

TEST(BoundsTest, InvalidCoreCountThrows) {
  const auto ex = testing::paper_example();
  EXPECT_THROW((void)makespan_lower_bound(ex.dag, 0), Error);
  EXPECT_THROW((void)tail_energy_bound(ex.dag, 0), Error);
}

TEST(TailEnergyBoundTest, SeesWorkThatMustLeaveRoomForItsTail) {
  // Three sources of 10 must all finish 10 before the end: on two cores
  // that takes 15, so T >= 10 + 15 = 25.  Path and area both give 20.
  const auto dag = testing::fan_in(3, 10, 10);
  EXPECT_EQ(makespan_lower_bound(dag, 2), 20);
  EXPECT_EQ(tail_energy_bound(dag, 2), 25);
  EXPECT_EQ(brute_force_min_makespan(dag, 2), 30);
}

TEST(TailEnergyBoundTest, ReducesToTheAreaBoundsWithoutTails) {
  graph::Dag dag;
  for (int i = 0; i < 5; ++i) (void)dag.add_node(3);
  (void)dag.add_node(4, graph::NodeKind::kOffload, "o");
  EXPECT_EQ(tail_energy_bound(dag, 2), 8);  // ceil(15 / 2)
  EXPECT_EQ(tail_energy_bound(dag, 8), 4);  // the accelerator's 4
}

TEST(TailEnergyBoundTest, KeepsDevicesApart) {
  // The two-device graph above: o1 and o2 both carry a tail of 1, but they
  // run on different devices, so their volumes must not be summed (12 + 1
  // would exceed the optimum 9).  The source's tail of 8 gives exactly 9.
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto o1 = dag.add_node(7, graph::NodeKind::kOffload, "o1");
  const auto o2 = dag.add_node_on(5, 2, "o2");
  const auto vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  EXPECT_EQ(tail_energy_bound(dag, 4), 9);
}

TEST(TailEnergyBoundTest, NeverExceedsTheExhaustiveOptimum) {
  for (const bool multi : {false, true}) {
    const auto batch =
        testing::small_offload_instances(multi ? 0x7A11 : 0x7A12, 40, multi);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const graph::Dag& dag = batch[i];
      ASSERT_LE(dag.num_nodes(), 10u);
      for (const int m : {1, 2, 3}) {
        const LowerBounds classic = makespan_lower_bounds(dag, m);
        const Time energy = tail_energy_bound(dag, m);
        EXPECT_LE(energy, brute_force_min_makespan(dag, m))
            << "multi=" << multi << " instance " << i << " m=" << m;
        // At q = 0 the term is the area bounds.
        EXPECT_GE(energy, std::max(classic.host_area, classic.accel_area));
      }
    }
  }
}

}  // namespace
}  // namespace hedra::exact
