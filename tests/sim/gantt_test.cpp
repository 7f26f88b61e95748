#include "sim/gantt.h"

#include <gtest/gtest.h>

#include "analysis/rta_heterogeneous.h"
#include "common/fixtures.h"
#include "sim/scheduler.h"
#include "util/error.h"

namespace hedra::sim {
namespace {

ScheduleTrace paper_trace(int cores) {
  const auto ex = testing::paper_example();
  SimConfig config;
  config.cores = cores;
  return simulate(ex.dag, config);
}

TEST(GanttTest, ShowsEveryUnitRow) {
  const auto ex = testing::paper_example();
  const auto trace = paper_trace(2);
  const std::string chart = render_gantt(trace, ex.dag);
  EXPECT_NE(chart.find("C0"), std::string::npos);
  EXPECT_NE(chart.find("C1"), std::string::npos);
  EXPECT_NE(chart.find("ACC"), std::string::npos);
}

TEST(GanttTest, ShowsNodeLabels) {
  const auto ex = testing::paper_example();
  const auto trace = paper_trace(2);
  const std::string chart = render_gantt(trace, ex.dag);
  EXPECT_NE(chart.find("v2"), std::string::npos);
  EXPECT_NE(chart.find("vO"), std::string::npos);  // vOff, possibly truncated
}

TEST(GanttTest, ShowsTimeAxis) {
  const auto ex = testing::paper_example();
  const auto trace = paper_trace(2);
  const std::string chart = render_gantt(trace, ex.dag);
  EXPECT_NE(chart.find("t=0 .. 12"), std::string::npos);
}

TEST(GanttTest, ListsInstantCompletions) {
  const auto ex = testing::paper_example();
  const auto transformed =
      analysis::analyze_heterogeneous(ex.dag, 2).transformed;
  SimConfig config;
  config.cores = 2;
  const auto trace = simulate(transformed, config);
  const std::string chart = render_gantt(trace, transformed);
  EXPECT_NE(chart.find("instant:"), std::string::npos);
  EXPECT_NE(chart.find("vSync@3"), std::string::npos);
}

TEST(GanttTest, InstantsCanBeHidden) {
  const auto ex = testing::paper_example();
  const auto transformed =
      analysis::analyze_heterogeneous(ex.dag, 2).transformed;
  SimConfig config;
  config.cores = 2;
  const auto trace = simulate(transformed, config);
  GanttOptions options;
  options.show_instants = false;
  const std::string chart = render_gantt(trace, transformed, options);
  EXPECT_EQ(chart.find("instant:"), std::string::npos);
}

TEST(GanttTest, LongScheduleIsScaled) {
  const auto dag = testing::chain(4, 100);  // makespan 400
  SimConfig config;
  config.cores = 1;
  const auto trace = simulate(dag, config);
  GanttOptions options;
  options.max_width = 40;
  const std::string chart = render_gantt(trace, dag, options);
  // Each line stays renderable; the scale note reflects compression.
  EXPECT_NE(chart.find("1 char = 10 ticks"), std::string::npos);
}

TEST(GanttTest, EmptyScheduleRenders) {
  graph::Dag dag;
  dag.add_node(0, graph::NodeKind::kSync);
  SimConfig config;
  config.cores = 1;
  const auto trace = simulate(dag, config);
  const std::string chart = render_gantt(trace, dag);
  EXPECT_NE(chart.find("empty"), std::string::npos);
}

TEST(GanttTest, MultiUnitDevicesRenderOneRowPerUnit) {
  // The trace's own unit counts drive the rows — no options needed — so a
  // second concurrent interval on device 1 can never be silently dropped.
  graph::Dag dag;
  const auto src = dag.add_node(1);
  const auto a1 = dag.add_node_on(3, 1, "a1");
  const auto a2 = dag.add_node_on(4, 1, "a2");
  const auto snk = dag.add_node(1);
  for (const auto v : {a1, a2}) {
    dag.add_edge(src, v);
    dag.add_edge(v, snk);
  }
  SimConfig config;
  config.cores = 1;
  config.device_units = {2};
  const auto trace = simulate(dag, config);
  const std::string chart = render_gantt(trace, dag);
  EXPECT_NE(chart.find("ACC |"), std::string::npos);
  EXPECT_NE(chart.find("ACC.1 |"), std::string::npos);
  EXPECT_NE(chart.find("a1"), std::string::npos);
  EXPECT_NE(chart.find("a2"), std::string::npos);
}

TEST(GanttTest, TinyWidthRejected) {
  const auto ex = testing::paper_example();
  const auto trace = paper_trace(2);
  GanttOptions options;
  options.max_width = 3;
  EXPECT_THROW(render_gantt(trace, ex.dag, options), Error);
}

}  // namespace
}  // namespace hedra::sim
