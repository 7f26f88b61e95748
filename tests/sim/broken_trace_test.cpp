/// \file broken_trace_test.cpp
/// The trace validator's exact output on a table of broken schedules: every
/// check it makes, each message word for word, and the order the messages
/// come out in.  The table runs twice — on a labelled Dag and on the same
/// graph as a sourceless arena view, where messages name
/// graph::default_label — so a faster validator must say exactly what the
/// reference one said.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/dag.h"
#include "graph/flat_batch.h"
#include "sim/trace.h"
#include "util/error.h"

namespace hedra::sim {
namespace {

// src -> {gpu, nil, a, b} -> sink; gpu and nil run on device 1, nil for
// zero ticks.
constexpr NodeId kSrc = 0;
constexpr NodeId kGpu = 1;
constexpr NodeId kNil = 2;
constexpr NodeId kA = 3;
constexpr NodeId kB = 4;
constexpr NodeId kSink = 5;
constexpr int kCores = 2;

struct Spec {
  Time wcet;
  graph::DeviceId device;
  const char* label;
};
constexpr std::array<Spec, 6> kNodes{{{2, 0, "src"},
                                      {3, 1, "gpu"},
                                      {0, 1, "nil"},
                                      {4, 0, "a"},
                                      {3, 0, "b"},
                                      {1, 0, "sink"}}};
constexpr std::array<std::pair<NodeId, NodeId>, 8> kEdges{{{kSrc, kGpu},
                                                           {kSrc, kNil},
                                                           {kSrc, kA},
                                                           {kSrc, kB},
                                                           {kGpu, kSink},
                                                           {kNil, kSink},
                                                           {kA, kSink},
                                                           {kB, kSink}}};

/// The same graph as the one DAG of an arena batch: a view with no source.
graph::FlatDagBatch arena_batch() {
  graph::StagedDag staged;
  for (const Spec& s : kNodes) {
    const NodeId v = staged.add_node(s.wcet);
    staged.device[v] = s.device;
  }
  for (const auto& [from, to] : kEdges) staged.add_edge(from, to);
  graph::FlatDagBatch batch;
  batch.append(staged, graph::FlatDagBatch::EdgeOrder::kInsertion);
  return batch;
}

graph::Dag labelled_dag() {
  graph::Dag dag;
  for (const Spec& s : kNodes) dag.add_node_on(s.wcet, s.device, s.label);
  for (const auto& [from, to] : kEdges) dag.add_edge(from, to);
  return dag;
}

/// A valid schedule on 2 cores and device 1's one unit.  nil's zero-length
/// interval comes before gpu's at the same instant, as the engine orders
/// them.
std::vector<Interval> valid_schedule() {
  return {{kSrc, 0, 0, 2},
          {kNil, kAcceleratorUnit, 2, 2},
          {kGpu, kAcceleratorUnit, 2, 5},
          {kA, 0, 2, 6},
          {kB, 1, 2, 5},
          {kSink, 0, 6, 7}};
}

Interval& of(std::vector<Interval>& intervals, NodeId node) {
  for (Interval& iv : intervals) {
    if (iv.node == node) return iv;
  }
  throw Error("no interval");
}

using Labels = std::array<std::string, kNodes.size()>;

struct Row {
  const char* name;
  std::function<void(std::vector<Interval>&)> broken;
  std::function<std::vector<std::string>(const Labels&)> expected;
};

const std::vector<Row>& rows() {
  using Msgs = std::vector<std::string>;
  static const std::vector<Row> kRows{
      {"valid, with a zero-length device interval before a real one at the "
       "same instant on one unit",
       [](auto&) {}, [](const Labels&) { return Msgs{}; }},
      {"wrong duration", [](auto& t) { of(t, kB).finish = 4; },
       [](const Labels& l) {
         return Msgs{"node " + l[kB] + " ran for 2 ticks, expected 3"};
       }},
      {"offload on a host core", [](auto& t) { of(t, kGpu).unit = 1; },
       [](const Labels& l) {
         return Msgs{"offload node " + l[kGpu] +
                     " ran off its device (device 1 with 1 unit(s), unit 1)"};
       }},
      {"offload on a unit its device lacks",
       [](auto& t) { of(t, kGpu).unit = accelerator_unit(1, 1); },
       [](const Labels& l) {
         return Msgs{"offload node " + l[kGpu] +
                     " ran off its device (device 1 with 1 unit(s), unit -4)"};
       }},
      {"host node on the accelerator",
       [](auto& t) { of(t, kA).unit = kAcceleratorUnit; },
       [](const Labels& l) {
         return Msgs{"host node " + l[kA] + " ran off the host cores"};
       }},
      {"node run twice", [](auto& t) { t.push_back({kB, 1, 5, 8}); },
       [](const Labels& l) {
         return Msgs{"node " + l[kB] + " executed 2 times"};
       }},
      {"node never run",
       [](auto& t) { t.erase(t.begin() + 5); },  // sink
       [](const Labels& l) {
         return Msgs{"node " + l[kSink] + " executed 0 times"};
       }},
      {"several placement faults, in interval then node order",
       [](auto& t) {
         of(t, kSink).unit = kAcceleratorUnit;
         of(t, kSink).finish = 9;
         of(t, kGpu).unit = 0;
         t.erase(t.begin() + 4);  // b
       },
       [](const Labels& l) {
         return Msgs{"offload node " + l[kGpu] +
                         " ran off its device (device 1 with 1 unit(s), "
                         "unit 0)",
                     "node " + l[kSink] + " ran for 3 ticks, expected 1",
                     "host node " + l[kSink] + " ran off the host cores",
                     "node " + l[kB] + " executed 0 times"};
       }},
      {"precedence violation",
       [](auto& t) {
         of(t, kSink) = {kSink, 1, 5, 6};
       },
       [](const Labels& l) {
         return Msgs{"node " + l[kSink] +
                     " started at 5 before predecessor " + l[kA] +
                     " finished at 6"};
       }},
      {"precedence violations, in node then predecessor order",
       [](auto& t) {
         of(t, kSrc) = {kSrc, 0, 3, 5};
         of(t, kSink) = {kSink, 1, 5, 6};
       },
       [](const Labels& l) {
         Msgs out;
         for (const NodeId v : {kGpu, kNil, kA, kB}) {
           out.push_back("node " + l[v] + " started at 2 before predecessor " +
                         l[kSrc] + " finished at 5");
         }
         out.push_back("node " + l[kSink] +
                       " started at 5 before predecessor " + l[kA] +
                       " finished at 6");
         out.push_back("unit 0: " + l[kSrc] + " [3, 5) overlaps " + l[kA] +
                       " [2, 6)");
         return out;
       }},
      {"unit overlap", [](auto& t) { of(t, kB) = {kB, 0, 3, 6}; },
       [](const Labels& l) {
         return Msgs{"unit 0: " + l[kB] + " [3, 6) overlaps " + l[kA] +
                     " [2, 6)"};
       }},
      {"out-of-order starts on one unit",
       [](auto& t) { std::swap(t.front(), t.back()); },
       [](const Labels&) { return Msgs{}; }},
      {"overlap found after sorting out-of-order starts",
       [](auto& t) {
         of(t, kB) = {kB, 0, 3, 6};
         std::swap(t[0], t[4]);  // b first, src last
         std::swap(t[3], t[5]);  // sink before a
       },
       [](const Labels& l) {
         return Msgs{"unit 0: " + l[kB] + " [3, 6) overlaps " + l[kA] +
                     " [2, 6)"};
       }},
      {"zero-length device interval inserted after a real one at its start",
       [](auto& t) { std::swap(t[1], t[2]); },
       [](const Labels& l) {
         return Msgs{"unit -1: " + l[kNil] + " [2, 2) overlaps " + l[kGpu] +
                     " [2, 5)"};
       }},
      {"overlaps on two units, in ascending unit id",
       [](auto& t) {
         of(t, kB) = {kB, 0, 3, 6};
         std::swap(t[1], t[2]);
       },
       [](const Labels& l) {
         return Msgs{"unit -1: " + l[kNil] + " [2, 2) overlaps " + l[kGpu] +
                         " [2, 5)",
                     "unit 0: " + l[kB] + " [3, 6) overlaps " + l[kA] +
                         " [2, 6)"};
       }},
  };
  return kRows;
}

std::vector<Interval> schedule_of(const Row& row) {
  std::vector<Interval> intervals = valid_schedule();
  row.broken(intervals);
  return intervals;
}

TEST(BrokenTraceTest, DagBackedMessagesArePinned) {
  const graph::Dag dag = labelled_dag();
  Labels labels;
  for (NodeId v = 0; v < kNodes.size(); ++v) labels[v] = kNodes[v].label;
  for (const Row& row : rows()) {
    ScheduleTrace trace(&dag, kCores);
    for (const Interval& iv : schedule_of(row)) trace.add(iv);
    EXPECT_EQ(trace.validate(), row.expected(labels)) << row.name;
  }
}

TEST(BrokenTraceTest, SourcelessViewMessagesNameDefaultLabels) {
  const graph::FlatDagBatch batch = arena_batch();
  const graph::FlatView view = batch.view(0);
  ASSERT_EQ(view.source(), nullptr);
  const Labels labels{"v1", "vOff", "vOff", "v4", "v5", "v6"};
  for (const Row& row : rows()) {
    ScheduleTrace trace(view, kCores);
    for (const Interval& iv : schedule_of(row)) trace.add(iv);
    EXPECT_EQ(trace.validate(), row.expected(labels)) << row.name;
  }
}

TEST(BrokenTraceTest, SparseUnitIdsGroupLikeDenseOnes) {
  // Zero-WCET host nodes may run on any unit, so ids can spread far apart;
  // the overlap check must still group by unit in ascending id.
  graph::Dag dag;
  const NodeId a = dag.add_node(4, graph::NodeKind::kHost, "a");
  const NodeId g = dag.add_node(3, graph::NodeKind::kOffload, "g");
  const NodeId z = dag.add_node(0, graph::NodeKind::kHost, "z");
  const NodeId y = dag.add_node(0, graph::NodeKind::kHost, "y");
  const NodeId x = dag.add_node(0, graph::NodeKind::kHost, "x");
  ScheduleTrace trace(&dag, 1);
  trace.add(Interval{z, 0, 2, 2});
  trace.add(Interval{x, -3001, 5, 5});
  trace.add(Interval{y, kAcceleratorUnit, 2, 2});
  trace.add(Interval{a, 0, 0, 4});
  trace.add(Interval{g, kAcceleratorUnit, 1, 4});
  EXPECT_EQ(trace.validate(),
            (std::vector<std::string>{"unit -1: y [2, 2) overlaps g [1, 4)",
                                      "unit 0: z [2, 2) overlaps a [0, 4)"}));
}

}  // namespace
}  // namespace hedra::sim
