#include "taskset/taskset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "graph/dag_io.h"
#include "util/error.h"

namespace hedra::taskset {
namespace {

graph::Dag two_node_dag(graph::Time host_wcet, graph::Time offload_wcet,
                        graph::DeviceId device) {
  graph::Dag dag;
  const auto a = dag.add_node(host_wcet);
  const auto b = dag.add_node_on(offload_wcet, device);
  dag.add_edge(a, b);
  return dag;
}

TaskSet small_set() {
  TaskSet set(Platform::parse("4:gpu*2,dsp"));
  set.add(DagTask(two_node_dag(6, 4, 1), 100, 80, "tau1"));
  set.add(DagTask(two_node_dag(3, 5, 2), 50, 50, "tau2"));
  return set;
}

TEST(TaskSetTest, SizeAndIndexing) {
  const TaskSet set = small_set();
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.empty());
  EXPECT_EQ(set[0].name(), "tau1");
  EXPECT_EQ(set[1].name(), "tau2");
  EXPECT_THROW((void)set[2], Error);
}

TEST(TaskSetTest, EmptySetTotalsAreZero) {
  const TaskSet set(Platform::parse("4:gpu"));
  EXPECT_TRUE(set.empty());
  EXPECT_DOUBLE_EQ(set.total_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(set.device_utilization(graph::kHostDevice), 0.0);
}

TEST(TaskSetTest, ValidatesCleanSet) {
  EXPECT_NO_THROW(small_set().validate());
}

TEST(TaskSetTest, RejectsUnsupportedDevicePlacement) {
  TaskSet set(Platform::parse("4:gpu"));
  set.add(DagTask(two_node_dag(6, 4, 2), 100, 80, "tau1"));  // no device 2
  EXPECT_THROW(set.validate(), Error);
}

TEST(TaskSetTest, RejectsDuplicateAndWhitespaceNames) {
  TaskSet duplicate(Platform::parse("2:gpu"));
  duplicate.add(DagTask(two_node_dag(6, 4, 1), 100, 80, "tau"));
  duplicate.add(DagTask(two_node_dag(3, 5, 1), 50, 50, "tau"));
  EXPECT_THROW(duplicate.validate(), Error);

  TaskSet spaced(Platform::parse("2:gpu"));
  spaced.add(DagTask(two_node_dag(6, 4, 1), 100, 80, "tau one"));
  EXPECT_THROW(spaced.validate(), Error);
}

/// The message validate() throws for `set`, or "" when it passes.
std::string validation_error(const TaskSet& set) {
  try {
    set.validate();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TaskSet named_set(const std::vector<std::string>& names) {
  TaskSet set(Platform::parse("2:gpu"));
  for (const std::string& name : names) {
    set.add(DagTask(two_node_dag(6, 4, 1), 100, 80, name));
  }
  return set;
}

TEST(TaskSetTest, DuplicateAnywhereIsReportedByName) {
  // At the front, in the middle and at the end of a longer set.
  EXPECT_NE(validation_error(named_set({"a", "a", "b", "c", "d"}))
                .find("duplicate task name 'a'"),
            std::string::npos);
  EXPECT_NE(validation_error(named_set({"a", "b", "c", "b", "d"}))
                .find("duplicate task name 'b'"),
            std::string::npos);
  EXPECT_NE(validation_error(named_set({"a", "b", "c", "d", "a"}))
                .find("duplicate task name 'a'"),
            std::string::npos);
  EXPECT_EQ(validation_error(named_set({"a", "b", "c", "d", "e"})), "");
}

TEST(TaskSetTest, FirstViolationInIndexOrderWins) {
  // The whitespace name at index 1 precedes the duplicate at index 3.
  EXPECT_NE(validation_error(named_set({"a", "b c", "d", "a"}))
                .find("task name 'b c' contains whitespace"),
            std::string::npos);
  // The duplicate at index 2 precedes the whitespace name at index 3.
  EXPECT_NE(validation_error(named_set({"a", "d", "a", "b c"}))
                .find("duplicate task name 'a'"),
            std::string::npos);
  // Of two duplicated names, the one whose second copy comes first wins.
  EXPECT_NE(validation_error(named_set({"x", "y", "y", "x"}))
                .find("duplicate task name 'y'"),
            std::string::npos);
}

TEST(TaskSetTest, ValidateTaskChecksOneTaskAgainstThePlatform) {
  const TaskSet set = small_set();
  EXPECT_NO_THROW(set.validate_task(DagTask(two_node_dag(1, 1, 2), 9, 9, "x")));
  // The same name as a member is not its concern (the set is not searched).
  EXPECT_NO_THROW(
      set.validate_task(DagTask(two_node_dag(1, 1, 1), 9, 9, "tau1")));
  EXPECT_THROW(set.validate_task(DagTask(two_node_dag(1, 1, 3), 9, 9, "x")),
               Error);
  EXPECT_THROW(
      set.validate_task(DagTask(two_node_dag(1, 1, 1), 9, 9, "two words")),
      Error);
}

TEST(TaskSetTest, OneTaskCopiesKeepTheOrderAndShareGraphs) {
  const TaskSet set = named_set({"a", "b", "c"});
  const TaskSet without_b = set.without(1);
  ASSERT_EQ(without_b.size(), 2u);
  EXPECT_EQ(without_b[0].name(), "a");
  EXPECT_EQ(without_b[1].name(), "c");
  EXPECT_EQ(&without_b[1].dag(), &set[2].dag());
  EXPECT_THROW((void)set.without(3), Error);

  const TaskSet with_d =
      set.with_appended(DagTask(two_node_dag(1, 1, 1), 9, 9, "d"));
  ASSERT_EQ(with_d.size(), 4u);
  EXPECT_EQ(with_d[3].name(), "d");
  EXPECT_EQ(&with_d[0].dag(), &set[0].dag());
  EXPECT_EQ(set.size(), 3u);
}

TEST(TaskSetTest, UtilizationAccounting) {
  const TaskSet set = small_set();
  // tau1: vol 10 / T 100; tau2: vol 8 / T 50.
  EXPECT_NEAR(set.total_utilization(), 10.0 / 100.0 + 8.0 / 50.0, 1e-12);
  // Host: 6/100 + 3/50; device 1: 4/100; device 2: 5/50.
  EXPECT_NEAR(set.device_utilization(graph::kHostDevice),
              6.0 / 100.0 + 3.0 / 50.0, 1e-12);
  EXPECT_NEAR(set.device_utilization(1), 4.0 / 100.0, 1e-12);
  EXPECT_NEAR(set.device_utilization(2), 5.0 / 50.0, 1e-12);
  EXPECT_EQ(set.task_device_utilization(0, 1), Frac(4, 100));
  EXPECT_EQ(set.task_device_utilization(1, 2), Frac(5, 50));
  EXPECT_EQ(set.task_device_utilization(1, 1), Frac(0));
}

TEST(TaskSetTest, TextRoundTripIsExact) {
  const TaskSet set = small_set();
  const std::string text = set.to_text();
  const TaskSet parsed = TaskSet::from_text(text);
  // Second serialisation is byte-identical — the round-trip fixpoint.
  EXPECT_EQ(parsed.to_text(), text);
  ASSERT_EQ(parsed.size(), set.size());
  EXPECT_EQ(parsed.platform(), set.platform());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(parsed[i].name(), set[i].name());
    EXPECT_EQ(parsed[i].period(), set[i].period());
    EXPECT_EQ(parsed[i].deadline(), set[i].deadline());
    EXPECT_EQ(graph::write_dag_text(parsed[i].dag()),
              graph::write_dag_text(set[i].dag()));
  }
}

TEST(TaskSetTest, TextCarriesUnitsAndSpeedups) {
  TaskSet set(Platform::parse("8:gpu*2@3.0,dsp@1.5"));
  set.add(DagTask(two_node_dag(6, 4, 1), 100, 80, "tau1"));
  const TaskSet parsed = TaskSet::from_text(set.to_text());
  EXPECT_EQ(parsed.platform().units_of(1), 2);
  EXPECT_EQ(parsed.platform().speedup_of(1), Frac(3));
  EXPECT_EQ(parsed.platform().speedup_of(2), Frac(3, 2));
}

TEST(TaskSetTest, FromTextRejectsMalformedInput) {
  EXPECT_THROW(TaskSet::from_text(""), Error);  // no platform
  EXPECT_THROW(TaskSet::from_text("task t period 5 deadline 5\nendtask\n"),
               Error);  // platform must come first
  EXPECT_THROW(TaskSet::from_text("platform 4:gpu\nplatform 2\n"), Error);
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntask t period 5 deadline 5\n"),
      Error);  // missing endtask
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntask t period 0 deadline 0\n"
                         "node v1 3\nendtask\n"),
      Error);  // bad period
  EXPECT_THROW(TaskSet::from_text("platform 4:gpu\nbogus directive\n"), Error);
  // Trailing junk on a task header must not silently truncate the value
  // ("40O" previously parsed as deadline 40).
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntask t period 50 deadline 40O\n"
                         "node v1 3\nendtask\n"),
      Error);
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntask t period 50 deadline 40 x\n"
                         "node v1 3\nendtask\n"),
      Error);
  // Directives match by exact token: near-misses are unknown directives,
  // not silently accepted tasks/platforms.
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntasks t period 50 deadline 50\n"
                         "node v1 3\nendtask\n"),
      Error);
  EXPECT_THROW(TaskSet::from_text("platformX 4:gpu\n"), Error);
}

TEST(TaskSetTest, CommentsAndBlankLinesIgnored) {
  const TaskSet parsed = TaskSet::from_text(
      "# a taskset\n\nplatform 2:gpu\n\n# first task\n"
      "task tau1 period 10 deadline 10\nnode v1 3\nendtask\n");
  EXPECT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].period(), 10);
}

TEST(TaskSetTest, FileRoundTrip) {
  const TaskSet set = small_set();
  const std::string path = ::testing::TempDir() + "/set.taskset";
  save_taskset_file(set, path);
  const TaskSet loaded = load_taskset_file(path);
  EXPECT_EQ(loaded.to_text(), set.to_text());
  std::remove(path.c_str());
  EXPECT_THROW(load_taskset_file(::testing::TempDir() + "/missing.taskset"),
               Error);
}

}  // namespace
}  // namespace hedra::taskset
