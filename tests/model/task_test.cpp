#include "model/task.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/fixtures.h"
#include "util/error.h"

namespace hedra::model {
namespace {

TEST(TaskTest, StoresComponents) {
  const auto ex = testing::paper_example();
  const DagTask task(ex.dag, /*period=*/30, /*deadline=*/20, "demo");
  EXPECT_EQ(task.period(), 30);
  EXPECT_EQ(task.deadline(), 20);
  EXPECT_EQ(task.name(), "demo");
  EXPECT_EQ(task.dag().num_nodes(), 6u);
}

TEST(TaskTest, ConstrainedDeadlineEnforced) {
  const auto ex = testing::paper_example();
  EXPECT_THROW(DagTask(ex.dag, /*period=*/10, /*deadline=*/20), Error);
  EXPECT_THROW(DagTask(ex.dag, /*period=*/10, /*deadline=*/0), Error);
}

TEST(TaskTest, ImplicitDeadline) {
  const auto ex = testing::paper_example();
  const DagTask task = DagTask::implicit(ex.dag, 25);
  EXPECT_EQ(task.deadline(), 25);
  EXPECT_EQ(task.period(), 25);
}

TEST(TaskTest, UtilizationIsExact) {
  const auto ex = testing::paper_example();  // vol = 18
  const DagTask task(ex.dag, 36, 36);
  EXPECT_EQ(task.utilization(), Frac(1, 2));
  EXPECT_EQ(task.density(), Frac(1, 2));
}

TEST(TaskTest, HostUtilizationExcludesOffload) {
  const auto ex = testing::paper_example();  // host vol = 14
  const DagTask task(ex.dag, 28, 28);
  EXPECT_EQ(task.host_utilization(), Frac(1, 2));
}

TEST(TaskTest, LengthRatio) {
  const auto ex = testing::paper_example();  // len = 8
  const DagTask task(ex.dag, 16, 16);
  EXPECT_EQ(task.length_ratio(), Frac(1, 2));
}

TEST(TaskTest, CopiesShareTheGraphUntilOneIsMutated) {
  const auto ex = testing::paper_example();
  const DagTask original(ex.dag, 100, 100, "orig");
  DagTask copy = original;
  EXPECT_EQ(&copy.dag(), &original.dag());  // shared, not copied
  DagTask assigned(ex.dag, 50, 50, "other");
  assigned = copy;
  EXPECT_EQ(&assigned.dag(), &original.dag());
  EXPECT_EQ(assigned.utilization(), Frac(18, 100));
}

TEST(TaskTest, MutableDagAllowsCoffSweeps) {
  // A C_off sweep builds a new task from an edited copy of the graph.
  const auto ex = testing::paper_example();
  const DagTask task(ex.dag, 100, 100);
  Dag edited = task.dag();
  edited.set_wcet(ex.voff, 10);
  const DagTask swept(std::move(edited), 100, 100);
  EXPECT_EQ(swept.utilization(), Frac(24, 100));
  EXPECT_EQ(task.utilization(), Frac(18, 100));
}

}  // namespace
}  // namespace hedra::model
