#include "model/task.h"

#include <gtest/gtest.h>

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

  copy.mutable_dag().set_wcet(ex.voff, 10);
  EXPECT_NE(&copy.dag(), &original.dag());  // detached on write
  EXPECT_EQ(copy.dag().wcet(ex.voff), 10);
  EXPECT_EQ(original.dag().wcet(ex.voff), ex.dag.wcet(ex.voff));
  EXPECT_EQ(original.utilization(), Frac(18, 100));

  // A sole owner mutates in place.
  const Dag* before = &copy.dag();
  copy.mutable_dag().set_wcet(ex.voff, 11);
  EXPECT_EQ(&copy.dag(), before);
}

TEST(TaskTest, MutableDagAllowsCoffSweeps) {
  const auto ex = testing::paper_example();
  DagTask task(ex.dag, 100, 100);
  task.mutable_dag().set_wcet(ex.voff, 10);
  EXPECT_EQ(task.utilization(), Frac(24, 100));
}

}  // namespace
}  // namespace hedra::model
