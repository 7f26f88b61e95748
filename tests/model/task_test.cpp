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

TEST(TaskTest, CopiesShareTheGraphUntilOneIsMutated) {
  const auto ex = testing::paper_example();
  const DagTask original(ex.dag, 100, 100, "orig");
  DagTask copy = original;
  EXPECT_EQ(&copy.dag(), &original.dag());  // shared, not copied
  DagTask assigned(ex.dag, 50, 50, "other");
  assigned = copy;
  EXPECT_EQ(&assigned.dag(), &original.dag());
  EXPECT_EQ(assigned.dag().volume(), 18);
  EXPECT_EQ(assigned.period(), 100);
}

TEST(TaskTest, MutableDagAllowsCoffSweeps) {
  // A C_off sweep builds a new task from an edited copy of the graph.
  const auto ex = testing::paper_example();
  const DagTask task(ex.dag, 100, 100);
  Dag edited = task.dag();
  edited.set_wcet(ex.voff, 10);
  const DagTask swept(std::move(edited), 100, 100);
  EXPECT_EQ(swept.dag().volume(), 24);
  EXPECT_EQ(task.dag().volume(), 18);
  EXPECT_EQ(swept.period(), task.period());
}

}  // namespace
}  // namespace hedra::model
