// Equivalence of the arena-backed (flat-first) taskset pipeline with the
// eager Dag-backed one: generation, metrics, admission, simulation, and
// serialisation must all be bit-identical between a task that carries a
// FlatDagBatch view and the same task rebuilt around a materialised Dag.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/flat_gen.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "taskset/sim.h"
#include "util/rng.h"

namespace hedra::taskset {
namespace {

TaskSetGenConfig base_config() {
  TaskSetGenConfig config;
  config.num_tasks = 4;
  config.total_utilization = 1.5;
  config.dag_params.max_depth = 3;
  config.dag_params.n_par = 4;
  config.dag_params.min_nodes = 10;
  config.dag_params.max_nodes = 40;
  config.dag_params.wcet_max = 50;
  config.dag_params.num_devices = 2;
  config.coff_ratio = 0.25;
  config.cores = 4;
  return config;
}

/// The same tasks rebuilt around materialised Dags (the pre-arena layout).
TaskSet eager_clone(const TaskSet& set) {
  TaskSet clone(set.platform());
  for (const model::DagTask& task : set) {
    clone.add(model::DagTask(task.dag(), task.period(), task.deadline(),
                             task.name()));
  }
  return clone;
}

TEST(ArenaTasksetTest, GeneratedTasksAreArenaBacked) {
  Rng rng(33);
  const TaskSet set = generate_task_set(base_config(), rng);
  for (const model::DagTask& task : set) {
    EXPECT_TRUE(task.has_flat_view());
    const graph::FlatView view = task.flat_view();
    // The lazily materialised Dag mirrors the view field-for-field.
    const model::Dag& dag = task.dag();
    ASSERT_EQ(dag.num_nodes(), view.num_nodes());
    ASSERT_EQ(dag.num_edges(), view.num_edges());
    for (graph::NodeId v = 0; v < view.num_nodes(); ++v) {
      EXPECT_EQ(dag.wcet(v), view.wcet(v));
      EXPECT_EQ(dag.device(v), view.device(v));
    }
    // Materialisation does not detach the task from the arena.
    EXPECT_TRUE(task.has_flat_view());
  }
}

TEST(ArenaTasksetTest, AdmissionIsBitIdenticalToTheEagerPath) {
  for (const std::uint64_t seed : {11u, 57u, 203u}) {
    Rng rng(seed);
    const TaskSet set = generate_task_set(base_config(), rng);
    const TaskSet eager = eager_clone(set);
    const ContentionAnalysis a = contention_rta(set);
    const ContentionAnalysis b = contention_rta(eager);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    EXPECT_EQ(a.schedulable, b.schedulable);
    EXPECT_EQ(a.cores_used, b.cores_used);
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", task " +
                   std::to_string(i));
      EXPECT_EQ(a.tasks[i].cores, b.tasks[i].cores);
      EXPECT_EQ(a.tasks[i].schedulable, b.tasks[i].schedulable);
      EXPECT_EQ(a.tasks[i].response, b.tasks[i].response);
      EXPECT_EQ(a.tasks[i].iterations, b.tasks[i].iterations);
      ASSERT_EQ(a.tasks[i].devices.size(), b.tasks[i].devices.size());
      for (std::size_t d = 0; d < a.tasks[i].devices.size(); ++d) {
        EXPECT_EQ(a.tasks[i].devices[d].device, b.tasks[i].devices[d].device);
        EXPECT_EQ(a.tasks[i].devices[d].own_volume,
                  b.tasks[i].devices[d].own_volume);
        EXPECT_EQ(a.tasks[i].devices[d].interference,
                  b.tasks[i].devices[d].interference);
        EXPECT_EQ(a.tasks[i].devices[d].dominant_competitor,
                  b.tasks[i].devices[d].dominant_competitor);
      }
    }
  }
}

TEST(ArenaTasksetTest, AdmissionMatchesEagerUnderUnitsAndSpeedups) {
  // Non-trivial unit counts and rational speedups push the fixpoint onto
  // scaled arithmetic with base > 1; the eager clone must still agree
  // exactly.
  model::Platform platform = model::Platform::symmetric(4, 2);
  platform.device_units = {2, 1};
  platform.device_speedup = {Frac(3, 2), Frac(5, 4)};

  gen::HierarchicalParams params;
  params.max_depth = 3;
  params.n_par = 4;
  params.min_nodes = 10;
  params.max_nodes = 40;
  params.wcet_max = 50;
  params.num_devices = 2;

  auto arena = std::make_shared<graph::FlatDagBatch>();
  Rng rng(91);
  for (int i = 0; i < 3; ++i) {
    Rng task_rng = rng.fork();
    gen::generate_multi_device_flat(params, 0.25, task_rng, *arena);
  }
  TaskSet set(platform);
  for (std::size_t i = 0; i < 3; ++i) {
    set.add(model::DagTask(arena, i, 4000, 4000,
                           "tau" + std::to_string(i + 1)));
  }
  const TaskSet eager = eager_clone(set);
  const ContentionAnalysis a = contention_rta(set);
  const ContentionAnalysis b = contention_rta(eager);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  EXPECT_EQ(a.schedulable, b.schedulable);
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].response, b.tasks[i].response);
    EXPECT_EQ(a.tasks[i].cores, b.tasks[i].cores);
    EXPECT_EQ(a.tasks[i].iterations, b.tasks[i].iterations);
  }
}

TEST(ArenaTasksetTest, SimulationIsBitIdenticalToTheEagerPath) {
  for (const std::uint64_t seed : {19u, 83u}) {
    Rng rng(seed);
    const TaskSet set = generate_task_set(base_config(), rng);
    const TaskSet eager = eager_clone(set);
    const std::vector<int> cores(set.size(), 1);
    TasksetSimConfig config;
    config.jobs_per_task = 3;
    config.seed = 7 * seed;
    const TasksetSimResult a = simulate_taskset(set, cores, config);
    const TasksetSimResult b = simulate_taskset(eager, cores, config);
    EXPECT_EQ(a.makespan, b.makespan);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
      EXPECT_EQ(a.tasks[i].worst_response, b.tasks[i].worst_response);
      ASSERT_EQ(a.tasks[i].jobs.size(), b.tasks[i].jobs.size());
      for (std::size_t j = 0; j < a.tasks[i].jobs.size(); ++j) {
        EXPECT_EQ(a.tasks[i].jobs[j].release, b.tasks[i].jobs[j].release);
        EXPECT_EQ(a.tasks[i].jobs[j].finish, b.tasks[i].jobs[j].finish);
      }
    }
  }
}

TEST(ArenaTasksetTest, TextRoundTripMatchesTheEagerPath) {
  Rng rng(47);
  const TaskSet set = generate_task_set(base_config(), rng);
  const TaskSet eager = eager_clone(set);
  const std::string text = set.to_text();
  EXPECT_EQ(text, eager.to_text());
  const TaskSet parsed = TaskSet::from_text(text);
  EXPECT_EQ(parsed.to_text(), text);
}

}  // namespace
}  // namespace hedra::taskset
