#include "taskset/sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "util/error.h"

namespace hedra::taskset {
namespace {

graph::Dag chain_dag(graph::Time a_wcet, graph::Time off_wcet,
                     graph::Time b_wcet, graph::DeviceId device) {
  graph::Dag dag;
  const auto a = dag.add_node(a_wcet);
  const auto b = dag.add_node_on(off_wcet, device);
  const auto c = dag.add_node(b_wcet);
  dag.add_edge(a, b);
  dag.add_edge(b, c);
  return dag;
}

TEST(TasksetSimTest, SingleTaskMatchesHandSchedule) {
  // One chain task alone: response = sum of the chain, every job alike.
  TaskSet set(Platform::parse("2:gpu"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 100, 100, "tau1"));
  TasksetSimConfig config;
  config.jobs_per_task = 3;
  const std::vector<int> cores{1};
  const TasksetSimResult result = simulate_taskset(set, cores, config);
  ASSERT_EQ(result.tasks.size(), 1u);
  ASSERT_EQ(result.tasks[0].jobs.size(), 3u);
  for (std::uint32_t j = 0; j < 3; ++j) {
    const JobRecord& job = result.tasks[0].jobs[j];
    EXPECT_EQ(job.release, 100 * j);
    EXPECT_EQ(job.response(), 16);
  }
  EXPECT_EQ(result.tasks[0].worst_response, 16);
  EXPECT_EQ(result.makespan, 216);
}

TEST(TasksetSimTest, SharedDeviceSerializesAcrossTasks) {
  // Two tasks whose offloads collide at t = 5 on a single-unit class: the
  // FIFO tie-break (smaller task index first) delays tau2's offload by
  // tau1's 7 ticks.
  TaskSet set(Platform::parse("2:gpu"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau1"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau2"));
  TasksetSimConfig config;
  config.jobs_per_task = 1;
  const std::vector<int> cores{1, 1};
  const TasksetSimResult result = simulate_taskset(set, cores, config);
  EXPECT_EQ(result.tasks[0].worst_response, 16);
  EXPECT_EQ(result.tasks[1].worst_response, 23);  // 16 + 7 queueing
  // A second unit removes the contention entirely.
  TaskSet two_units(Platform::parse("2:gpu*2"));
  two_units.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau1"));
  two_units.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau2"));
  const TasksetSimResult parallel =
      simulate_taskset(two_units, cores, config);
  EXPECT_EQ(parallel.tasks[0].worst_response, 16);
  EXPECT_EQ(parallel.tasks[1].worst_response, 16);
}

TEST(TasksetSimTest, ZeroWcetDeviceNodesQueueForTheirUnit) {
  // A zero-WCET accelerator node still waits for the unit (the PR 4
  // regression semantics, carried into the taskset layer): tau2's zero-tick
  // offload cannot finish before tau1's 7-tick offload releases the unit.
  TaskSet set(Platform::parse("2:gpu"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau1"));
  set.add(DagTask(chain_dag(5, 0, 4, 1), 1000, 1000, "tau2"));
  TasksetSimConfig config;
  config.jobs_per_task = 1;
  const std::vector<int> cores{1, 1};
  const TasksetSimResult result = simulate_taskset(set, cores, config);
  // tau2: host 5, then its offload waits until t = 12, then host 4.
  EXPECT_EQ(result.tasks[1].worst_response, 16);
}

TEST(TasksetSimTest, DeterministicForEveryPolicy) {
  TaskSetGenConfig gen_config;
  gen_config.num_tasks = 3;
  gen_config.total_utilization = 1.2;
  gen_config.dag_params.max_depth = 3;
  gen_config.dag_params.n_par = 4;
  gen_config.dag_params.min_nodes = 10;
  gen_config.dag_params.max_nodes = 40;
  gen_config.dag_params.num_devices = 2;
  gen_config.coff_ratio = 0.25;
  gen_config.cores = 4;
  Rng rng(41);
  const TaskSet set = generate_task_set(gen_config, rng);
  const std::vector<int> cores{1, 1, 1};
  for (const auto policy : sim::all_policies()) {
    TasksetSimConfig config;
    config.policy = policy;
    config.jobs_per_task = 2;
    config.seed = 99;
    const TasksetSimResult a = simulate_taskset(set, cores, config);
    const TasksetSimResult b = simulate_taskset(set, cores, config);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
      EXPECT_EQ(a.tasks[i].worst_response, b.tasks[i].worst_response)
          << sim::to_string(policy);
    }
    EXPECT_EQ(a.makespan, b.makespan) << sim::to_string(policy);
  }
}

TEST(TasksetSimTest, SpeedupPlatformsAreRejected) {
  // A speedup-carrying platform declares WCETs nominal; this simulator
  // executes WCETs verbatim, so running it would falsely undercut the
  // scaled admission bounds (observed 28 vs bound 24 on this very
  // fixture).  It must refuse instead.
  TaskSet set(Platform::parse("4:gpu@2"));
  set.add(DagTask(chain_dag(10, 8, 10, 1), 200, 200, "tau1"));
  TasksetSimConfig config;
  EXPECT_THROW((void)simulate_taskset(set, std::vector<int>{1}, config),
               Error);
}

TEST(TasksetSimTest, InvalidPartitionsThrow) {
  TaskSet set(Platform::parse("2:gpu"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 100, 100, "tau1"));
  TasksetSimConfig config;
  EXPECT_THROW(simulate_taskset(set, std::vector<int>{}, config), Error);
  EXPECT_THROW(simulate_taskset(set, std::vector<int>{0}, config), Error);
  EXPECT_THROW(simulate_taskset(set, std::vector<int>{3}, config), Error);
  config.jobs_per_task = 0;
  EXPECT_THROW(simulate_taskset(set, std::vector<int>{1}, config), Error);
}

/// FNV-1a over every job's (release, finish, finished) of a pinned corpus of
/// generated sets — K ∈ {0..3} accelerator classes, n_d ∈ {1, 2} units,
/// 1/3/5 tasks on 2 dedicated cores each, 3 jobs per task — simulated under
/// `policy`.  Small WCETs make same-instant events common, so the hash pins
/// the simulator's ordering rules, not just its arithmetic.
std::uint64_t golden_corpus_hash(sim::Policy policy) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ULL; };
  for (const int devices : {0, 1, 2, 3}) {
    for (const int units : {1, 2}) {
      if (devices == 0 && units == 2) continue;  // no class to provision
      for (const int num_tasks : {1, 3, 5}) {
        TaskSetGenConfig gen_config;
        gen_config.num_tasks = num_tasks;
        gen_config.total_utilization = 0.9 * num_tasks;
        gen_config.dag_params.max_depth = 3;
        gen_config.dag_params.n_par = 4;
        gen_config.dag_params.min_nodes = 8;
        gen_config.dag_params.max_nodes = 30;
        gen_config.dag_params.wcet_max = 12;
        gen_config.dag_params.num_devices = devices;
        gen_config.coff_ratio = 0.3;
        gen_config.cores = 2 * num_tasks;
        gen_config.device_units.assign(static_cast<std::size_t>(devices),
                                       units);
        const auto seed = static_cast<std::uint64_t>(
            1000 * devices + 100 * units + num_tasks);
        const std::vector<int> cores(static_cast<std::size_t>(num_tasks), 2);
        for (const TaskSet& set :
             generate_taskset_batch(gen_config, /*count=*/4, seed)) {
          TasksetSimConfig config;
          config.policy = policy;
          config.jobs_per_task = 3;
          config.seed = seed;
          const TasksetSimResult result = simulate_taskset(set, cores, config);
          for (const TaskObservation& task : result.tasks) {
            for (const JobRecord& job : task.jobs) {
              mix(static_cast<std::uint64_t>(job.release));
              mix(static_cast<std::uint64_t>(job.finish));
              mix(job.finished ? 1 : 0);
            }
          }
        }
      }
    }
  }
  return h;
}

TEST(TasksetSimGolden, JobRecordsMatchPinnedHashes) {
  // Taken from the task-set simulator as it stood before it shared the
  // single-DAG event loop; every policy must reproduce them exactly.
  const std::vector<std::pair<sim::Policy, std::uint64_t>> pinned{
      {sim::Policy::kBreadthFirst, 0x017c9342260acc4eULL},
      {sim::Policy::kDepthFirst, 0xcca7179aea424d94ULL},
      {sim::Policy::kCriticalPathFirst, 0x27c7cb22868da47fULL},
      {sim::Policy::kIndexOrder, 0xa08834c7a1a1b4bdULL},
      {sim::Policy::kRandom, 0x8f6afcf3a48bc315ULL},
  };
  for (const auto& [policy, expected] : pinned) {
    EXPECT_EQ(golden_corpus_hash(policy), expected)
        << sim::to_string(policy) << " 0x" << std::hex
        << golden_corpus_hash(policy);
  }
}

class TasksetDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TasksetDominance, BoundDominatesEveryPolicyAndPlatformShape) {
  // ACCEPTANCE CRITERION (PR 5): for admitted sets, the contention-inflated
  // bound must dominate every observed job response under EVERY
  // work-conserving ready-queue policy, for K ∈ {1, 2, 3} classes and
  // n_d ∈ {1, 2} units — exact rational comparison.
  Rng master(GetParam());
  for (const int devices : {1, 2, 3}) {
    for (const int units : {1, 2}) {
      TaskSetGenConfig gen_config;
      gen_config.num_tasks = 3;
      gen_config.total_utilization = 1.0;
      gen_config.dag_params.max_depth = 3;
      gen_config.dag_params.n_par = 4;
      gen_config.dag_params.min_nodes = 10;
      gen_config.dag_params.max_nodes = 40;
      gen_config.dag_params.wcet_max = 50;
      gen_config.dag_params.num_devices = devices;
      gen_config.coff_ratio = 0.3;
      gen_config.cores = 6;
      gen_config.device_units.assign(static_cast<std::size_t>(devices),
                                     units);
      Rng rng = master.fork();
      const TaskSet set = generate_task_set(gen_config, rng);
      const ContentionAnalysis admission = contention_rta(set);
      if (!admission.schedulable) continue;  // bound only claimed if admitted
      std::vector<int> cores;
      for (const TaskAdmission& task : admission.tasks) {
        cores.push_back(task.cores);
      }
      for (const auto policy : sim::all_policies()) {
        TasksetSimConfig config;
        config.policy = policy;
        config.jobs_per_task = 3;
        config.seed = GetParam() ^ 0x5eedu;
        const TasksetSimResult result = simulate_taskset(set, cores, config);
        for (std::size_t i = 0; i < set.size(); ++i) {
          EXPECT_LE(Frac(result.tasks[i].worst_response),
                    admission.tasks[i].response)
              << "K=" << devices << " units=" << units
              << " policy=" << sim::to_string(policy) << " task=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TasksetDominance,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace hedra::taskset
