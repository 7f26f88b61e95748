#include "taskset/contention_rta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "analysis/analysis_cache.h"
#include "common/contention_equal.h"
#include "common/platform_oracle.h"
#include "taskset/gen.h"
#include "util/error.h"
#include "util/rng.h"

namespace hedra::taskset {
namespace {

graph::Dag chain_dag(graph::Time host_wcet, graph::Time offload_wcet,
                     graph::DeviceId device) {
  graph::Dag dag;
  const auto a = dag.add_node(host_wcet);
  const auto b = dag.add_node_on(offload_wcet, device);
  const auto c = dag.add_node(host_wcet);
  dag.add_edge(a, b);
  dag.add_edge(b, c);
  return dag;
}

TaskSetGenConfig small_gen(int num_tasks, int devices, double utilization) {
  TaskSetGenConfig config;
  config.num_tasks = num_tasks;
  config.total_utilization = utilization;
  config.dag_params.max_depth = 3;
  config.dag_params.n_par = 4;
  config.dag_params.min_nodes = 10;
  config.dag_params.max_nodes = 40;
  config.dag_params.wcet_max = 50;
  config.dag_params.num_devices = devices;
  config.coff_ratio = 0.25;
  config.cores = 8;
  return config;
}

TEST(ContentionRtaTest, SingleTaskReducesToRplatformExactly) {
  // ACCEPTANCE CRITERION (PR 5): with no competitors there is no carry-in
  // interference, so the contention fixpoint must equal the single-task
  // platform bound with EXACT rational equality — over generated batches,
  // for K ∈ {1, 2, 3} and n_d ∈ {1, 2}.
  for (const int devices : {1, 2, 3}) {
    for (const int units : {1, 2}) {
      TaskSetGenConfig config = small_gen(1, devices, 0.4);
      config.device_units.assign(static_cast<std::size_t>(devices), units);
      const auto batch = generate_taskset_batch(config, 6, 97 + devices);
      for (const TaskSet& set : batch) {
        const ContentionAnalysis admission = contention_rta(set);
        ASSERT_EQ(admission.tasks.size(), 1u);
        const TaskAdmission& task = admission.tasks[0];
        ASSERT_GE(task.cores, 1);
        analysis::AnalysisCache cache(set[0].dag());
        const std::vector<int> unit_vec(static_cast<std::size_t>(devices),
                                        units);
        EXPECT_EQ(task.response, cache.r_platform(task.cores, unit_vec))
            << "K=" << devices << " units=" << units;
        EXPECT_EQ(task.iterations, 1);  // fixpoint converges at the seed
        bool converged = false;
        EXPECT_EQ(contention_response(set, 0, task.cores, &converged),
                  task.response);
        EXPECT_TRUE(converged);
      }
    }
  }
}

TEST(ContentionRtaTest, DisjointDevicesAddNoInterference) {
  // Two tasks on different accelerator classes share nothing: both bounds
  // must equal their isolated platform bounds exactly.
  TaskSet set(Platform::parse("8:gpu,dsp"));
  set.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  set.add(DagTask(chain_dag(12, 6, 2), 300, 300, "tau2"));
  const ContentionAnalysis admission = contention_rta(set);
  EXPECT_TRUE(admission.schedulable);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const TaskAdmission& task = admission.tasks[i];
    analysis::AnalysisCache cache(set[i].dag());
    const std::vector<int> units(2, 1);
    EXPECT_EQ(task.response, cache.r_platform(task.cores, units));
    for (const DeviceContention& device : task.devices) {
      EXPECT_EQ(device.interference, Frac(0));
    }
  }
}

TEST(ContentionRtaTest, SharedDeviceInflatesTheBound) {
  // Same class for both tasks: each bound strictly exceeds its isolated
  // seed by the competitor's carry-in volume share.
  TaskSet set(Platform::parse("8:gpu"));
  set.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  set.add(DagTask(chain_dag(12, 6, 1), 300, 300, "tau2"));
  const ContentionAnalysis admission = contention_rta(set);
  ASSERT_TRUE(admission.schedulable);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const TaskAdmission& task = admission.tasks[i];
    analysis::AnalysisCache cache(set[i].dag());
    const std::vector<int> units(1, 1);
    EXPECT_GT(task.response, cache.r_platform(task.cores, units));
    EXPECT_GT(task.iterations, 1);
    ASSERT_EQ(task.devices.size(), 1u);
    EXPECT_GT(task.devices[0].interference, Frac(0));
    EXPECT_EQ(task.devices[0].dominant_competitor, 1 - i);
  }
  // The inflation is exactly n_jobs · vol_other at the fixpoint (n_d = 1):
  // verify against a hand-rolled evaluation for tau1.
  const TaskAdmission& tau1 = admission.tasks[0];
  analysis::AnalysisCache cache(set[0].dag());
  const std::vector<int> units(1, 1);
  const Frac seed = cache.r_platform(tau1.cores, units);
  const Frac window = tau1.response;
  const std::int64_t njobs = ((window + Frac(300)).floor() / 300) + 1;
  EXPECT_EQ(tau1.response, seed + Frac(njobs * 6));
}

TEST(ContentionRtaTest, MoreCompetitorsNeverTightenTheBound) {
  // Adding a third task sharing the class can only grow tau1's bound.
  TaskSet two(Platform::parse("8:gpu"));
  two.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  two.add(DagTask(chain_dag(12, 6, 1), 300, 300, "tau2"));
  TaskSet three(Platform::parse("8:gpu"));
  three.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  three.add(DagTask(chain_dag(12, 6, 1), 300, 300, "tau2"));
  three.add(DagTask(chain_dag(9, 7, 1), 400, 400, "tau3"));
  const Frac r_two = contention_rta(two).tasks[0].response;
  const Frac r_three = contention_rta(three).tasks[0].response;
  EXPECT_GE(r_three, r_two);
}

TEST(ContentionRtaTest, ExhaustedCoresRejectTheSet) {
  // Two tasks on one host core: the second task gets nothing.
  TaskSet set(Platform::parse("1:gpu"));
  set.add(DagTask(chain_dag(10, 8, 1), 40, 40, "tau1"));
  set.add(DagTask(chain_dag(12, 6, 1), 40, 40, "tau2"));
  const ContentionAnalysis admission = contention_rta(set);
  EXPECT_FALSE(admission.schedulable);
  EXPECT_LE(admission.cores_used, 1);
}

TEST(ContentionRtaTest, ImpossibleDeadlineRejectsTheTask) {
  TaskSet set(Platform::parse("8:gpu"));
  // len(G) = 28 > D = 20: no core count can help.
  set.add(DagTask(chain_dag(10, 8, 1), 100, 20, "tau1"));
  const ContentionAnalysis admission = contention_rta(set);
  EXPECT_FALSE(admission.schedulable);
  EXPECT_FALSE(admission.tasks[0].schedulable);
}

TEST(ContentionRtaTest, GeneratedBatchesAdmitAtLowUtilization) {
  const auto batch = generate_taskset_batch(small_gen(3, 2, 0.6), 5, 1234);
  int admitted = 0;
  for (const TaskSet& set : batch) {
    if (contention_rta(set).schedulable) ++admitted;
  }
  EXPECT_GE(admitted, 3);  // ample slack: most sets must pass
}

TEST(ContentionRtaTest, ExplainNamesTheDominatingPair) {
  TaskSet set(Platform::parse("8:gpu"));
  set.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  set.add(DagTask(chain_dag(12, 6, 1), 300, 300, "tau2"));
  const ContentionAnalysis admission = contention_rta(set);
  const std::string text = explain(admission, set);
  EXPECT_NE(text.find("SCHEDULABLE"), std::string::npos);
  EXPECT_NE(text.find("dominating contention"), std::string::npos);
  EXPECT_NE(text.find("gpu"), std::string::npos);
  EXPECT_NE(text.find("tau1"), std::string::npos);

  TaskSet lonely(Platform::parse("4:gpu"));
  lonely.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  const std::string solo = explain(contention_rta(lonely), lonely);
  EXPECT_NE(solo.find("no device contention"), std::string::npos);
}

TEST(ContentionRtaTest, SpeedupScalesTheSeedBound) {
  // A 2x-speed class halves the device term of the seed (and there is no
  // contention to inflate): the admitted bound reflects it exactly.
  TaskSet plain(Platform::parse("4:gpu"));
  plain.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  TaskSet fast(Platform::parse("4:gpu@2"));
  fast.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  const ContentionAnalysis a = contention_rta(plain);
  const ContentionAnalysis b = contention_rta(fast);
  ASSERT_EQ(a.tasks[0].cores, b.tasks[0].cores);
  EXPECT_EQ(a.tasks[0].response - b.tasks[0].response, Frac(4));
}

TEST(ContentionRtaTest, InvalidInputsThrow) {
  EXPECT_THROW(contention_rta(TaskSet(Platform::parse("4:gpu"))), Error);
  TaskSet set(Platform::parse("4:gpu"));
  set.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  EXPECT_THROW((void)contention_response(set, 1, 2), Error);
  EXPECT_THROW((void)contention_response(set, 0, 0), Error);
}

/// Sets whose tasks mostly share two single-unit classes, on few enough
/// cores that a grown allocation starves later tasks; every third set
/// mixes in host-only tasks.
TaskSet delta_set(std::uint64_t seed) {
  TaskSetGenConfig config = small_gen(7, 2, 2.2);
  config.cores = 9;
  Rng rng(seed);
  TaskSet shared = generate_task_set(config, rng);
  if (seed % 3 != 0) return shared;
  config.dag_params.num_devices = 0;
  config.num_tasks = 3;
  config.total_utilization = 1.0;
  const TaskSet host = generate_task_set(config, rng);
  TaskSet mixed(shared.platform());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    mixed.add(shared[i]);
    if (i < host.size()) {
      const DagTask& t = host[i];
      mixed.add(DagTask(t.dag(), t.period(), t.deadline(),
                        "host" + std::to_string(i)));
    }
  }
  return mixed;
}

TaskSet prefix(const TaskSet& set, std::size_t n) {
  TaskSet out(set.platform());
  for (std::size_t i = 0; i < n; ++i) out.add(set[i]);
  return out;
}

TEST(ContentionRtaDeltaTest, AppendedEqualsTheFromScratchAnalysis) {
  int reused = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const TaskSet set = delta_set(seed);
    ContentionAnalysis previous;  // of the empty set
    for (std::size_t n = 1; n <= set.size(); ++n) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", n " + std::to_string(n));
      const TaskSet next = prefix(set, n);
      const ContentionAnalysis expected = contention_rta(next);
      testing::expect_same_analysis(contention_rta_appended(next, previous),
                                    expected);
      reused += previous.schedulable ? 1 : 0;
      rejected += previous.schedulable && !expected.schedulable ? 1 : 0;
      previous = expected;
    }
  }
  // Both the reuse path and rejections by it were exercised.
  EXPECT_GT(reused, 50);
  EXPECT_GT(rejected, 5);
}

TEST(ContentionRtaDeltaTest, ErasedEqualsTheFromScratchAnalysis) {
  int reused = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const TaskSet full = delta_set(seed);
    // The full set (often unschedulable: every task re-solved) and its
    // longest schedulable prefix (the reuse path).
    std::size_t n = full.size();
    while (n > 2 && !contention_rta(prefix(full, n)).schedulable) --n;
    for (const TaskSet& set : {full, prefix(full, n)}) {
      const ContentionAnalysis previous = contention_rta(set);
      reused += previous.schedulable ? 1 : 0;
      for (std::size_t i = 0; i < set.size(); ++i) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", erase " +
                     std::to_string(i) + " of " + std::to_string(set.size()));
        const TaskSet next = set.without(i);
        testing::expect_same_analysis(contention_rta_erased(next, previous, i),
                                      contention_rta(next));
      }
    }
  }
  EXPECT_GT(reused, 20);
}

TEST(ContentionRtaDeltaTest, UnaffectedTasksAreNotSolvedAgain) {
  // Host-only tasks share no class with anyone: an append solves only the
  // newcomer's scan, an erase solves nothing.
  TaskSetGenConfig config = small_gen(40, 0, 6.0);
  config.cores = 200;
  Rng rng(5);
  const TaskSet set = generate_task_set(config, rng);
  const TaskSet previous_set = prefix(set, set.size() - 1);
  const ContentionAnalysis previous = contention_rta(previous_set);
  ASSERT_TRUE(previous.schedulable);

  const ContentionAnalysis appended = contention_rta_appended(set, previous);
  EXPECT_EQ(appended.telemetry.seed_evals,
            static_cast<std::uint64_t>(appended.tasks.back().cores));
  EXPECT_EQ(appended.telemetry.fixpoint_solves, appended.telemetry.seed_evals);
  EXPECT_EQ(appended.telemetry.iterations, appended.telemetry.fixpoint_solves);

  const ContentionAnalysis erased =
      contention_rta_erased(previous_set.without(0), previous, 0);
  EXPECT_EQ(erased.telemetry.fixpoint_solves, 0u);
  testing::expect_same_analysis(erased,
                                contention_rta(previous_set.without(0)));
}

TEST(ContentionRtaDeltaTest, BudgetCutNeverReportsSchedulable) {
  const TaskSet set = delta_set(4);
  const std::size_t n = 3;
  const ContentionAnalysis previous = contention_rta(prefix(set, n - 1));
  ASSERT_TRUE(previous.schedulable);
  for (std::uint64_t work = 0; work < 40; ++work) {
    util::Budget budget(util::Deadline::never(), work);
    const ContentionAnalysis cut =
        contention_rta_appended(prefix(set, n), previous, &budget);
    if (cut.outcome == util::Outcome::kBudgetExhausted) {
      EXPECT_FALSE(cut.schedulable) << "work " << work;
    }
  }
}

/// The indices of the tasks of `set` that share an accelerator class with
/// task `index`.
std::vector<std::size_t> sharers(const TaskSet& set, std::size_t index) {
  std::vector<std::size_t> out;
  const auto own = set[index].dag().device_ids();
  for (std::size_t j = 0; j < set.size(); ++j) {
    if (j == index) continue;
    for (graph::DeviceId d : set[j].dag().device_ids()) {
      if (d != graph::kHostDevice &&
          std::find(own.begin(), own.end(), d) != own.end()) {
        out.push_back(j);
        break;
      }
    }
  }
  return out;
}

TEST(ContentionRtaDeltaTest, KeptAllocationsReuseTheirSeeds) {
  // An append that leaves every old task on its core count re-solves the
  // newcomer's sharers from their memoised seeds: the only chain walks are
  // the newcomer's scan, from one core up to the count it reports.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const TaskSet set = delta_set(seed);
    for (std::size_t n = 2; n <= set.size(); ++n) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", n " + std::to_string(n));
      const ContentionAnalysis previous = contention_rta(prefix(set, n - 1));
      if (!previous.schedulable) continue;
      const TaskSet next = prefix(set, n);
      const ContentionAnalysis expected = contention_rta(next);
      bool kept = true;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        kept = kept && expected.tasks[i].cores == previous.tasks[i].cores;
      }
      if (!kept || sharers(next, n - 1).empty()) continue;
      const ContentionAnalysis appended = contention_rta_appended(next, previous);
      testing::expect_same_analysis(appended, expected);
      EXPECT_EQ(appended.telemetry.seed_evals,
                static_cast<std::uint64_t>(expected.tasks.back().cores));
      // The sharers were solved again, just without a chain walk.
      EXPECT_GT(appended.telemetry.fixpoint_solves,
                appended.telemetry.seed_evals);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(ContentionRtaDeltaTest, SharerPushedToMoreCoresMissesTheMemo) {
  // A newcomer that pushes a sharer past its old allocation needs the
  // sharer's seed at m_i + 1, which no previous verdict holds.
  int pushed = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const TaskSet set = delta_set(seed);
    for (std::size_t n = 2; n <= set.size(); ++n) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", n " + std::to_string(n));
      const ContentionAnalysis previous = contention_rta(prefix(set, n - 1));
      if (!previous.schedulable) continue;
      const TaskSet next = prefix(set, n);
      const ContentionAnalysis expected = contention_rta(next);
      bool grew = false;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        grew = grew || (expected.tasks[i].schedulable &&
                        expected.tasks[i].cores > previous.tasks[i].cores);
      }
      if (!grew) continue;
      const ContentionAnalysis appended = contention_rta_appended(next, previous);
      testing::expect_same_analysis(appended, expected);
      EXPECT_GT(appended.telemetry.seed_evals,
                static_cast<std::uint64_t>(expected.tasks.back().cores));
      ++pushed;
    }
  }
  EXPECT_GT(pushed, 3);
}

TEST(ContentionRtaDeltaTest, LeaverSharersRescanBelowTheirAllocation) {
  // A leaver's sharers rescan from one core; those holding more than one
  // take fresh seeds below their old allocation and the memo at it.
  int rescanned = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const TaskSet full = delta_set(seed);
    std::size_t n = full.size();
    while (n > 2 && !contention_rta(prefix(full, n)).schedulable) --n;
    const TaskSet set = prefix(full, n);
    const ContentionAnalysis previous = contention_rta(set);
    if (!previous.schedulable) continue;
    for (std::size_t i = 0; i < set.size(); ++i) {
      bool wide_sharer = false;
      for (std::size_t j : sharers(set, i)) {
        wide_sharer = wide_sharer || previous.tasks[j].cores > 1;
      }
      if (!wide_sharer) continue;
      SCOPED_TRACE("seed " + std::to_string(seed) + ", erase " +
                   std::to_string(i));
      const TaskSet next = set.without(i);
      const ContentionAnalysis erased = contention_rta_erased(next, previous, i);
      testing::expect_same_analysis(erased, contention_rta(next));
      EXPECT_GT(erased.telemetry.seed_evals, 0u);
      ++rescanned;
    }
  }
  EXPECT_GT(rescanned, 5);
}

TEST(ContentionRtaDeltaTest, BudgetTruncatesAtTheSameTrialWithTheMemo) {
  // Every task shares the newcomer's class and holds one core, so the
  // append re-solves every old task from one core, as contention_rta
  // does, but from memoised seeds.  Each trial still costs one unit, so
  // under every work cap both runs stop at the same point.
  TaskSet set(Platform::parse("8:acc"));
  for (int i = 0; i < 4; ++i) {
    set.add(DagTask(chain_dag(2 + i, 3, 1), 60 + 10 * i, 60 + 10 * i,
                    "t" + std::to_string(i)));
  }
  const TaskSet before = prefix(set, set.size() - 1);
  const ContentionAnalysis previous = contention_rta(before);
  ASSERT_TRUE(previous.schedulable);
  for (const TaskAdmission& task : previous.tasks) ASSERT_EQ(task.cores, 1);

  util::Budget unlimited;
  const ContentionAnalysis full =
      contention_rta_appended(set, previous, &unlimited);
  ASSERT_TRUE(full.schedulable);
  EXPECT_EQ(full.telemetry.seed_evals, 1u);  // the newcomer's one core
  EXPECT_EQ(unlimited.used(),
            full.telemetry.fixpoint_solves + full.telemetry.iterations);

  int truncated = 0;
  for (std::uint64_t work = 0; work <= unlimited.used(); ++work) {
    SCOPED_TRACE("work " + std::to_string(work));
    util::Budget scratch_budget(util::Deadline::never(), work);
    util::Budget appended_budget(util::Deadline::never(), work);
    const ContentionAnalysis expected = contention_rta(set, &scratch_budget);
    const ContentionAnalysis cut =
        contention_rta_appended(set, previous, &appended_budget);
    testing::expect_same_analysis(cut, expected);
    EXPECT_EQ(appended_budget.used(), scratch_budget.used());
    truncated += cut.outcome == util::Outcome::kBudgetExhausted ? 1 : 0;
  }
  EXPECT_EQ(truncated, static_cast<int>(unlimited.used()));
}

TEST(ContentionRtaDeltaTest, ChangedIndexOutOfRangeThrows) {
  const TaskSet set = delta_set(4);
  const ContentionAnalysis previous = contention_rta(set);
  EXPECT_THROW((void)contention_rta_erased(set.without(0), previous,
                                           set.size()),
               Error);
  EXPECT_THROW((void)contention_rta_appended(TaskSet(set.platform()), previous),
               Error);
}

/// The seed every fixpoint starts from, on both task representations,
/// against the path-enumerating oracle (tests/common/platform_oracle.h).
TEST(SeedBoundTest, ArenaAndDagTasksMatchThePathOracle) {
  for (const int k : {0, 1, 2, 3}) {
    Rng rng(9300 + static_cast<std::uint64_t>(k));
    const auto batch = std::make_shared<const graph::FlatDagBatch>(
        testing::random_oracle_batch(rng, 12, static_cast<graph::DeviceId>(k)));
    for (std::size_t i = 0; i < batch->size(); ++i) {
      const DagTask arena_task(batch, i, 1000, 1000);
      const DagTask dag_task(batch->materialize(i), 1000, 1000);
      ASSERT_TRUE(arena_task.has_flat_view());
      ASSERT_FALSE(dag_task.has_flat_view());
      for (const testing::OracleClasses& c : testing::oracle_class_grid(k)) {
        const SeedBound arena_seed(arena_task, c.units, c.speedups);
        const SeedBound dag_seed(dag_task, c.units, c.speedups);
        for (const int m : {1, 2, 3, 4, 8}) {
          SCOPED_TRACE(::testing::Message()
                       << "K=" << k << " dag=" << i << " m=" << m);
          const Frac want = testing::oracle_platform_bound(
              dag_task.dag(), m, c.units, c.speedups);
          EXPECT_EQ(arena_seed(m), want);
          EXPECT_EQ(dag_seed(m), want);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hedra::taskset
