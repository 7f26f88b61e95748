#include "taskset/sim.h"

#include <algorithm>

#include "graph/flat_dag.h"
#include "sim/engine.h"

namespace hedra::taskset {

namespace {

/// Per-job records: each job's release and finish, the per-task worst
/// response and the makespan.
struct JobRecorder {
  TasksetSimResult& result;
  std::size_t finished = 0;

  void release(std::uint32_t task, std::uint32_t job, graph::Time t) {
    result.tasks[task].jobs[job].release = t;
  }
  void start(const sim::NodeInstance&, int, graph::Time,
             graph::Time) noexcept {}
  void job_done(std::uint32_t task, std::uint32_t job, graph::Time t) {
    TaskObservation& observed = result.tasks[task];
    JobRecord& record = observed.jobs[job];
    record.finish = t;
    record.finished = true;
    observed.worst_response =
        std::max(observed.worst_response, record.response());
    result.makespan = std::max(result.makespan, t);
    ++finished;
  }
};

}  // namespace

TasksetSimResult simulate_taskset(const TaskSet& set,
                                  std::span<const int> cores_per_task,
                                  const TasksetSimConfig& config) {
  set.validate();
  HEDRA_REQUIRE(!set.empty(), "cannot simulate an empty task set");
  // The simulator executes WCETs verbatim (device-time).  A platform with
  // WCET speedups declares the DAGs' WCETs to be NOMINAL — the contention
  // analysis divides its device terms by s_d — so simulating them unscaled
  // would take longer than the admitted bounds allow.  Refuse loudly
  // rather than produce spurious "violations": bake speedups into the
  // WCETs at generation (gen::HierarchicalParams::device_speedup) and
  // simulate on the unscaled platform.
  HEDRA_REQUIRE(!set.platform().has_speedups(),
                "taskset simulation runs in device-time; platforms with "
                "WCET speedups cannot be executed verbatim — apply the "
                "scaling at generation instead");
  HEDRA_REQUIRE(config.jobs_per_task >= 1, "need at least one job per task");
  HEDRA_REQUIRE(cores_per_task.size() == set.size(),
                "need one host-core count per task");
  int partitioned = 0;
  for (const int cores : cores_per_task) {
    HEDRA_REQUIRE(cores >= 1, "every task needs at least one dedicated core");
    partitioned += cores;
  }
  HEDRA_REQUIRE(partitioned <= set.platform().cores,
                "host partition exceeds the platform's cores");

  const std::size_t num_tasks = set.size();
  const auto jobs = static_cast<std::size_t>(config.jobs_per_task);

  // The taskset sweeps call this thousands of times on small sets, so the
  // engine's inputs live in per-thread scratch too.  Arena-backed tasks are
  // viewed in place; eager tasks snapshot once into `snapshots` (reserved
  // so the views' pointee never reallocates).  Releases follow the
  // synchronous periodic pattern 0, T_i, 2·T_i, ...
  thread_local std::vector<graph::FlatDag> snapshots;
  snapshots.clear();
  snapshots.reserve(num_tasks);
  thread_local std::vector<graph::Time> releases;
  releases.resize(num_tasks * jobs);
  thread_local std::vector<sim::EngineTask> tasks;
  tasks.resize(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    const DagTask& task = set[i];
    sim::EngineTask& engine_task = tasks[i];
    if (task.has_flat_view()) {
      engine_task.view = task.flat_view();
    } else {
      snapshots.emplace_back(task.dag());
      engine_task.view = snapshots.back().view();
    }
    engine_task.cores = cores_per_task[i];
    graph::Time* const release = releases.data() + i * jobs;
    for (std::size_t j = 0; j < jobs; ++j) {
      release[j] = task.period() * static_cast<graph::Time>(j);
    }
    engine_task.releases = {release, jobs};
  }
  // An empty Platform::device_units means one unit per class.
  thread_local std::vector<int> device_units;
  device_units = set.platform().device_units;
  device_units.resize(static_cast<std::size_t>(set.platform().num_devices()),
                      1);

  TasksetSimResult result;
  result.tasks.assign(num_tasks, TaskObservation{std::vector<JobRecord>(jobs)});
  const sim::EngineConfig engine{config.policy, config.seed, device_units,
                                 config.deadline};
  JobRecorder recorder{result};
  result.outcome = sim::run_engine(
      std::span<const sim::EngineTask>(tasks.data(), num_tasks), engine,
      recorder);
  result.jobs_unfinished = num_tasks * jobs - recorder.finished;
  return result;
}

}  // namespace hedra::taskset
