#pragma once

/// \file sim.h (taskset)
/// Discrete-event simulation of a WHOLE sporadic task set on one shared
/// platform.  It runs the same event loop as the single-DAG simulator
/// (sim/engine.h), with every task's jobs in one run:
///
///  - RELEASES: every task τ_i releases a job at 0, T_i, 2·T_i, ... (the
///    synchronous periodic arrival pattern, the densest a sporadic task is
///    allowed); each job is an independent instance of the task's DAG.
///  - SHARING: host cores are partitioned — task i schedules its host-ready
///    nodes on its own `cores_per_task[i]` dedicated cores under the chosen
///    ready-queue policy — while every accelerator class d is SHARED: one
///    FIFO queue per device across all tasks' jobs, served by the
///    platform's n_d units.  This is exactly the resource model
///    taskset/contention_rta.h bounds, so observed per-job response times
///    must stay below the admitted bounds (the fig12 sweep and the
///    randomized property tests count violations with exact rationals).
///
/// Same-instant events follow the engine's readiness order, so runs are
/// bit-reproducible for every policy (kRandom draws from the seeded
/// portable RNG).

#include <cstdint>
#include <span>
#include <vector>

#include "sim/scheduler.h"
#include "taskset/taskset.h"
#include "util/deadline.h"

namespace hedra::taskset {

struct TasksetSimConfig {
  sim::Policy policy = sim::Policy::kBreadthFirst;
  std::uint64_t seed = 1;  ///< used by Policy::kRandom only
  int jobs_per_task = 3;   ///< releases simulated per task (>= 1)
  /// Wall-clock cut for the event loop (default: never).  On expiry the
  /// simulation stops at an event boundary; finished jobs keep their exact
  /// records, unfinished ones stay marked and the result reports
  /// Outcome::kBudgetExhausted — never a fabricated response time.
  util::Deadline deadline;
};

/// One job's observed lifetime.
struct JobRecord {
  graph::Time release = 0;
  graph::Time finish = 0;
  bool finished = false;  ///< false on a budget-cut run: finish is unset

  [[nodiscard]] graph::Time response() const noexcept {
    return finish - release;
  }
};

/// Per-task observations.
struct TaskObservation {
  std::vector<JobRecord> jobs;       ///< jobs_per_task entries, release order
  graph::Time worst_response = 0;    ///< max over the FINISHED jobs
};

struct TasksetSimResult {
  std::vector<TaskObservation> tasks;  ///< aligned with the set
  graph::Time makespan = 0;            ///< completion of the last job
  /// kComplete when every released job ran to completion; kBudgetExhausted
  /// when the config deadline cut the event loop short.
  util::Outcome outcome = util::Outcome::kComplete;
  std::size_t jobs_unfinished = 0;     ///< > 0 only when budget-cut
};

/// Simulates every released job to completion.  `cores_per_task` is the
/// host partition (one entry per task, every entry >= 1; typically the
/// `cores` column of taskset::contention_rta's admission) and must fit the
/// platform: Σ_i cores_per_task[i] <= platform.cores.  Device units and
/// WCETs come from the set's platform and DAGs; WCETs are device-time (the
/// generator's speedup scaling already applied), so no further scaling
/// happens here — and a platform carrying WCET speedups is REJECTED
/// (hedra::Error): its nominal-WCET convention cannot be executed
/// verbatim, so simulating it would falsely undercut the scaled admission
/// bounds.  Bake speedups into the WCETs at generation instead.
[[nodiscard]] TasksetSimResult simulate_taskset(
    const TaskSet& set, std::span<const int> cores_per_task,
    const TasksetSimConfig& config);

}  // namespace hedra::taskset
