#pragma once

/// \file taskset.h
/// First-class sporadic task SETS over one shared heterogeneous platform.
///
/// The paper analyses a single DAG task in isolation; its DAC-2018 setting,
/// however, is a platform shared by many sporadic DAG tasks whose offload
/// nodes contend for the same accelerator classes.  taskset::TaskSet binds a
/// vector of `τ_i = <G_i, T_i, D_i>` tasks (model::DagTask) to ONE
/// model::Platform — m host cores plus K named accelerator classes with n_d
/// units and optional per-class WCET speedups — and is the object the
/// taskset-level analysis (taskset/contention_rta.h), generator
/// (taskset/gen.h) and simulator (taskset/sim.h) all operate on.
///
/// A taskset::TaskSet knows its platform: validation checks every task's
/// device placements against it, and the per-device utilisation accessors
/// expose how loaded each shared accelerator class is — the quantity the
/// contention analysis inflates per-task bounds with.
///
/// The text round-trip format mirrors graph/dag_io.h, one directive per
/// line with '#' comments:
///
///     platform 4:gpu*2,dsp
///     task tau1 period 1200 deadline 1100
///     node v1 5
///     node v2 9 offload
///     edge v1 v2
///     endtask
///     task tau2 ...
///
/// Task names must be unique and whitespace-free; the DAG lines between
/// `task` and `endtask` are exactly the dag_io format, so `.dag` files can
/// be pasted into a taskset verbatim.

#include <string>
#include <vector>

#include "model/platform.h"
#include "model/task.h"
#include "util/fraction.h"

namespace hedra::taskset {

using model::DagTask;
using model::Platform;

/// Sporadic DAG tasks sharing one heterogeneous platform.
class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(Platform platform) : platform_(std::move(platform)) {}
  TaskSet(Platform platform, std::vector<DagTask> tasks)
      : platform_(std::move(platform)), tasks_(std::move(tasks)) {}

  void add(DagTask task) { tasks_.push_back(std::move(task)); }

  /// A copy of this set with `task` appended last in priority order.  The
  /// copy shares every task's graph with this set (model::DagTask), so it
  /// costs one allocation and a reference-count bump per task.
  [[nodiscard]] TaskSet with_appended(const DagTask& task) const;

  /// A copy of this set without task `i`; later tasks move up one place in
  /// priority order.  Shares graphs as with_appended() does.
  [[nodiscard]] TaskSet without(std::size_t i) const;

  [[nodiscard]] const Platform& platform() const noexcept { return platform_; }
  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }

  [[nodiscard]] const DagTask& operator[](std::size_t i) const {
    HEDRA_REQUIRE(i < tasks_.size(), "task index out of range");
    return tasks_[i];
  }

  [[nodiscard]] auto begin() const noexcept { return tasks_.begin(); }
  [[nodiscard]] auto end() const noexcept { return tasks_.end(); }

  /// Throws hedra::Error if the platform is invalid, any task name is
  /// empty, duplicated or contains whitespace (the round-trip format could
  /// not represent it), or some task places a node on a device the platform
  /// does not provide (the violation names the task).  The first
  /// violation in index order is reported; duplicates are found with one
  /// hashed pass, so validation is linear in the number of tasks.
  void validate() const;

  /// The per-task half of validate(): throws the same errors validate()
  /// would for `task` (name format, device placements), except duplicate
  /// names, which depend on the rest of the set.
  void validate_task(const DagTask& task) const;

  /// vol_d(G_i) / T_i — task i's exact utilisation of accelerator class d
  /// (d = 0 selects the host).  Device-TIME ticks; divide by n_d for a
  /// per-unit load.
  [[nodiscard]] Frac task_device_utilization(std::size_t i,
                                             graph::DeviceId device) const;

  /// Σ_i vol_d(G_i)/T_i across tasks (double: periods from
  /// utilisation-driven generators are large and mutually coprime, so the
  /// exact rational sum can overflow 64-bit numerators).
  // hedra-lint: allow(float-in-bound, reporting aggregate, bounds stay exact)
  [[nodiscard]] double device_utilization(graph::DeviceId device) const;

  /// Σ_i vol(G_i)/T_i — host and accelerator workload combined.
  // hedra-lint: allow(float-in-bound, reporting aggregate, bounds stay exact)
  [[nodiscard]] double total_utilization() const;

  /// Serialises the set; round-trips through from_text.  Calls validate().
  [[nodiscard]] std::string to_text() const;

  /// Task-count cap for from_text: hostile input declaring an absurd number
  /// of tasks fails with a named line instead of exhausting memory.
  static constexpr std::size_t kMaxParsedTasks = 4096;

  /// Parses the textual format.  Throws hedra::Error with a line number on
  /// malformed input (missing platform line, duplicate task names, bad
  /// period/deadline, counts beyond kMaxParsedTasks, dag_io errors rethrown
  /// with the task named).  Never exhibits UB on arbitrary bytes: every
  /// failure is a typed Error naming the offending line.
  [[nodiscard]] static TaskSet from_text(const std::string& text);

 private:
  Platform platform_;
  std::vector<DagTask> tasks_;
};

/// File convenience wrappers.
void save_taskset_file(const TaskSet& set, const std::string& path);
[[nodiscard]] TaskSet load_taskset_file(const std::string& path);

}  // namespace hedra::taskset
