#pragma once

/// \file gen.h (taskset)
/// Random generation of sporadic task sets over a shared heterogeneous
/// platform, following the standard recipe of the real-time literature:
/// per-task utilisations from UUniFast (Bini & Buttazzo, gen/uunifast.h),
/// DAG structure and device placement from the arena generators
/// (gen::generate_hierarchical_flat / gen::generate_multi_device_flat, so
/// offload selection, per-device volume mix and speedup scaling all apply
/// per task), periods derived as
/// T_i = vol(G_i)/u_i, and constrained deadlines drawn between len(G_i) and
/// T_i.
///
/// Determinism mirrors the experiment engine: every task of a set builds
/// from its own fork of the set's RNG, and every set of a batch from its
/// own fork of the master — so sets are order-independent, any single set
/// regenerates in isolation, and sweeps that fan batches out over a thread
/// pool stay bit-identical to serial runs (the fig12 harness pins this).

#include <cstdint>
#include <vector>

#include "gen/params.h"
#include "taskset/taskset.h"
#include "util/rng.h"

namespace hedra::taskset {

/// Parameters for one random task set.
struct TaskSetGenConfig {
  int num_tasks = 4;
  /// Target Σ vol(G_i)/T_i (host + accelerator device-time combined).
  // hedra-lint: allow(float-in-bound, UUniFast sampling target, not a bound)
  double total_utilization = 2.0;
  /// Per-task DAG shape.  num_devices > 0 populates that many accelerator
  /// classes per task (gen::generate_multi_device, honouring
  /// offloads_per_device / device_mix / device_speedup); num_devices == 0
  /// generates pure host DAGs.
  gen::HierarchicalParams dag_params = gen::HierarchicalParams::small_tasks();
  /// Target C_off/vol ratio per task (only with num_devices > 0).
  // hedra-lint: allow(float-in-bound, generator shape knob, not a bound)
  double coff_ratio = 0.2;
  /// Implicit (D = T) or constrained deadlines uniform in [len(G), T].
  bool implicit_deadlines = true;
  /// Host cores of the shared platform.
  int cores = 4;
  /// Execution units per accelerator class (empty = 1 each), forwarded to
  /// the platform — generation itself is unit-agnostic.
  std::vector<int> device_units;

  void validate() const;

  /// The shared platform the generated sets run on: `cores` host cores plus
  /// one class per generated device ("acc1".."accK") with the requested
  /// units.  Speedups are NOT put on the platform: dag_params.device_speedup
  /// already scales the generated WCETs to device-time, so analysing the
  /// set with a speedup-carrying platform would double-count the scaling.
  [[nodiscard]] model::Platform platform() const;
};

/// Generates one task set (tasks named "tau1".."tauN").  Each task's period
/// is vol(G_i)/u_i rounded up and floored at len(G_i) (a task with
/// T < len(G) is trivially infeasible on any number of cores, so the
/// generator never produces one; the realised utilisation is then slightly
/// below the target).
[[nodiscard]] TaskSet generate_task_set(const TaskSetGenConfig& config,
                                        Rng& rng);

/// `count` independent sets, each from its own fork of `seed`'s master RNG
/// (the experiment-engine replication recipe).
[[nodiscard]] std::vector<TaskSet> generate_taskset_batch(
    const TaskSetGenConfig& config, int count, std::uint64_t seed);

}  // namespace hedra::taskset
