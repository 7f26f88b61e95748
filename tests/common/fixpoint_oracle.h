#pragma once

/// \file fixpoint_oracle.h
/// Test-only oracle for the contention admission test of
/// taskset/contention_rta.h, written from the recurrence stated there:
///
///   R = R_i(m_i) + Σ_d Σ_{j≠i} (floor((R + D_j)/T_j) + 1)·vol_{j,d}
///                             / (n_d·s_d) ,
///
/// iterated from R = R_i(m_i) until R repeats (converged) or exceeds D_i,
/// with each task taking the smallest m_i <= the cores left whose fixpoint
/// meets D_i.  Every term is summed in plain Frac straight from the task
/// graphs, and the seed R_i(m_i) comes from the path-enumerating oracle
/// (platform_oracle.h), so nothing is shared with the code under test: no
/// integer scaling, no sharer list, no job-count thresholds.
///
/// The reporting conventions are those of ContentionAnalysis: the
/// per-class breakdown is the interference of the last window evaluated,
/// its dominant competitor the first largest contribution in index order;
/// a work budget (one unit per core-count trial and per iteration, sticky
/// once exhausted) cuts the scan where contention_rta's util::Budget does.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/platform_oracle.h"
#include "graph/dag.h"
#include "taskset/taskset.h"
#include "util/fraction.h"

namespace hedra::testing {

/// Work units left to an oracle run; sticky at zero, like util::Budget.
struct OracleWork {
  std::uint64_t left = std::numeric_limits<std::uint64_t>::max();

  bool take() {
    if (left == 0) return false;
    --left;
    return true;
  }
};

struct OracleDevice {
  graph::DeviceId device = 0;
  graph::Time own_volume = 0;
  Frac interference;
  std::size_t dominant_competitor = 0;
};

/// One fixpoint run of task i at one core count.
struct OracleFixpoint {
  Frac seed;
  Frac response;
  bool converged = false;
  bool truncated = false;
  int iterations = 0;
  std::vector<OracleDevice> devices;  ///< classes the task uses, in order
};

/// One task's verdict, in TaskAdmission's terms.
struct OracleTask {
  int cores = 0;
  bool schedulable = false;
  bool truncated = false;
  OracleFixpoint fixpoint;  ///< the reported run; all zero when none is
};

struct OracleAdmission {
  bool schedulable = true;
  int cores_used = 0;
  bool truncated = false;
  std::vector<OracleTask> tasks;
};

inline constexpr int kOracleMaxIterations = 1000;

/// vol_{j,d}: the WCET task j places on device d.
[[nodiscard]] inline graph::Time oracle_volume(const taskset::TaskSet& set,
                                               std::size_t j,
                                               graph::DeviceId d) {
  const graph::Dag& dag = set[j].dag();
  graph::Time volume = 0;
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.device(v) == d) volume += dag.wcet(v);
  }
  return volume;
}

/// The recurrence of task `i` from `seed`, under `work`.
[[nodiscard]] inline OracleFixpoint oracle_fixpoint(
    const taskset::TaskSet& set, std::size_t i, const Frac& seed,
    OracleWork& work) {
  const model::Platform& platform = set.platform();
  OracleFixpoint out;
  out.seed = seed;
  for (graph::DeviceId d = 1; d <= platform.num_devices(); ++d) {
    const graph::Time own = oracle_volume(set, i, d);
    if (own != 0) out.devices.push_back({d, own, Frac(), i});
  }
  Frac r = seed;
  for (int k = 1; k <= kOracleMaxIterations; ++k) {
    if (!work.take()) {
      out.truncated = true;
      out.response = r;
      return out;
    }
    out.iterations = k;
    Frac next = seed;
    for (OracleDevice& device : out.devices) {
      const graph::DeviceId d = device.device;
      const Frac per_job_scale =
          Frac(platform.units_of(d)) * platform.speedup_of(d);
      Frac total;
      Frac best;
      std::size_t best_task = i;
      for (std::size_t j = 0; j < set.size(); ++j) {
        const graph::Time volume = oracle_volume(set, j, d);
        if (j == i || volume == 0) continue;
        const Frac window = r + Frac(set[j].deadline());
        const Frac jobs = Frac((window / Frac(set[j].period())).floor() + 1);
        const Frac contribution = jobs * Frac(volume) / per_job_scale;
        total += contribution;
        if (best_task == i || contribution > best) {
          best = contribution;
          best_task = j;
        }
      }
      device.interference = total;
      device.dominant_competitor = best_task;
      next += total;
    }
    if (next == r) {
      out.converged = true;
      out.response = r;
      return out;
    }
    r = next;
    if (r > Frac(set[i].deadline())) {
      out.response = r;
      return out;
    }
  }
  out.truncated = true;
  out.response = r;
  return out;
}

/// R_i(m) from the path oracle, on the set's platform.
[[nodiscard]] inline Frac oracle_seed(const taskset::TaskSet& set,
                                      std::size_t i, int m) {
  const model::Platform& platform = set.platform();
  return oracle_platform_bound(set[i].dag(), m, platform.device_units,
                               platform.device_speedup);
}

/// The whole admission test: tasks in index order, each on the smallest
/// feasible core count among those left.
[[nodiscard]] inline OracleAdmission oracle_admission(
    const taskset::TaskSet& set, OracleWork work = {}) {
  OracleAdmission out;
  int remaining = set.platform().cores;
  for (std::size_t i = 0; i < set.size(); ++i) {
    OracleTask task;
    task.cores = remaining;
    for (int m = 1; m <= remaining; ++m) {
      if (!work.take()) {
        task.truncated = true;
        break;
      }
      OracleFixpoint run =
          oracle_fixpoint(set, i, oracle_seed(set, i, m), work);
      if (run.converged && run.response <= Frac(set[i].deadline())) {
        task.cores = m;
        task.schedulable = true;
        task.fixpoint = std::move(run);
        break;
      }
      if (run.truncated || m == remaining) {
        task.truncated = run.truncated;
        task.fixpoint = std::move(run);
        if (task.truncated) break;
      }
    }
    out.truncated = out.truncated || task.truncated;
    if (task.schedulable) {
      remaining -= task.cores;
      out.cores_used += task.cores;
    } else {
      out.schedulable = false;
    }
    out.tasks.push_back(std::move(task));
  }
  return out;
}

}  // namespace hedra::testing
