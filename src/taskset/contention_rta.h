#pragma once

/// \file contention_rta.h
/// Federated-style admission test for sporadic DAG task sets whose offload
/// nodes CONTEND for shared accelerator classes.
///
/// The single-task platform bound (analysis/platform_rta.h) already accounts
/// for a task's own device serialisation:
///
///   R_i(m_i) <= vol_host_i/m_i + Σ_d vol_{i,d}/(n_d·s_d)
///             + max_P Σ_{v∈P} w_v   (the weighted chain walk).
///
/// On a shared platform, device d additionally executes work of the OTHER
/// tasks while τ_i's job is pending: in any window of length L, a competing
/// sporadic task τ_j (with constrained deadline D_j <= T_j and a response
/// bound <= D_j) has at most  n_jobs_j(L) = floor((L + D_j)/T_j) + 1  jobs
/// whose execution overlaps the window — the classic carry-in argument of
/// the sporadic-DAG interference literature (Dong & Liu, arXiv:1808.00017;
/// Dinh et al., arXiv:1905.05119).  Each such job places at most vol_{j,d}
/// device-d ticks on the class's n_d units, so the device-saturated waiting
/// of the Graham chain argument grows by  Σ_{j≠i} n_jobs_j(L)·vol_{j,d} /
/// (n_d·s_d),  and the response bound becomes the least fixpoint of
///
///   R = R_i(m_i) + Σ_d Σ_{j≠i} (floor((R + D_j)/T_j) + 1)·vol_{j,d}
///                             / (n_d·s_d) ,
///
/// iterated in EXACT rational arithmetic from R = R_i(m_i).  The right-hand
/// side is non-decreasing in R, so the iteration either reaches a fixpoint
/// or crosses D_i (unschedulable at this core count).  A task with no
/// device-sharing competitors — in particular any SINGLE-task set — takes
/// zero iterations past the seed, so its bound equals
/// AnalysisCache::r_platform with exact rational equality (regression-
/// pinned; the acceptance criterion of this subsystem).
///
/// Host cores are PARTITIONED, federated-style: tasks are processed in
/// index order (the priority order), each receiving the smallest dedicated
/// m_i <= remaining cores whose fixpoint meets D_i — the seed bound is
/// non-increasing in m_i (vol_host/m shrinks faster than the chain term
/// grows, exactly as in the single-task bound), so the smallest feasible
/// m_i wastes no cores on later tasks.  Devices are NOT partitioned; they
/// are exactly the contention the fixpoint charges for.  The set is
/// admitted iff every task gets a feasible allocation within the m cores.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/platform_rta.h"
#include "graph/flat_dag.h"
#include "taskset/taskset.h"
#include "util/deadline.h"
#include "util/fraction.h"

namespace hedra::taskset {

/// One shared accelerator class's contribution to a task's inflated bound.
struct DeviceContention {
  graph::DeviceId device = 0;     ///< device id (>= 1)
  graph::Time own_volume = 0;     ///< vol_{i,d}, the task's own device work
  /// Σ_{j≠i} n_jobs_j(R)·vol_{j,d}/(n_d·s_d) at the fixpoint — the
  /// carry-in interference other tasks add on this class.
  Frac interference;
  /// Index of the competitor contributing most to `interference`
  /// (meaningless when interference is zero).
  std::size_t dominant_competitor = 0;
};

/// Per-task outcome of the admission test.
struct TaskAdmission {
  std::string name;
  int cores = 0;        ///< dedicated host cores m_i (0: none left to try)
  bool schedulable = false;
  /// The isolated platform bound R_i(cores) the reported fixpoint started
  /// from (zero when no fixpoint ran: cores == 0, or a budget cut before
  /// the first trial).  The incremental entry points reuse it instead of
  /// re-walking the chain at the same core count.
  Frac seed;
  /// Inflated response bound at `cores` (the fixpoint when schedulable;
  /// the first value crossing the deadline otherwise; zero when cores==0).
  Frac response;
  int iterations = 0;   ///< fixpoint iterations taken (1 = no contention)
  /// kComplete when the verdict is mathematically final.  kBudgetExhausted
  /// when the reported fixpoint was TRUNCATED — by the iteration guard or
  /// by a caller-supplied budget — so "not schedulable" means "not PROVEN
  /// schedulable within budget", never a proof of infeasibility.  A
  /// truncated task is always reported unschedulable (fail closed).
  util::Outcome outcome = util::Outcome::kComplete;
  std::vector<DeviceContention> devices;  ///< classes with shared work only
};

/// Fixpoint-engine telemetry for one analysis — for the incremental entry
/// points below, the solves they actually ran.  Plain local counters on
/// the analysis path — no atomics, no locks, no clock reads — so recording
/// never perturbs the iteration sequence or the verdict (analysis output
/// is bit-identical with telemetry compiled in).
struct FixpointTelemetry {
  std::uint64_t fixpoint_solves = 0;  ///< (task, core-count) fixpoints run
  /// Which arithmetic each solve ran in: L-scaled integers, or exact
  /// rationals when the platform's scale or the set's magnitudes leave no
  /// int64 headroom.  One iteration serves both, so they produce
  /// bit-identical value sequences.
  std::uint64_t int_path = 0;
  std::uint64_t frac_path = 0;
  std::uint64_t iterations = 0;       ///< fixpoint iterations, all solves
  std::uint64_t seed_evals = 0;       ///< seed-bound (chain-walk) evaluations
  std::uint64_t truncated = 0;        ///< solves cut by budget or the cap
};

/// Whole-set verdict.
struct ContentionAnalysis {
  bool schedulable = false;
  int cores_used = 0;   ///< Σ m_i over schedulable tasks
  /// kBudgetExhausted iff any task's verdict was budget-truncated; such an
  /// analysis never reports schedulable == true (fail closed).
  util::Outcome outcome = util::Outcome::kComplete;
  std::vector<TaskAdmission> tasks;
  FixpointTelemetry telemetry;  ///< where the analysis work went
};

/// A task's isolated platform bound R(m), the seed every fixpoint starts
/// from: measured once over the task's arena view, or over a CSR snapshot
/// of a Dag-backed task, then evaluated per core count with n_d =
/// `units[d−1]` and s_d = `speedups[d−1]` (analysis::platform_bound).  Both
/// spans must outlive the object.
class SeedBound {
 public:
  SeedBound(const DagTask& task, std::span<const int> units,
            std::span<const Frac> speedups);
  SeedBound(const SeedBound&) = delete;  // view_ may point into flat_
  SeedBound& operator=(const SeedBound&) = delete;

  [[nodiscard]] Frac operator()(int m) const;

 private:
  std::span<const int> units_;
  std::span<const Frac> speedups_;
  std::optional<graph::FlatDag> flat_;
  graph::FlatView view_;
  analysis::PlatformQuantities quantities_;
};

/// Runs the admission test.  Requires a validated, non-empty set.
///
/// `budget` (nullable = unlimited) is consumed cooperatively — one unit per
/// fixpoint iteration and one per core-count trial.  On exhaustion the
/// remaining work is SKIPPED and every affected task reports
/// Outcome::kBudgetExhausted with schedulable == false: a budget-cut
/// analysis can under-admit, never over-admit.
[[nodiscard]] ContentionAnalysis contention_rta(const TaskSet& set,
                                                util::Budget* budget = nullptr);

/// contention_rta(next), reusing `previous` = contention_rta of `next`
/// without its last task (a newcomer joined last in priority order).  Only
/// the newcomer and the tasks it can affect are solved: the tasks that
/// place work on an accelerator class the newcomer uses, and any task
/// whose remaining host cores fell below its previous allocation.  Every
/// other verdict is copied.  Equal to contention_rta(next) in every field
/// but `telemetry`, which counts only the solves actually run.
///
/// Why reuse is exact: in a complete, schedulable `previous` every task
/// holds its smallest feasible core count m_i, so every m < m_i was proven
/// infeasible.  The newcomer only raises the right-hand side of the tasks
/// that share a class with it, so those runs cross their deadline no later
/// than before and every m < m_i stays infeasible; their scan restarts at
/// m_i and solves from the seed exactly as contention_rta does.  A task
/// that shares no class with the newcomer has the same fixpoint at every
/// core count.  When `previous` is not complete and schedulable, every
/// task is solved from scratch.
///
/// A re-solved task's scan reuses its previous `seed` at its previous core
/// count, and walks the chain only at other counts (a sharer pushed to
/// m_i+1, a leaver's sharers rescanning below m_i, the newcomer).  The
/// memo is exact: a seed depends only on the task's graph (immutable and
/// shared between the two sets), the platform's units and speedups (the
/// same platform) and m, and it is read only from a complete, schedulable
/// `previous`, for the same task at the same m.
///
/// `next` must be non-empty and valid; only the newcomer is new, so a
/// caller validates just that task (TaskSet::validate_task plus a name
/// check).  `budget` is consumed as by contention_rta, for the solves run:
/// still one unit per core-count trial when the trial's seed is memoised,
/// so a work cap truncates at the same points with or without the memo.
/// `telemetry.seed_evals` counts only the chain walks actually run.
[[nodiscard]] ContentionAnalysis contention_rta_appended(
    const TaskSet& next, const ContentionAnalysis& previous,
    util::Budget* budget = nullptr);

/// contention_rta(next), reusing `previous` = contention_rta of `next` with
/// the task that held position `index` still in place (it left).  The
/// leaver's sharers rescan from one core, since a leaver only lowers their
/// interference; tasks that share no class with it keep their verdicts,
/// with competitor indices past `index` shifted down by one.  Otherwise as
/// contention_rta_appended.
[[nodiscard]] ContentionAnalysis contention_rta_erased(
    const TaskSet& next, const ContentionAnalysis& previous,
    std::size_t index, util::Budget* budget = nullptr);

/// The inflated response-time fixpoint of task `index` on `cores` dedicated
/// host cores, ignoring the partitioning step — the building block
/// contention_rta iterates, exposed for tests and tooling.  Returns the
/// fixpoint (which may exceed the deadline); sets `converged` to false if
/// the iteration crossed the deadline instead of stabilising.
[[nodiscard]] Frac contention_response(const TaskSet& set, std::size_t index,
                                       int cores, bool* converged = nullptr,
                                       util::Budget* budget = nullptr);

/// Human-readable verdict: per-task allocation and bound vs deadline, and —
/// for the tightest task — the dominating (competitor task, device) pair,
/// i.e. the contention edge to relieve first when the set is rejected.
[[nodiscard]] std::string explain(const ContentionAnalysis& analysis,
                                  const TaskSet& set);

/// explain()-style summary of where the analysis spent its work: solve and
/// iteration totals, the int-path/frac-path split, and the truncation
/// count.  Separate from explain() so the verdict text (golden-pinned by
/// the tooling examples) is unchanged by the telemetry layer.
[[nodiscard]] std::string explain_fixpoint(const ContentionAnalysis& analysis);

}  // namespace hedra::taskset
