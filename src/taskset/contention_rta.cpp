#include "taskset/contention_rta.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>

#include "obs/metrics.h"
#include "util/fault.h"

namespace hedra::taskset {

SeedBound::SeedBound(const DagTask& task, std::span<const int> units,
                     std::span<const Frac> speedups)
    : units_(units), speedups_(speedups) {
  view_ = task.has_flat_view() ? task.flat_view()
                               : flat_.emplace(task.dag()).view();
  quantities_ = analysis::measure_platform(view_);
}

Frac SeedBound::operator()(int m) const {
  return analysis::platform_bound(quantities_, view_, m, units_, speedups_);
}

namespace {

/// Per-set quantities shared by every fixpoint evaluation: the platform's
/// unit/speedup vectors, each task's per-device volumes, and the
/// precomputed per-job interference rationals vol_{j,d}/(n_d·s_d) — the
/// fixpoint multiplies those by integer job counts instead of re-deriving
/// the fraction every iteration.
struct SetQuantities {
  std::vector<int> units;                       ///< n_d, indexed d−1
  std::vector<Frac> speedups;                   ///< s_d, indexed d−1
  std::vector<std::vector<graph::Time>> volume; ///< [task][device d−1]
  std::vector<std::vector<Frac>> unit_volume;   ///< vol/(n_d·s_d), same shape
  std::vector<graph::Time> deadlines;  ///< D_j, indexed by task
  std::vector<graph::Time> periods;    ///< T_j, indexed by task

  // Integer-arithmetic precomputation (see ScaledTicks): every unit volume
  // as an integer at the common base scale B = lcm of their denominators,
  // plus __int128 magnitude bounds so each fixpoint call can clear the
  // overflow guard with a handful of multiplies instead of re-scanning.
  graph::Time base_scale = 0;  ///< B; 0 = unusable, exact arithmetic only
  std::vector<graph::Time> scaled_uv;  ///< uv·B, flat [task·K + device d−1]
  __int128 step_weight = 0;  ///< Σ_{j,d} uv·B · n_jobs_max_j
  __int128 timing_max = 0;   ///< max_j max(D_j, T_j), and the set's D_max
};

constexpr graph::Time kMaxScale = graph::Time{1} << 20;
// Headroom: one fixpoint step past the deadline must not overflow int64.
constexpr __int128 kMaxMagnitude = __int128{1} << 56;

/// vol_d(G) of every class d into `volume` (indexed d−1) in one pass over
/// the nodes, from the arena view when the task is arena-backed — the
/// fig12 pipeline never materialises a Dag for this.
void task_volumes(const DagTask& task, std::vector<graph::Time>& volume) {
  if (volume.empty()) return;  // host-only platform: nothing to sum
  std::fill(volume.begin(), volume.end(), 0);
  const auto add = [&volume](graph::DeviceId device, graph::Time wcet) {
    if (device != graph::kHostDevice && device <= volume.size()) {
      volume[device - 1] += wcet;
    }
  };
  if (task.has_flat_view()) {
    const graph::FlatView view = task.flat_view();
    for (graph::NodeId v = 0; v < view.num_nodes(); ++v) {
      add(view.device(v), view.wcet(v));
    }
  } else {
    const graph::Dag& dag = task.dag();
    for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
      add(dag.device(v), dag.wcet(v));
    }
  }
}

/// Returns per-thread scratch rebuilt for `set` — valid until the next
/// measure() call on this thread (the admission loop holds it across one
/// set, never across two).
const SetQuantities& measure(const TaskSet& set) {
  thread_local SetQuantities q;
  q.base_scale = 0;
  q.step_weight = 0;
  q.timing_max = 0;
  const Platform& platform = set.platform();
  const auto num_devices = static_cast<std::size_t>(platform.num_devices());
  q.units.resize(num_devices);
  q.speedups.resize(num_devices, Frac(1));
  for (std::size_t d = 0; d < num_devices; ++d) {
    const auto device = static_cast<graph::DeviceId>(d + 1);
    q.units[d] = platform.units_of(device);
    q.speedups[d] = platform.speedup_of(device);
  }
  q.volume.resize(set.size());
  q.unit_volume.resize(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    q.volume[i].resize(num_devices);
    q.unit_volume[i].resize(num_devices);
    task_volumes(set[i], q.volume[i]);
    for (std::size_t d = 0; d < num_devices; ++d) {
      // Dividing by a unit speedup is the identity on normalised rationals;
      // skipping it keeps the value (and every downstream comparison)
      // bit-identical while sparing the gcd work.
      Frac uv(q.volume[i][d], q.units[d]);
      if (q.speedups[d] != Frac(1)) uv = uv / q.speedups[d];
      q.unit_volume[i][d] = uv;
    }
  }

  // Base scale and magnitude bounds for the integer arithmetic.  Job
  // counts are evaluated at windows that never exceed the analysed task's
  // deadline (the seed window aside, which ScaledTicks::fits checks), so
  // (D_max + D_j)/T_j + 1 bounds n_jobs_j for every task in the set.
  graph::Time d_max = 0;
  q.deadlines.resize(set.size());
  q.periods.resize(set.size());
  for (std::size_t j = 0; j < set.size(); ++j) {
    q.deadlines[j] = set[j].deadline();
    q.periods[j] = set[j].period();
    d_max = std::max(d_max, q.deadlines[j]);
    q.timing_max = std::max(q.timing_max, __int128{q.deadlines[j]});
    q.timing_max = std::max(q.timing_max, __int128{q.periods[j]});
  }
  graph::Time base = 1;
  for (const auto& task_uv : q.unit_volume) {
    for (const Frac& uv : task_uv) {
      base = std::lcm(base, uv.den());
      if (base > kMaxScale) return q;  // base_scale stays 0: exact only
    }
  }
  q.scaled_uv.resize(set.size() * num_devices);
  for (std::size_t j = 0; j < set.size(); ++j) {
    __int128 weight = 0;  // Σ_d uv·B of task j
    for (std::size_t d = 0; d < num_devices; ++d) {
      const Frac& uv = q.unit_volume[j][d];
      graph::Time& scaled = q.scaled_uv[j * num_devices + d];
      scaled = uv.num() * (base / uv.den());
      weight += scaled;
    }
    q.step_weight +=
        weight * ((__int128{d_max} + q.deadlines[j]) / q.periods[j] + 1);
  }
  q.base_scale = base;
  return q;
}

struct FixpointResult {
  Frac seed;  ///< the isolated bound the iteration started from
  Frac response;
  bool converged = false;
  /// True when the iteration was cut short — by the kMaxIterations guard or
  /// by the caller's budget — rather than converging or provably crossing
  /// the deadline.  Distinct from plain rejection: the verdict is
  /// "truncated", not "infeasible" (Outcome::kBudgetExhausted upstream).
  bool truncated = false;
  int iterations = 0;
  std::vector<Frac> per_device;          ///< interference per class, d−1
  std::vector<std::size_t> dominant;     ///< dominant competitor per class

  /// A run of task `index` that has evaluated no window yet; the vectors
  /// keep their capacity, so a reused result allocates nothing.
  void reset(std::size_t num_devices, std::size_t index) {
    seed = Frac();
    response = Frac();
    converged = false;
    truncated = false;
    iterations = 0;
    per_device.assign(num_devices, Frac());
    dominant.assign(num_devices, index);
  }
};

constexpr int kMaxIterations = 1000;

/// The fixpoint's arithmetic on L-scaled integers: a value v is held as
/// the int64 v·L.  Every rational the fixpoint touches has a denominator
/// dividing L = B·f (B the set's base scale, f = seed.den/gcd(B,
/// seed.den)), so the iteration takes the same values, convergence step
/// and dominant-competitor ties as in exact arithmetic (scaled comparisons
/// preserve order), with integer adds and multiplies in place of every gcd
/// normalisation.
struct ScaledTicks {
  using Value = graph::Time;
  using Sum = __int128;  ///< the seed window's carry-in, checked by fits()

  const SetQuantities& q;
  graph::Time L = 1;
  graph::Time f = 1;

  [[nodiscard]] Value ticks(graph::Time t) const { return t * L; }
  [[nodiscard]] Value unit_volume(std::size_t j, std::size_t d) const {
    return q.scaled_uv[j * q.units.size() + d] * f;
  }
  [[nodiscard]] static graph::Time floor_div(Value a, Value b) {
    return a / b;
  }
  [[nodiscard]] Frac exact(Value v) const { return Frac(v, L); }
  /// The magnitude guard in fixpoint() covers windows up to the set's
  /// largest deadline; a seed past it is the one window that can exceed
  /// it (the first iteration then crosses the deadline).
  [[nodiscard]] static bool fits(Value seed, Sum carry_in) {
    return seed + carry_in <= kMaxMagnitude;
  }
};

/// Exact rational arithmetic, for platforms whose scale or magnitudes the
/// integer instance cannot hold.
struct ExactTicks {
  using Value = Frac;
  using Sum = Frac;

  const SetQuantities& q;

  [[nodiscard]] static Value ticks(graph::Time t) { return Frac(t); }
  [[nodiscard]] const Frac& unit_volume(std::size_t j, std::size_t d) const {
    return q.unit_volume[j][d];
  }
  /// floor(a/b) for a whole number of ticks b: floor(floor(a)/b).
  [[nodiscard]] static graph::Time floor_div(const Frac& a, const Frac& b) {
    return a.floor() / b.num();
  }
  [[nodiscard]] static const Frac& exact(const Frac& v) { return v; }
  [[nodiscard]] static bool fits(const Frac&, const Frac&) { return true; }
};

/// One competitor's carry-in term, in the fixpoint's arithmetic.
template <typename Value>
struct Sharer {
  std::size_t task = 0;
  Value weight{};  ///< Σ_{own d} vol_{j,d}/(n_d·s_d): one job's share
  Value step{};    ///< T_j
  Value offset{};  ///< D_j
  graph::Time jobs = 0;  ///< n_jobs_j at the last evaluated window
  /// n_jobs_j·T_j − D_j: the smallest window with one more job.
  Value threshold{};
};

/// Iterates R ← seed + Σ_d Σ_{j≠i} n_jobs_j(R)·vol_{j,d}/(n_d·s_d) for task
/// `index` from R = seed until stable or past its deadline, in the given
/// arithmetic.  The right-hand side is non-decreasing in R, so the
/// sequence is monotone; a generous iteration cap guards against
/// pathological slow convergence.
///
/// One pass over the set gathers the competitors that use a class the task
/// uses, each with its job count at the seed window and the window at
/// which that count next grows.  The iterate never shrinks, so an
/// iteration recounts, with one floor division, only the competitors whose
/// threshold it reached, and moves the running total by the jobs added.
/// The per-class breakdown is evaluated once, from the job counts of the
/// last evaluated window, whichever way the iteration ends.
///
/// Returns false, before touching the budget or the iteration fields of
/// `out`, when the arithmetic cannot hold the seed window's total; the
/// caller then runs the exact instance.
template <typename Arithmetic>
bool iterate(const Arithmetic& a, std::size_t index,
             const typename Arithmetic::Value& seed, util::Budget* budget,
             FixpointResult& out) {
  using Value = typename Arithmetic::Value;
  using Sum = typename Arithmetic::Sum;
  const SetQuantities& q = a.q;
  const std::size_t num_devices = q.units.size();
  // n_jobs_j = floor((R + D_j)/T_j) + 1 at window R, and its threshold.
  const auto count = [](Sharer<Value>& s, const Value& window) {
    s.jobs = Arithmetic::floor_div(window + s.offset, s.step) + 1;
    s.threshold = Value(s.jobs) * s.step - s.offset;
  };

  thread_local std::vector<std::size_t> own;  // classes the task uses
  own.clear();
  for (std::size_t d = 0; d < num_devices; ++d) {
    if (q.volume[index][d] != 0) own.push_back(d);
  }
  thread_local std::vector<Sharer<Value>> sharers;
  sharers.clear();
  Sum carry_in{};  // Σ_j n_jobs_j·weight_j at the seed window
  if (!own.empty()) {
    for (std::size_t j = 0; j < q.deadlines.size(); ++j) {
      if (j == index) continue;
      Sharer<Value> s;
      for (const std::size_t d : own) {
        if (q.volume[j][d] != 0) s.weight += a.unit_volume(j, d);
      }
      if (s.weight == Value{}) continue;  // no work on a class the task uses
      s.task = j;
      s.step = a.ticks(q.periods[j]);
      s.offset = a.ticks(q.deadlines[j]);
      count(s, seed);
      carry_in += Sum(s.jobs) * Sum(s.weight);
      sharers.push_back(s);
    }
  }
  if (!Arithmetic::fits(seed, carry_in)) return false;
  auto total = static_cast<Value>(carry_in);  // at the current window

  const Value deadline = a.ticks(q.deadlines[index]);
  Value response = seed;
  bool crossed = false;
  for (int k = 1; k <= kMaxIterations; ++k) {
    HEDRA_FAULT("taskset.rta.iteration");
    if (budget != nullptr && !budget->consume()) {
      out.truncated = true;  // budget cut mid-fixpoint: sound partial only
      break;
    }
    out.iterations = k;
    // The seed's counts are current; later windows recount only the
    // competitors whose threshold they reached.
    for (Sharer<Value>& s : sharers) {
      if (response < s.threshold) continue;
      const graph::Time before = s.jobs;
      count(s, response);
      total += Value(s.jobs - before) * s.weight;
    }
    const Value next = seed + total;
    if (next == response) {
      out.converged = true;
      break;
    }
    response = next;
    if (response > deadline) {
      crossed = true;
      break;  // crossed the deadline; diverging
    }
  }
  // Ran the cap down without converging or provably crossing the deadline:
  // the verdict is "truncated", NOT proven infeasible.
  if (!out.converged && !crossed) out.truncated = true;
  out.response = a.exact(response);
  if (out.iterations == 0) return true;  // no window evaluated
  for (const std::size_t d : own) {
    Value device_total{};
    Value best{};
    std::size_t best_task = index;
    for (const Sharer<Value>& s : sharers) {
      if (q.volume[s.task][d] == 0) continue;
      const Value contribution = Value(s.jobs) * a.unit_volume(s.task, d);
      device_total += contribution;
      if (best_task == index || contribution > best) {
        best = contribution;
        best_task = s.task;
      }
    }
    out.per_device[d] = a.exact(device_total);
    out.dominant[d] = best_task;
  }
  return true;
}

/// Runs task `index`'s fixpoint from `seed` into `out`, on L-scaled
/// integers when the scale and magnitudes allow and in exact arithmetic
/// otherwise, recording which instance ran and what it cost into
/// `telemetry` (nullable: contention_response has no whole-set
/// accumulator).  Counters only — the choice and the results are
/// untouched.
void fixpoint(const SetQuantities& q, std::size_t index, const Frac& seed,
              util::Budget* budget, FixpointTelemetry* telemetry,
              FixpointResult& out) {
  out.reset(q.units.size(), index);
  out.seed = seed;
  bool int_path = false;
  // L = lcm(B, seed.den) = B·f <= kMaxScale; seed.den divides L.
  const graph::Time f =
      q.base_scale > 0 ? seed.den() / std::gcd(q.base_scale, seed.den()) : 0;
  if (q.base_scale > 0 && f <= kMaxScale / q.base_scale) {
    const graph::Time L = q.base_scale * f;
    const __int128 seed_scaled = __int128{seed.num()} * (L / seed.den());
    int_path = seed_scaled >= 0 &&
               seed_scaled + __int128{f} * q.step_weight <= kMaxMagnitude &&
               q.timing_max * L <= kMaxMagnitude &&
               iterate(ScaledTicks{q, L, f}, index,
                       static_cast<graph::Time>(seed_scaled), budget, out);
  }
  if (!int_path) (void)iterate(ExactTicks{q}, index, seed, budget, out);
  if (telemetry != nullptr) {
    ++telemetry->fixpoint_solves;
    if (int_path) {
      ++telemetry->int_path;
    } else {
      ++telemetry->frac_path;
    }
    telemetry->iterations += static_cast<std::uint64_t>(out.iterations);
    if (out.truncated) ++telemetry->truncated;
  }
}

/// contention_rta's per-task step: task `index` takes the smallest
/// feasible core count in [first_m, remaining].  Scanning from first_m > 1
/// is exact only when every smaller core count is known infeasible (see
/// reanalyse); the from-scratch analysis passes 1.  `previous` (nullable)
/// is this task's verdict in a complete, schedulable analysis of a set on
/// the same platform: its seed is reused at its core count, and the chain
/// walk runs only for the other core counts.
TaskAdmission solve_task(const TaskSet& set, const SetQuantities& q,
                         std::size_t index, int remaining, int first_m,
                         const TaskAdmission* previous, util::Budget* budget,
                         FixpointTelemetry& telemetry) {
  TaskAdmission admission;
  admission.name = set[index].name();
  std::optional<SeedBound> seed_bound;  // built on the first memo miss
  const graph::Time deadline = set[index].deadline();

  // The verdict reports the LAST trial's run (the feasible one, the one cut
  // short, or the one at the last core count), or none when a trial was
  // cut before its run — so one result, reused across calls, serves.
  thread_local FixpointResult result;
  bool reported = false;
  bool truncated = false;
  int assigned = 0;
  // The seed bound is non-increasing in m_i, so the first feasible core
  // count is the smallest one; every evaluation reuses the per-task
  // quantities (the chain walk is the only per-m work).
  for (int m = std::max(1, std::min(first_m, remaining)); m <= remaining;
       ++m) {
    // One unit per core-count trial, memoised seed or not, on top of the
    // per-iteration units the fixpoint itself consumes, so truncation
    // points do not depend on the memo.  On exhaustion the remaining
    // trials are skipped and the task is reported truncated-unschedulable
    // — under-admission, never over-admission.
    if (budget != nullptr && !budget->consume()) {
      truncated = true;
      break;
    }
    Frac seed;
    if (previous != nullptr && m == previous->cores) {
      seed = previous->seed;
    } else {
      if (!seed_bound) seed_bound.emplace(set[index], q.units, q.speedups);
      seed = (*seed_bound)(m);
      ++telemetry.seed_evals;
    }
    fixpoint(q, index, seed, budget, &telemetry, result);
    if (result.converged && result.response <= Frac(deadline)) {
      assigned = m;
      reported = true;
      break;
    }
    if (result.truncated || m == remaining) {
      reported = true;  // best effort to report
      truncated = result.truncated;
      break;  // budget gone, or no core count left to try
    }
  }

  admission.cores = assigned > 0 ? assigned : remaining;
  admission.schedulable = assigned > 0;
  admission.outcome = truncated ? util::Outcome::kBudgetExhausted
                                : util::Outcome::kComplete;
  // With zero cores left, or a trial cut before its run, no fixpoint is
  // reported: zero bounds and no per-device breakdown.
  if (!reported) return admission;
  admission.seed = result.seed;
  admission.response = result.response;
  admission.iterations = result.iterations;
  for (std::size_t d = 0; d < result.per_device.size(); ++d) {
    if (q.volume[index][d] == 0 && result.per_device[d] == Frac()) continue;
    DeviceContention contention;
    contention.device = static_cast<graph::DeviceId>(d + 1);
    contention.own_volume = q.volume[index][d];
    contention.interference = result.per_device[d];
    contention.dominant_competitor = result.dominant[d];
    admission.devices.push_back(std::move(contention));
  }
  return admission;
}

/// Folds the verdict last appended to out.tasks into the whole-set
/// verdict, partitioning its cores out of `remaining`.
void account_last(ContentionAnalysis& out, int& remaining) {
  const TaskAdmission& admission = out.tasks.back();
  if (admission.outcome == util::Outcome::kBudgetExhausted) {
    out.outcome = util::Outcome::kBudgetExhausted;
  }
  if (admission.schedulable) {
    remaining -= admission.cores;
    out.cores_used += admission.cores;
  } else {
    out.schedulable = false;
  }
}

/// One flush per analysis: the hot loops touch only the plain locals in
/// out.telemetry; the registry sees the totals here.
void flush_metrics(const FixpointTelemetry& t) {
  HEDRA_METRIC("taskset.rta.analyses");
  HEDRA_METRIC_ADD("taskset.rta.fixpoint_solves", t.fixpoint_solves);
  HEDRA_METRIC_ADD("taskset.rta.int_path", t.int_path);
  HEDRA_METRIC_ADD("taskset.rta.frac_path", t.frac_path);
  HEDRA_METRIC_ADD("taskset.rta.iterations", t.iterations);
  HEDRA_METRIC_ADD("taskset.rta.seed_evals", t.seed_evals);
  HEDRA_METRIC_ADD("taskset.rta.truncated", t.truncated);
}

/// contention_rta(next) from `previous` = contention_rta of `next` with one
/// task changed: the task at `changed` left (`erased`), or next's last
/// task was appended.  See contention_rta_appended for why reusing
/// `previous` is exact.  With no `previous` (null), every task is solved
/// from one core: the from-scratch analysis.
ContentionAnalysis reanalyse(const TaskSet& next,
                             const ContentionAnalysis* previous, bool erased,
                             std::size_t changed, util::Budget* budget) {
  HEDRA_REQUIRE(!next.empty(), "contention_rta needs a non-empty task set");
  const std::size_t previous_size = erased ? next.size() + 1 : next.size() - 1;
  HEDRA_REQUIRE(changed < (erased ? previous_size : next.size()),
                "changed task index out of range");
  const SetQuantities& q = measure(next);
  // The shortcut needs every previous task at its smallest feasible core
  // count with every smaller count proven infeasible: a complete,
  // schedulable analysis of the previous set (every published snapshot).
  // Otherwise every task is solved from one core, as from scratch.
  const bool reuse = previous != nullptr && previous->schedulable &&
                     previous->outcome == util::Outcome::kComplete &&
                     previous->tasks.size() == previous_size;

  // Classes the changed task places work on: the newcomer's from the
  // measured set; the leaver's from its previous verdict, which lists
  // every class it uses (it ran at least one fixpoint).
  std::vector<bool> changed_uses(q.units.size(), false);
  if (reuse && erased) {
    for (const DeviceContention& d : previous->tasks[changed].devices) {
      if (d.own_volume != 0) changed_uses[d.device - 1] = true;
    }
  } else if (reuse) {
    for (std::size_t d = 0; d < q.units.size(); ++d) {
      changed_uses[d] = q.volume[changed][d] != 0;
    }
  }

  ContentionAnalysis out;
  out.schedulable = true;
  out.tasks.reserve(next.size());
  int remaining = next.platform().cores;
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (!reuse || (!erased && i == changed)) {
      out.tasks.push_back(solve_task(next, q, i, remaining, 1, nullptr, budget,
                                     out.telemetry));
      account_last(out, remaining);
      continue;
    }
    const TaskAdmission& before =
        previous->tasks[erased && i >= changed ? i + 1 : i];
    bool shares = false;
    for (std::size_t d = 0; d < q.units.size() && !shares; ++d) {
      shares = changed_uses[d] && q.volume[i][d] != 0;
    }
    if (!shares && before.cores <= remaining) {
      // Same competitors on every class it uses, so the same fixpoint at
      // every core count, and its allocation still fits: the scan would
      // stop at the same core count with the same result.
      out.tasks.push_back(before);
      if (erased) {
        for (DeviceContention& d : out.tasks.back().devices) {
          if (d.dominant_competitor > changed) --d.dominant_competitor;
        }
      }
      account_last(out, remaining);
      continue;
    }
    // Every count below the old allocation is still infeasible when the
    // newcomer only raised this task's right-hand side, or when its
    // fixpoint is unchanged, so the scan restarts there (solve_task caps
    // it at the cores left).  A leaver lowers its sharers' interference,
    // so they rescan from one core.  Either scan takes the seed at the old
    // allocation from `before` (same graph, same platform, same m).
    const int first_m = (erased && shares) ? 1 : before.cores;
    out.tasks.push_back(solve_task(next, q, i, remaining, first_m, &before,
                                   budget, out.telemetry));
    account_last(out, remaining);
  }
  flush_metrics(out.telemetry);
  return out;
}

}  // namespace

Frac contention_response(const TaskSet& set, std::size_t index, int cores,
                         bool* converged, util::Budget* budget) {
  HEDRA_REQUIRE(index < set.size(), "task index out of range");
  HEDRA_REQUIRE(cores >= 1, "need at least one dedicated host core");
  const SetQuantities& q = measure(set);
  const SeedBound seed_bound(set[index], q.units, q.speedups);
  const Frac seed = seed_bound(cores);
  FixpointResult result;
  fixpoint(q, index, seed, budget, nullptr, result);
  if (converged != nullptr) *converged = result.converged;
  return result.response;
}

ContentionAnalysis contention_rta(const TaskSet& set, util::Budget* budget) {
  HEDRA_REQUIRE(!set.empty(), "contention_rta needs a non-empty task set");
  set.validate();
  return reanalyse(set, nullptr, false, 0, budget);
}

ContentionAnalysis contention_rta_appended(const TaskSet& next,
                                           const ContentionAnalysis& previous,
                                           util::Budget* budget) {
  return reanalyse(next, &previous, false, next.size() - 1, budget);
}

ContentionAnalysis contention_rta_erased(const TaskSet& next,
                                         const ContentionAnalysis& previous,
                                         std::size_t index,
                                         util::Budget* budget) {
  return reanalyse(next, &previous, true, index, budget);
}

std::string explain_fixpoint(const ContentionAnalysis& analysis) {
  const FixpointTelemetry& t = analysis.telemetry;
  std::ostringstream os;
  os << "rta fixpoint: solves=" << t.fixpoint_solves << " (int_path="
     << t.int_path << " frac_path=" << t.frac_path << ") iterations="
     << t.iterations << " seed_evals=" << t.seed_evals << " truncated="
     << t.truncated << "\n";
  return os.str();
}

std::string explain(const ContentionAnalysis& analysis, const TaskSet& set) {
  HEDRA_REQUIRE(analysis.tasks.size() == set.size(),
                "analysis does not match the task set");
  std::ostringstream os;
  os << "taskset admission ("
     << set.platform().describe() << "): "
     << (analysis.schedulable ? "SCHEDULABLE" : "NOT SCHEDULABLE");
  if (analysis.outcome == util::Outcome::kBudgetExhausted) {
    os << " (budget exhausted: truncated tasks are not PROVEN infeasible)";
  }
  os << ", " << analysis.cores_used << "/" << set.platform().cores
     << " host cores partitioned\n";

  // The tightest task — the first unschedulable one, or the admitted task
  // with the largest R/D — names the contention edge to relieve first.
  std::size_t tightest = 0;
  bool found_failing = false;
  Frac best_ratio(-1);
  for (std::size_t i = 0; i < analysis.tasks.size(); ++i) {
    const TaskAdmission& task = analysis.tasks[i];
    if (!task.schedulable && !found_failing) {
      tightest = i;
      found_failing = true;
    }
    if (!found_failing) {
      const Frac ratio = task.response / Frac(set[i].deadline());
      if (ratio > best_ratio) {
        best_ratio = ratio;
        tightest = i;
      }
    }
  }

  for (std::size_t i = 0; i < analysis.tasks.size(); ++i) {
    const TaskAdmission& task = analysis.tasks[i];
    os << "  " << task.name << ": ";
    if (task.cores == 0) {
      os << "no host cores left -> NOT schedulable\n";
      continue;
    }
    os << task.cores << " core" << (task.cores == 1 ? "" : "s") << ", R = "
       << task.response << " (= " << task.response.to_double() << ") vs D = "
       << set[i].deadline() << " -> ";
    if (task.outcome == util::Outcome::kBudgetExhausted) {
      os << "BUDGET EXHAUSTED (analysis truncated after " << task.iterations
         << " iterations; treated as NOT schedulable, not proven infeasible)";
    } else {
      os << (task.schedulable ? "schedulable" : "NOT schedulable");
      if (task.iterations > 1) {
        os << " after " << task.iterations << " contention iterations";
      }
    }
    os << "\n";
  }

  const TaskAdmission& tight = analysis.tasks[tightest];
  const DeviceContention* dominant = nullptr;
  for (const DeviceContention& device : tight.devices) {
    if (device.interference == Frac()) continue;
    if (dominant == nullptr || device.interference > dominant->interference) {
      dominant = &device;
    }
  }
  if (dominant != nullptr) {
    os << "  dominating contention: task "
       << set[dominant->dominant_competitor].name() << " on device "
       << set.platform().device_name(dominant->device) << " (d"
       << dominant->device << ") adds " << dominant->interference
       << " ticks to " << tight.name << "'s bound\n";
  } else {
    os << "  no device contention: every per-task bound is the isolated "
          "platform bound\n";
  }
  return os.str();
}

}  // namespace hedra::taskset
