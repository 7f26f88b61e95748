#pragma once

/// \file engine.h
/// The one discrete-event simulation loop.  sim/scheduler.h runs a single
/// DAG through it as one task with one release at t = 0; taskset/sim.h
/// runs a whole task set.  Scheduling semantics live here and nowhere
/// else.
///
/// Resources: each task owns `cores` dedicated host cores, scheduled under
/// the configured ready-queue policy; every accelerator device d is shared
/// by all tasks, with n_d units, one FIFO queue and the smallest free unit
/// taken first.  Execution is non-preemptive and work-conserving.
///
/// Readiness order — the behaviour contract the golden traces and the
/// sweep digests pin:
///  - at each instant, completions retire in (task, job, node) order, then
///    the jobs released at that instant enter, roots in node order;
///  - a retiring node's successors become ready in adjacency order;
///  - ready nodes are filed in that order: device nodes join their device's
///    FIFO, zero-WCET host nodes (v_sync, dummies) retire in place on no
///    unit and append their own successors, other host nodes join their
///    task's ready queue.  Zero-WCET device nodes are real device work and
///    queue for a unit like any offload;
///  - free device units are filled before host cores.
///
/// Recorders observe decisions and never influence them.  A recorder has
/// release(task, job, t), job_done(task, job, t) and start(NodeInstance,
/// unit, start, finish), where `unit` is a sim/trace.h unit id: a host core
/// index, an accelerator_unit() id, or kInstantUnit.
///
/// The sweeps call the engine millions of times on small inputs, so all of
/// its working state is per-thread scratch that is rebuilt on entry; only
/// buffer capacity carries over between runs.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "graph/critical_path.h"
#include "graph/flat_view.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"

namespace hedra::sim {

/// One task of an engine run.
struct EngineTask {
  graph::FlatView view;
  int cores = 1;  ///< dedicated host cores (>= 1)
  /// Release time of each job; job j is released at releases[j].
  std::span<const Time> releases;
  /// Per-node execution times, each in [0, WCET]; empty runs every node at
  /// its WCET.  Every job of the task uses the same times.
  std::span<const Time> actual;
};

struct EngineConfig {
  Policy policy = Policy::kBreadthFirst;
  std::uint64_t seed = 1;  ///< used by Policy::kRandom only
  /// Units of accelerator device d at index d−1 (every entry >= 1); must
  /// cover every device a task's DAG names.
  std::span<const int> device_units;
  /// Cuts the run at an event boundary on expiry (default: never).
  util::Deadline deadline;
};

/// One node of one job of one task.
struct NodeInstance {
  std::uint32_t task = 0;
  std::uint32_t job = 0;
  NodeId node = 0;

  friend bool operator<(const NodeInstance& a, const NodeInstance& b) noexcept {
    return std::tie(a.task, a.job, a.node) < std::tie(b.task, b.job, b.node);
  }
};

namespace detail {

/// A ready queue in policy order, every pick O(1) amortised: FIFO by
/// readiness (breadth-first, GOMP's queue), LIFO (depth-first), one uniform
/// draw with swap-remove (random), or the lowest set bit of a rank bitset
/// (critical-path-first, index order).
///
/// A rank bitset has one slot per (job, node) of the task, base[v] +
/// job·stride[v], laid out in the queue's total order: (down desc, job,
/// node) for critical-path-first, (job, node) for index order.  A queue
/// holds one task's nodes, so the lowest set slot is the pick.  A summary
/// word per 64 slot words keeps the search short on many-job runs.
class ReadyQueue {
 public:
  /// Empties the queue for `policy`.  The ranked policies lay out `nodes` ×
  /// `jobs` slots; critical-path-first ranks by `down`, down(v) per node.
  void reset(Policy policy, std::span<const Time> down, std::size_t nodes,
             std::size_t jobs) {
    policy_ = policy;
    items_.clear();
    head_ = 0;
    if (!is_ranked()) return;
    base_.resize(nodes);
    stride_.resize(nodes);
    if (policy == Policy::kIndexOrder) {
      for (NodeId v = 0; v < nodes; ++v) {
        base_[v] = v;
        stride_[v] = nodes;
      }
    } else {
      rank_by_down(down, nodes);
      // Runs of equal down(v), longest first; a run of k nodes takes k
      // slots per job, job-major, nodes ascending within a job.
      std::size_t slot = 0;
      for (std::size_t i = 0; i < nodes;) {
        std::size_t j = i + 1;
        while (j < nodes && down[order_[j]] == down[order_[i]]) ++j;
        for (std::size_t r = i; r < j; ++r) {
          base_[order_[r]] = slot + (r - i);
          stride_[order_[r]] = j - i;
        }
        slot += (j - i) * jobs;
        i = j;
      }
    }
    const std::size_t words = (nodes * jobs + 63) / 64;
    bits_.assign(words, 0);
    summary_.assign((words + 63) / 64, 0);
    at_.resize(nodes * jobs);
    size_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept {
    return is_ranked() ? size_ == 0 : head_ == items_.size();
  }

  void push(const NodeInstance& item) {
    if (!is_ranked()) {
      items_.push_back(item);
      return;
    }
    const std::size_t slot = base_[item.node] + item.job * stride_[item.node];
    at_[slot] = item;
    bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    summary_[slot >> 12] |= std::uint64_t{1} << ((slot >> 6) & 63);
    ++size_;
  }

  [[nodiscard]] NodeInstance pop(Rng& rng) {
    HEDRA_ASSERT(!empty());
    if (is_ranked()) return pop_lowest();
    NodeInstance out;
    if (policy_ == Policy::kBreadthFirst) {
      out = items_[head_++];
      if (empty()) {
        items_.clear();
        head_ = 0;
      }
      return out;
    }
    if (policy_ == Policy::kRandom) {
      const std::size_t pick = rng.index(items_.size());
      std::swap(items_[pick], items_.back());
    }
    out = items_.back();
    items_.pop_back();
    return out;
  }

 private:
  [[nodiscard]] bool is_ranked() const noexcept {
    return policy_ == Policy::kCriticalPathFirst ||
           policy_ == Policy::kIndexOrder;
  }

  /// Fills order_ with the nodes by (down desc, node asc): a stable LSD
  /// radix sort on max(down) − down(v), one byte per pass, from node order.
  void rank_by_down(std::span<const Time> down, std::size_t nodes) {
    order_.resize(nodes);
    spare_.resize(nodes);
    for (NodeId v = 0; v < nodes; ++v) order_[v] = v;
    Time top = 0;
    for (NodeId v = 0; v < nodes; ++v) top = std::max(top, down[v]);
    for (int shift = 0; shift < 64 && (top >> shift) != 0; shift += 8) {
      std::array<std::uint32_t, 257> first{};
      const auto digit = [&](NodeId v) {
        return static_cast<std::size_t>(((top - down[v]) >> shift) & 0xFF);
      };
      for (const NodeId v : order_) ++first[digit(v) + 1];
      for (std::size_t d = 0; d < 256; ++d) first[d + 1] += first[d];
      for (const NodeId v : order_) spare_[first[digit(v)]++] = v;
      order_.swap(spare_);
    }
  }

  [[nodiscard]] NodeInstance pop_lowest() {
    std::size_t s = 0;
    while (summary_[s] == 0) ++s;
    const std::size_t word =
        (s << 6) | static_cast<std::size_t>(std::countr_zero(summary_[s]));
    const std::size_t slot =
        (word << 6) | static_cast<std::size_t>(std::countr_zero(bits_[word]));
    bits_[word] &= bits_[word] - 1;
    if (bits_[word] == 0) summary_[s] &= summary_[s] - 1;
    --size_;
    return at_[slot];
  }

  Policy policy_ = Policy::kBreadthFirst;
  std::vector<NodeInstance> items_;  ///< FIFO, LIFO and random
  std::size_t head_ = 0;             ///< FIFO read position
  // Ranked policies only.
  std::vector<std::size_t> base_;    ///< per node: slot of job 0
  std::vector<std::size_t> stride_;  ///< per node: slots between its jobs
  std::vector<NodeId> order_;        ///< layout scratch
  std::vector<NodeId> spare_;        ///< layout scratch
  std::vector<std::uint64_t> bits_;     ///< one bit per slot
  std::vector<std::uint64_t> summary_;  ///< one bit per nonzero bits_ word
  std::vector<NodeInstance> at_;        ///< per slot: its item, when set
  std::size_t size_ = 0;
};

/// Identical units that share one ready queue: a device's units (FIFO) or
/// one task's dedicated cores (the configured policy).
struct Pool {
  graph::DeviceId device = graph::kHostDevice;
  ReadyQueue ready;
  std::vector<int> free;   ///< min-heap: the smallest free unit goes first
  std::vector<Time> down;  ///< the task's down(v), kCriticalPathFirst only

  /// Resets the ready queue over `down`, so fill that first.
  void reset(graph::DeviceId id, int units, Policy policy,
             std::size_t nodes = 0, std::size_t jobs = 0) {
    device = id;
    ready.reset(policy, down, nodes, jobs);
    free.clear();
    for (int u = 0; u < units; ++u) free.push_back(u);
  }
  [[nodiscard]] int take() {
    std::pop_heap(free.begin(), free.end(), std::greater<>{});
    const int unit = free.back();
    free.pop_back();
    return unit;
  }
  void give(int unit) {
    free.push_back(unit);
    std::push_heap(free.begin(), free.end(), std::greater<>{});
  }
};

/// One running node on unit `unit` of its pool.
struct Running {
  Time finish = 0;
  NodeInstance what;
  int unit = 0;
};

/// Event-heap order: earliest finish on top, then (task, job, node), so the
/// pops of one instant come out in retirement order.
struct FinishesLater {
  bool operator()(const Running& a, const Running& b) const noexcept {
    if (a.finish != b.finish) return a.finish > b.finish;
    return b.what < a.what;
  }
};

/// (time, task, job), sorted so that equal times release in task order.
using Release = std::tuple<Time, std::uint32_t, std::uint32_t>;

/// The engine's per-thread working state.
struct Scratch {
  std::vector<std::size_t> node_base;  ///< per task: node slot of job 0
  std::vector<std::size_t> job_base;   ///< per task: slot of job 0
  /// Device d's units at d−1, then task i's cores at num_devices + i, so
  /// dispatch in pool order fills devices before host cores.
  std::vector<Pool> pools;
  std::vector<std::uint32_t> pending;  ///< per node slot: unfinished preds
  std::vector<std::size_t> unfinished; ///< per job slot: unfinished nodes
  std::vector<Running> running;        ///< FinishesLater heap
  std::vector<NodeInstance> newly_ready;
  std::vector<Release> releases;
};

inline thread_local Scratch scratch;

}  // namespace detail

/// Runs every released job of `tasks` to completion, or until the
/// deadline cuts the run at an event boundary (kBudgetExhausted).  Throws
/// hedra::Error on invalid input.
template <class Recorder>
[[nodiscard]] util::Outcome run_engine(std::span<const EngineTask> tasks,
                                       const EngineConfig& config,
                                       Recorder& recorder) {
  detail::Scratch& s = detail::scratch;
  const std::size_t num_tasks = tasks.size();
  const std::size_t num_devices = config.device_units.size();
  s.pools.resize(num_devices + num_tasks);
  for (std::size_t d = 0; d < num_devices; ++d) {
    HEDRA_REQUIRE(config.device_units[d] >= 1,
                  "every accelerator device needs >= 1 unit");
    s.pools[d].reset(static_cast<graph::DeviceId>(d + 1),
                     config.device_units[d], Policy::kBreadthFirst);
  }

  s.node_base.resize(num_tasks);
  s.job_base.resize(num_tasks);
  s.releases.clear();
  std::size_t node_slots = 0;
  std::size_t job_slots = 0;
  for (std::uint32_t i = 0; i < num_tasks; ++i) {
    const EngineTask& task = tasks[i];
    const graph::FlatView& view = task.view;
    HEDRA_REQUIRE(view.num_nodes() > 0, "cannot simulate an empty graph");
    HEDRA_REQUIRE(task.cores >= 1, "simulation requires at least one core");
    HEDRA_REQUIRE(view.max_device() <= num_devices,
                  "a task uses an accelerator device with no units");
    if (!task.actual.empty()) {
      HEDRA_REQUIRE(task.actual.size() == view.num_nodes(),
                    "actual-times vector size mismatch");
      for (NodeId v = 0; v < view.num_nodes(); ++v) {
        HEDRA_REQUIRE(task.actual[v] >= 0 && task.actual[v] <= view.wcet(v),
                      "actual execution time outside [0, WCET]");
      }
    }
    s.node_base[i] = node_slots;
    s.job_base[i] = job_slots;
    node_slots += task.releases.size() * view.num_nodes();
    job_slots += task.releases.size();
    detail::Pool& cores = s.pools[num_devices + i];
    if (config.policy == Policy::kCriticalPathFirst) {
      graph::down_lengths(view, cores.down);
    }
    cores.reset(graph::kHostDevice, task.cores, config.policy,
                view.num_nodes(), task.releases.size());
    for (std::uint32_t j = 0; j < task.releases.size(); ++j) {
      s.releases.emplace_back(task.releases[j], i, j);
    }
  }
  std::sort(s.releases.begin(), s.releases.end());
  s.pending.resize(node_slots);
  s.unfinished.resize(job_slots);
  s.running.clear();
  s.newly_ready.clear();

  // The pool that runs `item`: its device's, or its task's host cores.
  const auto pool_of = [&](const NodeInstance& item) -> detail::Pool& {
    const graph::DeviceId device = tasks[item.task].view.device(item.node);
    return s.pools[device == graph::kHostDevice ? num_devices + item.task
                                                : device - 1u];
  };

  // Marks `item` complete at t and appends its successors that became
  // ready to `newly_ready`.
  std::size_t jobs_remaining = job_slots;
  const auto retire = [&](const NodeInstance& item, Time t) {
    const graph::FlatView& view = tasks[item.task].view;
    if (--s.unfinished[s.job_base[item.task] + item.job] == 0) {
      recorder.job_done(item.task, item.job, t);
      --jobs_remaining;
    }
    std::uint32_t* const pending =
        s.pending.data() + s.node_base[item.task] + item.job * view.num_nodes();
    for (const NodeId w : view.successors(item.node)) {
      if (--pending[w] == 0) s.newly_ready.push_back({item.task, item.job, w});
    }
  };

  Rng rng(config.seed);
  std::size_t next_release = 0;
  std::uint64_t rounds = 0;
  while (jobs_remaining > 0) {
    HEDRA_FAULT("taskset.sim.event");
    // Deadline poll amortised over event rounds; an expiry stops the loop
    // at an event boundary, so finished jobs keep exact records.
    if (!config.deadline.unlimited() && (++rounds & 0xFF) == 0 &&
        config.deadline.expired()) {
      return util::Outcome::kBudgetExhausted;
    }
    Time t = std::numeric_limits<Time>::max();
    if (!s.running.empty()) t = s.running.front().finish;
    if (next_release < s.releases.size()) {
      t = std::min(t, std::get<0>(s.releases[next_release]));
    }
    HEDRA_REQUIRE(t != std::numeric_limits<Time>::max(),
                  "simulation stalled: cyclic or disconnected graph");

    // Retire every completion at t, in (task, job, node) order.
    while (!s.running.empty() && s.running.front().finish == t) {
      std::pop_heap(s.running.begin(), s.running.end(),
                    detail::FinishesLater{});
      const detail::Running done = s.running.back();
      s.running.pop_back();
      pool_of(done.what).give(done.unit);
      retire(done.what, t);
    }

    // Release every job arriving at t; its roots become ready in node order.
    for (; next_release < s.releases.size() &&
           std::get<0>(s.releases[next_release]) == t;
         ++next_release) {
      const auto [time, task, job] = s.releases[next_release];
      const graph::FlatView& view = tasks[task].view;
      recorder.release(task, job, t);
      s.unfinished[s.job_base[task] + job] = view.num_nodes();
      std::uint32_t* const pending =
          s.pending.data() + s.node_base[task] + job * view.num_nodes();
      for (NodeId v = 0; v < view.num_nodes(); ++v) {
        pending[v] = static_cast<std::uint32_t>(view.in_degree(v));
        if (pending[v] == 0) s.newly_ready.push_back({task, job, v});
      }
    }

    // File the newly ready nodes in readiness order; zero-WCET host nodes
    // retire in place and append their successors to the same pass.
    for (std::size_t k = 0; k < s.newly_ready.size(); ++k) {
      const NodeInstance item = s.newly_ready[k];
      const graph::FlatView& view = tasks[item.task].view;
      if (view.device(item.node) == graph::kHostDevice &&
          view.wcet(item.node) == 0) {
        recorder.start(item, kInstantUnit, t, t);
        retire(item, t);
      } else {
        pool_of(item).ready.push(item);
      }
    }
    s.newly_ready.clear();

    // Work-conserving dispatch, in pool order: devices, then host cores.
    for (detail::Pool& pool : s.pools) {
      while (!pool.free.empty() && !pool.ready.empty()) {
        const NodeInstance item = pool.ready.pop(rng);
        const int unit = pool.take();
        const EngineTask& task = tasks[item.task];
        const Time finish = t + (task.actual.empty()
                                     ? task.view.wcet(item.node)
                                     : task.actual[item.node]);
        recorder.start(item,
                       pool.device == graph::kHostDevice
                           ? unit
                           : accelerator_unit(pool.device, unit),
                       t, finish);
        s.running.push_back(detail::Running{finish, item, unit});
        std::push_heap(s.running.begin(), s.running.end(),
                       detail::FinishesLater{});
      }
    }
  }
  return util::Outcome::kComplete;
}

}  // namespace hedra::sim
