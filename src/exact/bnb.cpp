#include "exact/bnb.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "exact/bounds.h"
#include "exact/list_heuristics.h"
#include "exact/tail_energy.h"
#include "graph/algorithms.h"
#include "graph/critical_path.h"
#include "graph/flat_dag.h"
#include "obs/metrics.h"
#include "util/bitset.h"
#include "util/fault.h"
#include "util/thread_pool.h"
#include "util/work_stealing_deque.h"

namespace hedra::exact {

namespace {

using graph::Dag;
using graph::FlatDag;
using graph::NodeId;
using graph::Time;

/// The instant the search must stop: time_limit_sec from now, pulled
/// earlier by an external config.deadline (a per-request admission
/// deadline, say).  Both budgets share one steady_clock point, so the hot
/// loop's amortised poll stays a single comparison.
std::chrono::steady_clock::time_point search_deadline(const BnbConfig& config) {
  auto when =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          // hedra-lint: allow(float-in-bound, converts the wall-clock budget knob)
          std::chrono::duration<double>(config.time_limit_sec));
  if (!config.deadline.unlimited() && config.deadline.when() < when) {
    when = config.deadline.when();
  }
  return when;
}

struct Running {
  Time finish;
  NodeId node;
  bool on_accel;
};

/// Everything a delay branch needs to restore the search state exactly —
/// the historical solver snapshotted the whole mutable state (one O(n)
/// deep copy per delay node); this frame records only the delta: retired
/// running entries, instantly-completed sync nodes, and the small scalar
/// counters.  `remaining_preds` and the `started` bitset are restored by
/// replaying the deltas backwards, and the ready arrays (a few dozen ids)
/// are the only verbatim copies.
struct DelayFrame {
  Time now = 0;
  int free_cores = 0;
  bool accel_free = true;
  std::size_t completed = 0;
  Time sum_finish_host = 0;
  Time sum_finish_accel = 0;
  int n_running_host = 0;
  int n_running_accel = 0;
  std::size_t accel_ready_count = 0;
  std::size_t down_ptr = 0;
  Time energy = 0;
  bool energy_stale = true;
  std::vector<NodeId> ready_host;
  std::vector<NodeId> ready_accel;
  std::vector<NodeId> zero_completed;
  std::vector<std::pair<std::size_t, Running>> retired;  ///< (index, entry)
  std::vector<NodeId> newly;  ///< scratch for the retirement scan
};

/// Immutable per-solve context shared (read-only) by every worker.
struct SearchContext {
  SearchContext(const Dag& dag, int m_in, const BnbConfig& config_in)
      : flat(dag),
        m(m_in),
        config(config_in),
        down(graph::down_lengths(flat)),
        by_tail(tail_order(flat, down)) {
    const std::size_t n = flat.num_nodes();
    by_down.resize(n);
    for (NodeId v = 0; v < n; ++v) by_down[v] = v;
    std::sort(by_down.begin(), by_down.end(),
              [this](NodeId a, NodeId b) { return prior(a, b); });
    single_offload = flat.num_offload_nodes() == 1;
  }

  /// Priority order inside the ready lists: critical (largest down) first.
  [[nodiscard]] bool prior(NodeId a, NodeId b) const {
    return down[a] != down[b] ? down[a] > down[b] : a < b;
  }

  FlatDag flat;
  int m;
  BnbConfig config;
  std::vector<Time> down;
  std::vector<NodeId> by_down;  ///< node ids, descending down(v)
  std::vector<TailEntry> by_tail;  ///< work-carrying nodes, descending tail
  bool single_offload = false;
};

/// The full mutable search position (was the Solver's member soup).  The
/// sequential DFS mutates one instance in place with undo frames; the
/// parallel frontier snapshots copies, each copy the root of an
/// independent subtree that a worker explores with its own frame pool.
struct SearchState {
  Time now = 0;
  int free_cores = 0;
  bool accel_free = true;
  std::size_t completed = 0;
  Time unstarted_host_work = 0;
  Time unstarted_accel_work = 0;
  std::size_t accel_ready_count = 0;  ///< unstarted entries in ready_accel
                                      ///  (gates the dominance rule)
  Time sum_finish_host = 0;   ///< Σ finish over running host nodes
  Time sum_finish_accel = 0;  ///< Σ finish over running accelerator nodes
  int n_running_host = 0;
  int n_running_accel = 0;
  std::size_t down_ptr = 0;  ///< first possibly-unstarted slot of by_down
  /// The tail-energy term at `now` (see energy_bound()); constant over
  /// every start branch of one event time, so it is recomputed only after
  /// an advance marks it stale.
  Time energy = 0;
  bool energy_stale = true;
  std::vector<std::uint32_t> remaining_preds;
  std::vector<NodeId> ready_host;   ///< sorted by exploration priority
  std::vector<NodeId> ready_accel;  ///< sorted by exploration priority
  std::vector<Running> running;
  DynamicBitset started;  ///< started or finished
};

/// One frontier task: an independent subtree rooted at `state`.  min_host /
/// min_accel carry the canonical-order suffix constraints of the pending
/// decision (see DfsEngine::search), depth counts the splits from the root.
struct Subproblem {
  SearchState state;
  std::size_t min_host = 0;
  std::size_t min_accel = 0;
  int depth = 0;
};

/// Coordination shared by every worker of one parallel solve.  The
/// incumbent is the load-bearing member: a bound CAS-tightened by one
/// worker immediately prunes all other subtrees.
///
/// Every mutable member is an atomic published without locks — the
/// structure is deliberately lock-free, so there is no capability for the
/// thread-safety analysis to track; instead the invariants are enforced by
/// construction: the atomics are lock-free on every supported target
/// (static_assert below) and `deadline` is const after construction, so no
/// worker can observe a torn or stale value of either kind.
struct SharedSearch {
  SharedSearch(Time initial,
               std::chrono::steady_clock::time_point limit)
      : best(initial), initial_best(initial), deadline(limit) {}
  std::atomic<Time> best;                ///< incumbent upper bound
  const Time initial_best;               ///< the root heuristic upper bound
  std::atomic<std::uint64_t> nodes{0};   ///< flushed decision-node total
  std::atomic<bool> aborted{false};      ///< any worker ran out of budget
  std::atomic<int> hungry{0};  ///< workers currently without local work
  std::atomic<long long> in_flight{0};   ///< queued + executing subproblems
  const std::chrono::steady_clock::time_point deadline;
};
static_assert(std::atomic<Time>::is_always_lock_free &&
                  std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<long long>::is_always_lock_free,
              "SharedSearch members must be lock-free: workers poll them "
              "on the search hot path");

/// Splitting stops at this depth even if workers are still hungry: a
/// frontier this deep means the tree is too thin to parallelise and the
/// O(n) state copies per split would dominate the subtree they hand off.
constexpr int kMaxSplitDepth = 64;

/// Local decision nodes between polls of the shared/wall-clock budget.
constexpr std::uint64_t kBudgetPollMask = 0x3FF;  // every 1024 nodes

/// Depth-first branch-and-bound over left-shifted schedules (see bnb.h)
/// with
///  - an incrementally maintained lower bound (the path term reads the
///    first unstarted entry of a down-sorted node order instead of sweeping
///    all n nodes per search node; the area terms are running sums),
///  - a tail-energy term behind it, swept once per event time and cached
///    in the state (energy_bound()),
///  - O(1) ready-list removal: ready nodes stay in their priority-sorted
///    arrays and branches mark them via the `started` bitset, which keeps
///    the branch enumeration order identical to the historical erase/insert
///    implementation, and
///  - an undo-based delay branch (DelayFrame) instead of a full state
///    snapshot.
///
/// One engine instance is the sequential solver (shared == nullptr: local
/// incumbent, exact node-budget truncation).  In parallel mode each worker
/// owns one engine that runs many subtree Subproblems back to back against
/// the shared incumbent, flushing its node count every 1024 nodes.
class DfsEngine {
 public:
  DfsEngine(const SearchContext& ctx, SharedSearch* shared)
      : ctx_(ctx), shared_(shared), running_left_(ctx.flat.num_nodes(), 0) {
    if (shared_ == nullptr) {
      deadline_ = search_deadline(ctx.config);
    } else {
      deadline_ = shared_->deadline;
      initial_best_ = shared_->initial_best;
    }
  }

  /// Builds the root search state (time 0, sources ready).
  void init_root() {
    const std::size_t n = ctx_.flat.num_nodes();
    s_.remaining_preds.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      s_.remaining_preds[v] = static_cast<std::uint32_t>(ctx_.flat.in_degree(v));
    }
    s_.free_cores = ctx_.m;
    s_.started = DynamicBitset(n);
    for (NodeId v = 0; v < n; ++v) {
      if (ctx_.flat.wcet(v) == 0) continue;
      if (ctx_.flat.device(v) != graph::kHostDevice) {
        s_.unstarted_accel_work += ctx_.flat.wcet(v);
      } else {
        s_.unstarted_host_work += ctx_.flat.wcet(v);
      }
    }
    s_.running.reserve(static_cast<std::size_t>(ctx_.m) + 1);
    s_.ready_host.reserve(n);
    s_.ready_accel.reserve(n);

    std::vector<NodeId> newly;
    for (NodeId v = 0; v < n; ++v) {
      if (s_.remaining_preds[v] == 0) newly.push_back(v);
    }
    absorb(newly, nullptr);
  }

  void set_best(Time best) {
    best_ = best;
    initial_best_ = best;
  }
  [[nodiscard]] Time best() const { return best_; }
  [[nodiscard]] std::uint64_t nodes() const { return nodes_; }
  [[nodiscard]] bool aborted() const { return aborted_; }
  [[nodiscard]] const SearchState& state() const { return s_; }

  /// The engine's telemetry so far (node count filled in from the live
  /// counter; the worker-level steal/split fields stay zero here).
  [[nodiscard]] SearchStats stats() const {
    SearchStats out = stats_;
    out.nodes = nodes_;
    return out;
  }

  /// Runs the DFS from the current state (sequential entry point).
  void run(std::size_t min_host, std::size_t min_accel) {
    search(min_host, min_accel);
  }

  /// Runs the DFS from a frontier subproblem (parallel entry point).
  void run_subproblem(const Subproblem& sp) {
    s_ = sp.state;
    search(sp.min_host, sp.min_accel);
  }

  /// Expands one decision node of `sp` breadth-first: every branch the DFS
  /// would explore becomes a child Subproblem (canonical order preserved).
  /// Mirrors search() exactly — budget, incumbent update on completion,
  /// lower-bound prune — so frontier expansion is itself part of the
  /// branch-and-bound, not a preprocessing pass.
  void expand(const Subproblem& sp, std::vector<Subproblem>& children) {
    s_ = sp.state;
    if (out_of_budget()) return;
    ++nodes_;

    if (s_.completed == ctx_.flat.num_nodes()) {
      offer_best(s_.now);
      return;
    }
    if (prune()) return;

    const auto child = [&](std::size_t min_host, std::size_t min_accel) {
      Subproblem c;
      c.state = s_;
      c.min_host = min_host;
      c.min_accel = min_accel;
      c.depth = sp.depth + 1;
      children.push_back(std::move(c));
    };

    // Dominance: a lone offload node starts the moment it is ready.
    if (ctx_.single_offload && s_.accel_free && s_.accel_ready_count > 0) {
      std::size_t i = 0;
      while (s_.started.test_unchecked(s_.ready_accel[i])) ++i;
      const NodeId v = s_.ready_accel[i];
      const std::size_t saved_ptr = s_.down_ptr;
      start_node(v, /*on_accel=*/true);
      child(sp.min_host, 0);
      undo_start(v, /*on_accel=*/true);
      s_.down_ptr = saved_ptr;
      return;
    }

    if (s_.free_cores > 0) {
      for (std::size_t i = sp.min_host; i < s_.ready_host.size(); ++i) {
        const NodeId v = s_.ready_host[i];
        if (s_.started.test_unchecked(v)) continue;
        const std::size_t saved_ptr = s_.down_ptr;
        start_node(v, /*on_accel=*/false);
        child(i + 1, s_.ready_accel.size());
        undo_start(v, /*on_accel=*/false);
        s_.down_ptr = saved_ptr;
      }
    }

    if (s_.accel_free) {
      for (std::size_t i = sp.min_accel; i < s_.ready_accel.size(); ++i) {
        const NodeId v = s_.ready_accel[i];
        if (s_.started.test_unchecked(v)) continue;
        const std::size_t saved_ptr = s_.down_ptr;
        start_node(v, /*on_accel=*/true);
        child(sp.min_host, i + 1);
        undo_start(v, /*on_accel=*/true);
        s_.down_ptr = saved_ptr;
      }
    }

    if (s_.running.empty()) return;  // nothing in flight: delaying deadlocks
    advance_to_next_event();
    child(0, 0);
    undo_event();
  }

  /// Adds any node count not yet flushed to the shared total (call once
  /// when a worker finishes).
  void flush_nodes() {
    if (shared_ == nullptr) return;
    shared_->nodes.fetch_add(nodes_ - flushed_nodes_,
                             std::memory_order_relaxed);
    flushed_nodes_ = nodes_;
  }

 private:
  [[nodiscard]] Time current_best() const {
    return shared_ == nullptr ? best_
                              : shared_->best.load(std::memory_order_relaxed);
  }

  /// True when the node's lower bound reaches the incumbent: first the
  /// cheap path/area terms, then the (cached) tail-energy term.  A cut is
  /// attributed to what the incumbent was — an incumbent some completed
  /// schedule tightened below the root heuristic, or the heuristic upper
  /// bound itself — and counted in prune_energy too when only the energy
  /// term reached it.
  bool prune() {
    const Time bound = current_best();
    if (lower_bound() < bound) {
      if (energy_bound() < bound) return false;
      ++stats_.prune_energy;
    }
    if (bound < initial_best_) {
      ++stats_.prune_incumbent;
    } else {
      ++stats_.prune_bound;
    }
    return true;
  }

  /// Tightens the incumbent.  Sequential: plain min.  Parallel: CAS-min on
  /// the shared atomic — safe because the bound only ever decreases and a
  /// concurrent reader seeing a stale (larger) value merely prunes less.
  void offer_best(Time t) {
    if (shared_ == nullptr) {
      best_ = std::min(best_, t);
      return;
    }
    Time cur = shared_->best.load(std::memory_order_relaxed);
    while (t < cur && !shared_->best.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }

  void sorted_insert(std::vector<NodeId>& list, NodeId v) {
    const auto it = std::lower_bound(
        list.begin(), list.end(), v,
        [this](NodeId a, NodeId b) { return ctx_.prior(a, b); });
    list.insert(it, v);
  }

  /// Drops entries this time step's branches have started; the survivors
  /// keep their relative (priority) order.
  void compact(std::vector<NodeId>& list) {
    std::erase_if(list,
                  [this](NodeId v) { return s_.started.test_unchecked(v); });
  }

  /// Files newly ready nodes; zero-WCET nodes complete instantly (recorded
  /// in `zero_record` when a delay frame needs to undo them).
  void absorb(std::vector<NodeId>& newly, std::vector<NodeId>* zero_record) {
    while (!newly.empty()) {
      const NodeId v = newly.back();
      newly.pop_back();
      if (ctx_.flat.wcet(v) == 0) {
        s_.started.set_unchecked(v);
        ++s_.completed;
        if (zero_record != nullptr) zero_record->push_back(v);
        for (const NodeId w : ctx_.flat.successors(v)) {
          if (--s_.remaining_preds[w] == 0) newly.push_back(w);
        }
        continue;
      }
      if (ctx_.flat.device(v) != graph::kHostDevice) {
        sorted_insert(s_.ready_accel, v);
        ++s_.accel_ready_count;
      } else {
        sorted_insert(s_.ready_host, v);
      }
    }
  }

  /// Work still to do at `now` on the host cores and on the accelerator:
  /// unstarted WCET plus the remainder of running nodes.
  [[nodiscard]] std::array<Time, 2> remaining_work() const {
    return {s_.unstarted_host_work + s_.sum_finish_host -
                static_cast<Time>(s_.n_running_host) * s_.now,
            s_.unstarted_accel_work + s_.sum_finish_accel -
                static_cast<Time>(s_.n_running_accel) * s_.now};
  }

  [[nodiscard]] Time lower_bound() {
    const std::size_t n = ctx_.flat.num_nodes();
    // Path bound: every unstarted node starts at >= now.  by_down is
    // sorted by descending down(v), so the first unstarted entry IS the
    // maximum; the pointer only moves over nodes already started and is
    // saved/restored around every branch.
    while (s_.down_ptr < n &&
           s_.started.test_unchecked(ctx_.by_down[s_.down_ptr])) {
      ++s_.down_ptr;
    }
    Time lb = s_.now;
    if (s_.down_ptr < n) {
      lb = std::max(lb, s_.now + ctx_.down[ctx_.by_down[s_.down_ptr]]);
    }
    // Running nodes finish at their finish time followed by their tail.
    for (const auto& r : s_.running) {
      lb = std::max(lb, r.finish + ctx_.down[r.node] - ctx_.flat.wcet(r.node));
    }
    // Area bounds from running sums of finish times.
    const auto [host_work, accel_work] = remaining_work();
    lb = std::max(lb, s_.now + (host_work + ctx_.m - 1) / ctx_.m);
    lb = std::max(lb, s_.now + accel_work);
    return lb;
  }

  /// The tail-energy term (tail_energy.h) at `now`: a node that has not
  /// started contributes its WCET, a running one what remains of it, a
  /// finished one nothing.  Starting v at `now` moves C(v) from the first
  /// kind to the second unchanged, so the term is the same for every start
  /// branch of one event time and is computed once per event, on the first
  /// node the classic terms fail to prune — the same pruning as evaluating
  /// it at every node.
  [[nodiscard]] Time energy_bound() {
    if (s_.energy_stale) {
      // running holds exactly the started nodes with finish > now.
      for (const Running& r : s_.running) {
        running_left_[r.node] = r.finish - s_.now;
      }
      const auto left = [this](NodeId v) -> Time {
        if (!s_.started.test_unchecked(v)) return ctx_.flat.wcet(v);
        return running_left_[v];
      };
      s_.energy = s_.now + tail_energy_sweep(ctx_.by_tail, ctx_.m,
                                             remaining_work(), left);
      s_.energy_stale = false;
      for (const Running& r : s_.running) running_left_[r.node] = 0;
    }
    return s_.energy;
  }

  bool out_of_budget() {
    if (aborted_) return true;
    if (shared_ == nullptr) {
      // Sequential mode: the node budget truncates at exactly max_nodes
      // (golden-pinned); only the steady_clock read is amortised.
      if (nodes_ >= ctx_.config.max_nodes) {
        aborted_ = true;
        return true;
      }
      if ((nodes_ & kBudgetPollMask) == 0) {
        ++stats_.budget_polls;
        // Fault seam inside the amortised branch: the per-node hot path
        // (tens of millions of nodes/s) never pays for it.
        HEDRA_FAULT("exact.bnb.node");
        if (std::chrono::steady_clock::now() >= deadline_) {
          aborted_ = true;
          return true;
        }
      }
      return false;
    }
    // Parallel mode: the budgets are shared.  Flush the local node count
    // and poll the shared state every 1024 nodes — so the node budget may
    // overshoot by up to 1024 nodes per worker (documented in bnb.h).
    // No fault seam here: a throw would escape the worker thread.
    if ((nodes_ & kBudgetPollMask) == 0) {
      ++stats_.budget_polls;
      const std::uint64_t total =
          shared_->nodes.fetch_add(nodes_ - flushed_nodes_,
                                   std::memory_order_relaxed) +
          (nodes_ - flushed_nodes_);
      flushed_nodes_ = nodes_;
      if (shared_->aborted.load(std::memory_order_relaxed) ||
          total >= ctx_.config.max_nodes ||
          std::chrono::steady_clock::now() >= deadline_) {
        shared_->aborted.store(true, std::memory_order_relaxed);
        aborted_ = true;
        return true;
      }
    }
    return false;
  }

  void start_node(NodeId v, bool on_accel) {
    s_.started.set_unchecked(v);
    const Time finish = s_.now + ctx_.flat.wcet(v);
    s_.running.push_back(Running{finish, v, on_accel});
    if (on_accel) {
      s_.accel_free = false;
      s_.unstarted_accel_work -= ctx_.flat.wcet(v);
      s_.sum_finish_accel += finish;
      ++s_.n_running_accel;
      --s_.accel_ready_count;
    } else {
      --s_.free_cores;
      s_.unstarted_host_work -= ctx_.flat.wcet(v);
      s_.sum_finish_host += finish;
      ++s_.n_running_host;
    }
  }

  void undo_start(NodeId v, bool on_accel) {
    s_.started.reset_unchecked(v);
    HEDRA_ASSERT(!s_.running.empty() && s_.running.back().node == v);
    const Time finish = s_.running.back().finish;
    s_.running.pop_back();
    if (on_accel) {
      s_.accel_free = true;
      s_.unstarted_accel_work += ctx_.flat.wcet(v);
      s_.sum_finish_accel -= finish;
      --s_.n_running_accel;
      ++s_.accel_ready_count;
    } else {
      ++s_.free_cores;
      s_.unstarted_host_work += ctx_.flat.wcet(v);
      s_.sum_finish_host -= finish;
      --s_.n_running_host;
    }
  }

  /// The delay move: retires every running node finishing at the next
  /// completion event, advances time, and absorbs the newly ready nodes.
  /// The delta is recorded in a pooled DelayFrame (frames are pooled by
  /// delay depth so steady-state search allocates nothing — the vectors
  /// keep their high-water capacity); undo_event() restores it exactly.
  void advance_to_next_event() {
    Time next = s_.running.front().finish;
    for (const auto& r : s_.running) next = std::min(next, r.finish);

    if (delay_depth_ == frame_pool_.size()) frame_pool_.emplace_back();
    DelayFrame& frame = frame_pool_[delay_depth_++];
    frame.now = s_.now;
    frame.free_cores = s_.free_cores;
    frame.accel_free = s_.accel_free;
    frame.completed = s_.completed;
    frame.sum_finish_host = s_.sum_finish_host;
    frame.sum_finish_accel = s_.sum_finish_accel;
    frame.n_running_host = s_.n_running_host;
    frame.n_running_accel = s_.n_running_accel;
    frame.accel_ready_count = s_.accel_ready_count;
    frame.down_ptr = s_.down_ptr;
    frame.energy = s_.energy;
    frame.energy_stale = s_.energy_stale;
    s_.energy_stale = true;
    frame.ready_host.assign(s_.ready_host.begin(), s_.ready_host.end());
    frame.ready_accel.assign(s_.ready_accel.begin(), s_.ready_accel.end());
    frame.zero_completed.clear();
    frame.retired.clear();
    frame.newly.clear();

    std::vector<NodeId>& newly = frame.newly;
    for (std::size_t i = 0; i < s_.running.size();) {
      if (s_.running[i].finish == next) {
        const Running r = s_.running[i];
        frame.retired.emplace_back(i, r);
        if (r.on_accel) {
          s_.accel_free = true;
          s_.sum_finish_accel -= r.finish;
          --s_.n_running_accel;
        } else {
          ++s_.free_cores;
          s_.sum_finish_host -= r.finish;
          --s_.n_running_host;
        }
        ++s_.completed;
        for (const NodeId w : ctx_.flat.successors(r.node)) {
          if (--s_.remaining_preds[w] == 0) newly.push_back(w);
        }
        s_.running.erase(s_.running.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    // Entries started by this time step's branches are dropped so the
    // arrays are pure (sorted, unstarted-only) again for the new time.
    compact(s_.ready_host);
    compact(s_.ready_accel);
    s_.now = next;
    absorb(newly, &frame.zero_completed);
  }

  /// Undoes the topmost advance_to_next_event(): scalars, ready arrays,
  /// instant completions, retired running entries (back at their original
  /// positions).
  void undo_event() {
    DelayFrame& frame = frame_pool_[delay_depth_ - 1];
    s_.now = frame.now;
    s_.free_cores = frame.free_cores;
    s_.accel_free = frame.accel_free;
    s_.completed = frame.completed;
    s_.sum_finish_host = frame.sum_finish_host;
    s_.sum_finish_accel = frame.sum_finish_accel;
    s_.n_running_host = frame.n_running_host;
    s_.n_running_accel = frame.n_running_accel;
    s_.accel_ready_count = frame.accel_ready_count;
    s_.down_ptr = frame.down_ptr;
    s_.energy = frame.energy;
    s_.energy_stale = frame.energy_stale;
    s_.ready_host.assign(frame.ready_host.begin(), frame.ready_host.end());
    s_.ready_accel.assign(frame.ready_accel.begin(), frame.ready_accel.end());
    for (const NodeId v : frame.zero_completed) {
      s_.started.reset_unchecked(v);
      for (const NodeId w : ctx_.flat.successors(v)) ++s_.remaining_preds[w];
    }
    for (auto it = frame.retired.rbegin(); it != frame.retired.rend(); ++it) {
      s_.running.insert(
          s_.running.begin() + static_cast<std::ptrdiff_t>(it->first),
          it->second);
      for (const NodeId w : ctx_.flat.successors(it->second.node)) {
        ++s_.remaining_preds[w];
      }
    }
    --delay_depth_;
  }

  /// DFS over decisions at the current event time.  `min_host` / `min_accel`
  /// are positions in the (priority-sorted) ready arrays: only suffix
  /// entries not yet started may still start at this time, cancelling
  /// permutation symmetry of simultaneous starts exactly as the historical
  /// erase-based enumeration did.
  void search(std::size_t min_host, std::size_t min_accel) {
    if (out_of_budget()) return;
    ++nodes_;

    if (s_.completed == ctx_.flat.num_nodes()) {
      offer_best(s_.now);
      return;
    }
    if (prune()) return;

    // Dominance: a lone offload node starts the moment it is ready.
    if (ctx_.single_offload && s_.accel_free && s_.accel_ready_count > 0) {
      std::size_t i = 0;
      while (s_.started.test_unchecked(s_.ready_accel[i])) ++i;
      const NodeId v = s_.ready_accel[i];
      const std::size_t saved_ptr = s_.down_ptr;
      start_node(v, /*on_accel=*/true);
      search(min_host, 0);
      undo_start(v, /*on_accel=*/true);
      s_.down_ptr = saved_ptr;
      return;
    }

    // Branch: start a ready host node (canonical suffix order).
    if (s_.free_cores > 0) {
      for (std::size_t i = min_host; i < s_.ready_host.size(); ++i) {
        const NodeId v = s_.ready_host[i];
        if (s_.started.test_unchecked(v)) continue;
        const std::size_t saved_ptr = s_.down_ptr;
        start_node(v, /*on_accel=*/false);
        // Canonical order for simultaneous starts: accelerator starts come
        // before host starts, so none are allowed after this one.
        search(i + 1, s_.ready_accel.size());
        undo_start(v, /*on_accel=*/false);
        s_.down_ptr = saved_ptr;
        if (aborted_) return;
      }
    }

    // Branch: start a ready offload node (multi-offload case only; the
    // single-offload case is handled by the dominance rule above).
    if (s_.accel_free) {
      for (std::size_t i = min_accel; i < s_.ready_accel.size(); ++i) {
        const NodeId v = s_.ready_accel[i];
        if (s_.started.test_unchecked(v)) continue;
        const std::size_t saved_ptr = s_.down_ptr;
        start_node(v, /*on_accel=*/true);
        search(min_host, i + 1);
        undo_start(v, /*on_accel=*/true);
        s_.down_ptr = saved_ptr;
        if (aborted_) return;
      }
    }

    // Branch: delay everything else to the next completion event.
    if (s_.running.empty()) return;  // nothing in flight: delaying deadlocks
    advance_to_next_event();
    search(0, 0);
    undo_event();
  }

  const SearchContext& ctx_;
  SharedSearch* shared_ = nullptr;  ///< null = sequential (deterministic)
  SearchState s_;
  /// Remaining work of each running node while energy_bound() sweeps, zero
  /// otherwise.  Rebuilt from s_.running, so it is per engine, not part of
  /// the state a Subproblem copies.
  std::vector<Time> running_left_;

  /// One reusable frame per delay depth.  A deque so references handed out
  /// to a frame stay valid while deeper recursion grows the pool.
  std::deque<DelayFrame> frame_pool_;
  std::size_t delay_depth_ = 0;

  Time best_ = 0;  ///< sequential-mode incumbent (parallel uses shared_)
  Time initial_best_ = 0;  ///< the root heuristic UB (prune attribution)
  std::uint64_t nodes_ = 0;
  std::uint64_t flushed_nodes_ = 0;
  SearchStats stats_;  ///< local counters; nodes filled in by stats()
  bool aborted_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

/// Worker loop of the parallel solve: drain the own deque bottom-first;
/// when empty, steal the oldest (shallowest) subproblem from the next
/// victim in ring order.  A popped subproblem is *split* (one breadth-first
/// expansion, children pushed locally) whenever some worker is hungry and
/// the subtree is shallow enough to be worth handing off; otherwise it runs
/// to exhaustion in the fast in-place DFS.  Termination: `in_flight` counts
/// queued + executing subproblems, so 0 means the whole tree is done.
void worker_loop(const SearchContext& ctx, SharedSearch& shared,
                 std::vector<WorkStealingDeque<Subproblem>>& deques, int wid,
                 int jobs, SearchStats& stats_out) {
  DfsEngine engine(ctx, &shared);
  std::vector<Subproblem> children;
  Subproblem sp;
  // Scheduling telemetry lives here (the engine counts search-tree
  // events): plain locals, written out once when the worker retires.
  std::uint64_t steals = 0;
  std::uint64_t splits = 0;
  std::uint64_t split_refusals = 0;
  for (;;) {
    bool got = deques[static_cast<std::size_t>(wid)].pop_bottom(sp);
    if (!got) {
      shared.hungry.fetch_add(1, std::memory_order_relaxed);
      while (!got) {
        if (shared.in_flight.load(std::memory_order_acquire) == 0) break;
        for (int k = 1; k < jobs && !got; ++k) {
          got = deques[static_cast<std::size_t>((wid + k) % jobs)].steal_top(
              sp);
        }
        if (!got) std::this_thread::yield();
      }
      shared.hungry.fetch_sub(1, std::memory_order_relaxed);
      if (!got) break;
      ++steals;
    }
    const bool split = sp.depth < kMaxSplitDepth &&
                       shared.hungry.load(std::memory_order_relaxed) > 0 &&
                       !shared.aborted.load(std::memory_order_relaxed);
    if (split) {
      ++splits;
      children.clear();
      engine.expand(sp, children);
      // Reverse push so pop_bottom explores children in canonical branch
      // order while steal_top hands thieves the oldest entries.
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        shared.in_flight.fetch_add(1, std::memory_order_acq_rel);
        deques[static_cast<std::size_t>(wid)].push_bottom(std::move(*it));
      }
    } else {
      ++split_refusals;
      engine.run_subproblem(sp);
    }
    shared.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  }
  engine.flush_nodes();
  stats_out = engine.stats();
  stats_out.steals = steals;
  stats_out.splits = splits;
  stats_out.split_refusals = split_refusals;
}

BnbResult parallel_min_makespan(const SearchContext& ctx, BnbResult seed,
                                int jobs) {
  SharedSearch shared(seed.heuristic_upper_bound, search_deadline(ctx.config));

  std::vector<WorkStealingDeque<Subproblem>> deques(
      static_cast<std::size_t>(jobs));
  {
    DfsEngine root_engine(ctx, &shared);
    root_engine.init_root();
    Subproblem root;
    root.state = root_engine.state();
    shared.in_flight.store(1, std::memory_order_relaxed);
    deques[0].push_bottom(std::move(root));
  }

  std::vector<SearchStats> per_worker(static_cast<std::size_t>(jobs));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(jobs - 1));
  for (int wid = 1; wid < jobs; ++wid) {
    threads.emplace_back([&ctx, &shared, &deques, &per_worker, wid, jobs] {
      worker_loop(ctx, shared, deques, wid, jobs,
                  per_worker[static_cast<std::size_t>(wid)]);
    });
  }
  worker_loop(ctx, shared, deques, /*wid=*/0, jobs, per_worker[0]);
  for (auto& t : threads) t.join();

  seed.makespan = shared.best.load(std::memory_order_relaxed);
  seed.nodes_explored = shared.nodes.load(std::memory_order_relaxed);
  seed.proven_optimal = !shared.aborted.load(std::memory_order_relaxed);
  seed.outcome = seed.proven_optimal ? util::Outcome::kComplete
                                     : util::Outcome::kBudgetExhausted;
  seed.worker_stats = std::move(per_worker);
  for (const SearchStats& w : seed.worker_stats) {
    seed.stats.nodes += w.nodes;
    seed.stats.prune_incumbent += w.prune_incumbent;
    seed.stats.prune_bound += w.prune_bound;
    seed.stats.prune_energy += w.prune_energy;
    seed.stats.budget_polls += w.budget_polls;
    seed.stats.steals += w.steals;
    seed.stats.splits += w.splits;
    seed.stats.split_refusals += w.split_refusals;
  }
  return seed;
}

/// Flushes one solve's aggregate telemetry into the global metrics
/// registry (no-ops when metrics are disabled; never touched per node).
void flush_search_metrics(const BnbResult& result) {
  HEDRA_METRIC("exact.bnb.solves");
  HEDRA_METRIC_ADD("exact.bnb.nodes", result.stats.nodes);
  HEDRA_METRIC_ADD("exact.bnb.prune_incumbent", result.stats.prune_incumbent);
  HEDRA_METRIC_ADD("exact.bnb.prune_bound", result.stats.prune_bound);
  HEDRA_METRIC_ADD("exact.bnb.prune_energy", result.stats.prune_energy);
  HEDRA_METRIC_ADD("exact.bnb.budget_polls", result.stats.budget_polls);
  HEDRA_METRIC_ADD("exact.bnb.steals", result.stats.steals);
  HEDRA_METRIC_ADD("exact.bnb.splits", result.stats.splits);
  HEDRA_METRIC_ADD("exact.bnb.split_refusals", result.stats.split_refusals);
}

}  // namespace

BnbResult min_makespan(const Dag& dag, int m, const BnbConfig& config) {
  HEDRA_REQUIRE(dag.num_nodes() > 0, "cannot solve an empty graph");
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  HEDRA_REQUIRE(graph::is_acyclic(dag), "cannot solve a cyclic graph");
  HEDRA_REQUIRE(dag.max_device() <= 1,
                "exact solvers model a single accelerator device; "
                "multi-device DAGs are not supported");
  const SearchContext ctx(dag, m, config);

  BnbResult result;
  result.root_lower_bound = makespan_lower_bound(dag, m);
  result.heuristic_upper_bound = best_heuristic_makespan(ctx.flat, m).makespan;
  if (result.heuristic_upper_bound == result.root_lower_bound) {
    // Root-bound shortcut: no search ran, worker_stats stays empty.
    result.makespan = result.heuristic_upper_bound;
    result.proven_optimal = true;
    flush_search_metrics(result);
    return result;
  }

  const int jobs =
      config.jobs >= 1 ? config.jobs : ThreadPool::default_workers();
  if (jobs > 1) {
    BnbResult parallel = parallel_min_makespan(ctx, result, jobs);
    flush_search_metrics(parallel);
    return parallel;
  }

  DfsEngine engine(ctx, nullptr);
  engine.set_best(result.heuristic_upper_bound);
  engine.init_root();
  engine.run(0, 0);
  result.makespan = engine.best();
  result.proven_optimal = !engine.aborted();
  result.nodes_explored = engine.nodes();
  result.outcome = result.proven_optimal ? util::Outcome::kComplete
                                         : util::Outcome::kBudgetExhausted;
  result.stats = engine.stats();
  result.worker_stats.push_back(result.stats);
  flush_search_metrics(result);
  return result;
}

std::string explain_search(const BnbResult& result) {
  std::ostringstream os;
  os << "bnb: makespan=" << result.makespan
     << (result.proven_optimal ? " (proven optimal)" : " (budget exhausted)")
     << " lb=" << result.root_lower_bound
     << " ub0=" << result.heuristic_upper_bound << "\n";
  const SearchStats& s = result.stats;
  os << "search: nodes=" << s.nodes << " prune_incumbent="
     << s.prune_incumbent << " prune_bound=" << s.prune_bound
     << " prune_energy=" << s.prune_energy
     << " budget_polls=" << s.budget_polls << " steals=" << s.steals
     << " splits=" << s.splits << " split_refusals=" << s.split_refusals
     << "\n";
  if (result.worker_stats.empty()) {
    os << "workers: none (root bound closed the gap before any search)\n";
    return os.str();
  }
  for (std::size_t w = 0; w < result.worker_stats.size(); ++w) {
    const SearchStats& ws = result.worker_stats[w];
    os << "worker " << w << ": nodes=" << ws.nodes << " prune_incumbent="
       << ws.prune_incumbent << " prune_bound=" << ws.prune_bound
       << " prune_energy=" << ws.prune_energy
       << " budget_polls=" << ws.budget_polls << " steals=" << ws.steals
       << " splits=" << ws.splits << " split_refusals=" << ws.split_refusals
       << "\n";
  }
  return os.str();
}

}  // namespace hedra::exact
