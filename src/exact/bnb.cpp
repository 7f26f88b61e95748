#include "exact/bnb.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "exact/bounds.h"
#include "exact/list_heuristics.h"
#include "exact/tail_energy.h"
#include "graph/critical_path.h"
#include "graph/flat_dag.h"
#include "obs/metrics.h"
#include "util/bitset.h"
#include "util/fault.h"

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

/// A set of ready nodes as bits over priority rank: bit r stands for
/// SearchContext::by_down[r], ceil(n/64) words.
using RankMask = std::vector<std::uint64_t>;

/// Returned by next_rank when no bit at or above `from` is set; as a
/// threshold it admits no rank at all.
constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);

/// The lowest set rank >= from, or kNoRank.  Crosses word boundaries, so
/// a threshold in one word finds the next ready node in any later word.
[[nodiscard]] std::size_t next_rank(const RankMask& mask, std::size_t from) {
  std::size_t w = from >> 6;
  if (w >= mask.size()) return kNoRank;
  std::uint64_t bits = mask[w] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w == mask.size()) return kNoRank;
    bits = mask[w];
  }
  return (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
}

void set_rank(RankMask& mask, std::size_t r) {
  mask[r >> 6] |= std::uint64_t{1} << (r & 63);
}

void clear_rank(RankMask& mask, std::size_t r) {
  mask[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
}

/// Everything a delay branch needs to restore the search state exactly,
/// recorded as a delta rather than an O(n) snapshot: retired running
/// entries, instantly-completed sync nodes, the small scalar counters and
/// the ready-mask words.  `remaining_preds` and the `started` bitset are
/// restored by replaying the deltas backwards.
struct DelayFrame {
  Time now = 0;
  int free_cores = 0;
  bool accel_free = true;
  std::size_t completed = 0;
  Time sum_finish_host = 0;
  Time sum_finish_accel = 0;
  int n_running_host = 0;
  int n_running_accel = 0;
  std::size_t down_ptr = 0;
  Time energy = 0;
  bool energy_stale = true;
  RankMask ready_host;
  RankMask ready_accel;
  std::vector<NodeId> zero_completed;
  std::vector<std::pair<std::size_t, Running>> retired;  ///< (index, entry)
};

/// Copies a mask of the same word count; a plain loop, since the usual
/// mask is one or two words and a library memmove would cost more.
void copy_mask(const RankMask& from, RankMask& to) {
  for (std::size_t w = 0; w < from.size(); ++w) to[w] = from[w];
}

/// The solve's one CSR snapshot of `dag`, which also checks acyclicity.
graph::FlatDag acyclic_snapshot(const Dag& dag) {
  try {
    return graph::FlatDag(dag);
  } catch (const Error&) {
    HEDRA_REQUIRE(false, "cannot solve a cyclic graph");
  }
}

/// Immutable per-solve context.
struct SearchContext {
  SearchContext(const Dag& dag, int m_in, const BnbConfig& config_in)
      : snapshot(acyclic_snapshot(dag)),
        view(snapshot.view()),
        m(m_in),
        config(config_in),
        down(graph::down_lengths(view)),
        by_tail(tail_order(view, down)) {
    const std::size_t n = view.num_nodes();
    by_down.resize(n);
    for (NodeId v = 0; v < n; ++v) by_down[v] = v;
    std::sort(by_down.begin(), by_down.end(),
              [this](NodeId a, NodeId b) { return prior(a, b); });
    rank.resize(n);
    for (std::size_t r = 0; r < n; ++r) rank[by_down[r]] = r;
    single_offload = view.num_offload_nodes() == 1;
  }

  /// `view` points into `snapshot`; a copy would point into the original.
  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  /// Priority order of ready nodes: critical (largest down) first.
  [[nodiscard]] bool prior(NodeId a, NodeId b) const {
    return down[a] != down[b] ? down[a] > down[b] : a < b;
  }

  FlatDag snapshot;  ///< owns the arrays `view` reads
  graph::FlatView view;
  int m;
  BnbConfig config;
  std::vector<Time> down;
  std::vector<NodeId> by_down;  ///< node ids by priority: by_down[rank]
  std::vector<std::size_t> rank;  ///< inverse of by_down
  std::vector<TailEntry> by_tail;  ///< work-carrying nodes, descending tail
  bool single_offload = false;
};

/// The full mutable search position, mutated in place with undo frames.
struct SearchState {
  Time now = 0;
  int free_cores = 0;
  bool accel_free = true;
  std::size_t completed = 0;
  Time unstarted_host_work = 0;
  Time unstarted_accel_work = 0;
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
  RankMask ready_host;   ///< ready, unstarted host nodes
  RankMask ready_accel;  ///< ready, unstarted offload nodes
  std::vector<Running> running;
  DynamicBitset started;  ///< started or finished
};

/// Local decision nodes between polls of the wall-clock budget.
constexpr std::uint64_t kBudgetPollMask = 0x3FF;  // every 1024 nodes

/// Depth-first branch-and-bound over left-shifted schedules (see bnb.h)
/// with
///  - an incrementally maintained lower bound (the path term reads the
///    first unstarted entry of a down-sorted node order instead of sweeping
///    all n nodes per search node; the area terms are running sums),
///  - a tail-energy term behind it, swept once per event time and cached
///    in the state (energy_bound()),
///  - ready sets as rank bitsets: a start clears one bit and its undo sets
///    it again, and branches walk the set bits in rank (= priority) order,
///    and
///  - an undo-based delay branch (DelayFrame) instead of a full state
///    snapshot.
class DfsEngine {
 public:
  /// Builds the root search state (time 0, sources ready) under the
  /// heuristic upper bound `best`.
  DfsEngine(const SearchContext& ctx, Time best)
      : ctx_(ctx),
        running_left_(ctx.view.num_nodes(), 0),
        best_(best),
        initial_best_(best),
        deadline_(search_deadline(ctx.config)) {
    const std::size_t n = ctx_.view.num_nodes();
    s_.remaining_preds.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      s_.remaining_preds[v] = static_cast<std::uint32_t>(ctx_.view.in_degree(v));
    }
    s_.free_cores = ctx_.m;
    s_.started = DynamicBitset(n);
    for (NodeId v = 0; v < n; ++v) {
      if (ctx_.view.wcet(v) == 0) continue;
      if (ctx_.view.device(v) != graph::kHostDevice) {
        s_.unstarted_accel_work += ctx_.view.wcet(v);
      } else {
        s_.unstarted_host_work += ctx_.view.wcet(v);
      }
    }
    s_.running.reserve(static_cast<std::size_t>(ctx_.m) + 1);
    s_.ready_host.assign((n + 63) / 64, 0);
    s_.ready_accel.assign((n + 63) / 64, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (s_.remaining_preds[v] == 0) newly_.push_back(v);
    }
    absorb(newly_, nullptr);
  }

  [[nodiscard]] Time best() const { return best_; }
  [[nodiscard]] std::uint64_t nodes() const { return nodes_; }
  [[nodiscard]] bool aborted() const { return aborted_; }

  /// The engine's telemetry so far (node count filled in from the live
  /// counter).
  [[nodiscard]] SearchStats stats() const {
    SearchStats out = stats_;
    out.nodes = nodes_;
    return out;
  }

  /// Runs the DFS from the root.
  void run() { search(0, 0); }

 private:
  /// True when the node's lower bound reaches the incumbent: first the
  /// cheap path/area terms, then the (cached) tail-energy term.  A cut is
  /// attributed to what the incumbent was — an incumbent some completed
  /// schedule tightened below the root heuristic, or the heuristic upper
  /// bound itself — and counted in prune_energy too when only the energy
  /// term reached it.
  bool prune() {
    if (lower_bound() < best_) {
      if (energy_bound() < best_) return false;
      ++stats_.prune_energy;
    }
    if (best_ < initial_best_) {
      ++stats_.prune_incumbent;
    } else {
      ++stats_.prune_bound;
    }
    return true;
  }

  /// Files newly ready nodes; zero-WCET nodes complete instantly (recorded
  /// in `zero_record` when a delay frame needs to undo them).
  void absorb(std::vector<NodeId>& newly, std::vector<NodeId>* zero_record) {
    while (!newly.empty()) {
      const NodeId v = newly.back();
      newly.pop_back();
      if (ctx_.view.wcet(v) == 0) {
        s_.started.set_unchecked(v);
        ++s_.completed;
        if (zero_record != nullptr) zero_record->push_back(v);
        for (const NodeId w : ctx_.view.successors(v)) {
          if (--s_.remaining_preds[w] == 0) newly.push_back(w);
        }
        continue;
      }
      set_rank(ctx_.view.device(v) != graph::kHostDevice ? s_.ready_accel
                                                         : s_.ready_host,
               ctx_.rank[v]);
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
    const std::size_t n = ctx_.view.num_nodes();
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
      lb = std::max(lb, r.finish + ctx_.down[r.node] - ctx_.view.wcet(r.node));
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
        if (!s_.started.test_unchecked(v)) return ctx_.view.wcet(v);
        return running_left_[v];
      };
      s_.energy = s_.now + tail_energy_sweep(ctx_.by_tail, ctx_.m,
                                             remaining_work(), left);
      s_.energy_stale = false;
      for (const Running& r : s_.running) running_left_[r.node] = 0;
    }
    return s_.energy;
  }

  /// The node budget truncates at exactly max_nodes (golden-pinned); only
  /// the steady_clock read is amortised.
  bool out_of_budget() {
    if (aborted_) return true;
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

  /// Starts the ready node of rank r now, on the accelerator or a core.
  void start_node(std::size_t r, bool on_accel) {
    const NodeId v = ctx_.by_down[r];
    s_.started.set_unchecked(v);
    const Time finish = s_.now + ctx_.view.wcet(v);
    s_.running.push_back(Running{finish, v, on_accel});
    if (on_accel) {
      clear_rank(s_.ready_accel, r);
      s_.accel_free = false;
      s_.unstarted_accel_work -= ctx_.view.wcet(v);
      s_.sum_finish_accel += finish;
      ++s_.n_running_accel;
    } else {
      clear_rank(s_.ready_host, r);
      --s_.free_cores;
      s_.unstarted_host_work -= ctx_.view.wcet(v);
      s_.sum_finish_host += finish;
      ++s_.n_running_host;
    }
  }

  void undo_start(std::size_t r, bool on_accel) {
    const NodeId v = ctx_.by_down[r];
    s_.started.reset_unchecked(v);
    HEDRA_ASSERT(!s_.running.empty() && s_.running.back().node == v);
    const Time finish = s_.running.back().finish;
    s_.running.pop_back();
    if (on_accel) {
      set_rank(s_.ready_accel, r);
      s_.accel_free = true;
      s_.unstarted_accel_work += ctx_.view.wcet(v);
      s_.sum_finish_accel -= finish;
      --s_.n_running_accel;
    } else {
      set_rank(s_.ready_host, r);
      ++s_.free_cores;
      s_.unstarted_host_work += ctx_.view.wcet(v);
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

    if (delay_depth_ == frame_pool_.size()) {
      frame_pool_.emplace_back();
      frame_pool_.back().ready_host.resize(s_.ready_host.size());
      frame_pool_.back().ready_accel.resize(s_.ready_accel.size());
    }
    DelayFrame& frame = frame_pool_[delay_depth_++];
    frame.now = s_.now;
    frame.free_cores = s_.free_cores;
    frame.accel_free = s_.accel_free;
    frame.completed = s_.completed;
    frame.sum_finish_host = s_.sum_finish_host;
    frame.sum_finish_accel = s_.sum_finish_accel;
    frame.n_running_host = s_.n_running_host;
    frame.n_running_accel = s_.n_running_accel;
    frame.down_ptr = s_.down_ptr;
    frame.energy = s_.energy;
    frame.energy_stale = s_.energy_stale;
    s_.energy_stale = true;
    copy_mask(s_.ready_host, frame.ready_host);
    copy_mask(s_.ready_accel, frame.ready_accel);
    frame.zero_completed.clear();
    frame.retired.clear();

    // Retired entries are swap-removed: the order of `running` matters to
    // nothing but the undo, which reverses each swap exactly.
    for (std::size_t i = 0; i < s_.running.size();) {
      if (s_.running[i].finish != next) {
        ++i;
        continue;
      }
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
      for (const NodeId w : ctx_.view.successors(r.node)) {
        if (--s_.remaining_preds[w] == 0) newly_.push_back(w);
      }
      s_.running[i] = s_.running.back();
      s_.running.pop_back();
    }
    s_.now = next;
    absorb(newly_, &frame.zero_completed);
  }

  /// Undoes the topmost advance_to_next_event(): scalars, ready masks,
  /// instant completions, retired running entries (back at their original
  /// positions).
  void undo_event() {
    DelayFrame& frame = frame_pool_[--delay_depth_];
    s_.now = frame.now;
    s_.free_cores = frame.free_cores;
    s_.accel_free = frame.accel_free;
    s_.completed = frame.completed;
    s_.sum_finish_host = frame.sum_finish_host;
    s_.sum_finish_accel = frame.sum_finish_accel;
    s_.n_running_host = frame.n_running_host;
    s_.n_running_accel = frame.n_running_accel;
    s_.down_ptr = frame.down_ptr;
    s_.energy = frame.energy;
    s_.energy_stale = frame.energy_stale;
    copy_mask(frame.ready_host, s_.ready_host);
    copy_mask(frame.ready_accel, s_.ready_accel);
    for (const NodeId v : frame.zero_completed) {
      s_.started.reset_unchecked(v);
      for (const NodeId w : ctx_.view.successors(v)) ++s_.remaining_preds[w];
    }
    for (auto it = frame.retired.rbegin(); it != frame.retired.rend(); ++it) {
      s_.running.push_back(it->second);
      std::swap(s_.running[it->first], s_.running.back());
      for (const NodeId w : ctx_.view.successors(it->second.node)) {
        ++s_.remaining_preds[w];
      }
    }
  }

  /// DFS over decisions at the current event time.  `min_host` / `min_accel`
  /// are rank thresholds: only ready nodes of at least that rank may still
  /// start at this time, which generates each set of simultaneous starts
  /// once, in canonical order.  The thresholds stay valid for the whole
  /// event time because no node becomes ready within it; the delay branch
  /// resets them.
  void search(std::size_t min_host, std::size_t min_accel) {
    if (out_of_budget()) return;
    ++nodes_;

    if (s_.completed == ctx_.view.num_nodes()) {
      best_ = std::min(best_, s_.now);
      return;
    }
    if (prune()) return;

    // Dominance: a lone offload node starts the moment it is ready.
    if (ctx_.single_offload && s_.accel_free) {
      const std::size_t r = next_rank(s_.ready_accel, 0);
      if (r != kNoRank) {
        const std::size_t saved_ptr = s_.down_ptr;
        start_node(r, /*on_accel=*/true);
        search(min_host, 0);
        undo_start(r, /*on_accel=*/true);
        s_.down_ptr = saved_ptr;
        return;
      }
    }

    // Branch: start a ready host node (canonical order).  The recursion
    // restores both masks before it returns, so the walk resumes past r.
    if (s_.free_cores > 0) {
      for (std::size_t r = next_rank(s_.ready_host, min_host); r != kNoRank;
           r = next_rank(s_.ready_host, r + 1)) {
        const std::size_t saved_ptr = s_.down_ptr;
        start_node(r, /*on_accel=*/false);
        // Canonical order for simultaneous starts: accelerator starts come
        // before host starts, so none are allowed after this one.
        search(r + 1, kNoRank);
        undo_start(r, /*on_accel=*/false);
        s_.down_ptr = saved_ptr;
        if (aborted_) return;
      }
    }

    // Branch: start a ready offload node (multi-offload case only; the
    // single-offload case is handled by the dominance rule above).
    if (s_.accel_free) {
      for (std::size_t r = next_rank(s_.ready_accel, min_accel); r != kNoRank;
           r = next_rank(s_.ready_accel, r + 1)) {
        const std::size_t saved_ptr = s_.down_ptr;
        start_node(r, /*on_accel=*/true);
        search(min_host, r + 1);
        undo_start(r, /*on_accel=*/true);
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
  SearchState s_;
  /// Remaining work of each running node while energy_bound() sweeps, zero
  /// otherwise.
  std::vector<Time> running_left_;

  /// One reusable frame per delay depth.  No reference to a frame is held
  /// across a recursive call, so the pool may reallocate as it grows.
  std::vector<DelayFrame> frame_pool_;
  std::size_t delay_depth_ = 0;
  std::vector<NodeId> newly_;  ///< scratch: nodes found ready, for absorb()

  Time best_ = 0;  ///< incumbent upper bound
  Time initial_best_ = 0;  ///< the root heuristic UB (prune attribution)
  std::uint64_t nodes_ = 0;
  SearchStats stats_;  ///< local counters; nodes filled in by stats()
  bool aborted_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

/// Flushes one solve's aggregate telemetry into the global metrics
/// registry (no-ops when metrics are disabled; never touched per node).
void flush_search_metrics(const BnbResult& result) {
  HEDRA_METRIC("exact.bnb.solves");
  HEDRA_METRIC_ADD("exact.bnb.nodes", result.stats.nodes);
  HEDRA_METRIC_ADD("exact.bnb.prune_incumbent", result.stats.prune_incumbent);
  HEDRA_METRIC_ADD("exact.bnb.prune_bound", result.stats.prune_bound);
  HEDRA_METRIC_ADD("exact.bnb.prune_energy", result.stats.prune_energy);
  HEDRA_METRIC_ADD("exact.bnb.budget_polls", result.stats.budget_polls);
}

}  // namespace

BnbResult min_makespan(const Dag& dag, int m, const BnbConfig& config) {
  HEDRA_REQUIRE(dag.num_nodes() > 0, "cannot solve an empty graph");
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  const SearchContext ctx(dag, m, config);  // rejects a cyclic graph
  HEDRA_REQUIRE(ctx.view.max_device() <= 1,
                "exact solvers model a single accelerator device; "
                "multi-device DAGs are not supported");
  HEDRA_REQUIRE(config.jobs == 1,
                "BnbConfig::jobs must be 1: the solver is sequential");

  BnbResult result;
  result.root_lower_bound = makespan_lower_bounds(ctx.view, m).best();
  result.heuristic_upper_bound = best_heuristic_makespan(ctx.view, m).makespan;
  if (result.heuristic_upper_bound == result.root_lower_bound) {
    // Root-bound shortcut: no search ran, the stats stay zero.
    result.makespan = result.heuristic_upper_bound;
    result.proven_optimal = true;
    flush_search_metrics(result);
    return result;
  }

  DfsEngine engine(ctx, result.heuristic_upper_bound);
  engine.run();
  result.makespan = engine.best();
  result.proven_optimal = !engine.aborted();
  result.nodes_explored = engine.nodes();
  result.outcome = result.proven_optimal ? util::Outcome::kComplete
                                         : util::Outcome::kBudgetExhausted;
  result.stats = engine.stats();
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
     << " budget_polls=" << s.budget_polls << "\n";
  if (result.proven_optimal && s.nodes == 0) {
    os << "no search: the heuristic met the root lower bound\n";
  }
  return os.str();
}

}  // namespace hedra::exact
