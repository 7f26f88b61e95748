#pragma once

/// \file bnb.h
/// Exact minimum-makespan solver for a heterogeneous DAG task on m identical
/// host cores plus one accelerator device — hedra's substitute for the
/// paper's CPLEX ILP (§5: "an ILP formulation that computes the minimum time
/// interval needed to execute a given heterogeneous DAG task on m cores and
/// one accelerator device").  Both compute the same quantity; see DESIGN.md.
///
/// Method: depth-first branch-and-bound over *left-shifted* schedules: every
/// job starts at time 0 or at a completion event.  At each event time the
/// solver branches on starting any eligible ready job (host jobs on free
/// cores, offload jobs on the free accelerator) or on deliberately delaying
/// the remaining ready jobs to the next completion.  The delay branch is
/// required for exactness: non-delay (greedy) schedules are NOT always
/// optimal for P|prec|Cmax — see the regression test with the classic
/// counterexample.  Identical host cores are never distinguished, and
/// simultaneous starts are generated in canonical order only.
///
/// Dominance and pruning rules (proved safe in comments and DESIGN.md):
///  - with a single offload node, v_off starts the moment it is ready (the
///    accelerator has no other user, so left-shifting v_off never hurts);
///  - pruning by max(path bound, host area bound, accelerator area bound);
///  - then by the tail-energy term (bounds.h tail_energy_bound at the
///    current instant): work that must finish tail(v) before the end has
///    to fit on its resource first.  It is the same for every start branch
///    of one event time, so it is computed once per event time, lazily,
///    and counted in SearchStats::prune_energy when it alone cuts.
///
/// The ready nodes of each resource are kept as bitsets over priority
/// rank: a node's rank is its position in the node order sorted by
/// descending down(v), ties by id — the order the solver explores ready
/// nodes in.  Visiting set bits in ascending rank therefore enumerates the
/// branches in the same order the earlier sorted ready arrays did, so the
/// search tree and every counter are unchanged; a completion event saves
/// and restores a few mask words instead of copying and compacting arrays.
///
/// The search is budgeted (node count + wall clock).  On exhaustion the best
/// schedule found so far is returned with proven_optimal = false; the
/// figure-7 harness reports the fraction of instances proven optimal.  The
/// search is sequential and deterministic: the same inputs and node budget
/// explore the same tree, which the committed goldens pin.  Proven
/// makespans are those of every earlier solver; budget-truncated results
/// (node counts, unproven makespans) differ from solvers before the
/// tail-energy term, which prunes a different tree.

#include <cstdint>
#include <string>

#include "graph/dag.h"
#include "util/deadline.h"

namespace hedra::exact {

/// Search budget and options.
struct BnbConfig {
  std::uint64_t max_nodes = 20'000'000;  ///< decision nodes before giving up
  // hedra-lint: allow(float-in-bound, wall-clock budget knob, never a bound)
  double time_limit_sec = 10.0;          ///< wall-clock budget per instance
  /// External deadline (e.g. a per-request admission deadline) intersected
  /// with time_limit_sec: the search stops at whichever expires first.  The
  /// default never expires, so batch callers see no behaviour change.
  util::Deadline deadline;
  /// Must be 1.  The solver is sequential (a parallel mode never beat
  /// one thread and was removed); the field stays so that callers which
  /// set it keep compiling, and min_makespan rejects any other value.
  /// Instance-level parallelism lives in the callers (exp::Runner,
  /// bench/bnb_batch sharding).
  int jobs = 1;
};

/// Search telemetry of one solve.  Plain local counters on the search path
/// — no atomics, no locks, no clock reads — flushed once when the solve
/// ends, so recording costs a handful of register increments per node and
/// never perturbs the explored tree (output stays bit-identical to the
/// goldens).
struct SearchStats {
  std::uint64_t nodes = 0;            ///< decision nodes expanded
  /// Subtrees cut by a lower bound >= best, split by what `best` was:
  /// an incumbent some schedule completion tightened below the root
  /// heuristic, vs the initial heuristic upper bound itself.
  std::uint64_t prune_incumbent = 0;
  std::uint64_t prune_bound = 0;
  /// Of those cuts, the ones where only the tail-energy term reached the
  /// incumbent (the path and area terms alone fell short).
  std::uint64_t prune_energy = 0;
  std::uint64_t budget_polls = 0;     ///< amortised budget/clock checks
};

/// Solver outcome.
struct BnbResult {
  graph::Time makespan = 0;       ///< best (optimal if proven_optimal)
  bool proven_optimal = false;
  std::uint64_t nodes_explored = 0;
  graph::Time root_lower_bound = 0;
  graph::Time heuristic_upper_bound = 0;
  /// kComplete when optimality was proven; kBudgetExhausted when any budget
  /// (node cap, time limit, external deadline) truncated the search — the
  /// makespan is then a sound upper bound, not proven minimal.
  util::Outcome outcome = util::Outcome::kComplete;
  /// Search telemetry; all zero for the root-bound shortcut, where no
  /// search ran.
  SearchStats stats;
};

/// Minimum makespan of `dag` on m cores + 1 accelerator.  Requires an
/// acyclic, non-empty graph; any number of offload nodes is supported (they
/// share the single accelerator).
[[nodiscard]] BnbResult min_makespan(const graph::Dag& dag, int m,
                                     const BnbConfig& config = {});

/// explain()-style structured summary of a solve: the headline result and
/// the search counters — the tool for "where did the budget go" when a
/// solve is slow.
[[nodiscard]] std::string explain_search(const BnbResult& result);

}  // namespace hedra::exact
