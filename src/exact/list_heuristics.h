#pragma once

/// \file list_heuristics.h
/// Upper-bound seeding for the branch-and-bound solver: run the simulator
/// with every deterministic ready-queue policy plus a few random orderings
/// and keep the best makespan.  Critical-path-first list scheduling is
/// usually within a few percent of optimal on these graphs, which makes the
/// B&B gap small from the start.

#include "graph/flat_view.h"
#include "sim/scheduler.h"

namespace hedra::exact {

/// Result of the heuristic sweep.
struct HeuristicResult {
  graph::Time makespan = 0;
  sim::Policy policy = sim::Policy::kCriticalPathFirst;
};

/// Best makespan over all policies; `random_tries` extra random orderings.
[[nodiscard]] HeuristicResult best_heuristic_makespan(const graph::Dag& dag,
                                                      int m,
                                                      int random_tries = 4);

/// Overload over a prebuilt CSR view — the B&B solver seeds its upper
/// bound through this, sharing one snapshot across all policy runs (and
/// skipping per-run trace validation; the simulator itself is pinned by the
/// golden-trace suite).
[[nodiscard]] HeuristicResult best_heuristic_makespan(
    const graph::FlatView& view, int m, int random_tries = 4);

}  // namespace hedra::exact
