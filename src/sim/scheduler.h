#pragma once

/// \file scheduler.h
/// Deterministic discrete-event simulation of a work-conserving scheduler on
/// m identical host cores plus the accelerator devices the DAG names (§5.2
/// simulates the paper's single accelerator; SimConfig::device_units
/// provisions n_d execution units per device id in [1, dag.max_device()],
/// one each by default).
///
/// The paper's Figure 6 simulates "the work-conserving breadth-first
/// scheduler implemented in GOMP": ready tasks enter a FIFO queue in the
/// order they become ready and free cores always take the head.  That is
/// Policy::kBreadthFirst.  Alternative ready-queue policies are provided for
/// the ablation bench — every one of them is work-conserving, so all of them
/// must respect the analytical bounds (a property test enforces this).
///
/// Every entry point here runs sim/engine.h's event loop as one task with
/// one release at t = 0 on m = SimConfig::cores cores; the engine's file
/// comment states the semantics and the readiness order the goldens pin.

#include <cstdint>

#include "graph/flat_view.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace hedra::sim {

/// Ready-queue ordering for host cores.
enum class Policy : std::uint8_t {
  kBreadthFirst,      ///< FIFO by ready time (GOMP; the paper's scheduler)
  kDepthFirst,        ///< LIFO by ready time (work-first stealing flavour)
  kCriticalPathFirst, ///< longest remaining path (down(v)) first
  kIndexOrder,        ///< smallest node id first
  kRandom,            ///< uniformly random ready node (seeded)
};

[[nodiscard]] const char* to_string(Policy policy) noexcept;

/// Every ready-queue policy, in declaration order — the ablation bench and
/// the soundness property tests sweep all of them.
[[nodiscard]] const std::vector<Policy>& all_policies() noexcept;

/// Simulation configuration.
struct SimConfig {
  int cores = 2;                  ///< m
  Policy policy = Policy::kBreadthFirst;
  std::uint64_t seed = 1;         ///< used by Policy::kRandom only
  /// Execution units per accelerator device: index d−1 holds n_d >= 1 for
  /// device d.  Devices beyond the vector — including the default empty
  /// vector — get one unit each, the paper's platform.
  std::vector<int> device_units;
  /// Re-validate the produced trace against the DAG (precedence, unit
  /// capacity, placement).  Defaults on — any violation is a hedra bug and
  /// throws — but records a trace and costs an O(n + E) pass per run, so
  /// the Monte-Carlo sweep call sites (fig10, the ablation bench, B&B
  /// heuristic seeding) switch it off; the property/golden tests keep it
  /// on.
  bool validate = true;
};

/// Number of trace validations simulations have performed in this process —
/// a test hook so the `validate` flag's honouring is observable.
[[nodiscard]] std::uint64_t validation_runs() noexcept;

/// Simulates one complete execution of the DAG (every node at its WCET) and
/// returns the trace, validated when `config.validate` is set.  Throws if
/// the DAG is cyclic or the trace fails validation (which would be a hedra
/// bug).
[[nodiscard]] ScheduleTrace simulate(const Dag& dag, const SimConfig& config);

/// Same simulation over a CSR view, which must outlive the trace — a sweep
/// snapshots the DAG once and reuses the view for every policy and core
/// count.  Validation messages name nodes by `view.source()`'s labels, or by
/// graph::default_label for an arena view.
[[nodiscard]] ScheduleTrace simulate(const graph::FlatView& view,
                                     const SimConfig& config);

/// Convenience: makespan of simulate().
[[nodiscard]] Time simulated_makespan(const Dag& dag, const SimConfig& config);

/// Makespan over a CSR view — the Monte-Carlo batch hot path.  With
/// `config.validate` off (the sweep setting) the run records no trace and
/// makes the same decisions as simulate().  With it on, the run records and
/// validates a trace.
[[nodiscard]] Time simulated_makespan(const graph::FlatView& view,
                                      const SimConfig& config);

/// Simulates with *actual* execution times (one per node, each in
/// [0, WCET]).  WCETs are upper bounds; real executions finish early, and
/// non-preemptive multiprocessor scheduling is prone to timing anomalies
/// (Graham): locally finishing early can globally lengthen the schedule.
/// The property tests use this entry point to confirm that the paper's
/// bounds — computed from WCETs — dominate every early-completion execution
/// as well.  Throws if any actual time is negative or exceeds the WCET.
[[nodiscard]] ScheduleTrace simulate_with_times(
    const Dag& dag, const SimConfig& config,
    const std::vector<Time>& actual_times);
[[nodiscard]] ScheduleTrace simulate_with_times(
    const graph::FlatView& view, const SimConfig& config,
    const std::vector<Time>& actual_times);

/// Draws actual times uniformly from [ceil(scale_min·WCET), WCET] per node
/// (zero-WCET nodes stay zero) — a convenience for anomaly sweeps.
[[nodiscard]] std::vector<Time> random_actual_times(const Dag& dag,
                                                    double scale_min,
                                                    Rng& rng);

}  // namespace hedra::sim
