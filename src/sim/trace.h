#pragma once

/// \file trace.h
/// Execution traces produced by the scheduler simulation: which node ran on
/// which execution unit during which interval.  Traces are validated against
/// the task graph (precedence, unit capacity, placement) so that every
/// simulated schedule used in the experiments is provably well-formed.

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/dag.h"
#include "graph/flat_dag.h"
#include "graph/flat_view.h"

namespace hedra::sim {

using graph::Dag;
using graph::NodeId;
using graph::Time;

/// Execution units: host cores are 0..m-1; accelerator units map to
/// negative ids.  Unit 0 of device d keeps the historical odd negative
/// −(2d−1) (so single-unit traces are byte-identical to the pre-multiplicity
/// goldens), and the extra units u >= 1 of multi-unit devices map to the
/// even negatives below kInstantUnit through a Cantor pairing of (d−1, u−1)
/// — closed-form, injective, and independent of the platform shape.
inline constexpr int kAcceleratorUnit = -1;
/// Zero-WCET host-side nodes (v_sync, dummies) complete instantly on no
/// unit.  Zero-WCET nodes placed on an accelerator do NOT use this: they
/// queue for (and instantly release) one of their device's units, so device
/// serialisation applies to them like any other offloaded work.
inline constexpr int kInstantUnit = -2;

/// Unit u >= 0 of accelerator device d >= 1.  u = 0 gives −1, −3, −5, ...;
/// u >= 1 gives −4, −6, −8, ... via the Cantor pairing (−2 stays reserved
/// for kInstantUnit).
[[nodiscard]] constexpr int accelerator_unit(graph::DeviceId device,
                                             int unit = 0) noexcept {
  if (unit == 0) return -(2 * static_cast<int>(device) - 1);
  const long long a = static_cast<long long>(device) - 1;
  const long long b = static_cast<long long>(unit) - 1;
  return static_cast<int>(-2 * ((a + b) * (a + b + 1) / 2 + b + 2));
}

/// True iff `unit` is some accelerator device's unit (every negative id
/// except kInstantUnit).
[[nodiscard]] constexpr bool is_accelerator_unit(int unit) noexcept {
  return unit < 0 && unit != kInstantUnit;
}

/// Full inverse of accelerator_unit: (device, unit index within the
/// device); only meaningful when is_accelerator_unit.
[[nodiscard]] constexpr std::pair<graph::DeviceId, int> decode_accelerator_unit(
    int unit) noexcept {
  if ((-unit) % 2 == 1) {
    return {static_cast<graph::DeviceId>((1 - unit) / 2), 0};
  }
  const long long c = (-unit) / 2 - 2;  // Cantor code of (d−1, u−1)
  long long w = 0;
  while ((w + 1) * (w + 2) / 2 <= c) ++w;
  const long long b = c - w * (w + 1) / 2;
  return {static_cast<graph::DeviceId>(w - b + 1), static_cast<int>(b) + 1};
}

/// The device component of decode_accelerator_unit.
[[nodiscard]] constexpr graph::DeviceId device_of_unit(int unit) noexcept {
  return decode_accelerator_unit(unit).first;
}

/// The unit-index component of decode_accelerator_unit.
[[nodiscard]] constexpr int unit_index_of(int unit) noexcept {
  return decode_accelerator_unit(unit).second;
}

/// One contiguous execution of a node (the model is non-preemptive).
struct Interval {
  NodeId node = graph::kInvalidNode;
  int unit = kInstantUnit;
  Time start = 0;
  Time finish = 0;
};

/// A complete schedule of one DAG instance.  `device_units` gives the
/// number of execution units per accelerator device (index d−1 holds device
/// d); missing entries — including the default empty vector — mean one unit,
/// the paper's platform.
///
/// A trace checks itself against a CSR view of its graph.  Messages name
/// nodes by the view's source Dag's labels, or by graph::default_label when
/// the view has no source (an arena view).
class ScheduleTrace {
 public:
  /// A trace of `view`, whose arrays must outlive the trace.
  ScheduleTrace(const graph::FlatView& view, int cores,
                std::vector<int> device_units = {});

  /// A trace of `*dag`, which must be non-null and outlive the trace; the
  /// trace owns its CSR snapshot of the Dag.  Throws on a cyclic Dag.
  ScheduleTrace(const Dag* dag, int cores, std::vector<int> device_units = {});

  /// The graph the trace is checked against.
  [[nodiscard]] const graph::FlatView& view() const noexcept { return view_; }

  void add(const Interval& interval);

  /// Pre-sizes the interval storage (the simulator knows it will add
  /// exactly one interval per node).
  void reserve(std::size_t intervals) { intervals_.reserve(intervals); }

  [[nodiscard]] const std::vector<Interval>& intervals() const noexcept {
    return intervals_;
  }
  [[nodiscard]] int cores() const noexcept { return cores_; }

  /// Execution units of accelerator device d (1 when the trace was recorded
  /// on a single-unit platform).
  [[nodiscard]] int units_of(graph::DeviceId device) const noexcept {
    const std::size_t index = static_cast<std::size_t>(device) - 1;
    return index < device_units_.size() ? device_units_[index] : 1;
  }

  /// Latest finish time over all intervals (0 if empty).
  [[nodiscard]] Time makespan() const noexcept;

  /// The interval of a given node; throws if the node never executed.
  [[nodiscard]] const Interval& interval_of(NodeId node) const;

  /// Start/finish convenience accessors.
  [[nodiscard]] Time start_of(NodeId node) const {
    return interval_of(node).start;
  }
  [[nodiscard]] Time finish_of(NodeId node) const {
    return interval_of(node).finish;
  }

  /// Busy time of one unit (kAcceleratorUnit allowed).
  [[nodiscard]] Time busy_time(int unit) const noexcept;

  /// Fraction of [0, makespan] the unit was busy; 0 when makespan is 0.
  [[nodiscard]] double utilization(int unit) const noexcept;

  /// Total host-core idle time in [0, makespan].
  [[nodiscard]] Time host_idle_time() const noexcept;

  /// Checks the trace against the DAG:
  ///  - every node appears exactly once, with duration == its WCET;
  ///  - starts respect precedence (start >= max finish over predecessors);
  ///  - per-unit executions do not overlap;
  ///  - offload nodes run on one of their own device's units (unit index
  ///    below the device's unit count), host nodes on host cores, zero-WCET
  ///    host-side nodes anywhere.
  /// Returns human-readable violations; empty means valid.  Placement
  /// faults are reported in interval order, then missing or repeated nodes
  /// in node order; only a trace free of those is checked further, for
  /// precedence in (node, predecessor) order, then for overlaps in
  /// ascending unit id and start order, equal starts in insertion order.
  /// O(V + E) for unit ids that span O(V) values, as every simulator
  /// trace's do.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Same checks, but each node must have run for its entry in
  /// `expected_durations` instead of its WCET (used when simulating with
  /// actual execution times below the WCET).
  [[nodiscard]] std::vector<std::string> validate_with_durations(
      const std::vector<Time>& expected_durations) const;

  /// Canonical text serialisation: one `node unit start finish` line per
  /// interval, in insertion (scheduling-decision) order.  Two traces are
  /// byte-identical iff the simulator made the identical decisions, which is
  /// what the golden-trace regression suite pins across refactors.
  [[nodiscard]] std::string to_text() const;

 private:
  [[nodiscard]] std::string label(NodeId v) const;
  [[nodiscard]] std::vector<std::string> check(
      std::span<const Time> expected_durations) const;

  std::shared_ptr<const graph::FlatDag> snapshot_;  ///< Dag-built traces
  graph::FlatView view_;
  int cores_;
  std::vector<int> device_units_;  ///< index d−1 = units of device d
  std::vector<Interval> intervals_;
};

}  // namespace hedra::sim
