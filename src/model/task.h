#pragma once

/// \file task.h
/// The sporadic DAG task model (§2): `τ = <G, T, D>` where G models the
/// parallel execution, T is the minimum inter-arrival time, and D <= T is the
/// constrained relative deadline.

#include <cstdint>
#include <memory>
#include <string>

#include "graph/dag.h"
#include "graph/flat_batch.h"

namespace hedra::model {

using graph::Dag;
using graph::NodeId;
using graph::Time;

/// A sporadic DAG task.
///
/// Two storage modes share one API:
///   - *eager*: constructed from a `Dag`, held behind a shared pointer so
///     copies of the task alias one immutable graph (the classic path —
///     file round-trips, hand-built tests, rewrites).  Copying a task costs
///     a reference-count bump, not a graph copy.  The graph never changes:
///     a rewrite builds a new task from an edited copy of dag();
///   - *arena-backed*: constructed from a shared `graph::FlatDagBatch`
///     record.  The CSR arrays ARE the task's graph; `dag()` materialises a
///     field-identical `Dag` lazily, only if something actually asks for
///     the mutable adjacency-list form.  The taskset generator emits these,
///     and the contention analysis and taskset simulator run off
///     `flat_view()` without ever building a `Dag`.
class DagTask {
 public:
  /// Builds τ = <G, T, D>.  Requires T >= D >= 1 (constrained deadline).
  DagTask(Dag dag, Time period, Time deadline, std::string name = "tau");

  /// Arena-backed task: record `index` of `batch` is the graph.  The batch
  /// is shared (copies of the task stay cheap and alias the same arrays);
  /// `dag()` materialises on demand.
  DagTask(std::shared_ptr<const graph::FlatDagBatch> batch, std::size_t index,
          Time period, Time deadline, std::string name = "tau");

  /// Implicit-deadline convenience (D = T).
  static DagTask implicit(Dag dag, Time period, std::string name = "tau");

  /// The task graph.  Arena-backed tasks materialise it on first call
  /// (field-identical to the record: same wcets, devices, labels and edge
  /// order).  Not thread-safe across concurrent first calls on the SAME
  /// task object.
  [[nodiscard]] const Dag& dag() const;

  /// True when the task still aliases its generation arena, i.e.
  /// flat_view() is available without materialising anything.
  [[nodiscard]] bool has_flat_view() const noexcept {
    return batch_ != nullptr;
  }

  /// CSR view of the arena record.  Requires has_flat_view().
  [[nodiscard]] graph::FlatView flat_view() const;
  [[nodiscard]] Time period() const noexcept { return period_; }
  [[nodiscard]] Time deadline() const noexcept { return deadline_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  /// Present for eager tasks; lazily filled for arena-backed ones.  Shared
  /// between copies, which is safe because no one writes to it.
  mutable std::shared_ptr<const Dag> dag_;
  std::shared_ptr<const graph::FlatDagBatch> batch_;  ///< null when eager
  std::size_t batch_index_ = 0;
  Time period_;
  Time deadline_;
  std::string name_;
};

}  // namespace hedra::model
