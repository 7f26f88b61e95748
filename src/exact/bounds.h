#pragma once

/// \file bounds.h
/// Lower bounds on the minimum makespan of a heterogeneous DAG on m host
/// cores plus its accelerator devices (one unit each).  Used to seed and
/// prune the branch-and-bound solver and as test oracles
/// (LB <= OPT <= any schedule).  Unlike the exact solvers, which model a
/// single accelerator, these bounds are sound for any device count.

#include "graph/dag.h"
#include "graph/flat_view.h"

namespace hedra::exact {

using graph::Dag;
using graph::Time;

/// The individual bounds, exposed for testing/reporting.
struct LowerBounds {
  Time critical_path = 0;  ///< len(G): precedence bound
  Time host_area = 0;      ///< ceil(vol_host / m): host capacity bound
  Time accel_area = 0;     ///< max_d vol_d: busiest device serialises its work
  [[nodiscard]] Time best() const noexcept;
};

/// Computes all bounds.  Requires m >= 1, acyclic input.
[[nodiscard]] LowerBounds makespan_lower_bounds(const graph::FlatView& view,
                                                int m);
/// The same over a snapshot of `dag`.
[[nodiscard]] LowerBounds makespan_lower_bounds(const Dag& dag, int m);

/// max of the individual bounds.
[[nodiscard]] Time makespan_lower_bound(const Dag& dag, int m);

/// Tail-energy bound: a node v with tail(v) = down(v) - C(v) >= q must
/// finish by T - q, so all work of such nodes fits before T - q on its
/// resource.  With W_host(q) and W_d(q) their host and device-d volumes,
///   T >= q + ceil(W_host(q) / m)   and   T >= q + W_d(q)   for every q,
/// one unit per device as above.  At q = 0 these are the area bounds, so
/// this generalises host_area and accel_area (not critical_path).  Requires
/// m >= 1, acyclic input.
[[nodiscard]] Time tail_energy_bound(const Dag& dag, int m);

}  // namespace hedra::exact
