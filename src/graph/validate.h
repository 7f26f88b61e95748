#pragma once

/// \file validate.h
/// Structural validation of task graphs against the paper's system model
/// (§2): acyclic, exactly one source and one sink, no transitive edges, and
/// at most one offloaded node.  Validation is separated from Dag mutation so
/// a graph under construction is representable.
///
/// Each rule has one implementation, shared by the `Dag` and `FlatView`
/// forms.  A view is acyclic by construction; a cyclic `Dag` has no CSR
/// snapshot, so its form reports the cycle together with every rule that
/// does not need a topological order.  Messages name nodes by label: the
/// `Dag`'s own, a view's source `Dag`'s, or — for an arena view with no
/// source — graph::default_label, the one `Dag::add_node` gives.

#include <string>
#include <vector>

#include "graph/dag.h"
#include "graph/flat_view.h"

namespace hedra::graph {

/// Which rules to check.  Defaults correspond to the paper's model.
struct ValidationRules {
  bool require_acyclic = true;
  bool require_single_source = true;
  bool require_single_sink = true;
  bool forbid_transitive_edges = true;
  /// 0, 1, or -1 for "any number" of offload nodes.
  int required_offload_count = 1;
  /// Every non-sync node must have wcet >= 1 (sync nodes are zero by
  /// construction).
  bool require_positive_wcets = true;
};

/// Human-readable list of violations; empty means valid.
[[nodiscard]] std::vector<std::string> validate(const Dag& dag,
                                                const ValidationRules& rules);
[[nodiscard]] std::vector<std::string> validate(const FlatView& view,
                                                const ValidationRules& rules);

/// True iff validate(dag, rules) is empty.
[[nodiscard]] bool is_valid(const Dag& dag, const ValidationRules& rules);

/// Throws hedra::Error listing all violations, if any.
void throw_if_invalid(const Dag& dag, const ValidationRules& rules);
void throw_if_invalid(const FlatView& view, const ValidationRules& rules);

/// Rules for a plain homogeneous DAG (no offload node expected).
[[nodiscard]] ValidationRules homogeneous_rules();

/// Rules for the paper's heterogeneous model (exactly one offload node).
[[nodiscard]] ValidationRules heterogeneous_rules();

}  // namespace hedra::graph
