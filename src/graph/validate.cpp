#include "graph/validate.h"

#include <sstream>

#include "graph/algorithms.h"
#include "graph/flat_dag.h"

namespace hedra::graph {

namespace {

/// Every rule, over a Dag or a FlatView.  `transitive` holds the transitive
/// edges when they were computed (an acyclic graph and the rule on).
template <class Graph, class Label>
std::vector<std::string> check(
    const Graph& g, bool cyclic,
    const std::vector<std::pair<NodeId, NodeId>>& transitive,
    const ValidationRules& rules, const Label& label) {
  std::vector<std::string> issues;
  if (g.num_nodes() == 0) {
    issues.push_back("graph is empty");
    return issues;
  }
  if (rules.require_acyclic && cyclic) {
    issues.push_back("graph contains a cycle");
  }

  std::size_t sources = 0;
  std::size_t sinks = 0;
  std::size_t offloads = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.in_degree(v) == 0) ++sources;
    if (g.out_degree(v) == 0) ++sinks;
    if (g.device(v) != kHostDevice) ++offloads;
  }
  if (rules.require_single_source && sources != 1) {
    issues.push_back("expected exactly one source, found " +
                     std::to_string(sources));
  }
  if (rules.require_single_sink && sinks != 1) {
    issues.push_back("expected exactly one sink, found " +
                     std::to_string(sinks));
  }

  for (const auto& [u, w] : transitive) {
    std::ostringstream os;
    os << "transitive edge (" << label(u) << ", " << label(w) << ")";
    issues.push_back(os.str());
  }

  if (rules.required_offload_count >= 0 &&
      offloads != static_cast<std::size_t>(rules.required_offload_count)) {
    issues.push_back("expected " +
                     std::to_string(rules.required_offload_count) +
                     " offload node(s), found " + std::to_string(offloads));
  }

  if (rules.require_positive_wcets) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.kind(v) != NodeKind::kSync && g.wcet(v) <= 0) {
        issues.push_back("node " + label(v) + " has non-positive WCET");
      }
    }
  }
  return issues;
}

void throw_issues(const std::vector<std::string>& issues) {
  if (issues.empty()) return;
  std::ostringstream os;
  os << "invalid task graph:";
  for (const auto& issue : issues) os << "\n  - " << issue;
  throw Error(os.str());
}

}  // namespace

std::vector<std::string> validate(const Dag& dag,
                                  const ValidationRules& rules) {
  if (dag.num_nodes() > 0 && is_acyclic(dag)) {
    return validate(FlatDag(dag).view(), rules);
  }
  return check(dag, /*cyclic=*/dag.num_nodes() > 0, {}, rules,
               [&](NodeId v) { return dag.label(v); });
}

std::vector<std::string> validate(const FlatView& view,
                                  const ValidationRules& rules) {
  std::vector<std::pair<NodeId, NodeId>> transitive;
  if (rules.forbid_transitive_edges) transitive = transitive_edges(view);
  const Dag* source = view.source();
  return check(view, /*cyclic=*/false, transitive, rules, [&](NodeId v) {
    if (source != nullptr) return source->label(v);
    return default_label(v, view.device(v), view.is_sync(v));
  });
}

bool is_valid(const Dag& dag, const ValidationRules& rules) {
  return validate(dag, rules).empty();
}

void throw_if_invalid(const Dag& dag, const ValidationRules& rules) {
  throw_issues(validate(dag, rules));
}

void throw_if_invalid(const FlatView& view, const ValidationRules& rules) {
  throw_issues(validate(view, rules));
}

ValidationRules homogeneous_rules() {
  ValidationRules rules;
  rules.required_offload_count = 0;
  return rules;
}

ValidationRules heterogeneous_rules() {
  ValidationRules rules;
  rules.required_offload_count = 1;
  return rules;
}

}  // namespace hedra::graph
