/// \file dag_tool.cpp
/// Command-line front end: load a task graph from a text file (see
/// graph/dag_io.h for the format), validate it against the paper's system
/// model, run both analyses, and optionally emit the transformed graph and
/// DOT renderings.
///
///   dag_tool --file graph.dag --m 4
///   dag_tool --file graph.dag --m 8 --dot out.dot --transformed out.dag
///   dag_tool --file multi.dag --platform 4:gpu,dsp
///   dag_tool --file multi.dag --platform "4:gpu*2,dsp"
///
/// `--platform m[:name1,name2,...]` switches to the heterogeneous Platform
/// model (m host cores + K named accelerator classes; a `*units` suffix
/// gives a class several execution units, e.g. `4:gpu*2,dsp` = a 2-unit
/// GPU and a single-unit DSP): the graph may place any number of nodes on
/// any listed device (`offload` = device 1, `offload:2` = device 2, ...),
/// and the report shows the K-device chain bound R_plat with its
/// per-device term-by-term derivation (vol_d/n_d terms and the weighted
/// chain when some n_d > 1).  When the graph also fits the paper's model
/// (exactly one offload node on a single-unit device 1), Theorem 1 and its
/// derivation are printed alongside for comparison.
///
/// Example input file:
///   node v1 1
///   node v2 4
///   node acc 6 offload
///   node v4 1
///   edge v1 v2
///   edge v1 acc
///   edge v2 v4
///   edge acc v4

#include <fstream>
#include <iostream>

#include "analysis/platform_rta.h"
#include "analysis/rta_heterogeneous.h"
#include "graph/critical_path.h"
#include "graph/dag_io.h"
#include "graph/dot.h"
#include "graph/validate.h"
#include "model/platform.h"
#include "util/cli.h"

namespace {

/// The --platform path: structural validation (any offload population),
/// device-compatibility check, and the per-device R_plat derivation.
int run_platform_report(const hedra::graph::Dag& dag,
                        const hedra::model::Platform& platform) {
  using namespace hedra;
  graph::ValidationRules rules = graph::heterogeneous_rules();
  rules.required_offload_count = -1;  // any number, any device
  auto issues = graph::validate(dag, rules);
  const auto placement = model::check_supports(platform, dag);
  issues.insert(issues.end(), placement.begin(), placement.end());
  if (!issues.empty()) {
    std::cerr << "input graph violates the platform model:\n";
    for (const auto& issue : issues) std::cerr << "  - " << issue << "\n";
    return 1;
  }

  std::cout << "graph: " << dag.num_nodes() << " nodes, " << dag.num_edges()
            << " edges, vol = " << dag.volume()
            << ", len = " << graph::critical_path_length(dag) << "\n"
            << "platform: " << platform.describe() << "\n";
  const auto analysis = analysis::analyze_platform(dag, platform);
  std::cout << analysis::explain(analysis);

  // When the task also fits the paper's single-accelerator model, show
  // Theorem 1 next to the chain bound.
  if (platform.num_devices() == 1 && !platform.has_multi_units() &&
      dag.offload_nodes().size() == 1 &&
      graph::is_valid(dag, graph::heterogeneous_rules())) {
    std::cout << "\n";
    const auto het = analysis::analyze_heterogeneous(dag, platform.cores);
    std::cout << analysis::explain(het, platform.cores);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hedra;
  ArgParser parser("dag_tool", "analyze a heterogeneous DAG task from a file");
  const auto* file = parser.add_string("file", "", "input task graph (.dag)");
  const auto* m_opt = parser.add_int(
      "m", 4, "host cores (ignored with --platform, whose spec carries m)");
  const auto* platform_opt = parser.add_string(
      "platform", "",
      "platform spec m[:dev1,dev2,...], each device optionally dev*units "
      "and/or dev@speedup (e.g. 4:gpu*2@3.0,dsp@1.5); enables the "
      "multi-device report");
  const auto* dot_out = parser.add_string(
      "dot", "", "write DOT here (of G'; of the input graph with --platform)");
  const auto* trans_out = parser.add_string(
      "transformed", "",
      "write transformed graph here (single-accelerator mode only)");
  try {
    if (!parser.parse(argc, argv)) return 0;
    if (file->empty()) {
      std::cerr << parser.usage();
      return 1;
    }
    const graph::Dag dag = graph::load_dag_file(*file);
    const int m = static_cast<int>(*m_opt);

    if (!platform_opt->empty()) {
      if (!trans_out->empty()) {
        std::cerr << "error: --transformed applies Algorithm 1, which is "
                     "defined for the single-accelerator model only; it "
                     "cannot be combined with --platform\n";
        return 1;
      }
      const auto platform = model::Platform::parse(*platform_opt);
      const int status = run_platform_report(dag, platform);
      if (status != 0) return status;
      if (!dot_out->empty()) {
        std::ofstream out(*dot_out);
        out << graph::to_dot(dag);
        std::cout << "DOT written to " << *dot_out << "\n";
      }
      return 0;
    }

    const auto issues = graph::validate(dag, graph::heterogeneous_rules());
    if (!issues.empty()) {
      std::cerr << "input graph violates the system model:\n";
      for (const auto& issue : issues) std::cerr << "  - " << issue << "\n";
      return 1;
    }

    std::cout << "graph: " << dag.num_nodes() << " nodes, " << dag.num_edges()
              << " edges, vol = " << dag.volume()
              << ", len = " << graph::critical_path_length(dag) << "\n";
    const auto analysis = analysis::analyze_heterogeneous(dag, m);
    std::cout << analysis::explain(analysis, m);

    if (!trans_out->empty()) {
      graph::save_dag_file(analysis.transformed, *trans_out);
      std::cout << "transformed graph written to " << *trans_out << "\n";
    }
    if (!dot_out->empty()) {
      graph::DotOptions options;
      for (const auto v : analysis.transform.gpar.to_indices()) {
        options.highlight.push_back(static_cast<graph::NodeId>(v));
      }
      std::ofstream out(*dot_out);
      out << graph::to_dot(analysis.transformed, options);
      std::cout << "DOT written to " << *dot_out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
