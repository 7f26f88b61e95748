/// \file quickstart.cpp
/// hedra in five minutes: build a heterogeneous DAG task, run the
/// homogeneous baseline (Eq. 1), transform it (Algorithm 1), run the
/// heterogeneous analysis (Theorem 1), and check schedulability.
///
/// The task graph is the paper's running example (Figure 1): five host
/// nodes plus one node offloaded to an accelerator (GPU/FPGA/DSP).

#include <iostream>

#include "analysis/naive.h"
#include "analysis/schedulability.h"
#include "graph/critical_path.h"
#include "model/task.h"
#include "sim/gantt.h"
#include "sim/scheduler.h"

int main() {
  using namespace hedra;

  // 1. Build the task graph: nodes carry WCETs; one node is offloaded.
  graph::Dag dag;
  const auto v1 = dag.add_node(1, graph::NodeKind::kHost, "v1");
  const auto v2 = dag.add_node(4, graph::NodeKind::kHost, "v2");
  const auto v3 = dag.add_node(6, graph::NodeKind::kHost, "v3");
  const auto v4 = dag.add_node(2, graph::NodeKind::kHost, "v4");
  const auto v5 = dag.add_node(1, graph::NodeKind::kHost, "v5");
  const auto voff = dag.add_node(4, graph::NodeKind::kOffload, "vOff");
  dag.add_edge(v1, v2);
  dag.add_edge(v1, v3);
  dag.add_edge(v1, v4);
  dag.add_edge(v4, voff);
  dag.add_edge(v2, v5);
  dag.add_edge(v3, v5);
  dag.add_edge(voff, v5);

  const int m = 2;  // host cores (plus one accelerator, implicit)
  std::cout << "Task graph: " << dag.num_nodes() << " nodes, "
            << dag.num_edges() << " edges\n"
            << "vol(G) = " << dag.volume()
            << ", len(G) = " << graph::critical_path_length(dag) << "\n\n";

  // 2. Homogeneous baseline (Eq. 1) — sound but ignores the accelerator.
  const Frac r_hom = analysis::rta_homogeneous(dag, m);
  std::cout << "R_hom  (Eq. 1, m=" << m << ")          = " << r_hom << "\n";

  // 3. What NOT to do: subtracting C_off without a guarantee (§3.2).
  std::cout << "naive subtraction (UNSOUND) = "
            << analysis::rta_naive_subtraction(dag, m)
            << "   <- violated by the schedule below\n";

  // 4. The paper's analysis: transform, classify, bound (Theorem 1).
  const auto analysis = analysis::analyze_heterogeneous(dag, m);
  std::cout << "R_het  (Theorem 1, scenario " << to_string(analysis.scenario)
            << ") = " << analysis.r_het << "\n\n";

  // 5. Watch both graphs execute under the GOMP-style breadth-first
  //    work-conserving scheduler.
  sim::SimConfig config;
  config.cores = m;
  const auto trace_orig = sim::simulate(dag, config);
  std::cout << "breadth-first schedule of tau (makespan "
            << trace_orig.makespan() << ", exceeds the naive bound):\n"
            << sim::render_gantt(trace_orig, dag) << "\n";
  const auto& transformed = analysis.transformed;
  const auto trace_trans = sim::simulate(transformed, config);
  std::cout << "breadth-first schedule of tau' (makespan "
            << trace_trans.makespan() << " <= R_het = " << analysis.r_het
            << "):\n"
            << sim::render_gantt(trace_trans, transformed) << "\n";

  // 6. Schedulability verdict for a deadline of 12.
  const model::DagTask task(dag, /*period=*/20, /*deadline=*/12, "quickstart");
  const auto hom_report = analysis::check_schedulability(
      task, m, analysis::AnalysisKind::kHomogeneous);
  const auto het_report = analysis::check_schedulability(
      task, m, analysis::AnalysisKind::kHeterogeneous);
  std::cout << "deadline 12: homogeneous analysis says "
            << (hom_report.schedulable ? "SCHEDULABLE" : "NOT schedulable")
            << ", heterogeneous analysis says "
            << (het_report.schedulable ? "SCHEDULABLE" : "NOT schedulable")
            << "\n";
  return 0;
}
