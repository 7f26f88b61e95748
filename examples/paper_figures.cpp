/// \file paper_figures.cpp
/// Regenerates the paper's illustrative figures as terminal artefacts:
///
///   Figure 1(a)  the running-example DAG          -> DOT (fig1a.dot)
///   Figure 1(b)  best-case schedule (response 8)  -> ASCII Gantt
///   Figure 1(c)  worst-case breadth-first (12)    -> ASCII Gantt
///   Figure 2(a)  transformed DAG, len = 10        -> DOT (fig2a.dot)
///   Figure 2(b)  schedule of the transformed DAG  -> ASCII Gantt
///   Figure 3     transformation walk-through      -> DOT (fig3a/fig3b.dot)
///
/// DOT files are written to the directory given by --out (default ".").
/// Render with: dot -Tpng fig1a.dot -o fig1a.png

#include <fstream>
#include <iostream>

#include "analysis/analysis_cache.h"
#include "analysis/naive.h"
#include "analysis/rta_heterogeneous.h"
#include "graph/critical_path.h"
#include "graph/dot.h"
#include "sim/gantt.h"
#include "sim/scheduler.h"
#include "util/cli.h"

namespace {

using namespace hedra;

struct Example {
  graph::Dag dag;
  graph::NodeId voff;
};

Example running_example() {
  Example ex;
  const auto v1 = ex.dag.add_node(1, graph::NodeKind::kHost, "v1");
  const auto v2 = ex.dag.add_node(4, graph::NodeKind::kHost, "v2");
  const auto v3 = ex.dag.add_node(6, graph::NodeKind::kHost, "v3");
  const auto v4 = ex.dag.add_node(2, graph::NodeKind::kHost, "v4");
  const auto v5 = ex.dag.add_node(1, graph::NodeKind::kHost, "v5");
  ex.voff = ex.dag.add_node(4, graph::NodeKind::kOffload);
  ex.dag.add_edge(v1, v2);
  ex.dag.add_edge(v1, v3);
  ex.dag.add_edge(v1, v4);
  ex.dag.add_edge(v4, ex.voff);
  ex.dag.add_edge(v2, v5);
  ex.dag.add_edge(v3, v5);
  ex.dag.add_edge(ex.voff, v5);
  return ex;
}

graph::Dag fig3_graph() {
  graph::Dag dag;
  const auto add = [&](const char* name, graph::Time wcet,
                       graph::NodeKind kind = graph::NodeKind::kHost) {
    return dag.add_node(wcet, kind, name);
  };
  const auto v1 = add("v1", 1);
  const auto v2 = add("v2", 2);
  const auto v3 = add("v3", 3);
  const auto v4 = add("v4", 2);
  const auto v5 = add("v5", 2);
  const auto v6 = add("v6", 1);
  const auto v7 = add("v7", 4);
  const auto v8 = add("v8", 2);
  const auto v9 = add("v9", 3);
  const auto v10 = add("v10", 1);
  const auto v11 = add("v11", 2);
  const auto voff = add("vOff", 5, graph::NodeKind::kOffload);
  dag.add_edge(v1, v2);
  dag.add_edge(v1, v3);
  dag.add_edge(v3, v7);
  dag.add_edge(v3, v8);
  dag.add_edge(v3, v9);
  dag.add_edge(v8, voff);
  dag.add_edge(v9, voff);
  dag.add_edge(v8, v11);
  dag.add_edge(v2, v4);
  dag.add_edge(v2, v5);
  dag.add_edge(v4, v6);
  dag.add_edge(v5, v6);
  dag.add_edge(v6, v10);
  dag.add_edge(v7, v10);
  dag.add_edge(v11, v10);
  dag.add_edge(voff, v10);
  return dag;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out.good()) throw Error("cannot write " + path);
  out << content;
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("paper_figures",
                   "regenerate the paper's illustrative figures");
  const auto* out_dir = parser.add_string("out", ".", "output directory");
  try {
    if (!parser.parse(argc, argv)) return 0;

    const Example ex = running_example();
    const int m = 2;

    // Figure 1(a).
    write_file(*out_dir + "/fig1a.dot", graph::to_dot(ex.dag));
    std::cout << "Figure 1(a): len(G) = "
              << graph::critical_path_length(ex.dag)
              << ", vol(G) = " << ex.dag.volume()
              << ", R_hom = " << analysis::rta_homogeneous(ex.dag, m)
              << ", naive (unsound) = "
              << analysis::rta_naive_subtraction(ex.dag, m) << "\n\n";

    // Figure 1(b): the best case — critical-path-first overlaps v_off.
    sim::SimConfig best;
    best.cores = m;
    best.policy = sim::Policy::kCriticalPathFirst;
    const auto trace_best = sim::simulate(ex.dag, best);
    std::cout << "Figure 1(b) best-case scheduling (response "
              << trace_best.makespan() << "):\n"
              << sim::render_gantt(trace_best, ex.dag) << "\n";

    // Figure 1(c): the worst case — breadth-first leaves the host idle.
    sim::SimConfig worst;
    worst.cores = m;
    worst.policy = sim::Policy::kBreadthFirst;
    const auto trace_worst = sim::simulate(ex.dag, worst);
    std::cout << "Figure 1(c) worst-case scheduling (response "
              << trace_worst.makespan()
              << " — exceeds the naive bound of 11):\n"
              << sim::render_gantt(trace_worst, ex.dag) << "\n";

    // Figure 2: the transformed DAG.
    const auto analysis = analysis::analyze_heterogeneous(ex.dag, m);
    graph::DotOptions highlight;
    for (const auto v : analysis.transform.gpar.to_indices()) {
      highlight.highlight.push_back(static_cast<graph::NodeId>(v));
    }
    highlight.highlight_label = "GPar";
    write_file(*out_dir + "/fig2a.dot",
               graph::to_dot(analysis.transformed, highlight));
    std::cout << "Figure 2(a): len(G') = " << analysis.len_transformed
              << ", scenario " << to_string(analysis.scenario)
              << ", R_het = " << analysis.r_het << "\n\n";
    const auto trace_trans = sim::simulate(analysis.transformed, worst);
    std::cout << "Figure 2(b) scheduling of the transformed DAG (response "
              << trace_trans.makespan() << "):\n"
              << sim::render_gantt(trace_trans, analysis.transformed) << "\n";

    // Figure 3: transformation walk-through on the 12-node example.
    const graph::Dag f3 = fig3_graph();
    write_file(*out_dir + "/fig3a.dot", graph::to_dot(f3));
    analysis::AnalysisCache f3_cache(f3);
    const analysis::TransformResult& f3t = f3_cache.transform();
    graph::DotOptions f3_options;
    for (const auto v : f3t.gpar.to_indices()) {
      f3_options.highlight.push_back(static_cast<graph::NodeId>(v));
    }
    write_file(*out_dir + "/fig3b.dot",
               graph::to_dot(f3_cache.transformed(), f3_options));
    std::cout << "Figure 3: " << f3t.edges_removed << " edges re-routed, "
              << f3t.edges_added << " added; |GPar| = " << f3t.gpar.count()
              << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
