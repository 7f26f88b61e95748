#pragma once

/// \file fixtures.h
/// Shared task-graph fixtures for the test suite, including the paper's
/// running example (Figures 1 and 2) reconstructed so that every number the
/// text states is reproduced, and the transformation walk-through of
/// Figure 3.

#include <map>
#include <string>

#include "graph/dag.h"

namespace hedra::testing {

using graph::Dag;
using graph::NodeId;
using graph::NodeKind;

/// Node handles of the running example.
struct PaperExample {
  Dag dag;
  NodeId v1, v2, v3, v4, v5, voff;
};

/// The heterogeneous DAG of Figure 1(a).  WCETs: C1=1, C2=4, C3=6, C4=2,
/// C5=1, C_off=4.  Verified properties (all stated in the paper):
///  - vol(G) = 18, len(G) = 8 with critical path {v1, v3, v5};
///  - R_hom (m=2) = 8 + (18-8)/2 = 13;
///  - the unsafe §3.2 bound = 8 + (18-8-4)/2 = 11;
///  - breadth-first execution on m=2 reaches response time 12 (Fig. 1(c)),
///    exceeding the unsafe bound;
///  - after Algorithm 1, len(G') = 10 (Fig. 2(a)) and the breadth-first
///    schedule of τ' finishes at 10 (Fig. 2(b));
///  - G_par = {v2, v3}; Theorem 1 applies Scenario 1 giving R_het = 12.
inline PaperExample paper_example() {
  PaperExample ex;
  ex.v1 = ex.dag.add_node(1, NodeKind::kHost, "v1");
  ex.v2 = ex.dag.add_node(4, NodeKind::kHost, "v2");
  ex.v3 = ex.dag.add_node(6, NodeKind::kHost, "v3");
  ex.v4 = ex.dag.add_node(2, NodeKind::kHost, "v4");
  ex.v5 = ex.dag.add_node(1, NodeKind::kHost, "v5");
  ex.voff = ex.dag.add_node(4, NodeKind::kOffload, "vOff");
  ex.dag.add_edge(ex.v1, ex.v2);
  ex.dag.add_edge(ex.v1, ex.v3);
  ex.dag.add_edge(ex.v1, ex.v4);
  ex.dag.add_edge(ex.v4, ex.voff);
  ex.dag.add_edge(ex.v2, ex.v5);
  ex.dag.add_edge(ex.v3, ex.v5);
  ex.dag.add_edge(ex.voff, ex.v5);
  return ex;
}

/// Node handles of the Figure 3 transformation walk-through.
struct Fig3Example {
  Dag dag;
  std::map<std::string, NodeId> by_name;
  NodeId id(const std::string& name) const { return by_name.at(name); }
};

/// A 12-node DAG consistent with every edge move Figure 3 describes:
/// direct predecessors v8, v9 of v_off; (v8, v11) re-parented under v_sync;
/// indirect-predecessor edges (v1, v2) and (v3, v7) re-parented; G_par =
/// {v2, v4, v5, v6, v7, v11}.
inline Fig3Example fig3_example() {
  Fig3Example ex;
  const auto add = [&](const std::string& name, graph::Time wcet,
                       NodeKind kind = NodeKind::kHost) {
    ex.by_name[name] = ex.dag.add_node(wcet, kind, name);
  };
  add("v1", 1);
  add("v2", 2);
  add("v3", 3);
  add("v4", 2);
  add("v5", 2);
  add("v6", 1);
  add("v7", 4);
  add("v8", 2);
  add("v9", 3);
  add("v10", 1);
  add("v11", 2);
  add("vOff", 5, NodeKind::kOffload);
  const auto edge = [&](const std::string& a, const std::string& b) {
    ex.dag.add_edge(ex.id(a), ex.id(b));
  };
  edge("v1", "v2");    // pink: moved under v_sync
  edge("v1", "v3");
  edge("v3", "v7");    // pink: moved under v_sync
  edge("v3", "v8");
  edge("v3", "v9");
  edge("v8", "vOff");  // replaced by (v8, v_sync)
  edge("v9", "vOff");  // replaced by (v9, v_sync)
  edge("v8", "v11");   // black: moved under v_sync
  edge("v2", "v4");
  edge("v2", "v5");
  edge("v4", "v6");
  edge("v5", "v6");
  edge("v6", "v10");
  edge("v7", "v10");
  edge("v11", "v10");
  edge("vOff", "v10");
  return ex;
}

/// Chain v1(1) -> v_off(c_off) -> v3(1) plus one parallel node p(1):
/// after transformation v_off is critical and C_off >= R_hom(G_par),
/// i.e. Scenario 2.1, whenever c_off >= 1.
inline Dag s21_example(graph::Time c_off = 10) {
  Dag dag;
  const NodeId v1 = dag.add_node(1, NodeKind::kHost, "v1");
  const NodeId p = dag.add_node(1, NodeKind::kHost, "p");
  const NodeId voff = dag.add_node(c_off, NodeKind::kOffload, "vOff");
  const NodeId v3 = dag.add_node(1, NodeKind::kHost, "v3");
  dag.add_edge(v1, voff);
  dag.add_edge(v1, p);
  dag.add_edge(p, v3);
  dag.add_edge(voff, v3);
  return dag;
}

/// v1(1) -> {p1..p4 (2 each), v_off(c_off)} -> v6(1) (after transformation).
/// G_par is wide: len(G_par) = 2, vol(G_par) = 8; with m=2,
/// R_hom(G_par) = 5.  c_off in [2, 5) yields Scenario 2.2; c_off = 5 the
/// S2.1/S2.2 boundary; c_off > 5 Scenario 2.1.
inline Dag wide_gpar_example(graph::Time c_off) {
  Dag dag;
  const NodeId v1 = dag.add_node(1, NodeKind::kHost, "v1");
  const NodeId voff = dag.add_node(c_off, NodeKind::kOffload, "vOff");
  const NodeId v6 = dag.add_node(1, NodeKind::kHost, "v6");
  dag.add_edge(v1, voff);
  dag.add_edge(voff, v6);
  for (int i = 0; i < 4; ++i) {
    const NodeId p =
        dag.add_node(2, NodeKind::kHost, "p" + std::to_string(i + 1));
    dag.add_edge(v1, p);
    dag.add_edge(p, v6);
  }
  return dag;
}

/// A simple diamond: v1 -> {a, b} -> v4 with the given WCETs.
inline Dag diamond(graph::Time c1, graph::Time ca, graph::Time cb,
                   graph::Time c4) {
  Dag dag;
  const NodeId v1 = dag.add_node(c1, NodeKind::kHost, "v1");
  const NodeId a = dag.add_node(ca, NodeKind::kHost, "a");
  const NodeId b = dag.add_node(cb, NodeKind::kHost, "b");
  const NodeId v4 = dag.add_node(c4, NodeKind::kHost, "v4");
  dag.add_edge(v1, a);
  dag.add_edge(v1, b);
  dag.add_edge(a, v4);
  dag.add_edge(b, v4);
  return dag;
}

/// Node handles of the two-device platform example.
struct MultiDeviceExample {
  Dag dag;
  NodeId src, a, gpu, dsp, b, snk;
};

/// A single-source/sink DAG spanning two accelerator classes:
///   src(2) -> {a(8) -> b(4), gpu(6) on device 1, dsp(5) on device 2},
///   gpu -> b, {b, dsp} -> snk(3).
/// Hand-checked quantities: vol = 28, vol_host = 17, vol_d1 = 6, vol_d2 = 5,
/// max host path = src+a+b+snk = 17, so the K-device chain bound is
/// R_plat(m) = 17/m + 11 + 17·(m−1)/m  (= 28 for every m — the host chain
/// dominates exactly).
inline MultiDeviceExample multi_device_example() {
  MultiDeviceExample ex;
  ex.src = ex.dag.add_node(2, NodeKind::kHost, "src");
  ex.a = ex.dag.add_node(8, NodeKind::kHost, "a");
  ex.gpu = ex.dag.add_node_on(6, 1, "gpu");
  ex.dsp = ex.dag.add_node_on(5, 2, "dsp");
  ex.b = ex.dag.add_node(4, NodeKind::kHost, "b");
  ex.snk = ex.dag.add_node(3, NodeKind::kHost, "snk");
  ex.dag.add_edge(ex.src, ex.a);
  ex.dag.add_edge(ex.src, ex.gpu);
  ex.dag.add_edge(ex.src, ex.dsp);
  ex.dag.add_edge(ex.a, ex.b);
  ex.dag.add_edge(ex.gpu, ex.b);
  ex.dag.add_edge(ex.b, ex.snk);
  ex.dag.add_edge(ex.dsp, ex.snk);
  return ex;
}

/// A chain of `n` host nodes with the given per-node WCET.
inline Dag chain(int n, graph::Time wcet) {
  Dag dag;
  NodeId prev = graph::kInvalidNode;
  for (int i = 0; i < n; ++i) {
    const NodeId v = dag.add_node(wcet);
    if (prev != graph::kInvalidNode) dag.add_edge(prev, v);
    prev = v;
  }
  return dag;
}

/// `n` independent host nodes of WCET `wcet` joining one host sink of WCET
/// `sink_wcet`: every source must finish `sink_wcet` before the end, which
/// the tail-energy bound sees and the path/area bounds do not.
inline Dag fan_in(int n, graph::Time wcet, graph::Time sink_wcet) {
  Dag dag;
  const NodeId sink = dag.add_node(sink_wcet);
  for (int i = 0; i < n; ++i) dag.add_edge(dag.add_node(wcet), sink);
  return dag;
}

}  // namespace hedra::testing
