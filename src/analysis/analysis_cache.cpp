#include "analysis/analysis_cache.h"

#include <algorithm>
#include <utility>

#include "graph/critical_path.h"
#include "graph/validate.h"

namespace hedra::analysis {

const Dag& AnalysisCache::original() {
  if (dag_ == nullptr) {
    materialized_ = batch_->materialize(batch_index_);
    dag_ = &*materialized_;
  }
  return *dag_;
}

const graph::FlatDag& AnalysisCache::flat() {
  if (!flat_) flat_.emplace(original());
  return *flat_;
}

graph::FlatView AnalysisCache::flat_view() {
  if (batch_ != nullptr) return view_;
  return flat().view();
}

const TransformResult& AnalysisCache::transform() {
  if (!transform_) {
    graph::FlatView view;
    try {
      view = flat_view();
    } catch (const Error&) {
      // Only a cyclic Dag has no snapshot: report it the way the Dag
      // validator does, together with every other issue.
      graph::throw_if_invalid(original(), graph::heterogeneous_rules());
      throw;
    }
    transform_ = transform_for_offload(view);
  }
  return *transform_;
}

const Dag& AnalysisCache::transformed() {
  if (!transformed_) transformed_ = transformed_dag(original(), transform());
  return *transformed_;
}

const TheoremQuantities& AnalysisCache::quantities() {
  if (!quantities_) {
    const TransformResult& t = transform();
    const graph::FlatView g = flat_view();
    const graph::FlatView gp = t.view();
    const graph::CriticalPathInfo info(gp);
    TheoremQuantities q{};
    q.len_trans = info.length();
    q.voff_critical = info.on_critical_path(gp, t.voff);
    q.vol = volume();
    q.c_off = g.wcet(t.voff);
    // len and vol of G_par, the subgraph of G induced by the mask: longest
    // paths over G's topological order through masked nodes only.
    std::vector<graph::Time> up(g.num_nodes(), 0);
    for (const NodeId v : g.topological_order()) {
      if (!t.gpar.test(v)) continue;
      graph::Time best = 0;
      for (const NodeId p : g.predecessors(v)) {
        if (t.gpar.test(p)) best = std::max(best, up[p]);
      }
      up[v] = best + g.wcet(v);
      q.len_gpar = std::max(q.len_gpar, up[v]);
      q.vol_gpar += g.wcet(v);
    }
    quantities_ = q;
  }
  return *quantities_;
}

const PlatformQuantities& AnalysisCache::platform_quantities() {
  if (!platform_quantities_) {
    platform_quantities_ = measure_platform(flat_view());
  }
  return *platform_quantities_;
}

graph::Time AnalysisCache::len_original() {
  if (!len_original_) len_original_ = graph::critical_path_length(flat_view());
  return *len_original_;
}

graph::Time AnalysisCache::volume() {
  // vol(G) = vol(G'), so this never forces the transform.
  if (!vol_original_) {
    graph::Time vol = 0;
    for (const graph::Time c : flat_view().wcets()) vol += c;
    vol_original_ = vol;
  }
  return *vol_original_;
}

Frac AnalysisCache::r_hom(int m) {
  return rta_homogeneous(len_original(), volume(), m);
}

Frac AnalysisCache::r_hom_gpar(int m) {
  return analysis::r_hom_gpar(quantities(), m);
}

Scenario AnalysisCache::scenario(int m) {
  return classify(quantities(), m);
}

Frac AnalysisCache::r_het(int m) {
  const TheoremQuantities& q = quantities();
  return evaluate(q, classify(q, m), m);
}

Frac AnalysisCache::r_platform(int m, std::span<const int> device_units,
                               std::span<const Frac> device_speedup) {
  return platform_bound(platform_quantities(), flat_view(), m, device_units,
                        device_speedup);
}

Frac AnalysisCache::r_platform(const model::Platform& platform) {
  platform.validate();
  {
    const auto issues = model::check_supports(platform, original());
    HEDRA_REQUIRE(issues.empty(),
                  "platform does not support the DAG: " + issues.front());
  }
  return r_platform(platform.cores, platform.device_units,
                    platform.device_speedup);
}

HetAnalysis AnalysisCache::assemble(int m) {
  const TheoremQuantities& q = quantities();
  HetAnalysis out;
  out.scenario = classify(q, m);
  out.r_het = evaluate(q, out.scenario, m);
  out.r_hom = r_hom(m);
  out.r_hom_gpar = r_hom_gpar(m);
  out.voff_on_critical_path = q.voff_critical;
  out.len_original = len_original();
  out.len_transformed = q.len_trans;
  out.volume = q.vol;
  out.len_gpar = q.len_gpar;
  out.vol_gpar = q.vol_gpar;
  out.c_off = q.c_off;
  return out;
}

HetAnalysis AnalysisCache::analyze(int m) & {
  HetAnalysis out = assemble(m);
  out.transform = transform();
  out.transformed = transformed();
  return out;
}

HetAnalysis AnalysisCache::analyze(int m) && {
  HetAnalysis out = assemble(m);
  (void)transformed();
  out.transform = *std::move(transform_);
  out.transformed = *std::move(transformed_);
  transform_.reset();
  transformed_.reset();
  return out;
}

}  // namespace hedra::analysis
