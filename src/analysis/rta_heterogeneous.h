#pragma once

/// \file rta_heterogeneous.h
/// The paper's contribution: response-time analysis for heterogeneous DAG
/// tasks (§4, Theorem 1), computed on the transformed DAG τ' in which
/// v_sync guarantees that G_par and v_off begin execution simultaneously.
///
/// Three execution scenarios (all bounds exact rationals):
///
///   S1   — v_off not on the critical path of G':
///          R_het = len(G') + (vol(G') − len(G') − C_off) / m          (Eq. 2)
///   S2.1 — v_off critical and C_off ≥ R_hom(G_par):
///          R_het = len(G') + (vol(G') − len(G') − vol(G_par)) / m     (Eq. 3)
///   S2.2 — v_off critical and C_off ≤ R_hom(G_par):
///          R_het = len(G') − C_off + len(G_par)
///                  + (vol(G') − len(G') − len(G_par)) / m             (Eq. 4)
///
/// S2.1 and S2.2 coincide at C_off = R_hom(G_par); we classify the tie as
/// S2.1 (the equality is covered by a regression test).  Classification uses
/// exact rational comparison, so there is no floating-point boundary noise.

#include "analysis/rta_homogeneous.h"
#include "analysis/transform.h"
#include "graph/dag.h"
#include "util/fraction.h"

namespace hedra::analysis {

/// Which case of Theorem 1 applied.
enum class Scenario {
  kS1,   ///< v_off not on the critical path of G'
  kS21,  ///< v_off critical, C_off >= R_hom(G_par)
  kS22,  ///< v_off critical, C_off <  R_hom(G_par)
};

[[nodiscard]] const char* to_string(Scenario s) noexcept;

/// Full output of the heterogeneous analysis.
struct HetAnalysis {
  Frac r_het;                ///< Theorem 1 bound on τ'
  Frac r_hom;                ///< Eq. 1 baseline on the ORIGINAL τ
  Frac r_hom_gpar;           ///< R_hom(G_par), the scenario discriminator
  Scenario scenario = Scenario::kS1;
  bool voff_on_critical_path = false;

  // Quantities entering the formulas (all on integer ticks).
  graph::Time len_original = 0;   ///< len(G)
  graph::Time len_transformed = 0;///< len(G')
  graph::Time volume = 0;         ///< vol(G) = vol(G')
  graph::Time len_gpar = 0;       ///< len(G_par)
  graph::Time vol_gpar = 0;       ///< vol(G_par)
  graph::Time c_off = 0;          ///< C_off

  TransformResult transform;      ///< the τ ⇒ τ' rewriting
  graph::Dag transformed;         ///< G' as a labelled Dag
};

/// The m-independent measurements Theorem 1 consumes, taken once per DAG by
/// AnalysisCache::quantities() (the one measurement path).  Classification
/// and evaluation are pure arithmetic on these, so a multi-m sweep measures
/// once.
struct TheoremQuantities {
  graph::Time len_trans = 0;  ///< len(G')
  graph::Time vol = 0;        ///< vol(G) = vol(G')
  graph::Time c_off = 0;      ///< C_off
  graph::Time len_gpar = 0;   ///< len(G_par)
  graph::Time vol_gpar = 0;   ///< vol(G_par)
  bool voff_critical = false; ///< v_off on a critical path of G'?
};

/// R_hom(G_par) from the measured quantities (Eq. 1 arithmetic).
[[nodiscard]] Frac r_hom_gpar(const TheoremQuantities& q, int m);

/// Scenario decision from measured quantities (exact rational comparison).
[[nodiscard]] Scenario classify(const TheoremQuantities& q, int m);

/// Theorem 1 under a given scenario from measured quantities.
[[nodiscard]] Frac evaluate(const TheoremQuantities& q, Scenario scenario,
                            int m);

/// One-call pipeline: validate, transform (Algorithm 1), classify, and
/// evaluate both R_het (Theorem 1) and the R_hom baseline.
[[nodiscard]] HetAnalysis analyze_heterogeneous(const Dag& dag, int m);

/// min(R_hom(τ), R_het(τ')): a system integrator can always choose *not* to
/// transform, so the better of the two bounds is itself a sound bound.
[[nodiscard]] Frac best_bound(const Dag& dag, int m);

/// Human-readable, term-by-term derivation of an analysis result: the
/// measured DAG quantities, the scenario decision, the equation applied and
/// each of its terms.  Meant for tooling output (see examples/dag_tool) and
/// for certification evidence trails.
[[nodiscard]] std::string explain(const HetAnalysis& analysis, int m);

}  // namespace hedra::analysis
