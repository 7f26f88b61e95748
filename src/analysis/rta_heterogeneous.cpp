#include "analysis/rta_heterogeneous.h"

#include <sstream>

#include "analysis/analysis_cache.h"
#include "util/strings.h"

namespace hedra::analysis {

const char* to_string(Scenario s) noexcept {
  switch (s) {
    case Scenario::kS1:
      return "S1";
    case Scenario::kS21:
      return "S2.1";
    case Scenario::kS22:
      return "S2.2";
  }
  return "?";
}

Frac r_hom_gpar(const TheoremQuantities& q, int m) {
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  // Eq. 1 on the cached len/vol; an empty G_par yields 0, matching
  // rta_homogeneous on an empty DAG.
  return rta_homogeneous(q.len_gpar, q.vol_gpar, m);
}

Scenario classify(const TheoremQuantities& q, int m) {
  if (!q.voff_critical) return Scenario::kS1;
  // Exact rational comparison; the C_off == R_hom(G_par) tie goes to S2.1
  // (Eqs. 3 and 4 agree there, see the equivalence test).
  return Frac(q.c_off) >= r_hom_gpar(q, m) ? Scenario::kS21 : Scenario::kS22;
}

Frac evaluate(const TheoremQuantities& q, Scenario scenario, int m) {
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  const Frac len(q.len_trans);
  switch (scenario) {
    case Scenario::kS1:
      // Eq. 2: v_off's workload can never delay the critical path, because
      // len(G_par) > C_off guarantees the host outlasts the accelerator.
      return len + Frac(q.vol - q.len_trans - q.c_off, m);
    case Scenario::kS21:
      // Eq. 3: the accelerator outlasts G_par, so all of vol(G_par) runs
      // strictly in parallel with v_off and generates no interference.
      return len + Frac(q.vol - q.len_trans - q.vol_gpar, m);
    case Scenario::kS22:
      // Eq. 4: v_off is critical but finishes before G_par can; replace
      // C_off by R_hom(G_par) on the critical path and drop vol(G_par) from
      // the interference term (it would otherwise be counted twice).
      return len - Frac(q.c_off) + Frac(q.len_gpar) +
             Frac(q.vol - q.len_trans - q.len_gpar, m);
  }
  throw InternalError("unreachable scenario");
}

HetAnalysis analyze_heterogeneous(const Dag& dag, int m) {
  return AnalysisCache(dag).analyze(m);
}

Frac best_bound(const Dag& dag, int m) {
  AnalysisCache cache(dag);
  return frac_min(cache.r_het(m), cache.r_hom(m));
}

std::string explain(const HetAnalysis& analysis, int m) {
  std::ostringstream os;
  os << "heterogeneous DAG analysis (m = " << m << " cores + 1 accelerator)\n"
     << "  measured:  len(G) = " << analysis.len_original
     << ", len(G') = " << analysis.len_transformed
     << ", vol = " << analysis.volume << ", C_off = " << analysis.c_off
     << "\n"
     << "  G_par:     |V| = " << analysis.transform.gpar.count()
     << ", len = " << analysis.len_gpar << ", vol = " << analysis.vol_gpar
     << ", R_hom(G_par) = " << analysis.r_hom_gpar << "\n"
     << "  scenario:  v_off "
     << (analysis.voff_on_critical_path ? "on" : "not on")
     << " the critical path of G'";
  if (analysis.voff_on_critical_path) {
    os << "; C_off " << (Frac(analysis.c_off) >= analysis.r_hom_gpar ? ">=" : "<")
       << " R_hom(G_par)";
  }
  os << " -> " << to_string(analysis.scenario) << "\n";
  switch (analysis.scenario) {
    case Scenario::kS1:
      os << "  Eq. 2:     R_het = len(G') + (vol - len(G') - C_off)/m = "
         << analysis.len_transformed << " + ("
         << analysis.volume - analysis.len_transformed - analysis.c_off
         << ")/" << m << " = " << analysis.r_het << "\n";
      break;
    case Scenario::kS21:
      os << "  Eq. 3:     R_het = len(G') + (vol - len(G') - vol(G_par))/m = "
         << analysis.len_transformed << " + ("
         << analysis.volume - analysis.len_transformed - analysis.vol_gpar
         << ")/" << m << " = " << analysis.r_het << "\n";
      break;
    case Scenario::kS22:
      os << "  Eq. 4:     R_het = len(G') - C_off + len(G_par) + (vol - "
            "len(G') - len(G_par))/m = "
         << analysis.len_transformed << " - " << analysis.c_off << " + "
         << analysis.len_gpar << " + ("
         << analysis.volume - analysis.len_transformed - analysis.len_gpar
         << ")/" << m << " = " << analysis.r_het << "\n";
      break;
  }
  os << "  baseline:  R_hom (Eq. 1) = " << analysis.r_hom << "\n"
     << "  verdict:   R_het " << (analysis.r_het <= analysis.r_hom ? "<=" : ">")
     << " R_hom";
  if (analysis.r_hom != Frac(0)) {
    os << " ("
       << format_percent(100.0 * (analysis.r_hom.to_double() -
                                  analysis.r_het.to_double()) /
                             analysis.r_het.to_double(),
                         1)
       << " tighter)";
  }
  os << "\n";
  return os.str();
}

}  // namespace hedra::analysis
