#include "analysis/schedulability.h"

#include "analysis/analysis_cache.h"

namespace hedra::analysis {

const char* to_string(AnalysisKind kind) noexcept {
  switch (kind) {
    case AnalysisKind::kHomogeneous:
      return "homogeneous";
    case AnalysisKind::kHeterogeneous:
      return "heterogeneous";
    case AnalysisKind::kBest:
      return "best";
    case AnalysisKind::kPlatform:
      return "platform";
  }
  return "?";
}

namespace {

/// Fills the platform-specific report fields from a full derivation: the
/// bound plus the accelerator class whose vol_d/n_d term is largest
/// (smallest device id tie-breaks; devices with no work never dominate).
void apply_platform_analysis(SchedulabilityReport& report,
                             const PlatformAnalysis& analysis) {
  report.bound = analysis.bound;
  for (const auto& term : analysis.devices) {
    if (term.volume > 0 && term.term > report.dominating_device_term) {
      report.dominating_device = term.device;
      report.dominating_device_term = term.term;
    }
  }
}

}  // namespace

SchedulabilityReport check_schedulability(const model::DagTask& task, int m,
                                          AnalysisKind kind) {
  SchedulabilityReport report;
  report.kind = kind;
  report.deadline = task.deadline();
  switch (kind) {
    case AnalysisKind::kHomogeneous:
      report.bound = rta_homogeneous(task.dag(), m);
      break;
    case AnalysisKind::kHeterogeneous: {
      AnalysisCache cache(task.dag());
      report.bound = cache.r_het(m);
      report.scenario = cache.scenario(m);
      break;
    }
    case AnalysisKind::kBest: {
      AnalysisCache cache(task.dag());
      report.bound = frac_min(cache.r_het(m), cache.r_hom(m));
      report.scenario = cache.scenario(m);
      break;
    }
    case AnalysisKind::kPlatform: {
      const auto analysis =
          analyze_platform(task.dag(), model::platform_for(task.dag(), m));
      apply_platform_analysis(report, analysis);
      break;
    }
  }
  report.schedulable = report.bound <= Frac(task.deadline());
  return report;
}

SchedulabilityReport check_schedulability(const model::DagTask& task,
                                          const model::Platform& platform) {
  SchedulabilityReport report;
  report.kind = AnalysisKind::kPlatform;
  report.deadline = task.deadline();
  apply_platform_analysis(report, analyze_platform(task.dag(), platform));
  report.schedulable = report.bound <= Frac(task.deadline());
  return report;
}

}  // namespace hedra::analysis
