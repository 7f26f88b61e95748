#include "exp/fig6.h"

#include <limits>

#include "exp/runner.h"
#include "stats/descriptive.h"

namespace hedra::exp {

Fig6Result run_fig6(const Fig6Config& config) {
  struct Sample {
    double t_original = 0.0;
    double t_transformed = 0.0;
  };
  Runner runner(config.jobs);
  Fig6Result result;
  result.rows = runner.sweep(
      make_grid({config.ratios, config.cores, config.params,
                 config.dags_per_point, config.seed}),
      [&config](analysis::AnalysisCache& cache, int m) {
        // Validated runs on the views the bounds already use: G's arena
        // slice and the transform's snapshot of G'.  No Dag is built.
        sim::SimConfig sim_config;
        sim_config.cores = m;
        sim_config.policy = config.policy;
        return Sample{static_cast<double>(sim::simulated_makespan(
                          cache.flat_view(), sim_config)),
                      static_cast<double>(sim::simulated_makespan(
                          cache.transform().view(), sim_config))};
      },
      [](const SweepPoint& point, int m, const std::vector<Sample>& samples) {
        Fig6Row row;
        row.m = m;
        row.ratio = point.ratio;
        double sum_original = 0.0;
        double sum_transformed = 0.0;
        for (const Sample& s : samples) {
          sum_original += s.t_original;
          sum_transformed += s.t_transformed;
        }
        row.avg_original = sum_original / static_cast<double>(samples.size());
        row.avg_transformed =
            sum_transformed / static_cast<double>(samples.size());
        row.pct_change =
            stats::percentage_change(row.avg_original, row.avg_transformed);
        return row;
      });

  for (const int m : config.cores) {
    Fig6Summary summary;
    summary.m = m;
    summary.crossover_ratio = crossover_ratio(
        result.rows, m, [](const Fig6Row& r) { return r.pct_change >= 0.0; });
    summary.peak_pct = -std::numeric_limits<double>::infinity();
    if (const Fig6Row* peak = peak_row(
            result.rows, m, [](const Fig6Row& r) { return r.pct_change; })) {
      summary.peak_pct = peak->pct_change;
      summary.peak_ratio = peak->ratio;
    }
    result.summaries.push_back(summary);
  }
  return result;
}

}  // namespace hedra::exp
