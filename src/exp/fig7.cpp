#include "exp/fig7.h"

#include "exp/runner.h"
#include "stats/descriptive.h"

namespace hedra::exp {

Fig7Result run_fig7(const Fig7Config& config) {
  struct Sample {
    double incr_hom = 0.0;
    double incr_het = 0.0;
    bool proven = false;
  };
  // Case-major, ratio-minor grid: each case fixes the platform and the DAG
  // size range, so every point carries its own params and a single m.
  std::vector<SweepPoint> points;
  for (const auto& c : config.cases) {
    gen::HierarchicalParams params = config.params;
    params.min_nodes = c.min_nodes;
    params.max_nodes = c.max_nodes;
    for (const double ratio : config.ratios) {
      SweepPoint point;
      point.batch.params = params;
      point.batch.coff_ratio = ratio;
      point.batch.count = config.dags_per_point;
      point.cores = {c.m};
      point.ratio = ratio;
      points.push_back(std::move(point));
    }
  }
  const auto seeds = batch_seeds(config.seed, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].batch.seed = seeds[i];
  }

  Runner runner(config.jobs);
  const exact::BnbConfig& solver = config.solver;
  Fig7Result result;
  result.rows = runner.sweep(
      points,
      [&solver](analysis::AnalysisCache& cache, int m) {
        const auto opt = exact::min_makespan(cache.original(), m, solver);
        const auto makespan = static_cast<double>(opt.makespan);
        return Sample{
            stats::percentage_change(cache.r_hom(m).to_double(), makespan),
            stats::percentage_change(cache.r_het(m).to_double(), makespan),
            opt.proven_optimal};
      },
      [](const SweepPoint& point, int m, const std::vector<Sample>& samples) {
        Fig7Row row;
        row.m = m;
        row.ratio = point.ratio;
        int proven = 0;
        double sum_hom = 0.0;
        double sum_het = 0.0;
        for (const Sample& s : samples) {
          sum_hom += s.incr_hom;
          sum_het += s.incr_het;
          if (s.proven) ++proven;
        }
        const auto n = static_cast<double>(samples.size());
        row.incr_rhom_pct = sum_hom / n;
        row.incr_rhet_pct = sum_het / n;
        row.optimal_fraction = static_cast<double>(proven) / n;
        return row;
      });
  return result;
}

}  // namespace hedra::exp
