#include "exp/fig10.h"

#include <algorithm>

#include "exp/runner.h"
#include "sim/scheduler.h"
#include "stats/descriptive.h"

namespace hedra::exp {

namespace {

/// Per-(DAG, m) measurements: the platform bound and one simulated makespan
/// per ready-queue policy.
struct Fig10Sample {
  double bound = 0.0;
  std::vector<double> makespans;  ///< aligned with sim::all_policies()
  double worst = 0.0;             ///< max of makespans
  bool violated = false;          ///< some makespan exceeded the bound
};

}  // namespace

Fig10Result run_fig10(const Fig10Config& config) {
  HEDRA_REQUIRE(!config.devices.empty(), "fig10 needs at least one K value");
  Runner runner(config.jobs);

  // One independently seeded ratio×cores grid per device count, stacked
  // device-major so rows come back K-major, ratio-, then m-minor.
  std::vector<SweepPoint> points;
  const auto device_seeds = batch_seeds(config.seed, config.devices.size());
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    GridSpec spec;
    spec.ratios = config.ratios;
    spec.cores = config.cores;
    spec.params = config.params;
    spec.params.num_devices = config.devices[i];
    spec.params.offloads_per_device = config.offloads_per_device;
    spec.dags_per_point = config.dags_per_point;
    spec.seed = device_seeds[i];
    const auto grid = make_grid(spec);
    points.insert(points.end(), grid.begin(), grid.end());
  }

  Fig10Result result;
  for (const auto policy : sim::all_policies()) {
    result.policy_names.emplace_back(sim::to_string(policy));
  }

  result.rows = runner.sweep(
      points,
      [](analysis::AnalysisCache& cache, int m) {
        const Frac bound = cache.r_platform(m);
        Fig10Sample sample;
        sample.bound = bound.to_double();
        sample.makespans.reserve(sim::all_policies().size());
        for (const auto policy : sim::all_policies()) {
          sim::SimConfig sim_config;
          sim_config.cores = m;
          sim_config.policy = policy;
          // The cache's arena view is shared across the whole 5-policy ×
          // 4-m sweep of this DAG (no Dag, no CSR snapshot is ever built),
          // and per-run trace validation is off in the Monte-Carlo loop —
          // the makespan-only recorder path — while the property tests
          // simulate the same policies with validation on.
          sim_config.validate = false;
          const graph::Time observed =
              sim::simulated_makespan(cache.flat_view(), sim_config);
          sample.makespans.push_back(static_cast<double>(observed));
          sample.worst = std::max(sample.worst,
                                  static_cast<double>(observed));
          if (Frac(observed) > bound) sample.violated = true;
        }
        return sample;
      },
      [](const SweepPoint& point, int m,
         const std::vector<Fig10Sample>& samples) {
        Fig10Row row;
        row.devices = point.batch.params.num_devices;
        row.ratio = point.ratio;
        row.m = m;
        const std::size_t num_policies = sim::all_policies().size();
        row.mean_makespan.assign(num_policies, 0.0);
        std::vector<double> bounds, slacks;
        bounds.reserve(samples.size());
        slacks.reserve(samples.size());
        for (const auto& sample : samples) {
          bounds.push_back(sample.bound);
          slacks.push_back(100.0 * (sample.bound - sample.worst) /
                           sample.bound);
          for (std::size_t p = 0; p < num_policies; ++p) {
            row.mean_makespan[p] +=
                sample.makespans[p] / static_cast<double>(samples.size());
          }
          row.max_sim_over_bound = std::max(row.max_sim_over_bound,
                                            sample.worst / sample.bound);
          if (sample.violated) ++row.violations;
        }
        row.mean_bound = stats::mean(bounds);
        row.mean_slack_pct = stats::mean(slacks);
        return row;
      });

  for (const int devices : config.devices) {
    for (const int m : config.cores) {
      Fig10Summary summary;
      summary.devices = devices;
      summary.m = m;
      std::vector<double> slacks;
      for (const auto& row : result.rows) {
        if (row.devices != devices || row.m != m) continue;
        summary.max_sim_over_bound =
            std::max(summary.max_sim_over_bound, row.max_sim_over_bound);
        summary.violations += row.violations;
        slacks.push_back(row.mean_slack_pct);
      }
      if (!slacks.empty()) summary.mean_slack_pct = stats::mean(slacks);
      result.summaries.push_back(summary);
    }
  }
  return result;
}

}  // namespace hedra::exp
