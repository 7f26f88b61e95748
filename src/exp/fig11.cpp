#include "exp/fig11.h"

#include <algorithm>

#include "exp/runner.h"
#include "sim/scheduler.h"
#include "stats/descriptive.h"

namespace hedra::exp {

namespace {

/// Per-(DAG, m, units) measurements: the generalised platform bound and one
/// simulated makespan per ready-queue policy on n_d units per device.
struct UnitsSample {
  double bound = 0.0;
  std::vector<double> makespans;  ///< aligned with sim::all_policies()
  double worst = 0.0;             ///< max of makespans
  bool violated = false;          ///< some makespan exceeded the bound
};

/// Per-(DAG, m) measurements across every swept unit count; the single-unit
/// reference bound is computed once per (DAG, m) regardless of the grid.
struct Fig11Sample {
  double bound_single = 0.0;
  std::vector<UnitsSample> per_units;  ///< aligned with config.units
};

}  // namespace

Fig11Result run_fig11(const Fig11Config& config) {
  HEDRA_REQUIRE(config.devices >= 1, "fig11 needs at least one device class");
  // The swept axis: explicit per-class unit vectors, or the symmetric
  // expansion of `units` (the historical grid, byte-identical output).
  std::vector<std::vector<int>> swept;
  if (!config.unit_vectors.empty()) {
    for (const auto& vec : config.unit_vectors) {
      HEDRA_REQUIRE(vec.size() == static_cast<std::size_t>(config.devices),
                    "every unit vector needs one entry per device class");
      for (const int units : vec) {
        HEDRA_REQUIRE(units >= 1, "unit counts must be >= 1");
      }
      swept.push_back(vec);
    }
  } else {
    HEDRA_REQUIRE(!config.units.empty(),
                  "fig11 needs at least one unit count");
    for (const int units : config.units) {
      HEDRA_REQUIRE(units >= 1, "unit counts must be >= 1");
      swept.emplace_back(static_cast<std::size_t>(config.devices), units);
    }
  }
  // -1 labels a genuinely asymmetric vector; all-equal vectors keep the
  // symmetric integer so historical rows are unchanged field-for-field.
  const auto units_label = [](const std::vector<int>& vec) {
    const bool symmetric =
        std::all_of(vec.begin(), vec.end(),
                    [&vec](int units) { return units == vec.front(); });
    return symmetric ? vec.front() : -1;
  };
  Runner runner(config.jobs);

  GridSpec spec;
  spec.ratios = config.ratios;
  spec.cores = config.cores;
  spec.params = config.params;
  spec.params.num_devices = config.devices;
  spec.params.offloads_per_device = config.offloads_per_device;
  spec.dags_per_point = config.dags_per_point;
  spec.seed = config.seed;
  const auto points = make_grid(spec);

  Fig11Result result;
  result.devices = config.devices;
  for (const auto policy : sim::all_policies()) {
    result.policy_names.emplace_back(sim::to_string(policy));
  }

  const auto cells = runner.sweep(
      points,
      [&config, &swept](analysis::AnalysisCache& cache, int m) {
        Fig11Sample sample;
        sample.bound_single = cache.r_platform(m).to_double();
        sample.per_units.reserve(swept.size());
        for (const std::vector<int>& device_units : swept) {
          const Frac bound = cache.r_platform(m, device_units);
          UnitsSample us;
          us.bound = bound.to_double();
          us.makespans.reserve(sim::all_policies().size());
          for (const auto policy : sim::all_policies()) {
            sim::SimConfig sim_config;
            sim_config.cores = m;
            sim_config.policy = policy;
            sim_config.device_units = device_units;
            // Shared arena view, Monte-Carlo validation off (the
            // makespan-only recorder path) — the property tests simulate
            // the same unit counts with validation on.
            sim_config.validate = false;
            const graph::Time observed =
                sim::simulated_makespan(cache.flat_view(), sim_config);
            us.makespans.push_back(static_cast<double>(observed));
            us.worst = std::max(us.worst, static_cast<double>(observed));
            if (Frac(observed) > bound) us.violated = true;
          }
          sample.per_units.push_back(std::move(us));
        }
        return sample;
      },
      [&swept, &units_label](const SweepPoint& point, int m,
                             const std::vector<Fig11Sample>& samples) {
        // One row per swept unit count for this (ratio, m) cell.
        std::vector<Fig11Row> rows;
        const std::size_t num_policies = sim::all_policies().size();
        for (std::size_t ui = 0; ui < swept.size(); ++ui) {
          Fig11Row row;
          row.units = units_label(swept[ui]);
          row.unit_vector = swept[ui];
          row.ratio = point.ratio;
          row.m = m;
          row.mean_makespan.assign(num_policies, 0.0);
          std::vector<double> bounds, bounds_single, slacks;
          bounds.reserve(samples.size());
          bounds_single.reserve(samples.size());
          slacks.reserve(samples.size());
          for (const auto& sample : samples) {
            const UnitsSample& us = sample.per_units[ui];
            bounds.push_back(us.bound);
            bounds_single.push_back(sample.bound_single);
            slacks.push_back(100.0 * (us.bound - us.worst) / us.bound);
            for (std::size_t p = 0; p < num_policies; ++p) {
              row.mean_makespan[p] +=
                  us.makespans[p] / static_cast<double>(samples.size());
            }
            row.max_sim_over_bound =
                std::max(row.max_sim_over_bound, us.worst / us.bound);
            if (us.violated) ++row.violations;
          }
          row.mean_bound = stats::mean(bounds);
          row.mean_bound_single = stats::mean(bounds_single);
          row.mean_slack_pct = stats::mean(slacks);
          rows.push_back(std::move(row));
        }
        return rows;
      });
  for (const auto& cell : cells) {
    result.rows.insert(result.rows.end(), cell.begin(), cell.end());
  }

  for (const std::vector<int>& vec : swept) {
    for (const int m : config.cores) {
      Fig11Summary summary;
      summary.units = units_label(vec);
      summary.unit_vector = vec;
      summary.m = m;
      std::vector<double> slacks, gains;
      for (const auto& row : result.rows) {
        if (row.unit_vector != vec || row.m != m) continue;
        summary.max_sim_over_bound =
            std::max(summary.max_sim_over_bound, row.max_sim_over_bound);
        summary.violations += row.violations;
        slacks.push_back(row.mean_slack_pct);
        gains.push_back(100.0 * (row.mean_bound_single - row.mean_bound) /
                        row.mean_bound_single);
      }
      if (!slacks.empty()) {
        summary.mean_slack_pct = stats::mean(slacks);
        summary.mean_bound_gain_pct = stats::mean(gains);
      }
      result.summaries.push_back(summary);
    }
  }
  return result;
}

}  // namespace hedra::exp
