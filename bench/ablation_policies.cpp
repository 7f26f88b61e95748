/// \file ablation_policies.cpp
/// Ablation bench (hedra design-choice study, not a paper figure):
///
/// 1. Scheduler-policy ablation.  Figure 6 uses GOMP's breadth-first policy;
///    here every work-conserving policy is run on τ and τ' to show how much
///    of the transformation's average-case benefit is scheduler-dependent.
///    A critical-path-first scheduler already avoids many of the bad
///    schedules that v_sync rules out, so the transformation's win shrinks.
///
/// 2. Analysis-variant ablation.  For the same instances: R_hom (Eq. 1),
///    R_het (Theorem 1), min(R_hom, R_het), the unsound naive subtraction
///    (§3.2, reported for reference only), and the chain bound of
///    analysis/platform_rta.h (at K = 1 the two-resource Graham argument).
///
/// Both ablations run on the exp::Runner engine (--jobs N fans the per-DAG
/// work out over a thread pool; output is identical for any N).

#include <array>
#include <iostream>
#include <vector>

#include "analysis/naive.h"
#include "analysis/platform_rta.h"
#include "exp/runner.h"
#include "sim/scheduler.h"
#include "stats/descriptive.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using hedra::analysis::AnalysisCache;
using hedra::exp::Runner;
using hedra::exp::SweepPoint;

const std::vector<double> kRatios{0.02, 0.10, 0.28, 0.50};

std::vector<SweepPoint> ratio_points(int dags, std::uint64_t seed,
                                     const std::vector<int>& cores,
                                     bool fork_seeds) {
  std::vector<SweepPoint> points;
  const auto seeds = hedra::exp::batch_seeds(seed, kRatios.size());
  for (std::size_t i = 0; i < kRatios.size(); ++i) {
    SweepPoint point;
    point.batch.params.min_nodes = 100;
    point.batch.params.max_nodes = 250;
    point.batch.coff_ratio = kRatios[i];
    point.batch.count = dags;
    // The analysis ablation reuses one seed across ratios on purpose: the
    // same underlying graphs at different C_off make the columns paired.
    point.batch.seed = fork_seeds ? seeds[i] : seed;
    point.cores = cores;
    point.ratio = kRatios[i];
    points.push_back(std::move(point));
  }
  return points;
}

void run_policy_ablation(int dags, std::uint64_t seed, int jobs) {
  const std::vector<hedra::sim::Policy> policies{
      hedra::sim::Policy::kBreadthFirst, hedra::sim::Policy::kDepthFirst,
      hedra::sim::Policy::kCriticalPathFirst,
      hedra::sim::Policy::kIndexOrder, hedra::sim::Policy::kRandom};
  struct Sample {
    std::array<double, 5> t_orig{};
    std::array<double, 5> t_trans{};
  };
  struct Row {
    double ratio;
    std::array<double, 5> avg_orig{};
    std::array<double, 5> avg_trans{};
  };

  Runner runner(jobs);
  const auto rows = runner.sweep(
      ratio_points(dags, seed, {8}, true),
      [&policies](AnalysisCache& cache, int m) {
        Sample s;
        for (std::size_t p = 0; p < policies.size(); ++p) {
          hedra::sim::SimConfig config;
          config.cores = m;
          config.policy = policies[p];
          // Monte-Carlo loop: share the cache's CSR snapshots of τ and τ'
          // across every policy and skip per-run trace validation.
          config.validate = false;
          s.t_orig[p] = static_cast<double>(
              hedra::sim::simulated_makespan(cache.flat_view(), config));
          s.t_trans[p] = static_cast<double>(hedra::sim::simulated_makespan(
              cache.transform().view(), config));
        }
        return s;
      },
      [](const SweepPoint& point, int, const std::vector<Sample>& samples) {
        Row row{point.ratio, {}, {}};
        for (const Sample& s : samples) {
          for (std::size_t p = 0; p < row.avg_orig.size(); ++p) {
            row.avg_orig[p] += s.t_orig[p] / samples.size();
            row.avg_trans[p] += s.t_trans[p] / samples.size();
          }
        }
        return row;
      });

  hedra::TextTable table(
      {"C_off/vol", "policy", "avg T(tau)", "avg T(tau')", "pct change"});
  for (const Row& row : rows) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      table.add_row({hedra::format_double(100.0 * row.ratio, 1) + "%",
                     hedra::sim::to_string(policies[p]),
                     hedra::format_double(row.avg_orig[p], 1),
                     hedra::format_double(row.avg_trans[p], 1),
                     hedra::format_percent(hedra::stats::percentage_change(
                                               row.avg_orig[p],
                                               row.avg_trans[p]),
                                           2)});
    }
    table.add_separator();
  }
  std::cout << "-- Scheduler-policy ablation (m = 8): does the "
               "transformation help under smarter schedulers? --\n"
            << table.render() << "\n";
}

void run_analysis_ablation(int dags, std::uint64_t seed, int jobs) {
  struct Sample {
    double hom, het, best, chain, naive;
  };
  struct Row {
    double ratio;
    int m;
    double hom = 0, het = 0, best = 0, chain = 0, naive = 0;
  };

  Runner runner(jobs);
  const auto rows = runner.sweep(
      ratio_points(dags, seed + 17, {2, 16}, false),
      [](AnalysisCache& cache, int m) {
        const double hom = cache.r_hom(m).to_double();
        const double het = cache.r_het(m).to_double();
        return Sample{
            hom, het, std::min(hom, het),
            hedra::analysis::rta_platform(cache.original(), m).to_double(),
            hedra::analysis::rta_naive_subtraction(cache.original(), m)
                .to_double()};
      },
      [](const SweepPoint& point, int m, const std::vector<Sample>& samples) {
        Row row{point.ratio, m};
        for (const Sample& s : samples) {
          row.hom += s.hom / samples.size();
          row.het += s.het / samples.size();
          row.best += s.best / samples.size();
          row.chain += s.chain / samples.size();
          row.naive += s.naive / samples.size();
        }
        return row;
      });

  hedra::TextTable table({"C_off/vol", "m", "R_hom", "R_het", "best",
                          "chain bound", "naive (UNSOUND)"});
  for (const Row& row : rows) {
    table.add_row({hedra::format_double(100.0 * row.ratio, 1) + "%",
                   std::to_string(row.m), hedra::format_double(row.hom, 1),
                   hedra::format_double(row.het, 1),
                   hedra::format_double(row.best, 1),
                   hedra::format_double(row.chain, 1),
                   hedra::format_double(row.naive, 1)});
  }
  std::cout << "-- Analysis-variant ablation (mean bound, lower is tighter; "
               "naive shown only to illustrate what unsoundness buys) --\n"
            << table.render() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  hedra::ArgParser parser("ablation_policies",
                          "hedra ablations: scheduler policies and analysis "
                          "variants");
  const auto* dags = parser.add_int("dags", 40, "DAGs per parameter point");
  const auto* seed = parser.add_int("seed", 42, "master RNG seed");
  const auto* jobs = parser.add_int(
      "jobs", 0, "worker threads (0 = all hardware threads)");
  try {
    if (!parser.parse(argc, argv)) return 0;
    std::cout << "== Ablation bench ==\n\n";
    run_policy_ablation(static_cast<int>(*dags),
                        static_cast<std::uint64_t>(*seed),
                        static_cast<int>(*jobs));
    run_analysis_ablation(static_cast<int>(*dags),
                          static_cast<std::uint64_t>(*seed),
                          static_cast<int>(*jobs));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
