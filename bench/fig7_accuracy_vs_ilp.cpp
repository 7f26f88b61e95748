/// \file fig7_accuracy_vs_ilp.cpp
/// Reproduces Figure 7 (§5.3): increment of R_hom(τ) and R_het(τ') over the
/// true minimum makespan of τ on m cores + 1 accelerator.  The paper used a
/// CPLEX ILP limited to small tasks; hedra uses its exact branch-and-bound
/// solver (see DESIGN.md), which proves optimality on these sizes.  The
/// "proven optimal" column reports the fraction of instances the solver
/// closed within its budget.
///
/// Paper shape: R_het pessimism starts high for tiny C_off (19%/54% above
/// the optimum for m=2/8) and decays below 1% once C_off reaches ~48%/24.5%
/// of vol; R_hom is more accurate only below ~3.1%/11.2%.

#include <iostream>

#include "exp/fig7.h"
#include "exp/report.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  hedra::ArgParser parser("fig7_accuracy_vs_ilp",
                          "Figure 7: bound accuracy vs. minimum makespan");
  const auto* dags = parser.add_int("dags", 20, "DAGs per parameter point");
  const auto* seed = parser.add_int("seed", 42, "master RNG seed");
  const auto* time_limit =
      parser.add_real("time-limit", 1.0, "solver seconds per instance");
  const auto* max_nodes =
      parser.add_int("solver-nodes", 300000, "solver node budget");
  const auto* csv = parser.add_string("csv", "", "also write results to CSV");
  const auto* jobs = parser.add_int(
      "jobs", 0, "worker threads (0 = all hardware threads)");
  try {
    if (!parser.parse(argc, argv)) return 0;

    hedra::exp::Fig7Config config;
    config.dags_per_point = static_cast<int>(*dags);
    config.seed = static_cast<std::uint64_t>(*seed);
    config.jobs = static_cast<int>(*jobs);
    config.solver.time_limit_sec = *time_limit;
    config.solver.max_nodes = static_cast<std::uint64_t>(*max_nodes);

    std::cout << "== Figure 7: increment of R_hom / R_het over the minimum "
                 "makespan (exact solver) ==\n"
              << "cases: m=2 n in [3,20]; m=8 n in [30,60]; " << *dags
              << " DAGs/point, seed " << *seed << "\n\n";
    const auto result = hedra::exp::run_fig7(config);
    std::cout << hedra::exp::render_fig7(result);
    if (!csv->empty()) {
      hedra::exp::write_fig7_csv(result, *csv);
      std::cout << "\nCSV written to " << *csv << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
