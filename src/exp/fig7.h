#pragma once

/// \file fig7.h
/// Figure 7 (§5.3) — accuracy of the bounds against the true minimum
/// makespan: mean increment of R_hom(τ) and R_het(τ') over the optimal
/// makespan of τ on m cores + 1 accelerator, computed by the exact solver
/// (the paper used a CPLEX ILP; see DESIGN.md for the substitution).
/// The paper shows m = 2 with n ∈ [3, 20] and m = 8 with n ∈ [30, 60].

#include <cstdint>
#include <vector>

#include "exact/bnb.h"
#include "exp/experiment.h"

namespace hedra::exp {

/// One platform/size combination of the figure.
struct Fig7Case {
  int m = 2;
  int min_nodes = 3;
  int max_nodes = 20;
};

struct Fig7Config {
  std::vector<Fig7Case> cases = {{2, 3, 20}, {8, 30, 60}};
  std::vector<double> ratios = ratio_grid_fig7();
  gen::HierarchicalParams params = gen::HierarchicalParams::small_tasks();
  int dags_per_point = 25;
  std::uint64_t seed = 42;
  /// Solver budget, applied to every instance.
  exact::BnbConfig solver;
  /// Worker threads; <= 0 picks the hardware default.  Unlike the other
  /// figures, fig7 is only jobs-invariant if the solver runs without a
  /// wall-clock limit (time_limit_sec): a time-budgeted solve under CPU
  /// contention can close fewer instances, changing `optimal_fraction`.
  int jobs = 1;
};

/// One (case, ratio) cell.
struct Fig7Row {
  int m = 0;
  double ratio = 0.0;
  double incr_rhom_pct = 0.0;  ///< mean 100·(R_hom − OPT)/OPT
  double incr_rhet_pct = 0.0;  ///< mean 100·(R_het − OPT)/OPT
  double optimal_fraction = 1.0;  ///< share of instances proven optimal
};

struct Fig7Result {
  std::vector<Fig7Row> rows;
};

[[nodiscard]] Fig7Result run_fig7(const Fig7Config& config);

}  // namespace hedra::exp
