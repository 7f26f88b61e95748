#include "exact/list_heuristics.h"

namespace hedra::exact {

HeuristicResult best_heuristic_makespan(const graph::FlatDag& flat, int m,
                                        int random_tries) {
  HeuristicResult best;
  bool have = false;
  const auto consider = [&](sim::Policy policy, std::uint64_t seed) {
    sim::SimConfig config;
    config.cores = m;
    config.policy = policy;
    config.seed = seed;
    config.validate = false;  // hot path; the simulator is golden-pinned
    const graph::Time makespan = sim::simulated_makespan(flat.view(), config);
    if (!have || makespan < best.makespan) {
      best.makespan = makespan;
      best.policy = policy;
      have = true;
    }
  };
  consider(sim::Policy::kCriticalPathFirst, 1);
  consider(sim::Policy::kBreadthFirst, 1);
  consider(sim::Policy::kDepthFirst, 1);
  consider(sim::Policy::kIndexOrder, 1);
  for (int i = 0; i < random_tries; ++i) {
    consider(sim::Policy::kRandom, 0x9e3779b9u + static_cast<std::uint64_t>(i));
  }
  return best;
}

HeuristicResult best_heuristic_makespan(const graph::Dag& dag, int m,
                                        int random_tries) {
  const graph::FlatDag flat(dag);
  return best_heuristic_makespan(flat, m, random_tries);
}

}  // namespace hedra::exact
