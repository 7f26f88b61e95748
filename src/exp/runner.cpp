#include "exp/runner.h"

#include "util/rng.h"

namespace hedra::exp {

std::vector<std::uint64_t> batch_seeds(std::uint64_t master_seed,
                                       std::size_t count) {
  Rng master(master_seed);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(master.fork().next_u64());
  }
  return out;
}

std::vector<SweepPoint> make_grid(const GridSpec& spec) {
  const auto seeds = batch_seeds(spec.seed, spec.ratios.size());
  std::vector<SweepPoint> points;
  points.reserve(spec.ratios.size());
  for (std::size_t i = 0; i < spec.ratios.size(); ++i) {
    SweepPoint point;
    point.batch.params = spec.params;
    point.batch.coff_ratio = spec.ratios[i];
    point.batch.count = spec.dags_per_point;
    point.batch.seed = seeds[i];
    point.cores = spec.cores;
    point.ratio = spec.ratios[i];
    points.push_back(std::move(point));
  }
  return points;
}

Runner::Runner(int jobs)
    : pool_(jobs <= 0 ? ThreadPool::default_workers() : jobs) {}

}  // namespace hedra::exp
