#include "gen/params.h"

#include <cmath>

#include "util/error.h"

namespace hedra::gen {

HierarchicalParams HierarchicalParams::small_tasks() {
  HierarchicalParams p;
  p.max_depth = 3;
  p.n_par = 6;
  p.min_nodes = 3;
  p.max_nodes = 100;
  return p;
}

HierarchicalParams HierarchicalParams::large_tasks() {
  HierarchicalParams p;
  p.max_depth = 5;
  p.n_par = 8;
  p.min_nodes = 100;
  p.max_nodes = 400;
  return p;
}

HierarchicalParams HierarchicalParams::large_tasks_100_250() {
  HierarchicalParams p = large_tasks();
  p.max_nodes = 250;
  return p;
}

void HierarchicalParams::validate() const {
  HEDRA_REQUIRE(max_depth >= 1, "max_depth must be >= 1");
  HEDRA_REQUIRE(p_par >= 0.0 && p_par <= 1.0, "p_par must be in [0, 1]");
  HEDRA_REQUIRE(n_par >= 2, "n_par must be >= 2");
  HEDRA_REQUIRE(min_nodes >= 1 && max_nodes >= min_nodes,
                "node-count window [min_nodes, max_nodes] is empty");
  HEDRA_REQUIRE(wcet_min >= 1 && wcet_max >= wcet_min,
                "WCET window [wcet_min, wcet_max] is empty");
  HEDRA_REQUIRE(max_attempts >= 1, "max_attempts must be >= 1");
  HEDRA_REQUIRE(num_devices >= 0, "num_devices must be >= 0");
  HEDRA_REQUIRE(offloads_per_device >= 1, "offloads_per_device must be >= 1");
  HEDRA_REQUIRE(device_mix.empty() ||
                    device_mix.size() == static_cast<std::size_t>(num_devices),
                "device_mix must be empty or have one entry per device");
  // A zero share would let the weights sum to zero (a division by zero
  // in the volume split) or starve its device to the one-tick floor.
  for (const double share : device_mix) {
    HEDRA_REQUIRE(std::isfinite(share) && share > 0.0,
                  "device_mix shares must be finite and positive");
  }
  HEDRA_REQUIRE(
      device_units.empty() ||
          device_units.size() == static_cast<std::size_t>(num_devices),
      "device_units must be empty or have one entry per device");
  for (const int units : device_units) {
    HEDRA_REQUIRE(units >= 1, "device_units entries must be >= 1");
  }
  HEDRA_REQUIRE(
      device_speedup.empty() ||
          device_speedup.size() == static_cast<std::size_t>(num_devices),
      "device_speedup must be empty or have one entry per device");
  for (const double speedup : device_speedup) {
    HEDRA_REQUIRE(std::isfinite(speedup) && speedup > 0.0,
                  "device_speedup entries must be finite and positive");
  }
}

}  // namespace hedra::gen
