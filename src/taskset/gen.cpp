#include "taskset/gen.h"

#include <cmath>

#include "gen/flat_gen.h"
#include "gen/uunifast.h"
#include "graph/critical_path.h"
#include "graph/flat_batch.h"

namespace hedra::taskset {

void TaskSetGenConfig::validate() const {
  HEDRA_REQUIRE(num_tasks >= 1, "task set needs at least one task");
  HEDRA_REQUIRE(total_utilization > 0.0, "total utilisation must be positive");
  HEDRA_REQUIRE(cores >= 1, "platform needs at least one host core");
  dag_params.validate();
  if (dag_params.num_devices > 0) {
    HEDRA_REQUIRE(coff_ratio > 0.0 && coff_ratio < 1.0,
                  "coff_ratio must lie strictly inside (0, 1) when devices "
                  "are populated");
  }
  HEDRA_REQUIRE(
      device_units.empty() ||
          device_units.size() ==
              static_cast<std::size_t>(dag_params.num_devices),
      "device_units must be empty or have one entry per device class");
  for (const int units : device_units) {
    HEDRA_REQUIRE(units >= 1, "device_units entries must be >= 1");
  }
}

model::Platform TaskSetGenConfig::platform() const {
  model::Platform platform =
      model::Platform::symmetric(cores, dag_params.num_devices);
  if (!device_units.empty()) platform.device_units = device_units;
  platform.validate();
  return platform;
}

TaskSet generate_task_set(const TaskSetGenConfig& config, Rng& rng) {
  config.validate();
  const auto utils =
      gen::uunifast(config.num_tasks, config.total_utilization, rng);
  TaskSet set(config.platform());
  // All tasks generate straight into ONE shared arena: period and deadline
  // derive from the flat arrays, and every task stays arena-backed — the
  // contention analysis and taskset simulator run off the CSR views, and a
  // Dag is only materialised if a consumer asks for one.
  auto arena = std::make_shared<graph::FlatDagBatch>();
  for (int i = 0; i < config.num_tasks; ++i) {
    Rng task_rng = rng.fork();
    if (config.dag_params.num_devices > 0) {
      gen::generate_multi_device_flat(config.dag_params, config.coff_ratio,
                                      task_rng, *arena);
    } else {
      gen::generate_hierarchical_flat(config.dag_params, task_rng, *arena);
    }
    const graph::FlatView view = arena->view(static_cast<std::size_t>(i));
    graph::Time total = 0;
    for (const graph::Time c : view.wcets()) total += c;
    // hedra-lint: allow(float-in-bound, UUniFast period sampling)
    const double u = utils[static_cast<std::size_t>(i)];
    // hedra-lint: allow(float-in-bound, UUniFast period sampling)
    const auto vol = static_cast<double>(total);
    const graph::Time len = graph::critical_path_length(view);
    const graph::Time period = std::max<graph::Time>(
        len, static_cast<graph::Time>(std::ceil(vol / u)));
    graph::Time deadline = period;
    if (!config.implicit_deadlines && period > len) {
      deadline = task_rng.uniform_int(len, period);
    }
    set.add(DagTask(arena, static_cast<std::size_t>(i), period, deadline,
                    "tau" + std::to_string(i + 1)));
  }
  set.validate();
  return set;
}

std::vector<TaskSet> generate_taskset_batch(const TaskSetGenConfig& config,
                                            int count, std::uint64_t seed) {
  HEDRA_REQUIRE(count >= 0, "batch count must be non-negative");
  Rng master(seed);
  std::vector<TaskSet> batch;
  batch.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    Rng set_rng = master.fork();
    batch.push_back(generate_task_set(config, set_rng));
  }
  return batch;
}

}  // namespace hedra::taskset
