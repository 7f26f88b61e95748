/// \file makespan_view_test.cpp
/// The makespan-only recorder path over arena views must make the exact
/// scheduling decisions of the trace-recording simulator: for every policy,
/// core count and unit vector, simulated_makespan(view) with validation off
/// equals simulate(FlatDag).makespan() on the same graph.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/experiment.h"
#include "gen/params.h"
#include "graph/flat_dag.h"
#include "sim/scheduler.h"
#include "util/error.h"

namespace hedra::sim {
namespace {

using exp::BatchConfig;
using graph::FlatDagBatch;

BatchConfig small_config(std::uint64_t seed, int devices) {
  BatchConfig config;
  config.params = gen::HierarchicalParams::small_tasks();
  config.params.min_nodes = 10;
  config.params.max_nodes = 60;
  if (devices > 0) {
    config.params.num_devices = devices;
    config.params.offloads_per_device = 2;
  }
  config.coff_ratio = 0.3;
  config.count = 6;
  config.seed = seed;
  return config;
}

TEST(MakespanViewTest, ViewMakespanEqualsTracedMakespan) {
  for (const int devices : {1, 2}) {
    const FlatDagBatch batch =
        exp::generate_flat_batch(small_config(51u + devices, devices));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // The reference simulator runs over a snapshot of the materialised
      // Dag — the legacy pipeline end to end.
      const graph::Dag dag = batch.materialize(i);
      const graph::FlatDag flat(dag);
      for (const Policy policy : all_policies()) {
        for (const int cores : {1, 2, 4}) {
          SimConfig config;
          config.cores = cores;
          config.policy = policy;
          config.seed = 97;  // kRandom consumes the same stream either way
          config.validate = false;
          const Time want = simulate(flat.view(), config).makespan();
          const Time got = simulated_makespan(batch.view(i), config);
          EXPECT_EQ(got, want)
              << "devices " << devices << " dag " << i << " policy "
              << to_string(policy) << " m " << cores;
        }
      }
    }
  }
}

TEST(MakespanViewTest, MultiUnitViewMakespanEqualsTracedMakespan) {
  BatchConfig config = small_config(4096, 2);
  const FlatDagBatch batch = exp::generate_flat_batch(config);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const graph::Dag dag = batch.materialize(i);
    const graph::FlatDag flat(dag);
    SimConfig sim_config;
    sim_config.cores = 2;
    sim_config.device_units = {2, 3};
    sim_config.validate = false;
    const Time want = simulate(flat.view(), sim_config).makespan();
    EXPECT_EQ(simulated_makespan(batch.view(i), sim_config), want)
        << "dag " << i;
  }
}

TEST(MakespanViewTest, ValidatedArenaRunPassesAndBrokenOneIsReported) {
  const FlatDagBatch batch = exp::generate_flat_batch(small_config(9, 1));
  const graph::FlatView view = batch.view(0);
  ASSERT_EQ(view.source(), nullptr);
  SimConfig config;
  config.cores = 2;
  config.validate = true;
  const std::uint64_t before = validation_runs();
  const ScheduleTrace trace = simulate(view, config);
  EXPECT_EQ(validation_runs(), before + 1);
  EXPECT_TRUE(trace.validate().empty());
  config.validate = false;
  EXPECT_EQ(simulated_makespan(view, config), trace.makespan());

  // The same schedule with node 0 run one tick long: reported by its
  // default label.
  ScheduleTrace broken(view, config.cores);
  for (Interval iv : trace.intervals()) {
    if (iv.node == 0) ++iv.finish;
    broken.add(iv);
  }
  ASSERT_EQ(view.kind(0), graph::NodeKind::kHost);
  EXPECT_EQ(broken.validate(),
            std::vector<std::string>{
                "node v1 ran for " + std::to_string(view.wcet(0) + 1) +
                " ticks, expected " + std::to_string(view.wcet(0))});
}

TEST(MakespanViewTest, ValidationOnDagBackedViewStillRuns) {
  const FlatDagBatch batch = exp::generate_flat_batch(small_config(9, 1));
  const graph::Dag dag = batch.materialize(0);
  const graph::FlatDag flat(dag);
  SimConfig config;
  config.cores = 2;
  config.validate = true;
  const std::uint64_t before = validation_runs();
  const Time makespan = simulated_makespan(flat.view(), config);
  EXPECT_GT(makespan, 0);
  EXPECT_EQ(validation_runs(), before + 1);
}

}  // namespace
}  // namespace hedra::sim
