#include <gtest/gtest.h>

#include <string>

#include "common/fixtures.h"
#include "exact/bnb.h"
#include "obs/metrics.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "taskset/taskset.h"
#include "util/rng.h"

/// The determinism contract of the telemetry layer (ISSUE PR 10): enabling
/// metrics must not change a single analysis byte.  Recording never
/// consumes RNG streams, never takes locks on analysis hot paths, and
/// flushes only aggregate counters — so every result below is compared for
/// EXACT equality between a metrics-off and a metrics-on run.

namespace hedra {
namespace {

taskset::TaskSet contended_set() {
  taskset::TaskSetGenConfig config;
  config.num_tasks = 4;
  config.total_utilization = 2.0;
  config.dag_params.min_nodes = 8;
  config.dag_params.max_nodes = 20;
  config.dag_params.num_devices = 2;
  config.cores = 8;
  Rng rng(2024);
  return taskset::generate_task_set(config, rng);
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::reset_values();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_values();
  }
};

TEST_F(ObsDeterminismTest, ContentionRtaExplainIsByteIdentical) {
  const taskset::TaskSet set = contended_set();
  const taskset::ContentionAnalysis off = taskset::contention_rta(set);
  const std::string off_text = taskset::explain(off, set);

  obs::set_enabled(true);
  const taskset::ContentionAnalysis on = taskset::contention_rta(set);
  const std::string on_text = taskset::explain(on, set);

  EXPECT_EQ(off_text, on_text);
  EXPECT_EQ(off.schedulable, on.schedulable);
  EXPECT_EQ(off.cores_used, on.cores_used);
  EXPECT_EQ(off.telemetry.iterations, on.telemetry.iterations);
  EXPECT_EQ(off.telemetry.fixpoint_solves, on.telemetry.fixpoint_solves);
  // The enabled run actually flushed into the registry.
  EXPECT_EQ(obs::counter("taskset.rta.analyses").value(), 1u);
  EXPECT_EQ(obs::counter("taskset.rta.iterations").value(),
            on.telemetry.iterations);
}

graph::Dag search_forcing_dag();

TEST_F(ObsDeterminismTest, SequentialBnbIsByteIdentical) {
  const graph::Dag dag = search_forcing_dag();
  exact::BnbConfig config;
  config.jobs = 1;

  const exact::BnbResult off = exact::min_makespan(dag, 2, config);
  obs::set_enabled(true);
  const exact::BnbResult on = exact::min_makespan(dag, 2, config);

  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.nodes_explored, on.nodes_explored);
  EXPECT_EQ(off.proven_optimal, on.proven_optimal);
  EXPECT_EQ(off.stats.nodes, on.stats.nodes);
  EXPECT_EQ(off.stats.prune_incumbent, on.stats.prune_incumbent);
  EXPECT_EQ(off.stats.prune_bound, on.stats.prune_bound);
  EXPECT_EQ(off.stats.prune_energy, on.stats.prune_energy);
  EXPECT_EQ(exact::explain_search(off), exact::explain_search(on));
  // The flush happened exactly once (the metrics-on solve).
  EXPECT_EQ(obs::counter("exact.bnb.solves").value(), 1u);
  EXPECT_EQ(obs::counter("exact.bnb.nodes").value(), on.stats.nodes);
}

TEST_F(ObsDeterminismTest, EnergyPruneCountIsByteIdentical) {
  // Five sources of 10 before a sink of 10 on two cores: the tail-energy
  // term (35 at the root) cuts the subtrees that leave a core idle, which
  // path and area alone do not, on the way to proving 40.
  const graph::Dag dag = hedra::testing::fan_in(5, 10, 10);
  exact::BnbConfig config;
  config.jobs = 1;

  const exact::BnbResult off = exact::min_makespan(dag, 2, config);
  obs::set_enabled(true);
  const exact::BnbResult on = exact::min_makespan(dag, 2, config);

  ASSERT_GT(off.stats.prune_energy, 0u)
      << "fixture no longer exercises the energy term";
  EXPECT_EQ(off.stats.prune_energy, on.stats.prune_energy);
  EXPECT_EQ(off.nodes_explored, on.nodes_explored);
  EXPECT_EQ(exact::explain_search(off), exact::explain_search(on));
  EXPECT_EQ(obs::counter("exact.bnb.prune_energy").value(),
            on.stats.prune_energy);
  const std::string text = exact::explain_search(on);
  EXPECT_NE(text.find("prune_energy=" + std::to_string(on.stats.prune_energy)),
            std::string::npos);
}

/// A DAG the root bound cannot close: independent jobs {3, 3, 2} on m=2
/// have area bound 4 and chain bound 3, but no partition beats makespan 5
/// — the DFS must search the gap [4, 5) to prove 5 optimal, so the stats
/// are non-trivial.
graph::Dag search_forcing_dag() {
  graph::Dag dag;
  (void)dag.add_node(3);
  (void)dag.add_node(3);
  (void)dag.add_node(2);
  return dag;
}

TEST_F(ObsDeterminismTest, SearchStatsAreInternallyConsistent) {
  const graph::Dag dag = search_forcing_dag();
  exact::BnbConfig config;
  config.jobs = 1;
  const exact::BnbResult result = exact::min_makespan(dag, 2, config);
  ASSERT_GT(result.stats.nodes, 0u) << "fixture no longer forces a search";
  EXPECT_EQ(result.stats.nodes, result.nodes_explored);
  // Each cut ends one expanded node and is attributed to exactly one
  // incumbent kind; energy cuts are a subset of them.
  EXPECT_LE(result.stats.prune_energy,
            result.stats.prune_incumbent + result.stats.prune_bound);
  EXPECT_LE(result.stats.prune_incumbent + result.stats.prune_bound,
            result.stats.nodes);
  EXPECT_GE(result.stats.budget_polls, 1u);  // the first node polls
  const std::string text = exact::explain_search(result);
  EXPECT_NE(text.find("proven optimal"), std::string::npos);
  EXPECT_NE(text.find("search: nodes=" + std::to_string(result.stats.nodes)),
            std::string::npos);
  EXPECT_EQ(text.find("no search"), std::string::npos);
}

TEST_F(ObsDeterminismTest, RootBoundShortcutLeavesWorkerStatsEmpty) {
  // fig3 on m=2: the heuristic meets the root lower bound, no search runs,
  // so every search counter stays zero.
  const graph::Dag dag = hedra::testing::fig3_example().dag;
  exact::BnbConfig config;
  config.jobs = 1;
  const exact::BnbResult result = exact::min_makespan(dag, 2, config);
  ASSERT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.nodes_explored, 0u);
  EXPECT_EQ(result.stats.nodes, 0u);
  EXPECT_EQ(result.stats.prune_incumbent, 0u);
  EXPECT_EQ(result.stats.prune_bound, 0u);
  EXPECT_EQ(result.stats.prune_energy, 0u);
  EXPECT_EQ(result.stats.budget_polls, 0u);
  const std::string text = exact::explain_search(result);
  EXPECT_NE(text.find("no search"), std::string::npos);
}

TEST_F(ObsDeterminismTest, RtaTelemetryCountsThePaths) {
  const taskset::TaskSet set = contended_set();
  const taskset::ContentionAnalysis analysis = taskset::contention_rta(set);
  const taskset::FixpointTelemetry& t = analysis.telemetry;
  EXPECT_GT(t.fixpoint_solves, 0u);
  EXPECT_EQ(t.fixpoint_solves, t.int_path + t.frac_path);
  EXPECT_GE(t.iterations, t.fixpoint_solves);  // every solve iterates >= 1
  EXPECT_GE(t.seed_evals, t.fixpoint_solves);
  const std::string text = taskset::explain_fixpoint(analysis);
  EXPECT_NE(text.find("solves="), std::string::npos);
  EXPECT_NE(text.find("int_path="), std::string::npos);
}

}  // namespace
}  // namespace hedra
