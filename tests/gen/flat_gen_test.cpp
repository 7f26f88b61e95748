/// \file flat_gen_test.cpp
/// The arena generators are the only generator path: exp::generate_batch,
/// gen::generate_hierarchical and gen::generate_multi_device materialise
/// their DAGs from an arena.  Golden FNV-1a hashes pin the generated stream
/// twice over — the arena's CSR arrays, and the materialised Dags (labels,
/// kinds, devices, successor and predecessor order).  The materialised-Dag
/// goldens were taken from the legacy per-Dag pipeline these generators
/// replaced, so they prove the materialised Dags bit-identical to it.  Each
/// arena view must also agree with a FlatDag snapshot of its own
/// materialised Dag.

#include "gen/flat_gen.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "exp/experiment.h"
#include "gen/hierarchical.h"
#include "gen/multi_device.h"
#include "graph/dag_io.h"
#include "graph/flat_dag.h"

namespace hedra::gen {
namespace {

using exp::BatchConfig;
using graph::Dag;
using graph::FlatDag;
using graph::FlatDagBatch;
using graph::FlatView;
using graph::NodeId;

/// Element-wise equality of an arena view and a FlatDag snapshot.
void expect_view_equals_flat(const FlatView& view, const FlatDag& flat,
                             const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(view.num_nodes(), flat.num_nodes());
  ASSERT_EQ(view.num_edges(), flat.num_edges());
  EXPECT_EQ(view.max_device(), flat.max_device());
  EXPECT_EQ(view.num_offload_nodes(), flat.num_offload_nodes());
  for (NodeId v = 0; v < view.num_nodes(); ++v) {
    EXPECT_EQ(view.wcet(v), flat.wcet(v));
    EXPECT_EQ(view.device(v), flat.device(v));
    EXPECT_EQ(view.is_sync(v), flat.is_sync(v));
    ASSERT_TRUE(std::ranges::equal(view.successors(v), flat.successors(v)))
        << "successor list of node " << v;
    ASSERT_TRUE(
        std::ranges::equal(view.predecessors(v), flat.predecessors(v)))
        << "predecessor list of node " << v;
  }
  EXPECT_TRUE(std::ranges::equal(view.topological_order(),
                                 flat.topological_order()));
}

void expect_views_match_materialized(const FlatDagBatch& batch,
                                     const std::string& context) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Dag dag = batch.materialize(i);
    expect_view_equals_flat(batch.view(i), FlatDag(dag),
                            context + ", dag " + std::to_string(i));
  }
}

BatchConfig small_config(std::uint64_t seed, double ratio) {
  BatchConfig config;
  config.params = HierarchicalParams::small_tasks();
  config.params.min_nodes = 10;
  config.params.max_nodes = 60;
  config.coff_ratio = ratio;
  config.count = 8;
  config.seed = seed;
  return config;
}

/// The K = 2 batch with a skewed mix and per-device speedups.
BatchConfig mix_speedup_config() {
  BatchConfig config = small_config(4242, 0.4);
  config.params.num_devices = 2;
  config.params.offloads_per_device = 2;
  config.params.device_mix = {2.0, 1.0};
  config.params.device_speedup = {3.0, 1.5};
  return config;
}

/// FNV-1a over write_dag_text (labels, WCETs, kinds, devices, successor
/// order) plus every node's predecessor list, for each DAG in turn.
std::uint64_t dag_hash(const std::vector<Dag>& dags) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 1099511628211ULL;
  };
  for (const Dag& dag : dags) {
    for (const char c : graph::write_dag_text(dag)) {
      mix(static_cast<unsigned char>(c));
    }
    for (NodeId v = 0; v < dag.num_nodes(); ++v) {
      mix(dag.in_degree(v));
      for (const NodeId p : dag.predecessors(v)) mix(p);
    }
  }
  return h;
}

TEST(FlatGenTest, SingleOffloadBatchBitIdenticalToLegacy) {
  // The single offload node materialises as "vOff" with its predecessor
  // lists grouped by source.
  EXPECT_EQ(dag_hash(exp::generate_batch(small_config(42, 0.1))),
            8365139801959191763ULL);
  for (const std::uint64_t seed : {7ULL, 42ULL, 12345ULL}) {
    for (const double ratio : {0.1, 0.3}) {
      expect_views_match_materialized(
          exp::generate_flat_batch(small_config(seed, ratio)),
          "seed " + std::to_string(seed) + " ratio " + std::to_string(ratio));
    }
  }
}

TEST(FlatGenTest, MultiDeviceBatchBitIdenticalToLegacy) {
  std::vector<Dag> all;
  for (const int devices : {1, 2, 3}) {
    for (const int units : {1, 2}) {
      BatchConfig config = small_config(91u + devices, 0.3);
      config.params.num_devices = devices;
      config.params.offloads_per_device = 2;
      config.params.device_units.assign(devices, units);
      expect_views_match_materialized(exp::generate_flat_batch(config),
                                      "devices " + std::to_string(devices) +
                                          " units " + std::to_string(units));
      for (Dag& dag : exp::generate_batch(config)) {
        all.push_back(std::move(dag));
      }
    }
  }
  EXPECT_EQ(dag_hash(all), 11533395353513394323ULL);
}

TEST(FlatGenTest, MultiDeviceMixAndSpeedupBitIdenticalToLegacy) {
  EXPECT_EQ(dag_hash(exp::generate_batch(mix_speedup_config())),
            18168704034080184476ULL);
  expect_views_match_materialized(
      exp::generate_flat_batch(mix_speedup_config()), "mix+speedup");
}

TEST(FlatGenTest, RejectionLoopConsumesIdenticalStream) {
  // A narrow node window forces many rejected attempts; every one of them
  // consumes the stream, so the RNG must land on the pinned position.
  HierarchicalParams params = HierarchicalParams::small_tasks();
  params.min_nodes = 30;
  params.max_nodes = 34;
  Rng flat_rng(99);
  FlatDagBatch batch;
  generate_hierarchical_flat(params, flat_rng, batch);
  EXPECT_EQ(batch.num_nodes(0), 34u);
  EXPECT_EQ(flat_rng.next_u64(), 561437648765769457ULL);
  Rng dag_rng(99);
  const Dag dag = generate_hierarchical(params, dag_rng);
  EXPECT_EQ(dag_hash({dag}), 8460226927352907143ULL);
  EXPECT_EQ(dag_rng.next_u64(), 561437648765769457ULL);
}

TEST(FlatGenTest, HierarchicalFlatMatchesLegacyStructure) {
  const HierarchicalParams params = HierarchicalParams::large_tasks_100_250();
  Rng dag_rng(5);
  const Dag dag = generate_hierarchical(params, dag_rng);
  EXPECT_EQ(dag_hash({dag}), 6348168355503947846ULL);
  Rng flat_rng(5);
  FlatDagBatch batch;
  generate_hierarchical_flat(params, flat_rng, batch);
  expect_view_equals_flat(batch.view(0), FlatDag(dag), "plain hierarchical");
  EXPECT_EQ(dag_rng.next_u64(), flat_rng.next_u64());
}

TEST(FlatGenTest, MultiDeviceDagMatchesLegacyStream) {
  Rng rng(4242);
  const Dag dag =
      generate_multi_device(mix_speedup_config().params, 0.4, rng);
  EXPECT_EQ(dag.num_nodes(), 34u);
  EXPECT_EQ(dag_hash({dag}), 8970023882460925909ULL);
  EXPECT_EQ(rng.next_u64(), 10246067676933457225ULL);
}

/// FNV-1a over the structural arrays of every DAG of a batch — one number
/// that pins the whole generated stream.
std::uint64_t batch_hash(const FlatDagBatch& batch) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 1099511628211ULL;
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const FlatView view = batch.view(i);
    mix(view.num_nodes());
    mix(view.num_edges());
    for (NodeId v = 0; v < view.num_nodes(); ++v) {
      mix(static_cast<std::uint64_t>(view.wcet(v)));
      mix(view.device(v));
      for (const NodeId w : view.successors(v)) mix(w);
      for (const NodeId p : view.predecessors(v)) mix(p);
    }
    for (const NodeId v : view.topological_order()) mix(v);
  }
  return h;
}

TEST(FlatGenTest, GoldenBatchHashSingleOffload) {
  // Golden values: any change here is a seed-schema break and must be an
  // explicit, documented decision (DESIGN.md determinism contract).
  const FlatDagBatch batch = exp::generate_flat_batch(small_config(42, 0.1));
  EXPECT_EQ(batch_hash(batch), 10521195304060402351ULL);
}

TEST(FlatGenTest, GoldenBatchHashMultiDevice) {
  BatchConfig config = small_config(13, 0.3);
  config.params.num_devices = 2;
  config.params.offloads_per_device = 2;
  config.params.device_speedup = {2.0, 1.0};
  const FlatDagBatch batch = exp::generate_flat_batch(config);
  EXPECT_EQ(batch_hash(batch), 16074132588607916876ULL);
}

}  // namespace
}  // namespace hedra::gen
