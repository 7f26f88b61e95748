#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gen/multi_device.h"
#include "graph/validate.h"
#include "util/rng.h"

namespace hedra {
namespace {

gen::HierarchicalParams test_params() {
  gen::HierarchicalParams params;
  params.min_nodes = 30;
  params.max_nodes = 120;
  return params;
}

/// `test_params()` with `devices` accelerator classes of `per_device`
/// offload nodes each.
gen::HierarchicalParams device_params(int devices, int per_device) {
  gen::HierarchicalParams params = test_params();
  params.num_devices = devices;
  params.offloads_per_device = per_device;
  return params;
}

TEST(MultiDeviceGenTest, PlacesDistinctInternalNodesOnEveryDevice) {
  Rng rng(1);
  const graph::Dag dag =
      gen::generate_multi_device(device_params(3, 2), 0.3, rng);
  EXPECT_EQ(dag.device_ids(), (std::vector<graph::DeviceId>{1, 2, 3}));
  EXPECT_EQ(dag.offload_nodes().size(), 6u);
  for (const graph::DeviceId device : dag.device_ids()) {
    const auto nodes = dag.nodes_on(device);
    EXPECT_EQ(nodes.size(), 2u) << "device " << device;
    for (const graph::NodeId v : nodes) {
      EXPECT_EQ(dag.kind(v), graph::NodeKind::kOffload);
      EXPECT_GT(dag.in_degree(v), 0u);
      EXPECT_GT(dag.out_degree(v), 0u);
    }
  }
}

TEST(MultiDeviceGenTest, SelectRejectsBadRequests) {
  Rng rng(2);
  EXPECT_THROW(
      (void)gen::generate_multi_device(device_params(0, 1), 0.3, rng), Error);
  EXPECT_THROW(
      (void)gen::generate_multi_device(device_params(1, 0), 0.3, rng), Error);
  // More placements than the node window leaves room for.
  EXPECT_THROW(
      (void)gen::generate_multi_device(device_params(20, 2), 0.3, rng), Error);
}

TEST(MultiDeviceGenTest, EvenSplitHitsTheTargetTotalRatio) {
  for (const double ratio : {0.05, 0.2, 0.4, 0.6}) {
    Rng rng(3);
    const graph::Dag dag =
        gen::generate_multi_device(device_params(2, 2), ratio, rng);
    const double realised =
        static_cast<double>(dag.volume() - dag.host_volume()) /
        static_cast<double>(dag.volume());
    EXPECT_NEAR(realised, ratio, 0.02) << "target " << ratio;
    // Even mix: device shares are balanced within rounding.
    EXPECT_NEAR(gen::device_ratio(dag, 1), gen::device_ratio(dag, 2), 0.02);
  }
}

/// Cumulative rounding spreads each device's budget over its nodes without
/// drift: a device realises exactly llround(budget) ticks, unless the
/// one-tick-per-node floor lifts it to its node count.  The per-device
/// breakdown therefore follows from the host volume alone, and sums to the
/// realised offloaded volume.
TEST(MultiDeviceGenTest, BreakdownMatchesRealisedVolumesAndSumsToTotal) {
  const std::vector<double> mix{5.0, 1.0, 0.001};
  for (const std::uint64_t seed : {8u, 9u, 10u}) {
    gen::HierarchicalParams params = device_params(3, 2);
    params.device_mix = mix;
    Rng rng(seed);
    const graph::Dag dag = gen::generate_multi_device(params, 0.35, rng);
    const double total =
        0.35 / 0.65 * static_cast<double>(dag.host_volume());
    const double weight_sum = mix[0] + mix[1] + mix[2];
    graph::Time sum = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const auto device = static_cast<graph::DeviceId>(i + 1);
      const auto floor =
          static_cast<graph::Time>(dag.nodes_on(device).size());
      const graph::Time expected = std::max<graph::Time>(
          floor, std::llround(total * mix[i] / weight_sum));
      EXPECT_EQ(dag.volume_on(device), expected) << "device " << device;
      sum += expected;
    }
    EXPECT_EQ(sum, dag.volume() - dag.host_volume());
  }
}

/// SATELLITE REGRESSION: a zero-weight mix previously divided by zero
/// (weight_sum == 0 → llround(NaN), undefined behaviour) and silently
/// starved devices; degenerate weights are now rejected up front.
TEST(MultiDeviceGenTest, RejectsZeroNegativeAndNonFiniteMixWeights) {
  const auto generate = [](std::vector<double> mix) {
    gen::HierarchicalParams params = device_params(2, 2);
    params.device_mix = std::move(mix);
    Rng rng(11);
    return gen::generate_multi_device(params, 0.3, rng);
  };
  EXPECT_THROW((void)generate({0.0, 0.0}), Error)
      << "all-zero weights divide by zero";
  EXPECT_THROW((void)generate({0.0, 1.0}), Error)
      << "a zero weight starves its device";
  EXPECT_THROW((void)generate({-1.0, 2.0}), Error);
  EXPECT_THROW(
      (void)generate({std::numeric_limits<double>::quiet_NaN(), 1.0}), Error);
  EXPECT_THROW(
      (void)generate({std::numeric_limits<double>::infinity(), 1.0}), Error);
  // Tiny but positive weights stay legal, and every node keeps the
  // documented floor of one tick, so a device with k offload nodes
  // realises at least k ticks even at near-zero weight.
  const graph::Dag dag = generate({1e-9, 1.0});
  for (const graph::DeviceId device : dag.device_ids()) {
    EXPECT_GE(dag.volume_on(device),
              static_cast<graph::Time>(dag.nodes_on(device).size()))
        << "device " << device;
  }
}

TEST(MultiDeviceGenTest, MixWeightsSkewTheDeviceShares) {
  gen::HierarchicalParams params = device_params(2, 1);
  params.device_mix = {3.0, 1.0};
  Rng rng(4);
  const graph::Dag dag = gen::generate_multi_device(params, 0.4, rng);
  const double r1 = gen::device_ratio(dag, 1);
  const double r2 = gen::device_ratio(dag, 2);
  EXPECT_NEAR(r1 / r2, 3.0, 0.5);
  EXPECT_NEAR(r1 + r2, 0.4, 0.02);
}

TEST(MultiDeviceGenTest, RatioRejectsBadInput) {
  Rng rng(5);
  EXPECT_THROW(
      (void)gen::generate_multi_device(device_params(2, 1), 0.0, rng), Error);
  EXPECT_THROW(
      (void)gen::generate_multi_device(device_params(2, 1), 1.0, rng), Error);
  gen::HierarchicalParams params = device_params(2, 1);
  params.device_mix = {1.0};
  EXPECT_THROW((void)gen::generate_multi_device(params, 0.3, rng), Error)
      << "mix size must match the devices present";
}

TEST(MultiDeviceGenTest, GeneratorProducesValidDeviceAnnotatedDags) {
  gen::HierarchicalParams params = test_params();
  params.num_devices = 3;
  params.offloads_per_device = 2;
  Rng master(6);
  graph::ValidationRules rules = graph::heterogeneous_rules();
  rules.required_offload_count = -1;
  for (int i = 0; i < 20; ++i) {
    Rng rng = master.fork();
    const graph::Dag dag = gen::generate_multi_device(params, 0.3, rng);
    EXPECT_TRUE(graph::is_valid(dag, rules));
    EXPECT_EQ(dag.device_ids().size(), 3u);
    EXPECT_EQ(dag.offload_nodes().size(), 6u);
    EXPECT_EQ(dag.max_device(), 3);
    const double realised = static_cast<double>(dag.volume() -
                                                dag.host_volume()) /
                            static_cast<double>(dag.volume());
    EXPECT_NEAR(realised, 0.3, 0.05);
  }
}

TEST(MultiDeviceGenTest, SpeedupScalesPerDeviceBudgets) {
  // Heterogeneous WCET scaling: a 2x device realises about half the
  // device-time volume of its unit-speed twin generated from the identical
  // RNG stream; unscaled devices are untouched.
  const gen::HierarchicalParams params = device_params(2, 2);
  gen::HierarchicalParams fast = params;
  fast.device_speedup = {2.0, 1.0};
  Rng a(31);
  Rng b(31);
  const graph::Dag plain = gen::generate_multi_device(params, 0.4, a);
  const graph::Dag scaled = gen::generate_multi_device(fast, 0.4, b);
  ASSERT_EQ(plain.num_nodes(), scaled.num_nodes());
  EXPECT_EQ(plain.nodes_on(1), scaled.nodes_on(1));
  EXPECT_NEAR(static_cast<double>(scaled.volume_on(1)),
              static_cast<double>(plain.volume_on(1)) / 2.0, 2.0);
  EXPECT_EQ(scaled.volume_on(2), plain.volume_on(2));
  EXPECT_EQ(scaled.host_volume(), plain.host_volume());
}

TEST(MultiDeviceGenTest, SpeedupRejectsDegenerateFactors) {
  const auto generate = [](std::vector<double> speedup) {
    gen::HierarchicalParams params = device_params(2, 1);
    params.device_speedup = std::move(speedup);
    Rng rng(32);
    return gen::generate_multi_device(params, 0.3, rng);
  };
  EXPECT_THROW((void)generate({1.0}), Error);  // one factor for two devices
  EXPECT_THROW((void)generate({0.0, 1.0}), Error);
  EXPECT_THROW((void)generate({-2.0, 1.0}), Error);
}

TEST(MultiDeviceGenTest, HierarchicalParamsValidateSpeedups) {
  gen::HierarchicalParams params = test_params();
  params.num_devices = 2;
  params.device_speedup = {2.0};  // one entry for two devices
  EXPECT_THROW(params.validate(), Error);
  params.device_speedup = {2.0, 0.0};
  EXPECT_THROW(params.validate(), Error);
  params.device_speedup = {2.0, 1.5};
  EXPECT_NO_THROW(params.validate());
}

TEST(MultiDeviceGenTest, GeneratorIsDeterministicPerSeed) {
  gen::HierarchicalParams params = test_params();
  params.num_devices = 2;
  Rng a(7);
  Rng b(7);
  const graph::Dag first = gen::generate_multi_device(params, 0.25, a);
  const graph::Dag second = gen::generate_multi_device(params, 0.25, b);
  ASSERT_EQ(first.num_nodes(), second.num_nodes());
  EXPECT_EQ(first.edges(), second.edges());
  for (graph::NodeId v = 0; v < first.num_nodes(); ++v) {
    EXPECT_EQ(first.wcet(v), second.wcet(v));
    EXPECT_EQ(first.device(v), second.device(v));
  }
}

}  // namespace
}  // namespace hedra
